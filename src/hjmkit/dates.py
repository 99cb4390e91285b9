"""Calendar-month helpers.

All delivery periods in this package are whole calendar months, so the only
date arithmetic needed is month shifting, month spans and day counts. The
day counts and month shifts are memoized: a quote history asks for the same
few hundred months over and over.
"""

from __future__ import annotations

import calendar
import functools
from datetime import date

from .errors import ValidationError


@functools.cache  # at most 12 entries per calendar year
def _month_days(year: int, month: int) -> int:
    return calendar.monthrange(year, month)[1]


def month_start(d: date) -> date:
    return d.replace(day=1)


def month_end(d: date) -> date:
    return d.replace(day=_month_days(d.year, d.month))


def is_month_start(d: date) -> bool:
    return d.day == 1


def is_month_end(d: date) -> bool:
    return d.day == _month_days(d.year, d.month)


@functools.lru_cache(maxsize=1 << 14)  # bounded: its keys are arbitrary dates
def add_months(d: date, n: int) -> date:
    """Shift a month-start date by n whole months, within years 1-9999."""
    total = d.year * 12 + (d.month - 1) + n
    if not 12 <= total < 120000:
        raise ValidationError(f"{d} shifted by {n} months leaves the calendar's years 1-9999")
    return date(total // 12, total % 12 + 1, 1)


def months_between(start: date, end: date) -> int:
    """Whole months from the month of start to the month of end."""
    return (end.year - start.year) * 12 + (end.month - start.month)


def days_in_month(d: date) -> int:
    return _month_days(d.year, d.month)


def month_span(start: date, end: date) -> int:
    """Number of calendar months in the inclusive window [start, end]."""
    return months_between(start, end) + 1


def quarter_start(d: date) -> date:
    return date(d.year, 3 * ((d.month - 1) // 3) + 1, 1)


def add_quarters(d: date, n: int) -> date:
    return add_months(quarter_start(d), 3 * n)
