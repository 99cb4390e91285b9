"""Quote ingestion, rolling relative panels and return diagnostics.

The raw market objects are swap quotes: a price for flat delivery of one
commodity over a whole calendar month, quarter or year. This module parses
and validates them, turns per-date monthly curves into panels of rolling
relative products (M0, M1, ..., Q1, ..., Y1, ...), computes roll-masked log
returns, and provides the statistical diagnostics used ahead of calibration
(outlier filtering, autocorrelation, distribution moments).

Conventions:

* Relative month M_h of trading date t is the calendar month h months after
  the month of t (M0 is the month containing t). Relative quarter Q_h is the
  h-th calendar quarter after the quarter of t, and Y_h the h-th calendar
  year after the year of t.
* A relative column rolls on the first trading date of each of its calendar
  periods: M columns roll at month changes, Q at quarter changes, Y at year
  changes. Log returns straddling a roll compare two different contracts and
  are therefore masked as missing, never returned as spikes.

The pipeline builds no StepwiseCurve per board: it keeps the board fits as
layout tables (_CurveTable: keys, bucket months, weights, a values row per
board) and builds every market's panel from them, a group of boards that
share a layout and a trading month at a time. build_relative_panel groups
the curves it is given into such tables and runs the same panel core.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dates import (
    add_months,
    add_quarters,
    is_month_end,
    is_month_start,
    month_span,
    month_start,
    quarter_start,
)
from .errors import ValidationError

QUOTES_HEADER = ["trading_date", "market", "delivery_start", "delivery_end", "price"]


@functools.lru_cache(maxsize=1024)  # a quote history has a few dozen windows
def classify_granularity(delivery_start: date, delivery_end: date) -> str:
    """Infer the product granularity from its delivery window.

    The window must span exactly one calendar month, one calendar-aligned
    quarter (starting January, April, July or October) or one calendar year.
    Each valid window is classified once; a rejected one raises every time.
    """
    if delivery_end < delivery_start:
        raise ValidationError("delivery_end precedes delivery_start")
    if not is_month_start(delivery_start):
        raise ValidationError("delivery_start is not the first day of a month")
    if not is_month_end(delivery_end):
        raise ValidationError("delivery_end is not the last day of a month")
    span = month_span(delivery_start, delivery_end)
    if span == 1:
        return "month"
    if span == 3:
        if delivery_start.month not in (1, 4, 7, 10):
            raise ValidationError("quarter delivery must start a calendar quarter")
        return "quarter"
    if span == 12:
        if delivery_start.month != 1:
            raise ValidationError("year delivery must start in January")
        return "year"
    raise ValidationError(f"delivery window spans {span} months; expected 1, 3 or 12")


@dataclass(frozen=True)
class QuotedSwap:
    """One market quote: flat delivery over a whole calendar period."""

    market: str
    trading_date: date
    delivery_start: date
    delivery_end: date
    price: float
    granularity: str = ""

    def __post_init__(self):
        if not self.market:
            raise ValidationError("market identifier is empty")
        if not (math.isfinite(self.price) and self.price > 0):
            raise ValidationError(f"price must be positive and finite, got {self.price}")
        inferred = classify_granularity(self.delivery_start, self.delivery_end)
        if self.granularity and self.granularity != inferred:
            raise ValidationError(
                f"granularity {self.granularity!r} inconsistent with window {inferred!r}"
            )
        if not self.granularity:
            object.__setattr__(self, "granularity", inferred)
        # Contracts stop trading once delivery has finished. The front
        # product still quotes during its own delivery month (it covers the
        # balance of the period), so the trading date may fall inside the
        # window but never after it.
        if self.trading_date > self.delivery_end:
            raise ValidationError("trading_date is after the end of delivery")

    @functools.cached_property
    def window_months(self) -> list[date]:
        """Month starts covered by the delivery window (built once per quote)."""
        return list(_window(self.delivery_start, self.delivery_end).months)


@dataclass(frozen=True)
class RowIssue:
    """A rejected input row and the reason for rejection."""

    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class _Window(NamedTuple):
    """One delivery window, classified once: bounds, granularity, month starts."""

    start: date
    end: date
    granularity: str
    months: tuple[date, ...]


def _window(start: date, end: date) -> _Window:
    """The window [start, end]; raises what classify_granularity raises."""
    granularity = classify_granularity(start, end)
    return _Window(
        start, end, granularity, tuple(add_months(start, i) for i in range(month_span(start, end)))
    )


@dataclass(frozen=True)
class _QuoteTable:
    """The valid quotes of a file as columns, in file order.

    ``markets``, ``dates`` and ``windows`` hold each distinct value once,
    sorted; ``market``, ``day`` and ``window`` hold each quote's codes into
    them, so ordering by codes orders by values.
    """

    markets: list[str]
    dates: list[date]
    windows: list[_Window]
    market: np.ndarray
    day: np.ndarray
    window: np.ndarray
    price: np.ndarray

    @classmethod
    def of(cls, quotes: Sequence[QuotedSwap]) -> _QuoteTable:
        """The quotes as a table, in their order."""
        markets, market = _coded([q.market for q in quotes])
        dates, day = _coded([q.trading_date for q in quotes])
        spans, window = _coded([(q.delivery_start, q.delivery_end) for q in quotes])
        price = np.array([q.price for q in quotes], dtype=float)
        return cls(markets, dates, [_window(*span) for span in spans], market, day, window, price)

    def __len__(self) -> int:
        return self.price.size

    def take(self, rows) -> _QuoteTable:
        """The quotes at ``rows`` (a mask or indices), coded as before."""
        return replace(
            self,
            market=self.market[rows],
            day=self.day[rows],
            window=self.window[rows],
            price=self.price[rows],
        )

    def quote(self, row: int) -> QuotedSwap:
        w = self.windows[self.window[row]]
        return QuotedSwap(
            self.markets[self.market[row]],
            self.dates[self.day[row]],
            w.start,
            w.end,
            float(self.price[row]),
            w.granularity,
        )


def _coded(values: list) -> tuple[list, np.ndarray]:
    """The distinct values, sorted, and each value's code into them."""
    distinct = sorted(set(values))
    code = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(code.__getitem__, values), np.intp, len(values))


def _column(cells: Sequence[str], parse) -> tuple[np.ndarray, list[str], list]:
    """Code a column by its stripped text, parsing each distinct text once.

    Returns (codes, texts, values): ``texts`` holds the distinct stripped
    texts, ``values`` each one parsed, or the ValueError that parse raised.
    """
    stripped = {cell: cell.strip() for cell in dict.fromkeys(cells)}
    texts = list(dict.fromkeys(stripped.values()))
    index = {text: i for i, text in enumerate(texts)}
    code = {cell: index[text] for cell, text in stripped.items()}
    values = []
    for text in texts:
        try:
            values.append(parse(text))
        except ValueError as exc:
            values.append(exc)
    return np.fromiter(map(code.__getitem__, cells), np.intp, len(cells)), texts, values


def _failed(values: list) -> np.ndarray:
    return np.array([isinstance(v, Exception) for v in values], dtype=bool)


def _ordinals(days: list) -> np.ndarray:
    """Each parsed date's ordinal; 1 (never read) where it did not parse."""
    return np.array([d.toordinal() if isinstance(d, date) else 1 for d in days], dtype=np.int64)


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each cell as a float (NaN where it does not parse) and the unparsed mask.

    Prices are mostly distinct, so they are parsed cell by cell, not coded.
    """
    try:
        return np.fromiter(map(float, cells), float, len(cells)), np.zeros(len(cells), dtype=bool)
    except ValueError:  # some cell does not parse: find which
        codes, _, values = _column(cells, float)
        unparsed = _failed(values)
        return np.array([math.nan if u else v for v, u in zip(values, unparsed)])[codes], unparsed[codes]


_ORDINAL_SPAN = date.max.toordinal() + 1  # window key: start ordinal * span + end ordinal


def _read_quotes(source) -> tuple[_QuoteTable, list[RowIssue]]:
    """Read a quotes CSV into a _QuoteTable of its valid rows, plus its issues.

    Each distinct date, market and window text is parsed or classified
    once. The checks run as array masks in the order parse_quotes states
    them, and a row gets the issue of the first check it fails.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", newline="") as fh:
                return _read_quotes(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"cannot decode quotes file {source}: {exc}") from None

    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise ValidationError("quotes file is empty")
    if [h.strip() for h in header] != QUOTES_HEADER:
        raise ValidationError(
            f"bad quotes header {header!r}; expected {','.join(QUOTES_HEADER)}"
        )
    rows = list(reader)
    five = np.fromiter(map(len, rows), np.intp, len(rows)) == 5
    issues = [
        RowIssue(i + 2, f"expected 5 fields, got {len(rows[i])}")
        for i in np.flatnonzero(~five).tolist()
        if any(cell.strip() for cell in rows[i])
    ]
    full = rows if five.all() else list(itertools.compress(rows, five))
    line = np.flatnonzero(five) + 2
    trading, market, start, end, price = zip(*full) if full else ((),) * 5
    t, _, t_day = _column(trading, date.fromisoformat)
    m, m_text, _ = _column(market, str)
    s, _, s_day = _column(start, date.fromisoformat)
    e, e_text, e_day = _column(end, date.fromisoformat)
    empty_m = np.array([not text for text in m_text], dtype=bool)
    maybe_blank = empty_m[m] & np.array([not text for text in e_text], dtype=bool)[e]
    ok = ~maybe_blank  # rows still valid; a blank row is skipped without an issue
    ok[maybe_blank] = [any(c.strip() for c in row) for row in itertools.compress(full, maybe_blank)]
    if not (issues or ok.any()):
        raise ValidationError("quotes file has a header but no data rows")

    def reject(bad: np.ndarray, message) -> None:
        """Record message(i) for each row i still valid in ``bad``."""
        issues.extend(RowIssue(int(line[i]), message(i)) for i in np.flatnonzero(ok & bad).tolist())
        ok[bad] = False

    def bad_date(i: int) -> str:
        exc = next(v for v in (t_day[t[i]], s_day[s[i]], e_day[e[i]]) if isinstance(v, ValueError))
        return f"bad date: {exc}"

    reject(_failed(t_day)[t] | _failed(s_day)[s] | _failed(e_day)[e], bad_date)
    value, unparsed = _floats(price)
    reject(unparsed, lambda i: f"bad price {price[i].strip()!r}")
    reject(empty_m[m], lambda i: "market identifier is empty")
    reject(
        ~(np.isfinite(value) & (value > 0)),
        lambda i: f"price must be positive and finite, got {float(value[i])}",
    )
    t_ord, e_ord = _ordinals(t_day)[t], _ordinals(e_day)[e]
    keys, w = np.unique(_ordinals(s_day)[s] * _ORDINAL_SPAN + e_ord, return_inverse=True)
    windows = []
    for key in keys.tolist():
        try:
            windows.append(_window(*map(date.fromordinal, divmod(key, _ORDINAL_SPAN))))
        except ValidationError as exc:
            windows.append(exc)
    reject(_failed(windows)[w], lambda i: str(windows[w[i]]))
    reject(t_ord > e_ord, lambda i: "trading_date is after the end of delivery")
    issues.sort(key=lambda issue: issue.line)

    kept = np.flatnonzero(ok)
    used_m = sorted(set(m[kept].tolist()), key=m_text.__getitem__)
    rank = np.zeros(len(m_text), dtype=np.intp)
    rank[used_m] = np.arange(len(used_m))
    days, day = np.unique(t_ord[kept], return_inverse=True)
    used_w, window = np.unique(w[kept], return_inverse=True)
    table = _QuoteTable(
        [m_text[c] for c in used_m],
        list(map(date.fromordinal, days.tolist())),
        [windows[k] for k in used_w.tolist()],
        rank[m[kept]],
        day,
        window,
        value[kept],
    )
    return table, issues


def parse_quotes(source) -> tuple[list[QuotedSwap], list[RowIssue]]:
    """Parse a quotes CSV into validated records plus a rejection report.

    ``source`` may be a path or an open text stream. The header must be
    exactly ``trading_date,market,delivery_start,delivery_end,price``.
    Malformed or invariant-violating rows are collected as RowIssue entries
    (1-based physical line numbers) instead of aborting the parse; a file
    with no valid header or no data rows raises ValidationError. A row is
    checked for its field count, then its three dates, its price text, its
    market, its price value, its window and its trading date, in that order.
    """
    table, issues = _read_quotes(source)
    return [table.quote(i) for i in range(len(table))], issues


# ---------------------------------------------------------------------------
# Relative panels
# ---------------------------------------------------------------------------


def default_tenor_labels(n_months: int = 24, n_quarters: int = 7, n_years: int = 2) -> list[str]:
    """Standard panel column set: M0..M{n-1}, Q1..Qn, Y1..Yn."""
    labels = [f"M{h}" for h in range(n_months)]
    labels += [f"Q{h}" for h in range(1, n_quarters + 1)]
    labels += [f"Y{h}" for h in range(1, n_years + 1)]
    return labels


def parse_tenor(label: str) -> tuple[str, int]:
    """Split a tenor label into (kind, offset); kind is 'M', 'Q' or 'Y'."""
    kind, digits = label[:1], label[1:]
    if kind not in ("M", "Q", "Y") or not digits.isdigit():
        raise ValidationError(f"bad tenor label {label!r}")
    offset = int(digits)
    if kind == "M" and offset < 0 or kind in ("Q", "Y") and offset < 1:
        raise ValidationError(f"bad tenor offset in {label!r}")
    return kind, offset


def tenor_months(trading_date: date, label: str) -> list[date]:
    """Delivery month starts of a relative tenor as of a trading date."""
    kind, offset = parse_tenor(label)
    if kind == "M":
        return [add_months(month_start(trading_date), offset)]
    if kind == "Q":
        q = add_quarters(trading_date, offset)
        return [add_months(q, i) for i in range(3)]
    year = trading_date.year + offset
    if year > 9999:  # offsets are positive
        raise ValidationError(f"tenor {label} as of {trading_date} delivers in year {year}, past 9999")
    return [add_months(date(year, 1, 1), i) for i in range(12)]


def _tenor_period_key(trading_date: date, kind: str):
    if kind == "M":
        return month_start(trading_date)
    if kind == "Q":
        return quarter_start(trading_date)
    return trading_date.year


@dataclass
class RelativePanel:
    """Rolling relative-product price matrix for one market.

    prices[i, j] is the value of tenor ``tenor_labels[j]`` on
    ``dates[i]``; NaN marks a gap (the monthly curve did not cover the
    tenor's delivery months on that date).
    """

    market: str
    tenor_labels: list[str]
    dates: list[date]
    prices: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.shape != (len(self.dates), len(self.tenor_labels)):
            raise ValidationError("panel shape does not match dates x tenors")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(len(self.dates) - 1)):
            raise ValidationError("panel dates must be strictly increasing")
        with np.errstate(invalid="ignore"):
            if np.any(self.prices[np.isfinite(self.prices)] <= 0):
                raise ValidationError("panel prices must be positive where present")

    def column(self, label: str) -> np.ndarray:
        return self.prices[:, self.tenor_labels.index(label)]


class _CurveTable(NamedTuple):
    """Curves on one bucket grid: shared months and weights, a values row each.

    ``rank`` places each row among all the curves a caller hands on (its
    panel row, or its place in curves.csv), so the rows of several tables
    are paneled or written in the caller's order. The pipeline keeps its
    board fits as such tables, one per layout; StepwiseCurve objects are
    built from a row only where a caller receives one.
    """

    keys: list[tuple[str, date]]  # (market, as_of) of each row
    rank: list[int]
    months: list[date]
    weights: np.ndarray
    values: np.ndarray  # rows x months


def _curve_tables(curves: Sequence["StepwiseCurve"]) -> list[_CurveTable]:  # noqa: F821
    """The curves grouped into tables of one grid (equal months and weight
    bits), each curve ranked by its position in ``curves``."""
    grids: dict[tuple, list[int]] = {}
    for i, curve in enumerate(curves):
        grids.setdefault((tuple(curve.months), curve.weights.tobytes()), []).append(i)
    tables = []
    for rows in grids.values():
        first = curves[rows[0]]
        tables.append(
            _CurveTable(
                [(curves[i].market, curves[i].as_of) for i in rows],
                rows,
                list(first.months),
                first.weights,
                np.array([curves[i].values for i in rows]),
            )
        )
    return tables


def _panel_prices(tables: Sequence[_CurveTable], labels: Sequence[str]) -> np.ndarray:
    """Panel prices of the curves of ``tables``, row r of a table at panel row rank[r].

    A tenor's delivery months depend on the trading date only through its
    month, so the rows of a table that share a trading month share every
    tenor's bucket columns and are done together. A curve's months strictly
    increase, so a window is covered exactly when its first and last months
    are on the grid n - 1 buckets apart. Every cell keeps the bits of the
    weighted average np.dot(values, weights) / weights.sum(): the monthly
    cells, one value and one weight each, are one gather computed as
    v * w / w, and each quarter or year cell is one stacked
    np.matmul(V[:, None, a:a+n], w[a:a+n, None]), np.dot row by row (a 2-D
    V @ w or an einsum sums in another order).
    """
    prices = np.full((sum(len(table.keys) for table in tables), len(labels)), np.nan)
    windows: dict[date, list[tuple[int, date, date, int]]] = {}  # month -> (column, first, last, n)
    for table in tables:
        col = {m: c for c, m in enumerate(table.months)}
        by_month: dict[date, list[int]] = {}
        for r, (_, as_of) in enumerate(table.keys):
            by_month.setdefault(month_start(as_of), []).append(r)
        w = table.weights
        for month, rows in by_month.items():
            spans = windows.get(month)
            if spans is None:
                spans = windows[month] = [
                    (j, months[0], months[-1], len(months))
                    for j, months in enumerate(tenor_months(month, label) for label in labels)
                ]
            at = [table.rank[r] for r in rows]
            cols, buckets = [], []  # the monthly cells
            for j, first, last, n in spans:
                a = col.get(first)
                if a is None:
                    continue
                if n == 1:
                    cols.append(j)
                    buckets.append(a)
                elif col.get(last) == a + n - 1:
                    wn = w[a : a + n]
                    dots = np.matmul(table.values[rows, None, a : a + n], wn[:, None])
                    prices[at, j] = dots[:, 0, 0] / wn.sum()
            if cols:
                v, wb = table.values[np.ix_(rows, buckets)], w[buckets]
                prices[np.ix_(at, cols)] = v * wb / wb
    return prices


def build_relative_panel(
    market: str,
    curves: Mapping[date, "StepwiseCurve"],  # noqa: F821 - curve module type
    tenor_labels: Sequence[str] | None = None,
) -> RelativePanel:
    """Assemble the rolling panel of one market from its per-date curves.

    Monthly tenors read the curve bucket directly; quarter and year tenors
    are delivery-weighted averages of their constituent monthly buckets and
    are present only when every constituent month is on the curve. The
    curves are grouped into tables of one bucket grid and paneled as the
    pipeline panels its board fits (see _panel_prices).
    """
    if not curves:
        raise ValidationError("no curves supplied")
    labels = list(tenor_labels) if tenor_labels is not None else default_tenor_labels()
    dates = sorted(curves)
    for d in dates:
        if curves[d].as_of != d:
            raise ValidationError(f"curve dated {curves[d].as_of} filed under {d}")
    prices = _panel_prices(_curve_tables([curves[d] for d in dates]), labels)
    return RelativePanel(market, labels, dates, prices)


# ---------------------------------------------------------------------------
# Log returns
# ---------------------------------------------------------------------------


@dataclass
class LogReturnMatrix:
    """Daily log returns of relative products, roll-masked, NaN for gaps."""

    values: np.ndarray
    column_keys: list[tuple[str, str]]
    dt: float
    dates: list[date] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_keys):
            raise ValidationError("return matrix shape does not match column keys")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.dates and len(self.dates) != self.values.shape[0]:
            raise ValidationError("return dates do not match row count")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    def column(self, market: str, tenor: str) -> np.ndarray:
        return self.values[:, self.column_keys.index((market, tenor))]


def log_returns(panel: RelativePanel, dt: float) -> LogReturnMatrix:
    """Roll-masked log returns of a relative panel.

    The return between consecutive panel dates is masked for a column when
    the dates sit in different calendar periods of the column's kind (the
    contract behind the label changed), or when either price is missing.
    Columns with no computable return at all are dropped with a warning.
    Each tenor kind's roll mask is built once per panel and shared by the
    columns of that kind.
    """
    if len(panel.dates) < 2:
        raise ValidationError("panel needs at least two dates for returns")
    rolls: dict[str, np.ndarray] = {}  # kind -> True where return i straddles a roll
    cols, keys = [], []
    for j, label in enumerate(panel.tenor_labels):
        kind, _ = parse_tenor(label)
        if kind not in rolls:
            period = [_tenor_period_key(d, kind) for d in panel.dates]
            rolls[kind] = np.array([a != b for a, b in zip(period, period[1:])])
        p = panel.prices[:, j]
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.log(p[1:] / p[:-1])
        r[rolls[kind]] = np.nan
        if not np.isfinite(r).any():
            warnings.warn(
                f"dropping column {panel.market}:{label}: no valid consecutive prices",
                stacklevel=2,
            )
            continue
        cols.append(r)
        keys.append((panel.market, label))
    if not cols:
        raise ValidationError("no column produced any valid return")
    values = np.column_stack(cols)
    return LogReturnMatrix(values, keys, dt, dates=panel.dates[1:])


def combine_log_returns(matrices: Sequence[LogReturnMatrix]) -> LogReturnMatrix:
    """Join per-market return matrices on their common dates."""
    if not matrices:
        raise ValidationError("nothing to combine")
    if len({m.dt for m in matrices}) != 1:
        raise ValidationError("return matrices disagree on dt")
    if any(not m.dates for m in matrices):
        raise ValidationError("return matrices need date metadata to combine")
    common = set(matrices[0].dates)
    for m in matrices[1:]:
        common &= set(m.dates)
    if not common:
        raise ValidationError("return matrices share no dates")
    dates = sorted(common)
    blocks, keys = [], []
    for m in matrices:
        row = {d: i for i, d in reversed(list(enumerate(m.dates)))}  # a repeated date's first row
        rows = [row[d] for d in dates]
        blocks.append(m.values[rows, :])
        keys.extend(m.column_keys)
    return LogReturnMatrix(np.hstack(blocks), keys, matrices[0].dt, dates=dates)


def filter_outliers(
    returns: LogReturnMatrix, k: float = 3.0
) -> tuple[LogReturnMatrix, dict[tuple[str, str], int]]:
    """Iteratively blank entries farther than k sample deviations from the mean.

    Per column: compute mean and sample standard deviation over present
    entries, replace entries with |x - mean| > k * std by NaN, and repeat
    until nothing moves. Applying the filter to its own output changes
    nothing. Returns the filtered copy and per-column removal counts.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValidationError("outlier threshold k must be positive")
    values = returns.values.copy()
    removed: dict[tuple[str, str], int] = {}
    for j, key in enumerate(returns.column_keys):
        col = values[:, j]
        count = 0
        while True:
            present = np.isfinite(col)
            if present.sum() < 2:
                break
            m = col[present].mean()
            s = col[present].std(ddof=1)
            if s == 0:
                break
            bad = present & (np.abs(col - m) > k * s)
            if not bad.any():
                break
            col[bad] = np.nan
            count += int(bad.sum())
        removed[key] = count
    return (
        LogReturnMatrix(values, list(returns.column_keys), returns.dt, dates=list(returns.dates)),
        removed,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def acf(series, max_lag: int) -> np.ndarray:
    """Autocorrelation for lags 0..max_lag.

    ACF(k) = sum_{i=1..n-k} (x_i - m)(x_{i+k} - m) / ((n - k) * v), with m
    and v the full-sample mean and population variance. Lag 0 is exactly 1.
    """
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 2:
        raise ValidationError("series too short for autocorrelation")
    if not np.isfinite(x).all():
        raise ValidationError("series contains missing values; filter first")
    if not 0 <= max_lag < x.size:
        raise ValidationError("max_lag must satisfy 0 <= max_lag < n")
    m = x.mean()
    v = np.mean((x - m) ** 2)
    if v == 0:
        raise ValidationError("series is constant; autocorrelation undefined")
    d = x - m
    n = x.size
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(d[: n - k], d[k:]) / ((n - k) * v)
    return out


@dataclass(frozen=True)
class DistributionMoments:
    """Location, scale and shape summary of a return sample."""

    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    n_obs: int


def normality_diagnostics(values) -> DistributionMoments:
    """Mean, sample std, skewness and excess kurtosis of a column.

    Skewness and kurtosis use the plain (population) central-moment ratios.
    Missing entries are ignored; a constant or near-empty sample is an error.
    """
    x = np.asarray(values, dtype=float).ravel()
    x = x[np.isfinite(x)]
    if x.size < 2:
        raise ValidationError("need at least two observations")
    m = x.mean()
    c = x - m
    m2 = np.mean(c**2)
    if m2 == 0:
        raise ValidationError("sample is constant; shape moments undefined")
    skew = float(np.mean(c**3) / m2**1.5)
    exkurt = float(np.mean(c**4) / m2**2 - 3.0)
    return DistributionMoments(float(m), float(x.std(ddof=1)), skew, exkurt, int(x.size))


# ---------------------------------------------------------------------------
# Panel serialization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)  # a run writes a few markets and labels many times
def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row: quoted only when needed.

    The artifact writers build each row as one string; their text fields
    (markets, labels) go through this once, so they keep the csv dialect's
    quoting without a csv.writer call per row.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def write_panel_csv(panel: RelativePanel, path) -> RelativePanel:
    """Dates as rows, tenor labels as columns, empty cells for gaps.

    Returns the panel as read_panel_csv reads the file back: each present
    price through its 10-digit text, each gap (any non-finite price) NaN,
    the labels and dates kept. Each cell is formatted once for both.
    """
    cells = [[f"{v:.10g}" if math.isfinite(v) else "" for v in row] for row in panel.prices.tolist()]
    header = ",".join(["date", *map(_csv_field, panel.tenor_labels)])
    rows = [",".join([d.isoformat(), *row]) for d, row in zip(panel.dates, cells)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{line}\n" for line in [header, *rows]))
    prices = np.array([[float(c) if c else math.nan for c in row] for row in cells], dtype=float)
    return RelativePanel(
        panel.market, list(panel.tenor_labels), list(panel.dates), prices.reshape(panel.prices.shape)
    )


def _require_unique_columns(path, header: list[str]) -> None:
    """A repeated column name would silently be read as one of its columns."""
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated column name(s) {', '.join(repeated)}")


def read_panel_csv(path, market: str) -> RelativePanel:
    """Inverse of write_panel_csv; the market is carried by the file name."""
    try:
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "date":
                raise ValidationError(f"{path}: not a panel file (missing date header)")
            _require_unique_columns(path, header)
            labels = header[1:]
            for label in labels:
                parse_tenor(label)
            dates: list[date] = []
            rows: list[list[float]] = []
            for rec in reader:
                if not rec:
                    continue
                where = f"{path}: line {reader.line_num}"
                if len(rec) != len(header):
                    raise ValidationError(
                        f"{where}: row has {len(rec)} fields, header has {len(header)}"
                    )
                try:
                    dates.append(date.fromisoformat(rec[0]))
                except ValueError as exc:
                    raise ValidationError(f"{where}: bad date {rec[0]!r}") from exc
                try:
                    rows.append([float(v) if v else math.nan for v in rec[1:]])
                except ValueError as exc:
                    raise ValidationError(f"{where}: bad price ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot decode panel file {path}: {exc}") from None
    if not dates:
        raise ValidationError(f"{path}: panel has no data rows")
    try:
        return RelativePanel(market, labels, dates, np.array(rows))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
