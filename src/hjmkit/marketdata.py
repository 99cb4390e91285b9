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
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
        n = month_span(self.delivery_start, self.delivery_end)
        return [add_months(self.delivery_start, i) for i in range(n)]


@dataclass(frozen=True)
class RowIssue:
    """A rejected input row and the reason for rejection."""

    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


def parse_quotes(source) -> tuple[list[QuotedSwap], list[RowIssue]]:
    """Parse a quotes CSV into validated records plus a rejection report.

    ``source`` may be a path or an open text stream. The header must be
    exactly ``trading_date,market,delivery_start,delivery_end,price``.
    Malformed or invariant-violating rows are collected as RowIssue entries
    (1-based physical line numbers) instead of aborting the parse; a file
    with no valid header or no data rows raises ValidationError.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            return parse_quotes(fh)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("quotes file is empty") from None
    if [h.strip() for h in header] != QUOTES_HEADER:
        raise ValidationError(
            f"bad quotes header {header!r}; expected {','.join(QUOTES_HEADER)}"
        )

    quotes: list[QuotedSwap] = []
    issues: list[RowIssue] = []
    saw_rows = False
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        saw_rows = True
        if len(row) != 5:
            issues.append(RowIssue(line_no, f"expected 5 fields, got {len(row)}"))
            continue
        raw = [cell.strip() for cell in row]
        try:
            trading = date.fromisoformat(raw[0])
            start = date.fromisoformat(raw[2])
            end = date.fromisoformat(raw[3])
        except ValueError as exc:
            issues.append(RowIssue(line_no, f"bad date: {exc}"))
            continue
        try:
            price = float(raw[4])
        except ValueError:
            issues.append(RowIssue(line_no, f"bad price {raw[4]!r}"))
            continue
        try:
            quotes.append(QuotedSwap(raw[1], trading, start, end, price))
        except ValidationError as exc:
            issues.append(RowIssue(line_no, str(exc)))
    if not saw_rows:
        raise ValidationError("quotes file has a header but no data rows")
    return quotes, issues


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
    y = date(trading_date.year + offset, 1, 1)
    return [add_months(y, i) for i in range(12)]


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


def build_relative_panel(
    market: str,
    curves: Mapping[date, "StepwiseCurve"],  # noqa: F821 - curve module type
    tenor_labels: Sequence[str] | None = None,
) -> RelativePanel:
    """Assemble the rolling panel of one market from its per-date curves.

    Monthly tenors read the curve bucket directly; quarter and year tenors
    are delivery-weighted averages of their constituent monthly buckets and
    are present only when every constituent month is on the curve.

    A tenor's delivery months depend on the trading date only through its
    month, so they are looked up once per (trading month, label). A curve's
    months strictly increase, so a window is covered exactly when its first
    and last months are on the curve n - 1 buckets apart. Every cell keeps
    the bits of the weighted average np.dot(values, weights) / weights.sum():
    the monthly cells, one value and one weight each, are v * w / w in one
    array operation, and each quarter or year cell is one np.dot on the
    window's contiguous bucket slices.
    """
    if not curves:
        raise ValidationError("no curves supplied")
    labels = list(tenor_labels) if tenor_labels is not None else default_tenor_labels()
    dates = sorted(curves)
    width = len(labels)
    prices = np.full((len(dates), width), np.nan)
    windows: dict[date, list[tuple[int, date, date, int]]] = {}  # month -> (column, first, last, n)
    cells, at, values, weights = [], [], [], []  # monthly cells and their buckets, all curves end to end
    offset = 0
    for i, d in enumerate(dates):
        curve = curves[d]
        if curve.as_of != d:
            raise ValidationError(f"curve dated {curve.as_of} filed under {d}")
        spans = windows.get(month_start(d))
        if spans is None:
            spans = windows[month_start(d)] = [
                (j, months[0], months[-1], len(months))
                for j, months in enumerate(tenor_months(d, label) for label in labels)
            ]
        index = curve.index
        for j, first, last, n in spans:
            a = index.get(first)
            if a is None:
                continue
            if n == 1:
                cells.append(i * width + j)
                at.append(offset + a)
            elif index.get(last) == a + n - 1:
                w = curve.weights[a : a + n]
                prices[i, j] = float(np.dot(curve.values[a : a + n], w) / w.sum())
        values.append(curve.values)
        weights.append(curve.weights)
        offset += curve.values.size
    if cells:
        v, w = np.concatenate(values)[at], np.concatenate(weights)[at]
        prices.flat[cells] = v * w / w
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


def read_panel_csv(path, market: str) -> RelativePanel:
    """Inverse of write_panel_csv; the market is carried by the file name."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "date":
            raise ValidationError(f"{path}: not a panel file (missing date header)")
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
    if not dates:
        raise ValidationError(f"{path}: panel has no data rows")
    return RelativePanel(market, labels, dates, np.array(rows))
