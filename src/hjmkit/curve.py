"""Monthly forward-curve bootstrap from overlapping swap quotes.

One trading date's quotes for a market (months, quarters, years) are turned
into a stepwise monthly curve: each quoted product pins the day-count
weighted average of the monthly buckets it covers. The system is made
determinate with two rules taken in order:

1. Granularity dominance: a coarse product whose window is exactly covered
   by quoted finer products is redundant and removed; its quote must still
   be consistent with the curve (checked through the residual report).
2. Flat fill: within each retained coarse product, buckets already set by
   finer products keep their value, and all remaining buckets of the window
   share one common value chosen so the weighted average matches the quote.

Buckets covered by no product are simply absent from the curve.

A whole quote history is fitted at once, board by board within each layout
(the ordered quote windows a board shares with others). The pipeline keeps
the fits as layout tables, each holding its boards' keys, bucket months,
weights, one values row per board, residuals and counts, and writes
curves.csv and curve_report.csv from them with one row template per layout.
A StepwiseCurve is built from a table row only where a caller receives one:
each market's latest board for simulate and price, bootstrap_boards and
bootstrap_monthly_curve. write_curve_csv groups the curves it is given into
tables of one bucket grid and writes them through the same writer.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dates import add_months, days_in_month, month_end, month_start
from .errors import HjmkitError, InfeasibleCurveError, ValidationError
from .marketdata import (
    QuotedSwap,
    _CurveTable,
    _QuoteTable,
    _Window,
    _csv_field,
    _curve_tables,
    _require_unique_columns,
)

RESIDUAL_TOL = 1e-9

_GRAN_ORDER = {"month": 0, "quarter": 1, "year": 2}


@functools.lru_cache(maxsize=256)  # a quote history has a few dozen bucket sets
def _bucket_index(months: tuple[date, ...]) -> dict[date, int]:
    """Position of each bucket, validated once per distinct bucket set."""
    # one integer per bucket, ordered as the dates are: month ordinal * 32 + day
    stamp = np.array([(m.year * 12 + m.month) * 32 + m.day for m in months], dtype=np.int64)
    if np.any(stamp % 32 != 1):
        raise ValidationError("curve buckets must start on month starts")
    if np.any(stamp[1:] <= stamp[:-1]):
        raise ValidationError("curve months must be strictly increasing")
    return dict(zip(months, range(len(months))))


@dataclass
class StepwiseCurve:
    """Piecewise-flat monthly curve: one value per calendar-month bucket.

    ``months`` holds the ordered bucket start dates (each bucket spans its
    calendar month); gaps are allowed where no quote covered the month.
    ``weights`` are the day counts used as delivery weights.
    """

    market: str
    as_of: date
    months: list[date]
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (len(self.months) == self.values.size == self.weights.size):
            raise ValidationError("curve months, values and weights must align")
        self.index = _bucket_index(tuple(self.months)).copy()
        if self.values.size and not (self.values.min() > 0 and self.values.max() < math.inf):
            raise ValidationError("curve values must be positive and finite")
        if self.weights.size and not self.weights.min() > 0:
            raise ValidationError("curve weights must be positive")

    def value_at(self, month: date) -> float:
        return float(self.values[self.index[month]])

    def weight_at(self, month: date) -> float:
        return float(self.weights[self.index[month]])

    def covers(self, months: Sequence[date]) -> bool:
        return all(m in self.index for m in months)

    def average(self, months: Sequence[date]) -> float:
        """Day-count weighted average over the given buckets."""
        idx = [self.index[m] for m in months]
        w = self.weights[idx]
        return float(np.dot(self.values[idx], w) / w.sum())


@dataclass(frozen=True)
class FillGroup:
    """Buckets that received one common flat value from a coarse quote."""

    product: QuotedSwap
    months: tuple[date, ...]
    value: float


@dataclass
class BootstrapReport:
    """What a fit removed, filled and left as residuals.

    ``residuals`` has one entry per distinct window; ``max_quote_residual``
    is the largest residual over every quote of the board, duplicates
    included, as verify_no_arbitrage measures it on the untruncated curve.
    """

    removed: list[QuotedSwap] = field(default_factory=list)
    residuals: list[tuple[QuotedSwap, float]] = field(default_factory=list)
    fill_groups: list[FillGroup] = field(default_factory=list)
    max_quote_residual: float = 0.0

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


class _LayoutPlan:
    """The part of a board's fit that its quote windows alone decide.

    Boards with the same layout (the ordered tuple of quote windows) share
    one plan; only their prices differ. The plan holds the duplicate pairs,
    the dominance removals, the fill order with each fill's determined and
    undetermined buckets, the bucket day weights, and the quotes x buckets
    day-weight matrix that gives every window average in one product.
    """

    def __init__(self, windows: Sequence[_Window]):
        first: dict[_Window, int] = {}
        self.dup_pairs: list[tuple[int, int]] = []  # (first, later), later ascending
        self.kept: list[int] = []
        for i, w in enumerate(windows):
            j = first.setdefault(w, i)
            if j == i:
                self.kept.append(i)
            else:
                self.dup_pairs.append((j, i))

        # Granularity dominance: strictly finer quoted windows covering a
        # coarse window make the coarse quote redundant.
        finer_cover: dict[str, set[date]] = {"quarter": set(), "year": set()}
        for i in self.kept:
            w = windows[i]
            if w.granularity == "month":
                finer_cover["quarter"].update(w.months)
                finer_cover["year"].update(w.months)
            elif w.granularity == "quarter":
                finer_cover["year"].update(w.months)
        self.removed: list[int] = []
        retained = []
        for i in self.kept:
            w = windows[i]
            if w.granularity != "month" and all(m in finer_cover[w.granularity] for m in w.months):
                self.removed.append(i)
            else:
                retained.append(i)

        month_quotes = [i for i in retained if windows[i].granularity == "month"]
        determined = {windows[i].start for i in month_quotes}
        # Coarse products from fine to coarse; same-granularity windows are
        # disjoint so the order within a granularity does not matter.
        fill_order = sorted(
            (i for i in retained if windows[i].granularity != "month"),
            key=lambda i: (_GRAN_ORDER[windows[i].granularity], windows[i].start),
        )
        # Every fill finds an undetermined bucket: calendar windows of one
        # granularity are equal or disjoint, so a retained coarse window
        # whose buckets were all set by finer fills or month quotes would be
        # covered by finer quotes and dominance would have removed it.
        fills = []  # (quote, pinned months, total weight, undetermined months)
        for i in fill_order:
            window = windows[i].months
            undetermined = tuple(m for m in window if m not in determined)
            pinned = [m for m in window if m in determined]
            fills.append((i, pinned, sum(float(days_in_month(m)) for m in window), undetermined))
            determined.update(undetermined)

        self.months = sorted(determined)
        col = {m: c for c, m in enumerate(self.months)}
        self.weights = np.array([float(days_in_month(m)) for m in self.months])
        self.month_cols = [(i, col[windows[i].start]) for i in month_quotes]
        self.fills = [
            _Fill(
                i,
                tuple((col[m], float(days_in_month(m))) for m in pinned),
                total_w,
                np.array([col[m] for m in undetermined], dtype=np.intp),
                sum(float(days_in_month(m)) for m in undetermined),
                undetermined,
            )
            for i, pinned, total_w, undetermined in fills
        ]
        self.day_weights = np.zeros((len(windows), len(self.months)))
        for i, w in enumerate(windows):
            for m in w.months:
                self.day_weights[i, col[m]] = float(days_in_month(m))
        self.window_days = self.day_weights.sum(axis=1)


class _Fill(NamedTuple):
    """One retained coarse quote's flat fill, in fill order."""

    quote: int
    pinned: tuple[tuple[int, float], ...]  # (bucket column, day weight) in window order
    total_w: float
    open_cols: np.ndarray  # buckets the flat value goes to
    open_w: float
    open_months: tuple[date, ...]


class _LayoutFit(NamedTuple):
    """The boards of one layout fitted as arrays, one row per board."""

    values: np.ndarray  # boards x plan.months
    flats: np.ndarray  # boards x plan.fills
    resid: np.ndarray  # boards x quotes, relative residuals
    failures: dict[int, HjmkitError]  # row -> its first error


def _fit_layout(
    plan: _LayoutPlan, prices: np.ndarray, board: Callable[[int], Sequence[QuotedSwap]]
) -> _LayoutFit:
    """Fit every board of one layout, ``prices`` holding one row per board.

    Each flat fill repeats the per-quote arithmetic of a single board
    column by column (``pinned`` summed left to right in window order), so
    every curve value has the bits a one-board fit gives it. A board's first
    failure, in the order a single fit meets them, is recorded; board(b),
    board b's quotes, is asked for only to name a failure.
    """
    alive = np.ones(len(prices), dtype=bool)
    failures: dict[int, HjmkitError] = {}

    def fail(bad: np.ndarray, error) -> None:
        """Record error(b, quotes) for each live board b in ``bad``."""
        for b in np.flatnonzero(bad & alive).tolist():
            failures[b] = error(b, board(b))
        alive[bad] = False

    for j, i in plan.dup_pairs:
        prev = prices[:, j]
        fail(
            np.abs(prev - prices[:, i]) > RESIDUAL_TOL * np.maximum(1.0, np.abs(prev)),
            lambda b, qs: InfeasibleCurveError(
                f"conflicting quotes for window {qs[j].delivery_start}..{qs[j].delivery_end}: "
                f"{qs[j].price} vs {qs[i].price}",
                conflicts=[qs[j], qs[i]],
            ),
        )

    values = np.full((len(prices), len(plan.months)), np.nan)
    flats = np.empty((len(prices), len(plan.fills)))
    for i, c in plan.month_cols:
        values[:, c] = prices[:, i]
    with np.errstate(all="ignore"):  # failed boards may overflow; they are masked
        for k, f in enumerate(plan.fills):
            pinned = 0.0
            for c, w in f.pinned:
                pinned = pinned + w * values[:, c]
            flat = (prices[:, f.quote] * f.total_w - pinned) / f.open_w
            q = f.quote
            fail(
                ~(np.isfinite(flat) & (flat > 0)),
                lambda b, qs: InfeasibleCurveError(
                    f"quote {qs[q].granularity} {qs[q].delivery_start} at {qs[q].price} implies "
                    f"non-positive forward {float(flat[b]):.6g} for its unquoted months",
                    conflicts=[qs[q]],
                ),
            )
            values[:, f.open_cols] = flat[:, None]
            flats[:, k] = flat

        # Exactness check on everything, including removed quotes: a
        # redundant coarse quote inconsistent with its finer cover is an
        # arbitrage. Duplicates get a residual too but, as copies of a
        # checked window, raise only through the conflict check.
        resid = np.abs((values @ plan.day_weights.T) / plan.window_days - prices) / prices
    over = resid[:, plan.kept] > RESIDUAL_TOL
    fail(
        over.any(axis=1),
        lambda b, qs: InfeasibleCurveError(
            "quote system is inconsistent; residual exceeds tolerance for: "
            + ", ".join(
                f"{qs[i].granularity} {qs[i].delivery_start}"
                for i, o in zip(plan.kept, over[b])
                if o
            ),
            conflicts=[qs[i] for i, o in zip(plan.kept, over[b]) if o],
        ),
    )
    return _LayoutFit(values, flats, resid, failures)


class _FittedLayout(NamedTuple):
    """The boards of one layout as fitted: their curves as one table (keys,
    bucket months, weights, a values row per board, each board's rank in
    key order) and what curve_report.csv and a full report read."""

    curves: _CurveTable
    plan: _LayoutPlan  # its removed and fills give every board's counts
    flats: np.ndarray  # boards x plan.fills, each fill's flat value
    resid: np.ndarray  # boards x quotes, each quote's relative residual
    worst: list[float]  # each board's largest residual over its quotes

    def report(self, row: int, quotes: Sequence[QuotedSwap]) -> BootstrapReport:
        """Board ``row``'s full report, ``quotes`` being its quotes in table order."""
        plan = self.plan
        return BootstrapReport(
            removed=[quotes[i] for i in plan.removed],
            residuals=list(zip([quotes[i] for i in plan.kept], self.resid[row, plan.kept].tolist())),
            fill_groups=[
                FillGroup(quotes[f.quote], f.open_months, v)
                for f, v in zip(plan.fills, self.flats[row].tolist())
            ],
            max_quote_residual=self.worst[row],
        )


def _table_curve(table: _CurveTable, row: int) -> StepwiseCurve:
    """Row ``row`` of a curve table as a curve with its own months and weights."""
    market, as_of = table.keys[row]
    return StepwiseCurve(market, as_of, list(table.months), table.values[row], table.weights.copy())


def _bootstrap_table(table: _QuoteTable) -> list[_FittedLayout]:
    """Fit every (market, trading date) board of a quote table, one table per layout.

    A board is a run of a stable argsort on the (market, date) codes, so it
    keeps its quotes in table order and the boards come in key order, which
    ranks them. Its layout is its tuple of window codes; each layout's plan
    is derived once and its boards x quotes prices taken by one fancy index,
    and each layout's residuals for every quote come from one product. If
    any board fails, the error raised is the one the first failing board in
    key order would raise on its own: conflicting duplicates, then a
    non-positive flat fill (in fill order), then a residual above 1e-9
    relative.
    """
    n_dates = len(table.dates)
    board = table.market * n_dates + table.day
    order = np.argsort(board, kind="stable")
    board = board[order]
    first = np.flatnonzero(np.r_[board.size > 0, board[1:] != board[:-1]])
    bounds = np.r_[first, board.size].tolist()
    window = table.window[order].tolist()
    layouts: dict[tuple[int, ...], list[int]] = {}
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        layouts.setdefault(tuple(window[lo:hi]), []).append(b)
    keys = [(table.markets[k // n_dates], table.dates[k % n_dates]) for k in board[first].tolist()]
    price = table.price[order]

    fitted: list[_FittedLayout] = []
    failures: dict[tuple[str, date], HjmkitError] = {}
    for layout, boards in layouts.items():
        rows = first[boards][:, None] + np.arange(len(layout))  # sorted rows of each board
        plan = _LayoutPlan([table.windows[c] for c in layout])
        fit = _fit_layout(plan, price[rows], lambda b: list(map(table.quote, order[rows[b]].tolist())))
        failures.update((keys[boards[b]], error) for b, error in fit.failures.items())
        curves = _CurveTable([keys[b] for b in boards], boards, plan.months, plan.weights, fit.values)
        fitted.append(_FittedLayout(curves, plan, fit.flats, fit.resid, fit.resid.max(axis=1).tolist()))
    if failures:
        raise failures[min(failures)]
    return fitted


def bootstrap_boards(
    boards: dict[tuple[str, date], Sequence[QuotedSwap]],
) -> dict[tuple[str, date], tuple[StepwiseCurve, BootstrapReport]]:
    """Fit the monthly curve of every (market, trading date) board.

    ``boards`` maps each (market, date) key to that board's quotes. The
    boards are fitted as one quote table (see ``_bootstrap_table``). The
    result is keyed like ``boards``, in sorted key order. If any board
    fails, the error raised is the one the first failing board in sorted
    key order would raise on its own: an empty or mixed board, then what
    the table fit raises.
    """
    checked: dict[tuple[str, date], Sequence[QuotedSwap]] = {}
    error = None
    for key in sorted(boards):
        quotes = boards[key]
        if not quotes:
            error = ValidationError("no quotes to bootstrap")
        elif any(q.market != key[0] or q.trading_date != key[1] for q in quotes):
            error = ValidationError("bootstrap expects one market and one trading date")
        if error is not None:
            break
        checked[key] = quotes
    # raises the error of any board before the first that failed its check
    layouts = _bootstrap_table(_QuoteTable.of([q for quotes in checked.values() for q in quotes]))
    if error is not None:
        raise error
    fits = {}
    for layout in layouts:
        for row, key in enumerate(layout.curves.keys):
            fits[key] = (_table_curve(layout.curves, row), layout.report(row, checked[key]))
    return {key: fits[key] for key in checked}


def bootstrap_monthly_curve(quotes: Sequence[QuotedSwap]) -> tuple[StepwiseCurve, BootstrapReport]:
    """Fit the monthly curve of one market and trading date.

    The fit is exact: every quote (kept or removed as redundant) must be
    reproduced by its window average within 1e-9 relative, otherwise the
    quote system is inconsistent and InfeasibleCurveError is raised. This
    is bootstrap_boards on a one-board input.
    """
    if not quotes:
        raise ValidationError("no quotes to bootstrap")
    market, as_of = quotes[0].market, quotes[0].trading_date
    return bootstrap_boards({(market, as_of): quotes})[(market, as_of)]


def extract_fixed_delivery(curve: StepwiseCurve, h: int) -> float:
    """Value of the bucket delivering h months after the trading month."""
    if h < 0:
        raise ValidationError("month offset must be non-negative")
    m = add_months(month_start(curve.as_of), h)
    if m not in curve.index:
        raise ValidationError(
            f"curve for {curve.market} as of {curve.as_of} does not cover bucket M{h} "
            f"({m}, {h} months ahead); extend the quote horizon"
        )
    return curve.value_at(m)


def verify_no_arbitrage(curve: StepwiseCurve, quotes: Sequence[QuotedSwap]) -> float:
    """Largest relative gap between quotes and their curve window averages.

    Quotes whose window is not fully on the curve cannot be checked and are
    skipped; with nothing checkable the residual is 0.
    """
    worst = 0.0
    for q in quotes:
        if q.market != curve.market or q.trading_date != curve.as_of:
            raise ValidationError("quote does not belong to this curve")
        months = q.window_months
        if not curve.covers(months):
            continue
        worst = max(worst, abs(curve.average(months) - q.price) / q.price)
    return worst


_CURVE_HEADER = ["as_of", "market", "bucket_start", "bucket_end", "value", "weight"]


def _write_curve_tables(tables: Sequence[_CurveTable], path) -> None:
    """curves.csv of the curves of ``tables``, row r of a table as curve rank[r].

    Each table's rows share one row template, its buckets' dates and
    weights formatted once, so a curve is one % call on its lead and values.
    """
    texts = [""] * sum(len(table.keys) for table in tables)
    for table in tables:
        template = "".join(
            f"%s{m.isoformat()},{month_end(m).isoformat()},%.10g,{w:.10g}\n"
            for m, w in zip(table.months, table.weights.tolist())
        )
        args: list = [None] * (2 * len(table.months))
        for (market, as_of), rank, values in zip(table.keys, table.rank, table.values.tolist()):
            args[::2] = [f"{as_of.isoformat()},{_csv_field(market)},"] * len(values)
            args[1::2] = values
            texts[rank] = template % tuple(args)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CURVE_HEADER) + "\n")
        fh.writelines(texts)


def write_curve_csv(curves: Sequence[StepwiseCurve], path) -> None:
    """One row per bucket: as_of,market,bucket_start,bucket_end,value,weight."""
    _write_curve_tables(_curve_tables(curves), path)


def _curve_as_written(curve: StepwiseCurve) -> StepwiseCurve:
    """``curve`` as read_curve_csv reads back what write_curve_csv writes:
    the same months, each value and weight through the writer's 10-digit text."""
    return StepwiseCurve(
        curve.market,
        curve.as_of,
        list(curve.months),
        np.array([float(f"{v:.10g}") for v in curve.values.tolist()]),
        np.array([float(f"{w:.10g}") for w in curve.weights.tolist()]),
    )


def read_curve_csv(path) -> dict[tuple[str, date], StepwiseCurve]:
    """Inverse of write_curve_csv, keyed by (market, as_of).

    Columns are found by header name. A malformed file raises
    ValidationError naming the file and, for a bad row, its line.
    """
    rows: dict[tuple[str, date], list[tuple[date, float, float]]] = {}
    parsed: dict[str, date] = {}  # each distinct date string is parsed once

    def day(text: str) -> date:
        d = parsed.get(text)
        if d is None:
            d = parsed[text] = date.fromisoformat(text)
        return d

    try:
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: curve file is empty")
            _require_unique_columns(path, header)
            used = ("as_of", "market", "bucket_start", "value", "weight")
            missing = [c for c in used if c not in header]
            if missing:
                raise ValidationError(f"{path}: curve file lacks column(s) {', '.join(missing)}")
            i_as_of, i_market, i_start, i_value, i_weight = map(header.index, used)
            width = len(header)
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != width:
                    raise ValidationError(
                        f"{path}: line {reader.line_num}: row has {len(rec)} fields, "
                        f"header has {width}"
                    )
                try:
                    key = (rec[i_market], day(rec[i_as_of]))
                    bucket = (day(rec[i_start]), float(rec[i_value]), float(rec[i_weight]))
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
                rows.setdefault(key, []).append(bucket)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot decode curve file {path}: {exc}") from None
    out = {}
    for (market, as_of), buckets in rows.items():
        buckets.sort()
        try:
            out[(market, as_of)] = StepwiseCurve(
                market,
                as_of,
                [b[0] for b in buckets],
                np.array([b[1] for b in buckets]),
                np.array([b[2] for b in buckets]),
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: curve {market} {as_of}: {exc}") from exc
    return out


__all__ = [
    "StepwiseCurve",
    "FillGroup",
    "BootstrapReport",
    "bootstrap_boards",
    "bootstrap_monthly_curve",
    "extract_fixed_delivery",
    "verify_no_arbitrage",
    "write_curve_csv",
    "read_curve_csv",
    "RESIDUAL_TOL",
]
