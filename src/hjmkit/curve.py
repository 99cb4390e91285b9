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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np

from .dates import add_months, days_in_month, month_end, month_start
from .errors import InfeasibleCurveError, ValidationError
from .marketdata import QuotedSwap, _csv_field

RESIDUAL_TOL = 1e-9

_GRAN_ORDER = {"month": 0, "quarter": 1, "year": 2}


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
        if any(m.day != 1 for m in self.months):
            raise ValidationError("curve buckets must start on month starts")
        if any(self.months[i] >= self.months[i + 1] for i in range(len(self.months) - 1)):
            raise ValidationError("curve months must be strictly increasing")
        if np.any(~np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ValidationError("curve values must be positive and finite")
        if np.any(self.weights <= 0):
            raise ValidationError("curve weights must be positive")
        self.index = {m: i for i, m in enumerate(self.months)}

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
    removed: list[QuotedSwap] = field(default_factory=list)
    residuals: list[tuple[QuotedSwap, float]] = field(default_factory=list)
    fill_groups: list[FillGroup] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


def _dedupe(quotes: Sequence[QuotedSwap]) -> list[QuotedSwap]:
    seen: dict[tuple[date, date], QuotedSwap] = {}
    out = []
    for q in quotes:
        key = (q.delivery_start, q.delivery_end)
        prev = seen.get(key)
        if prev is None:
            seen[key] = q
            out.append(q)
        elif abs(prev.price - q.price) > RESIDUAL_TOL * max(1.0, abs(prev.price)):
            raise InfeasibleCurveError(
                f"conflicting quotes for window {key[0]}..{key[1]}: "
                f"{prev.price} vs {q.price}",
                conflicts=[prev, q],
            )
    return out


def bootstrap_monthly_curve(
    quotes: Sequence[QuotedSwap], horizon_months: int | None = None
) -> tuple[StepwiseCurve, BootstrapReport]:
    """Fit the monthly curve of one market and trading date.

    The fit is exact: every quote (kept or removed as redundant) must be
    reproduced by its window average within 1e-9 relative, otherwise the
    quote system is inconsistent and InfeasibleCurveError is raised. The
    optional horizon truncates the returned curve without changing any
    fitted value.
    """
    if not quotes:
        raise ValidationError("no quotes to bootstrap")
    markets = {q.market for q in quotes}
    dates = {q.trading_date for q in quotes}
    if len(markets) != 1 or len(dates) != 1:
        raise ValidationError("bootstrap expects one market and one trading date")
    market, as_of = quotes[0].market, quotes[0].trading_date

    deduped = _dedupe(quotes)
    report = BootstrapReport()

    # Granularity dominance: strictly finer quoted windows covering a coarse
    # window make the coarse quote redundant.
    finer_cover: dict[str, set[date]] = {"quarter": set(), "year": set()}
    for q in deduped:
        if q.granularity == "month":
            finer_cover["quarter"].update(q.window_months)
            finer_cover["year"].update(q.window_months)
        elif q.granularity == "quarter":
            finer_cover["year"].update(q.window_months)
    retained = []
    for q in deduped:
        if q.granularity != "month" and all(
            m in finer_cover[q.granularity] for m in q.window_months
        ):
            report.removed.append(q)
        else:
            retained.append(q)

    values: dict[date, float] = {}
    for q in retained:
        if q.granularity == "month":
            values[q.delivery_start] = q.price

    # Coarse products from fine to coarse; same-granularity windows are
    # disjoint so the order within a granularity does not matter.
    for q in sorted(
        (q for q in retained if q.granularity != "month"),
        key=lambda q: (_GRAN_ORDER[q.granularity], q.delivery_start),
    ):
        window = q.window_months
        w = {m: float(days_in_month(m)) for m in window}
        undetermined = [m for m in window if m not in values]
        if not undetermined:
            raise InfeasibleCurveError(
                f"window of {q.granularity} {q.delivery_start} already fully "
                "determined; conflicting quote hierarchy",
                conflicts=[q],
            )
        total_w = sum(w.values())
        pinned = sum(w[m] * values[m] for m in window if m in values)
        flat = (q.price * total_w - pinned) / sum(w[m] for m in undetermined)
        if not (math.isfinite(flat) and flat > 0):
            raise InfeasibleCurveError(
                f"quote {q.granularity} {q.delivery_start} at {q.price} implies "
                f"non-positive forward {flat:.6g} for its unquoted months",
                conflicts=[q],
            )
        for m in undetermined:
            values[m] = flat
        report.fill_groups.append(FillGroup(q, tuple(undetermined), flat))

    months = sorted(values)
    curve = StepwiseCurve(
        market,
        as_of,
        months,
        np.array([values[m] for m in months]),
        np.array([float(days_in_month(m)) for m in months]),
    )

    # Exactness check on everything, including removed quotes: a redundant
    # coarse quote inconsistent with its finer cover is an arbitrage.
    bad = []
    for q in deduped:
        resid = abs(curve.average(q.window_months) - q.price) / q.price
        report.residuals.append((q, resid))
        if resid > RESIDUAL_TOL:
            bad.append(q)
    if bad:
        raise InfeasibleCurveError(
            "quote system is inconsistent; residual exceeds tolerance for: "
            + ", ".join(f"{q.granularity} {q.delivery_start}" for q in bad),
            conflicts=bad,
        )

    if horizon_months is not None:
        if horizon_months < 1:
            raise ValidationError("horizon_months must be at least 1")
        cutoff = add_months(month_start(as_of), horizon_months)
        keep = [i for i, m in enumerate(curve.months) if m < cutoff]
        curve = StepwiseCurve(
            market,
            as_of,
            [curve.months[i] for i in keep],
            curve.values[keep],
            curve.weights[keep],
        )
    return curve, report


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


def write_curve_csv(curves: Sequence[StepwiseCurve], path) -> None:
    """One row per bucket: as_of,market,bucket_start,bucket_end,value,weight."""
    spans: dict[date, str] = {}  # month -> "start,end", formatted once per month
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CURVE_HEADER) + "\n")
        for curve in curves:
            for m in curve.months:
                if m not in spans:
                    spans[m] = f"{m.isoformat()},{month_end(m).isoformat()}"
            lead = f"{curve.as_of.isoformat()},{_csv_field(curve.market)}"
            fh.write(
                "".join(
                    [
                        f"{lead},{spans[m]},{v:.10g},{w:.10g}\n"
                        for m, v, w in zip(
                            curve.months, curve.values.tolist(), curve.weights.tolist()
                        )
                    ]
                )
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

    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: curve file is empty")
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
    "bootstrap_monthly_curve",
    "extract_fixed_delivery",
    "verify_no_arbitrage",
    "write_curve_csv",
    "read_curve_csv",
    "RESIDUAL_TOL",
]
