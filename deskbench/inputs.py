"""Seeded workload inputs.

Every input a workload reads is a deterministic function of the workload
seed: the same seed gives byte-identical files and identical arrays.

* ``write_quote_history`` builds a multi-market quote history the same
  way ``scripts/generate_fixture.py`` builds the bundled fixture (one
  monthly curve per market evolving under a two-factor Samuelson model,
  every quote a day-count-weighted average of that curve), with markets,
  dates and the quoted product set as parameters. The quote hierarchy is
  consistent by construction, so every bootstrap is exact.
* ``hourly_model`` and ``hourly_curves`` build the factor model and the
  hourly initial expectations of the dispatch workload.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np

DT = 1.0 / 252.0

# market -> (base level, seasonal amplitude, vol-row parameters
# (a, k1, c, b, k2) for the row [a e^(-k1 tau) + c, b e^(-k2 tau)])
MARKETS = {
    "DE": (50.0, 8.0, (0.55, 1.4, 0.10, 0.18, 0.5)),
    "TTF": (20.0, 5.0, (0.38, 1.1, 0.08, -0.22, 0.7)),
    "NBP": (45.0, 7.0, (0.42, 1.2, 0.09, -0.15, 0.6)),
}


def add_months(d: date, n: int) -> date:
    k = (d.year * 12 + d.month - 1) + n
    return date(k // 12, k % 12 + 1, 1)


def _days_in(m: date) -> int:
    return (add_months(m, 1) - m).days


def vol_rows(market: str, n_buckets: int, width: float = 1.0 / 12.0) -> np.ndarray:
    """(n_buckets, 2) loadings with exponential maturity decay."""
    a, k1, c, b, k2 = MARKETS[market][2]
    tau = (np.arange(1, n_buckets + 1) - 0.5) * width
    return np.column_stack([a * np.exp(-k1 * tau) + c, b * np.exp(-k2 * tau)])


def _quote_windows(d: date, n_months: int, n_quarters: int, n_years: int):
    """(first month, last month) of M0..M{n-1}, Q1..Qn and Y1..Yn on day d."""
    cur = date(d.year, d.month, 1)
    wins = [(add_months(cur, h), add_months(cur, h)) for h in range(n_months)]
    q0 = date(d.year, 3 * ((d.month - 1) // 3) + 1, 1)
    for h in range(1, n_quarters + 1):
        qs = add_months(q0, 3 * h)
        wins.append((qs, add_months(qs, 2)))
    for h in range(1, n_years + 1):
        ys = date(d.year + h, 1, 1)
        wins.append((ys, add_months(ys, 11)))
    return wins


def write_quote_history(
    path,
    seed: int,
    markets=("DE", "TTF", "NBP"),
    start: date = date(2021, 1, 4),
    n_days: int = 520,
    n_months: int = 7,
    n_quarters: int = 4,
    n_years: int = 2,
) -> int:
    """Write ``n_days`` weekday quote boards per market; returns the quote count."""
    rng = np.random.default_rng(seed)
    days = []
    d = start
    while len(days) < n_days:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    first = date(start.year, 1, 1)
    last = date(days[-1].year + n_years, 12, 1)
    n_curve = (last.year - first.year) * 12 + last.month - first.month + 1
    months = [add_months(first, i) for i in range(n_curve)]
    weights = np.array([_days_in(m) for m in months], dtype=float)
    month_no = np.array([m.year * 12 + m.month for m in months])
    rows_by_market = {mk: vol_rows(mk, n_curve) for mk in markets}
    curve = {}
    for mk in markets:
        level, amp, _ = MARKETS[mk]
        season = np.array([math.cos(2 * math.pi * (m.month - 1) / 12.0) for m in months])
        curve[mk] = level + amp * season
    sqrt_dt = math.sqrt(DT)

    lines = ["trading_date,market,delivery_start,delivery_end,price"]
    for i, d in enumerate(days):
        if i:
            z = rng.standard_normal(2)
            ahead = month_no - (d.year * 12 + d.month)
            live = ahead >= 1  # months in or past delivery are frozen
            bucket = np.clip(ahead, 1, n_curve) - 1
            for mk in markets:
                rows = rows_by_market[mk][bucket[live]]
                step = -0.5 * (rows**2).sum(axis=1) * DT + (rows @ z) * sqrt_dt
                curve[mk][live] *= np.exp(step)
        first_idx = (d.year - first.year) * 12 + d.month - first.month
        for mk in markets:
            for ws, we in _quote_windows(d, n_months, n_quarters, n_years):
                lo = first_idx + (ws.year * 12 + ws.month) - (d.year * 12 + d.month)
                hi = lo + (we.year * 12 + we.month) - (ws.year * 12 + ws.month) + 1
                w = weights[lo:hi]
                price = float(np.dot(w, curve[mk][lo:hi]) / w.sum())
                end = add_months(we, 1) - timedelta(days=1)
                lines.append(f"{d.isoformat()},{mk},{ws.isoformat()},{end.isoformat()},{price:.12g}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def hourly_model(seed: int, markets=("DE", "TTF"), n_buckets: int = 3, width: float = 1.0 / 12.0):
    """Keyword arguments of a seeded two-factor ``FactorModel``.

    Loadings are the market vol rows, each scaled by a seeded factor in
    [0.95, 1.05], so every seed gives a model of the same shape and scale.
    """
    rng = np.random.default_rng([seed, 1])
    sigma = np.vstack([vol_rows(mk, n_buckets, width) for mk in markets])
    sigma *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=sigma.shape)
    eig = np.linalg.eigvalsh(DT * sigma @ sigma.T)[::-1]
    return dict(
        markets=list(markets),
        buckets_per_market=n_buckets,
        n_factors=sigma.shape[1],
        dt=DT,
        eigenvalues=np.maximum(eig, 0.0),
        sigma_star=sigma,
        bucket_width=width,
    )


def hourly_curves(seed: int, n_hours: int, heat_rate: float) -> dict[str, np.ndarray]:
    """Hourly initial expectations F(0, t) for a DE power / TTF gas pair.

    Gas is flat per day around its base level; power is the heat-rate
    multiple of gas times a daily shape that is above one in the day
    hours and below at night, so the spark spread is near the money.
    """
    rng = np.random.default_rng([seed, 2])
    n_days = -(-n_hours // 24)
    gas_daily = MARKETS["TTF"][0] * (1.0 + 0.03 * rng.standard_normal(n_days))
    gas = np.repeat(gas_daily, 24)[:n_hours]
    hour = np.arange(n_hours) % 24
    shape = 1.0 + 0.12 * np.sin(2 * math.pi * (hour - 8) / 24.0)
    power = heat_rate * gas * shape * (1.0 + 0.01 * rng.standard_normal(n_hours))
    return {"DE": power, "TTF": gas}
