"""Exact Monte Carlo of forwards, swaps, curve shocks and spot.

All dynamics are driftless lognormals under the pricing measure: each
product's log price over a step is Gaussian with variance given by the
volatility term structure integrated over the step, and mean minus half
that variance. Paths therefore have no time-discretization error; the step
size only matters through how bucket boundaries are rounded inside a step
(a step straddling a boundary splits its variance proportionally to the
time spent in each bucket).

Four public generators cover the product families. The first three run
one lognormal engine, fed each product's live time per step (or a swap's
step variance, from the same log-variance law ``sanity_check`` uses):

* simulate_fixed_delivery: products with a frozen volatility row for their
  whole life, stopping at their own delivery.
* simulate_short_horizon: every bucket of one market's curve shocked with
  its own frozen row over a horizon inside the front bucket.
* simulate_swap: one traded swap whose active row is the bucket containing
  its current time to delivery; also accepts a parametric term-structure
  volatility with closed-form step integrals.
* simulate_spot, with its own kernel: the delivery-time limit of the
  surface, where each past shock is re-weighted by the bucket its age has
  grown into. The lag volatility changes only at lags that touch a bucket
  boundary, so spot is a sum of cumulative shocks over those few lags:
  exact, and linear in the step count.

Determinism: the seed fully determines every path. Draws come from one
seeded generator consumed path-major, then step, then factor; the
antithetic flag pairs each even path with an odd path using negated draws.

Memory: the lognormal engine runs over blocks of grid times of about
_BLOCK_VALUES values each. The normals are drawn once; each block carries
the log level the block before it ended on into its cumulative sum, so the
blocks give the same bits as one whole-grid pass. The public generators
write the blocks into the one path array they return. The command line's
simulate stage consumes the blocks instead, in one pass that reduces each
block to the summary rows, the sanity moments, the exported paths and the
pooled returns of the correlation check, so it never holds the path array.
``sanity_check`` and ``write_summary_csv`` run the same reductions over a
path set's blocks. Spot keeps its whole-array kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import FactorModel
from .errors import ValidationError
from .marketdata import LogReturnMatrix, _csv_field

_U64_MAX = 2**64 - 1
# values per block of grid times in the path-wise reductions (at least one time)
_BLOCK_VALUES = 2**19
# standard errors a sanity moment may stray from its model value
_Z_TOL = 4.0


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility contract of one simulation run.

    ``step`` and ``horizon`` are year fractions; the time grid is
    step * (0..n_steps) with n_steps = ceil(horizon / step).
    """

    seed: int
    n_paths: int
    step: float
    horizon: float
    antithetic: bool = False

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")
        if not 0 <= self.seed <= _U64_MAX:
            raise ValidationError("seed must fit in 64 bits")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be positive")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic pairing needs an even path count")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValidationError("step must be positive and finite")
        if not math.isfinite(self.horizon):
            raise ValidationError("horizon must be finite")
        if self.horizon < self.step:
            raise ValidationError("horizon must cover at least one step")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.step - 1e-9))

    @property
    def time_grid(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class ContractDescriptor:
    """What a simulated column is: fixed-delivery bucket, swap or spot."""

    kind: str
    market: str
    bucket: int | None = None
    tau_start: float | None = None
    tau_end: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed_delivery", "swap", "spot"):
            raise ValidationError(f"unknown contract kind {self.kind!r}")
        if self.kind == "fixed_delivery" and (self.bucket is None or self.bucket < 1):
            raise ValidationError("fixed_delivery needs a bucket >= 1")
        if self.kind == "swap":
            if self.tau_start is None or not (math.isfinite(self.tau_start) and self.tau_start > 0):
                raise ValidationError("swap needs a finite tau_start > 0")
            if self.tau_end is not None and not math.isfinite(self.tau_end):
                raise ValidationError("swap tau_end must be finite")
            if self.tau_end is not None and self.tau_end < self.tau_start:
                raise ValidationError("swap tau_end precedes tau_start")

    @property
    def label(self) -> str:
        if self.kind == "fixed_delivery":
            return f"{self.market}:M{self.bucket}"
        if self.kind == "swap":
            end = "" if self.tau_end is None else f":{self.tau_end:.6g}"
            return f"{self.market}:swap:{self.tau_start:.6g}{end}"
        return f"{self.market}:spot"


@dataclass
class PathSet:
    """Simulated values, path x time x product, plus full provenance."""

    values: np.ndarray
    time_grid: np.ndarray
    product_keys: list[ContractDescriptor]
    config: SimConfig

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        expect = (self.config.n_paths, self.time_grid.size, len(self.product_keys))
        if self.values.shape != expect:
            raise ValidationError(f"path array {self.values.shape} != {expect}")
        if self.time_grid[0] != 0.0 or np.any(np.diff(self.time_grid) <= 0):
            raise ValidationError("time grid must start at 0 and increase")
        _check_values(self.values)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def product(self, label: str) -> np.ndarray:
        for i, key in enumerate(self.product_keys):
            if key.label == label:
                return self.values[:, :, i]
        raise ValidationError(f"no product labelled {label!r}")


def _check_values(values: np.ndarray) -> None:
    """PathSet's value rule: every value positive and finite.

    Two reductions and no temporary the size of the values: a NaN fails
    both comparisons, so it is caught as well.
    """
    if values.size and not (values.min() > 0 and values.max() < math.inf):
        raise ValidationError("path values must be positive and finite")


def normals(cfg: SimConfig, n_steps: int, n_factors: int) -> np.ndarray:
    """Standard normal draws (n_paths, n_steps, n_factors).

    One generator seeded by cfg.seed, consumed in C order, so the draw for
    (path, step, factor) never depends on how many products are simulated.
    With antithetic pairing, path 2i+1 uses the negated draws of path 2i.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.antithetic:
        half = rng.standard_normal((cfg.n_paths // 2, n_steps, n_factors))
        z = np.empty((cfg.n_paths, n_steps, n_factors))
        z[0::2] = half
        z[1::2] = -half
        return z
    return rng.standard_normal((cfg.n_paths, n_steps, n_factors))


def bucket_occupancy(u_lo, u_hi, n_buckets: int, width: float) -> np.ndarray:
    """Time the interval (u_lo, u_hi] of maturities spends in each bucket.

    Buckets are ((i-1)w, iw] for i = 1..n; the last bucket extends to
    infinity (flat extrapolation past the calibrated grid) and maturities
    at or below zero carry no volatility. Bounds may be arrays; the result
    broadcasts them and adds a trailing axis of n_buckets.
    """
    lo = np.maximum(np.asarray(u_lo, dtype=float), 0.0)[..., None]
    hi = np.maximum(np.asarray(u_hi, dtype=float), 0.0)[..., None]
    edges = width * np.arange(n_buckets + 1, dtype=float)
    edges[-1] = math.inf
    with np.errstate(invalid="ignore"):  # an empty (inf, inf] gives inf - inf
        occ = np.maximum(0.0, np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]))
    return np.where(hi > lo, occ, 0.0)


class ExponentialVol:
    """Two-factor parametric term volatility: gamma * e^(-2k u) plus a constant.

    ``u`` is time to delivery. Step variances integrate in closed form,
    which keeps simulations exact at any step size:

        Var[ln F(t)] = gamma^2/(4k) * (e^(-4k(tau-t)) - e^(-4k(tau-t0)))
                       + c^2 (t - t0).
    """

    def __init__(self, gamma: float, k: float, constant: float = 0.0):
        for name, value in (("gamma", gamma), ("k", k), ("constant", constant)):
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be non-negative and finite")
        if gamma == 0 and constant == 0:
            raise ValidationError("volatility is identically zero")
        self.gamma = float(gamma)
        self.k = float(k)
        self.constant = float(constant)

    def variance_between(self, tau: float, s0, s1):
        """Integrated squared volatility of a swap maturing at tau over [s0, s1].

        ``s0`` and ``s1`` may be arrays; scalar bounds give a scalar.
        """
        s1 = np.minimum(s1, tau)
        s0 = np.minimum(s0, tau)
        var = self.constant**2 * (s1 - s0)
        if self.gamma != 0 and self.k == 0:
            var += self.gamma**2 * (s1 - s0)
        elif self.gamma != 0:
            g, k = self.gamma, self.k
            var += g * g / (4 * k) * (np.exp(-4 * k * (tau - s1)) - np.exp(-4 * k * (tau - s0)))
        return np.where(s1 > s0, var, 0.0)[()]


def _rows_for(model: FactorModel, products: Sequence[tuple[str, int]]) -> np.ndarray:
    return np.vstack([model.row(mk, b) for mk, b in products])


def _check_initial(initial, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(initial, dtype=float))
    if arr.size != n:
        raise ValidationError(f"initial prices: expected {n} values, got {arr.size}")
    if not np.isfinite(arr).all() or np.any(arr <= 0):
        raise ValidationError("initial prices must be positive and finite")
    return arr


class _LognormalLaw(NamedTuple):
    """What the lognormal engine diffuses: product n with its frozen row for
    live[k, n] years of step k (a unit row takes the step variance as live)."""

    rows: np.ndarray
    live: np.ndarray
    initial: np.ndarray
    keys: list[ContractDescriptor]


def _lognormal_blocks(
    rows: np.ndarray,
    live: np.ndarray,
    initial: np.ndarray,
    cfg: SimConfig,
    out: np.ndarray | None = None,
) -> Iterator[tuple[slice, np.ndarray]]:
    """The lognormal paths as blocks of grid times: (slice of the grid, values).

    The normals are drawn once. Each block runs the whole-grid steps on its
    own steps: shocks, scale, drift, then the cumulative sum, its first step
    carrying the log level the previous block ended on, so the sums run left
    to right as over the whole grid and give the same bits. Blocks are fresh
    arrays, or with ``out`` views of the (paths, times, products) array.
    """
    n_paths, n_prod = cfg.n_paths, rows.shape[0]
    z = normals(cfg, cfg.n_steps, rows.shape[1])
    scale = np.sqrt(live)
    drift = -0.5 * (rows**2).sum(axis=1)[None, :] * live
    carry = None  # log level at the end of the previous block
    for s in _time_slices((n_paths, cfg.n_steps + 1, n_prod)):
        blk = np.empty((n_paths, s.stop - s.start, n_prod)) if out is None else out[:, s]
        x = blk  # the log path, built in place
        if s.start == 0:
            blk[:, 0, :] = initial
            x = blk[:, 1:, :]
        steps = slice(max(s.start - 1, 0), s.stop - 1)  # step k ends at time k + 1
        if x.shape[1]:
            np.einsum("pkj,nj->pkn", z[:, steps], rows, out=x)
            x *= scale[steps]
            x += drift[steps]
            if carry is not None:
                x[:, 0, :] += carry
            np.cumsum(x, axis=1, out=x)
            carry = x[:, -1, :].copy()
            np.exp(x, out=x)
            x *= initial
        yield s, blk


def _lognormal_paths(law: _LognormalLaw, cfg: SimConfig) -> PathSet:
    """Every non-spot path set: the lognormal blocks written into one array."""
    values = np.empty((cfg.n_paths, cfg.n_steps + 1, law.rows.shape[0]))
    for _ in _lognormal_blocks(law.rows, law.live, law.initial, cfg, out=values):
        pass
    return PathSet(values, cfg.time_grid, law.keys, cfg)


def _fixed_delivery_law(model: FactorModel, products, initial, cfg: SimConfig) -> _LognormalLaw:
    """Frozen-row products, each diffusing until its own delivery."""
    rows = _rows_for(model, products)
    initial = _check_initial(initial, len(products))
    stops = np.array([b * model.bucket_width for _, b in products])
    grid = cfg.time_grid
    # live[k, n]: time product n actually diffuses during step k
    lo = np.minimum(grid[:-1, None], stops[None, :])
    hi = np.minimum(grid[1:, None], stops[None, :])
    live = np.maximum(hi - lo, 0.0)
    keys = [ContractDescriptor("fixed_delivery", mk, bucket=b) for mk, b in products]
    return _LognormalLaw(rows, live, initial, keys)


def simulate_fixed_delivery(
    model: FactorModel,
    initial,
    cfg: SimConfig,
    products: Sequence[tuple[str, int]] | None = None,
) -> PathSet:
    """Paths of fixed-delivery products, one martingale per model row.

    ``products`` lists (market, bucket) pairs, defaulting to every row of
    the model; ``initial`` aligns with it. Each product diffuses with its
    own frozen row until its delivery at bucket * bucket_width and is flat
    afterwards.
    """
    if products is None:
        products = [
            (mk, b)
            for mk in model.markets
            for b in range(1, model.buckets_per_market + 1)
        ]
    return _lognormal_paths(_fixed_delivery_law(model, list(products), initial, cfg), cfg)


def _short_horizon_law(model: FactorModel, market: str, initial, cfg: SimConfig) -> _LognormalLaw:
    """Every bucket of one market, over a horizon inside the front bucket."""
    if cfg.horizon > model.bucket_width + 1e-12:
        raise ValidationError(
            "short-horizon simulation requires horizon <= one bucket width; "
            "use simulate_fixed_delivery for longer runs"
        )
    products = [(market, b) for b in range(1, model.buckets_per_market + 1)]
    return _fixed_delivery_law(model, products, initial, cfg)


def simulate_short_horizon(
    model: FactorModel, market: str, initial, cfg: SimConfig
) -> PathSet:
    """Whole-curve shock: all buckets of one market over a short horizon.

    Every bucket evolves with its own frozen row. The horizon must stay
    inside the front bucket; a grid whose last step overshoots it leaves the
    front bucket flat after its delivery, as in simulate_fixed_delivery.
    """
    return _lognormal_paths(_short_horizon_law(model, market, initial, cfg), cfg)


def _swap_law(
    model: FactorModel | ExponentialVol, contract: ContractDescriptor, initial, cfg: SimConfig
) -> _LognormalLaw:
    """One swap, its step variances carried by a unit row."""
    if contract.kind != "swap":
        raise ValidationError("simulate_swap expects a swap descriptor")
    initial = _check_initial(initial, 1)
    grid = cfg.time_grid
    v = _log_variance(model, contract, grid[1:], grid[:-1])
    return _LognormalLaw(np.ones((1, 1)), v[:, None], initial, [contract])


def simulate_swap(
    model: FactorModel | ExponentialVol,
    contract: ContractDescriptor,
    initial: float,
    cfg: SimConfig,
) -> PathSet:
    """Paths of one traded swap up to its delivery start.

    With a FactorModel the active volatility row is the bucket containing
    the current time to delivery; a step straddling a bucket boundary
    splits its variance proportionally. With a parametric volatility the
    step variance is its exact integral. The path freezes at tau_start.
    """
    return _lognormal_paths(_swap_law(model, contract, initial, cfg), cfg)


def _spot_lag_vols(model: FactorModel, market: str, n_steps: int, step: float) -> np.ndarray:
    """c[j, q]: factor-j volatility applied to a shock of age in (q, q+1] steps.

    Each lag's occupancy is divided by that lag's own float length, so a
    lag inside one bucket weighs exactly 1.0 and c is exactly constant
    between the lags that touch a bucket boundary.
    """
    block2 = model.market_block(market) ** 2  # (M, Nf)
    ages = step * np.arange(n_steps + 1, dtype=float)
    frac = bucket_occupancy(ages[:-1], ages[1:], model.buckets_per_market, model.bucket_width)
    frac /= np.diff(ages)[:, None]
    # an explicit sum, not BLAS, so equal weights give bit-equal volatilities
    return np.sqrt((frac[:, :, None] * block2[None, :, :]).sum(axis=1).T)


def simulate_spot(
    model: FactorModel,
    curves: Mapping[str, Sequence[float] | Callable[[float], float]],
    cfg: SimConfig,
    markets: Sequence[str] | None = None,
) -> PathSet:
    """Joint spot paths for several markets driven by the shared factors.

    ``curves[market]`` supplies the initial expectation F(0, t) on the time
    grid, either as an array over the grid or a callable of the year
    fraction. Each Brownian shock enters with the front-bucket volatility
    and is re-weighted through longer buckets as it ages, so the spot keeps
    the whole term structure's covariance with the forwards. The marginal
    law at every grid point is exact; E[S(t)] = F(0, t).
    """
    markets = list(markets) if markets is not None else list(model.markets)
    grid = cfg.time_grid
    n = cfg.n_steps
    fwd = {}
    for mk in markets:
        src = curves.get(mk)
        if src is None:
            raise ValidationError(f"no initial curve for market {mk!r}")
        arr = (
            np.array([float(src(t)) for t in grid])
            if callable(src)
            else np.asarray(src, dtype=float)
        )
        if arr.size != grid.size:
            raise ValidationError(
                f"curve for {mk!r} must cover all {grid.size} grid dates"
            )
        if not np.isfinite(arr).all() or np.any(arr <= 0):
            raise ValidationError(f"curve for {mk!r} has gaps or non-positive values")
        fwd[mk] = arr

    # x_m = sum_i z_i c_(m-i) sqrt(dt) = sum_q S_(m-q) dc_q with S the
    # cumulative shocks and dc_q the exact jumps of c sqrt(dt) at lag q
    shocks = normals(cfg, n, model.n_factors)
    np.cumsum(shocks, axis=1, out=shocks)
    values = np.zeros((cfg.n_paths, n + 1, len(markets)))
    keys = []
    for ki, mk in enumerate(markets):
        c = _spot_lag_vols(model, mk, n, cfg.step)  # (Nf, n)
        var = np.cumsum((c**2).sum(axis=0) * cfg.step)
        dc = np.diff(c * math.sqrt(cfg.step), axis=1, prepend=0.0)
        x = values[:, 1:, ki]  # the log sum, built in place
        for q in np.flatnonzero((dc != 0.0).any(axis=0)):
            x[:, q:] += shocks[:, : n - q, :] @ dc[:, q]
        x -= 0.5 * var
        np.exp(x, out=x)
        x *= fwd[mk][1:]
        values[:, 0, ki] = fwd[mk][0]
        keys.append(ContractDescriptor("spot", mk))
    return PathSet(values, grid, keys, cfg)


def theoretical_log_variance(
    model: FactorModel | ExponentialVol,
    contract: ContractDescriptor,
    t: float,
    t0: float = 0.0,
) -> float:
    """Exact Var[ln F(t)] implied by the volatility structure.

    Fixed-delivery products integrate a frozen row; swaps and spot sum
    squared row norms against the time each bucket was occupied. The same
    occupancy convention as the simulators is used, so simulated and
    theoretical variances agree to Monte Carlo error at any step size.
    """
    if t < t0:
        raise ValidationError("t must not precede t0")
    return float(_log_variance(model, contract, t, t0))


def _log_variance(model: FactorModel | ExponentialVol, contract: ContractDescriptor, t, t0=0.0):
    """Var[ln F(t)] - Var[ln F(t0)] of one product, 0 where t <= t0; both may be arrays."""
    if not isinstance(model, FactorModel):
        if contract.kind != "swap":
            raise ValidationError("parametric volatility prices swaps only")
        return model.variance_between(contract.tau_start, t0, t)
    if contract.kind == "fixed_delivery":
        row = model.row(contract.market, contract.bucket)
        t_eff = np.minimum(t, contract.bucket * model.bucket_width)
        return (row**2).sum() * np.maximum(t_eff - t0, 0.0)
    if contract.kind == "swap":
        tau = contract.tau_start
        occ = bucket_occupancy(
            tau - np.minimum(t, tau), tau - t0, model.buckets_per_market, model.bucket_width
        )
    else:  # spot
        occ = bucket_occupancy(0.0, t - t0, model.buckets_per_market, model.bucket_width)
    return occ @ (model.market_block(contract.market) ** 2).sum(axis=1)


def path_log_returns(paths: PathSet) -> LogReturnMatrix:
    """Stack per-step log returns of all paths into one return matrix.

    Rows are path-major (all steps of path 0, then path 1, ...);
    columns follow the product order. Useful for re-estimating the
    covariance a path set was generated from.
    """
    vals = paths.values
    rets = np.log(vals[:, 1:, :] / vals[:, :-1, :])
    stacked = rets.reshape(-1, vals.shape[2])
    keys = []
    for d in paths.product_keys:
        tenor = f"M{d.bucket}" if d.kind == "fixed_delivery" else d.label
        keys.append((d.market, tenor))
    return LogReturnMatrix(stacked, keys, paths.config.step)


# ---------------------------------------------------------------------------
# Path-wise reductions
# ---------------------------------------------------------------------------


def _time_slices(shape: tuple[int, int, int]) -> list[slice]:
    """Consecutive slices of the time axis of a (path, time, product) array.

    Each slice selects about _BLOCK_VALUES values, and at least one time.
    Reductions over paths treat every (time, product) column on its own,
    so blocking them gives the same bits as one whole-array call.
    """
    n_paths, n_times, n_prod = shape
    width = max(1, _BLOCK_VALUES // (n_paths * n_prod))
    return [slice(a, min(a + width, n_times)) for a in range(0, n_times, width)]


def _path_blocks(paths: PathSet) -> Iterator[tuple[slice, np.ndarray]]:
    """A path set's values as blocks of grid times: (slice of the grid, view)."""
    for s in _time_slices(paths.values.shape):
        yield s, paths.values[:, s]


def _quantiles_of_sorted(ordered: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(..., q, axis=0) with method 'linear', from sorted columns.

    The same order statistics and the same interpolation as numpy's
    ``_lerp``, so the result has the same bits as np.quantile's.
    """
    n = ordered.shape[0]
    virtual = (n - 1) * q
    if virtual >= n - 1:  # numpy reads the last value, its gamma taken from index -1
        lo = hi = -1
        g = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        g = virtual - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    if g >= 0.5:
        return b - diff * (1.0 - g)
    return a + diff * g


class _BlockStats:
    """The path-wise outputs of one pass over blocks of grid times.

    ``add`` takes the blocks in time order, each holding every path at its
    grid times. Each output treats every (time, product) column on its own,
    so any blocking gives the bits of one whole-array call. The parts asked
    for are built as the blocks arrive:

    * ``summary``: the rows of summary.csv, the mean and the 5 and 95
      percent quantiles per grid time and product, from one sort per block;
    * ``moments``: per grid time after 0 and product, the variance of the
      log ratio to the path's t=0 value, the mean and the mean's standard
      error;
    * ``export``: the first ``export`` paths, whole;
    * ``returns``: the pooled log returns of the first ``returns`` steps,
      path-major, one carried row spanning each block seam.
    """

    def __init__(
        self,
        n_paths: int,
        time_grid: np.ndarray,
        keys: list[ContractDescriptor],
        *,
        summary: bool = False,
        moments: bool = False,
        export: int = 0,
        returns: int = 0,
    ):
        n_times, n_prod = time_grid.size, len(keys)
        self.n_paths = n_paths
        self.time_grid = time_grid
        self.keys = keys
        self._labels = [_csv_field(key.label) for key in keys]
        self._times = [f"{t:.10g}" for t in time_grid.tolist()]
        self.summary_rows: list[str] | None = [] if summary else None
        self.log_variance = self.mean = self.mean_se = None
        if moments:
            self.log_variance = np.empty((n_times - 1, n_prod))
            self.mean = np.empty_like(self.log_variance)
            self.mean_se = np.empty_like(self.log_variance)
        self.export = np.empty((min(export, n_paths), n_times, n_prod))
        self.returns = np.empty((n_paths, returns, n_prod)) if returns else None
        self.start: np.ndarray | None = None  # every path's values at t=0
        self._last: np.ndarray | None = None  # every path's values at the last time seen

    def add(self, s: slice, blk: np.ndarray) -> None:
        if s.start == 0:
            self.start = blk[:, 0, :].copy()
        if self.summary_rows is not None:
            self._add_summary(s, blk)
        if self.mean is not None:
            self._add_moments(s, blk)
        self.export[:, s] = blk[: len(self.export)]
        if self.returns is not None:
            self._add_returns(s, blk)
            self._last = blk[:, -1, :].copy()

    def _add_summary(self, s: slice, blk: np.ndarray) -> None:
        ordered = np.sort(blk, axis=0)
        stats = zip(
            blk.mean(axis=0).tolist(),
            _quantiles_of_sorted(ordered, 0.05).tolist(),
            _quantiles_of_sorted(ordered, 0.95).tolist(),
        )
        self.summary_rows.append(
            "".join(
                [
                    f"{t},{label},{m:.10g},{q05:.10g},{q95:.10g}\n"
                    for t, row in zip(self._times[s], stats)
                    for label, (m, q05, q95) in zip(self._labels, zip(*row))
                ]
            )
        )

    def _add_moments(self, s: slice, blk: np.ndarray) -> None:
        later = blk[:, 1:, :] if s.start == 0 else blk
        if not later.shape[1]:
            return
        rows = slice(max(s.start - 1, 0), s.stop - 1)  # row i holds time i + 1
        logs = later / self.start[:, None, :]
        np.log(logs, out=logs)
        self.log_variance[rows] = logs.var(axis=0, ddof=1)
        del logs
        self.mean[rows] = later.mean(axis=0)
        self.mean_se[rows] = later.std(axis=0, ddof=1) / math.sqrt(self.n_paths)

    def _add_returns(self, s: slice, blk: np.ndarray) -> None:
        # return k is the log of the value at time k + 1 over the value at time k
        n = min(s.stop, self.returns.shape[1] + 1) - s.start  # block times up to the last return's end
        if n <= 0:
            return
        seam = int(s.start > 0)  # a later block's first return starts at the carried row
        rets = self.returns[:, s.start - seam : s.start + n - 1]
        if seam:
            np.divide(blk[:, 0], self._last, out=rets[:, 0])
        np.divide(blk[:, 1:n], blk[:, : n - 1], out=rets[:, seam:])
        np.log(rets, out=rets)

    def write_summary(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time,product_key,mean,q05,q95\n")
            fh.writelines(self.summary_rows)

    def write_paths(self, path) -> None:
        _write_path_rows(self.export, self.time_grid, self.keys, path)


# ---------------------------------------------------------------------------
# Sanity checking
# ---------------------------------------------------------------------------


@dataclass
class SanityReport:
    """Empirical-versus-theoretical comparison of a path set."""

    times: np.ndarray
    empirical_variance: np.ndarray  # (n_times, n_products)
    theoretical_variance: np.ndarray
    empirical_mean: np.ndarray
    initial: np.ndarray
    mean_se: np.ndarray
    empirical_correlation: np.ndarray | None
    model_correlation: np.ndarray | None
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _correlation_steps(
    model: FactorModel | ExponentialVol, keys: list[ContractDescriptor], time_grid: np.ndarray
) -> int:
    """Steps whose pooled log returns the correlation check reads; 0 for no check.

    Only several fixed-delivery products on a factor model carry constant
    rows, and only until the first delivery: the steps before it are a
    prefix of the grid.
    """
    if not (
        isinstance(model, FactorModel)
        and len(keys) > 1
        and all(d.kind == "fixed_delivery" for d in keys)
    ):
        return 0
    stops = np.array([d.bucket * model.bucket_width for d in keys])
    return int((time_grid[1:] <= stops.min() + 1e-12).sum())


def sanity_check(
    paths: PathSet,
    model: FactorModel | ExponentialVol,
    expected_mean: np.ndarray | None = None,
) -> SanityReport:
    """Check martingale means, log variances and return correlations.

    Variance and mean comparisons run per product and grid time with a
    tolerance of _Z_TOL standard errors; a non-finite empirical mean, mean
    standard error or log variance is a failure of its own, since no
    tolerance can hold it. The correlation check compares pooled
    step log returns against the model-implied correlation and runs only
    when every product carries a constant row (fixed-delivery sets).

    Forwards and swaps are martingales, so means default to the initial
    value. Spot paths are not: their mean follows the initial curve, which
    the caller must supply as ``expected_mean`` over the full time grid,
    shaped (grid size, n_products).
    """
    keys = paths.product_keys
    stats = _BlockStats(
        paths.n_paths,
        paths.time_grid,
        keys,
        moments=True,
        returns=_correlation_steps(model, keys, paths.time_grid),
    )
    for s, blk in _path_blocks(paths):
        stats.add(s, blk)
    return _sanity_report(stats, model, paths.config, expected_mean)


def _sanity_report(
    stats: _BlockStats,
    model: FactorModel | ExponentialVol,
    cfg: SimConfig,
    expected_mean: np.ndarray | None = None,
) -> SanityReport:
    """sanity_check's verdicts on the moments and returns of a block pass."""
    keys = stats.keys
    times = stats.time_grid[1:]
    emp_var, emp_mean, mean_se = stats.log_variance, stats.mean, stats.mean_se
    initial = stats.start[0].copy()
    theo = np.column_stack([_log_variance(model, d, times) for d in keys])

    failures: list[str] = []
    # |x - target| > z * se is false for an infinite se or a NaN x
    finite = np.isfinite(emp_mean) & np.isfinite(mean_se) & np.isfinite(emp_var)
    for i, j in zip(*np.nonzero(~finite)):
        failures.append(
            f"non-finite moment {keys[j].label} at t={times[i]:.6g}: mean {emp_mean[i, j]:.6g}, "
            f"mean standard error {mean_se[i, j]:.6g}, log variance {emp_var[i, j]:.6g}"
        )
    # an antithetic pair shares (x - mean)^2, so only n/2 squares are independent
    n_var = stats.n_paths // 2 if cfg.antithetic else stats.n_paths
    var_se = theo * math.sqrt(2.0 / max(n_var - 1, 1))
    bad = np.abs(emp_var - theo) > _Z_TOL * var_se + 1e-14
    for i, j in zip(*np.nonzero(bad)):
        failures.append(
            f"variance breach {keys[j].label} at t={times[i]:.6g}: "
            f"empirical {emp_var[i, j]:.6g} vs theoretical {theo[i, j]:.6g}"
        )
    if expected_mean is None:
        target = np.broadcast_to(initial[None, :], emp_mean.shape)
        kind = "martingale breach"
    else:
        target = np.asarray(expected_mean, dtype=float)
        grid_shape = (stats.time_grid.size, len(keys))
        if target.shape != grid_shape:
            raise ValidationError(f"expected_mean shape {target.shape} != {grid_shape}")
        target = target[1:]
        kind = "mean breach"
    bad = np.abs(emp_mean - target) > _Z_TOL * mean_se + 1e-12
    for i, j in zip(*np.nonzero(bad)):
        failures.append(
            f"{kind} {keys[j].label} at t={times[i]:.6g}: "
            f"mean {emp_mean[i, j]:.6g} vs expected {target[i, j]:.6g}"
        )

    emp_corr = model_corr = None
    if stats.returns is not None:
        flat = stats.returns.reshape(-1, len(keys))
        emp_corr = np.corrcoef(flat.T)
        rows = _rows_for(model, [(d.market, d.bucket) for d in keys])
        cov = rows @ rows.T
        dd = np.sqrt(np.diag(cov))
        model_corr = cov / np.outer(dd, dd)
        n_samp = flat.shape[0]
        tol = np.maximum(_Z_TOL * (1 - model_corr**2) / math.sqrt(n_samp), 1e-3)
        bad = np.abs(emp_corr - model_corr) > tol
        for a, b in zip(*np.nonzero(np.triu(bad, 1))):
            failures.append(
                f"correlation breach {keys[a].label} vs "
                f"{keys[b].label}: empirical {emp_corr[a, b]:.4f} "
                f"vs model {model_corr[a, b]:.4f}"
            )

    return SanityReport(
        times,
        emp_var,
        theo,
        emp_mean,
        initial,
        mean_se,
        emp_corr,
        model_corr,
        failures,
    )


def _simulate_stage(
    blocks: Iterator[tuple[slice, np.ndarray]],
    keys: list[ContractDescriptor],
    cfg: SimConfig,
    model: FactorModel | ExponentialVol,
    export: int,
    expected_mean: np.ndarray | None = None,
) -> tuple[_BlockStats, SanityReport]:
    """The simulate stage in one pass over blocks of grid times.

    Each block must pass PathSet's value rule before it is reduced to the
    summary rows, the sanity moments, the first ``export`` paths and the
    correlation returns; nothing path-sized outlives its block but those.
    """
    stats = _BlockStats(
        cfg.n_paths,
        cfg.time_grid,
        keys,
        summary=True,
        moments=True,
        export=export,
        returns=_correlation_steps(model, keys, cfg.time_grid),
    )
    for s, blk in blocks:
        _check_values(blk)
        stats.add(s, blk)
    return stats, _sanity_report(stats, model, cfg, expected_mean=expected_mean)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _write_path_rows(values: np.ndarray, time_grid: np.ndarray, keys, path) -> None:
    """paths.csv of every path in ``values``, path x time x product."""
    labels = [_csv_field(key.label) for key in keys]
    # "time,label," of each (time, product) cell, in the C order of a path's values
    cells = [f"{t:.10g},{label}," for t in time_grid.tolist() for label in labels]
    with open(path, "w", newline="") as fh:
        fh.write("path_id,time,product_key,value\n")
        for p in range(values.shape[0]):
            fh.write(
                "".join(
                    [
                        f"{p},{cell}{v:.10g}\n"
                        for cell, v in zip(cells, values[p].ravel().tolist())
                    ]
                )
            )


def write_paths_csv(paths: PathSet, path, max_paths: int | None = None) -> None:
    """Long format, one row per (path, time, product)."""
    limit = paths.n_paths if max_paths is None else min(max_paths, paths.n_paths)
    _write_path_rows(paths.values[:limit], paths.time_grid, paths.product_keys, path)


def write_summary_csv(paths: PathSet, path) -> None:
    """Mean and 5/95 percent quantiles per product and grid time.

    Each block of grid times is sorted once along the paths; both
    quantiles are read from that sort.
    """
    stats = _BlockStats(paths.n_paths, paths.time_grid, paths.product_keys, summary=True)
    for s, blk in _path_blocks(paths):
        stats.add(s, blk)
    stats.write_summary(path)
