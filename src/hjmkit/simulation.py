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

Memory and work: the normals are drawn in chunks of paths of at most
_BLOCK_VALUES values each, which continue one generator's stream and so give
the bits of one whole draw. The lognormal engine keeps, of each chunk, only
the steps some product still moves on, and runs over blocks of grid times of
about _BLOCK_VALUES values each; each block carries the log level the block
before it ended on into its cumulative sum, a running sum over the block's
steps with np.cumsum's additions in its order, so the blocks give the same
bits as one whole-grid pass. The budget is 2**17 values (1 MiB), which keeps
a block, and the one block-sized temporary its reductions hold beside it,
small beside what the streamed stage holds whole: at the nightly size, the
pooled correlation returns (7.6 MB) and the kept normals (5 MB). A product
stops moving once its delivery begins: its later steps have live time
exactly 0 and add +-0.0 to its log level, so its later values repeat its
last moving one bit for bit. A block therefore holds only the products
still moving at its first time, and a later, narrower block spans more
times in the same memory. On a one-year daily run over six monthly buckets
the blocks hold 29.4% of the (time, product) cells. The public generators
copy the blocks into the one path array they return and fill each
product's frozen cells.
The command line's simulate stage consumes the blocks instead, in one pass
that reduces each block to the summary statistics, the sanity moments, the
exported paths and the pooled returns of the correlation check, so it never
holds the path array; at the end each frozen cell takes the statistics of
its product's last moving time. ``sanity_check``, ``write_summary_csv`` and
``write_paths_csv`` run the same pass over a path set: a set the engine made
carries each product's freeze index and gives the engine's blocks, and any
other set is read over every cell.
Spot runs its kernel one chunk of paths at a time, so its cumulative shocks
and per-lag products are chunk-sized; only its values are held whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import FactorModel
from .errors import ValidationError
from .marketdata import LogReturnMatrix, _csv_field

_U64_MAX = 2**64 - 1
# values per block of grid times in the path-wise reductions (at least one
# time), and normals per chunk of drawn paths (at least one path or pair)
_BLOCK_VALUES = 2**17
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
    """Simulated values, path x time x product, plus full provenance.

    A set the lognormal generators return also records where each product
    freezes, its values repeating bit for bit from there on, and the
    path-wise reductions read only the cells before. Any other set is read
    in full; to change a generated set's values, build a new set from them.
    """

    values: np.ndarray
    time_grid: np.ndarray
    product_keys: list[ContractDescriptor]
    config: SimConfig
    # product n's first frozen grid index; only _lognormal_paths sets it below the grid size
    _stop: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        expect = (self.config.n_paths, self.time_grid.size, len(self.product_keys))
        if self.values.shape != expect:
            raise ValidationError(f"path array {self.values.shape} != {expect}")
        if not self.time_grid.size or self.time_grid[0] != 0.0 or np.any(np.diff(self.time_grid) <= 0):
            raise ValidationError("time grid must start at 0 and increase")
        _check_values(self.values)
        self._stop = np.full(len(self.product_keys), self.time_grid.size)

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
    return _first_steps(cfg, n_steps, n_factors, n_steps)


def _normal_chunks(cfg: SimConfig, n_steps: int, n_factors: int) -> Iterator[np.ndarray]:
    """``normals(cfg, n_steps, n_factors)`` as consecutive chunks of paths.

    A chunk holds at most _BLOCK_VALUES draws and at least one path, or one
    antithetic pair, and no pair is split. Consecutive ``standard_normal``
    calls continue one stream, so the chunks hold the bits of one whole draw.
    Each chunk is a new array: a caller that drops it before asking for the
    next holds one chunk at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    pair = 2 if cfg.antithetic else 1
    n = cfg.n_paths // pair  # paths, or pairs, to draw
    per = max(1, _BLOCK_VALUES // max(1, pair * n_steps * n_factors))
    for a in range(0, n, per):
        shape = (min(per, n - a), n_steps, n_factors)
        # no name keeps a chunk here once it is yielded
        yield _paired(rng.standard_normal(shape)) if cfg.antithetic else rng.standard_normal(shape)


def _paired(half: np.ndarray) -> np.ndarray:
    """Paths 2i and 2i+1 drawn as half[i] and -half[i]."""
    z = np.empty((2 * len(half), *half.shape[1:]))
    z[0::2] = half
    np.negative(half, out=z[1::2])
    return z


def _first_steps(cfg: SimConfig, n_steps: int, n_factors: int, keep: int) -> np.ndarray:
    """``normals(cfg, n_steps, n_factors)[:, :keep]``, drawn a chunk of paths at a time.

    A draw of one chunk is returned as drawn; otherwise each chunk's first
    ``keep`` steps are copied out and the chunk dropped, so the steps past
    ``keep`` are never held for more than one chunk.
    """
    z = None
    a = 0
    for chunk in _normal_chunks(cfg, n_steps, n_factors):
        if len(chunk) == cfg.n_paths:
            return chunk[:, :keep]
        if z is None:
            z = np.empty((cfg.n_paths, keep, n_factors))
        z[a : a + len(chunk)] = chunk[:, :keep]
        a += len(chunk)
        del chunk  # dropped before the next chunk is drawn
    return z


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


def _last_moves(live: np.ndarray) -> np.ndarray:
    """last[n]: the last grid index at which product n can differ from the index before it.

    Step k runs from grid index k to k + 1. A step whose live time is exactly
    0 adds +-0.0 to the log level, so past last[n] the product holds its value
    at last[n] bit for bit. The test is exact, with no tolerance: a delivery
    inside a step keeps that step live. Every product counts as moving over
    the first step, so each has a sanity moment at the first time after 0.
    """
    moving = live != 0
    return np.where(moving.any(axis=0), live.shape[0] - np.argmax(moving[::-1], axis=0), 1)


def _lognormal_blocks(
    rows: np.ndarray,
    live: np.ndarray,
    initial: np.ndarray,
    cfg: SimConfig,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The lognormal paths as blocks of grid times: (slice of the grid, products, values).

    A block holds only the products still moving at its first time (see
    ``_last_moves``), in their original order; ``products`` indexes them and
    the values are (paths, times, products) of that width. Past its last
    block a product holds the value its last block ended on. The normals are
    drawn once, a chunk of paths at a time, and only the steps up to the
    last block's end are kept. Each block runs the whole-grid steps on its
    own steps and products: shocks, scale, drift, then the cumulative sum,
    its first step carrying the log level the product's previous block ended
    on, so the sums run left to right as over the whole grid and give the
    same bits.
    """
    n_paths, n_prod = cfg.n_paths, rows.shape[0]
    last = _last_moves(live)
    slices = _time_slices((n_paths, cfg.n_steps + 1, n_prod), last)
    # the normals of the steps up to the last block's end, and of no later step
    z = _first_steps(cfg, cfg.n_steps, rows.shape[1], slices[-1].stop - 1)
    scale = np.sqrt(live)
    drift = -0.5 * (rows**2).sum(axis=1)[None, :] * live
    carry = np.zeros((n_paths, n_prod))  # log level at the end of each product's last block
    for s in slices:
        cols = np.flatnonzero(last >= s.start)
        blk = np.empty((n_paths, s.stop - s.start, cols.size))
        x = blk  # the log path, built in place
        if s.start == 0:
            blk[:, 0, :] = initial[cols]
            x = blk[:, 1:, :]
        steps = slice(max(s.start - 1, 0), s.stop - 1)  # step k ends at time k + 1
        if x.shape[1]:
            # einsum, not a multiply-add per factor: the two agree bit for bit
            # only up to 2 factors (numpy 2.4.6 differs from 3 factors on), and
            # the blocks must keep the bits of the whole-grid pass; a matmul
            # is faster but differs too. A contiguous copy of the block's
            # normals runs it about twice as fast as the strided slice.
            np.einsum("pkj,nj->pkn", np.ascontiguousarray(z[:, steps]), rows[cols], out=x)
            x *= scale[steps, cols]
            x += drift[steps, cols]
            if s.start:
                x[:, 0, :] += carry[:, cols]
            # np.cumsum's additions in its order, so its bits, one step's
            # (paths, products) slice per add: about twice as fast as numpy's
            # accumulate along the strided time axis
            for k in range(1, x.shape[1]):
                x[:, k] += x[:, k - 1]
            carry[:, cols] = x[:, -1, :]
            np.exp(x, out=x)
            x *= initial[cols]
        yield s, cols, blk


def _fill_frozen(values: np.ndarray, first: np.ndarray) -> None:
    """Give product n's cells from time index first[n] on the value just before, in place.

    Time is the second-to-last axis of ``values`` and products the last.
    """
    for n in np.flatnonzero(first < values.shape[-2]):
        values[..., first[n] :, n] = values[..., first[n] - 1, n, None]


def _lognormal_paths(law: _LognormalLaw, cfg: SimConfig) -> PathSet:
    """Every non-spot path set: the lognormal blocks copied into one array,
    with each product's freeze index, one past its last move."""
    values = np.empty((cfg.n_paths, cfg.n_steps + 1, law.rows.shape[0]))
    for s, cols, blk in _lognormal_blocks(law.rows, law.live, law.initial, cfg):
        values[:, s, cols] = blk
    stop = _last_moves(law.live) + 1
    _fill_frozen(values, stop)
    paths = PathSet(values, cfg.time_grid, law.keys, cfg)
    paths._stop = stop
    return paths


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
    # cumulative shocks and dc_q the exact jumps of c sqrt(dt) at lag q.
    # Each path's sum reads only its own shocks, so the sums run a chunk of
    # paths at a time; the first chunk is drawn before values is allocated.
    chunks = _normal_chunks(cfg, n, model.n_factors)
    shocks = next(chunks)
    values = np.zeros((cfg.n_paths, n + 1, len(markets)))
    lags = []
    for ki, mk in enumerate(markets):
        c = _spot_lag_vols(model, mk, n, cfg.step)  # (Nf, n)
        var = np.cumsum((c**2).sum(axis=0) * cfg.step)
        dc = np.diff(c * math.sqrt(cfg.step), axis=1, prepend=0.0)
        lags.append((dc, np.flatnonzero((dc != 0.0).any(axis=0)), var))
        values[:, 0, ki] = fwd[mk][0]
    a = 0
    while shocks is not None:
        np.cumsum(shocks, axis=1, out=shocks)
        paths = slice(a, a + len(shocks))
        for ki, (mk, (dc, jumps, var)) in enumerate(zip(markets, lags)):
            x = values[paths, 1:, ki]  # the log sum, built in place
            for q in jumps:
                x[:, q:] += shocks[:, : n - q, :] @ dc[:, q]
            x -= 0.5 * var
            np.exp(x, out=x)
            x *= fwd[mk][1:]
        a = paths.stop
        del shocks  # dropped before the next chunk is drawn
        shocks = next(chunks, None)
    return PathSet(values, grid, [ContractDescriptor("spot", mk) for mk in markets], cfg)


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


def _time_slices(shape: tuple[int, int, int], last: np.ndarray | None = None) -> list[slice]:
    """Consecutive slices of the time axis of a (path, time, product) array.

    Product n is reduced up to time index last[n], by default the whole grid.
    A block takes the products whose last index is at or past its first
    time and ends where the first of them stops, so no block holds a frozen
    cell, one past its product's last index. Each slice selects about _BLOCK_VALUES
    values at its own width, and at least one time; after every product's
    last index no slice is made.

    Reductions over paths treat every (time, product) column on its own, so
    blocking them gives the same bits as one whole-array call, with one
    exception: numpy sums a lone column, a (paths, 1, 1) block, pairwise,
    and a wider block path by path. So a block of one product reduces at
    least two times: it spans at least 2 times, and 3 from t = 0, whose
    moments skip that time. It may run past its product's last index, and a
    one-product remnant too short for that joins the block before it. Only a
    whole grid of one product over one step reduces one cell, as the
    whole-array call does.
    """
    n_paths, n_times, n_prod = shape
    last = np.full(n_prod, n_times - 1) if last is None else last
    slices, a = [], 0
    while a < n_times and (n := int((last >= a).sum())):
        b = min(a + max(1, _BLOCK_VALUES // (n_paths * n)), int(last[last >= a].min()) + 1)
        if n == 1:
            b = max(b, a + 2 + (a == 0))
        if n_times - b == 1 and (last >= b).sum() == 1:
            b = n_times
        b = min(b, n_times)
        slices.append(slice(a, b))
        a = b
    return slices


def _path_blocks(paths: PathSet) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """A path set's values as blocks of grid times: (slice of the grid, products, values).

    The lognormal engine's blocks, cut at the set's freeze index. A block of
    every product is a view; a narrower one is a C-order copy by np.take,
    since numpy sums the differently laid out ``values[:, s, cols]`` over
    paths with other bits.
    """
    last = paths._stop - 1
    for s in _time_slices(paths.values.shape, last):
        cols = np.flatnonzero(last >= s.start)
        blk = paths.values[:, s]
        yield s, cols, blk if cols.size == last.size else np.take(blk, cols, axis=2)


def _sample_variance(x: np.ndarray) -> np.ndarray:
    """x.var(axis=0, ddof=1), computed in x's own memory, which it overwrites.

    The steps of numpy's own variance, in its order, so the result has its
    bits; numpy would hold a second array the size of x for the deviations.
    """
    mean = np.add.reduce(x, axis=0, keepdims=True)
    mean /= x.shape[0]
    return _variance_about(x, mean, x)


def _variance_about(x: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sample variance over paths of x about its path mean ``mean``.

    The squared deviations go into ``out``, which may be x itself.
    """
    np.subtract(x, mean, out=out)
    np.square(out, out=out)
    return np.add.reduce(out, axis=0) / max(x.shape[0] - 1, 0)


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
    grid times for the products it names, as ``_lognormal_blocks`` and
    ``_path_blocks`` yield them. Each output treats every (time, product)
    column on its own, so any blocking gives the bits of one whole-array
    call (see ``_time_slices``). A product no later block names is frozen:
    its value no longer changes, so ``finish`` gives each of its later cells
    the outputs of the last time its blocks held. The parts asked for are
    built as the blocks arrive, as (times, products) arrays:

    * ``summary``: mean, 5 and 95 percent quantiles per grid time and
      product, from one sort per block; ``write_summary`` formats each
      distinct row once, at the end;
    * ``moments``: per grid time after 0 and product, the variance of the
      log ratio to the path's t=0 value, the mean and the mean's standard
      error;
    * ``export``: the first ``export`` paths, whole;
    * ``returns``: the pooled log returns of the first ``returns`` steps,
      path-major, one carried row spanning each block seam. Every product
      moves over those steps, so the blocks that hold them are whole-width.
      The sanity report centres them in place when it correlates them.
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
        self.summary = np.empty((3, n_times, n_prod)) if summary else None
        self.log_variance = self.mean = self.mean_se = None
        if moments:
            self.log_variance = np.empty((n_times - 1, n_prod))
            self.mean = np.empty_like(self.log_variance)
            self.mean_se = np.empty_like(self.log_variance)
        self.export = np.empty((min(export, n_paths), n_times, n_prod))
        self.returns = np.empty((n_paths, returns, n_prod)) if returns else None
        self.start: np.ndarray | None = None  # every path's values at t=0
        self._last: np.ndarray | None = None  # every path's values at the last time seen
        self.stop = np.zeros(n_prod, dtype=int)  # each product's first frozen time

    def add(self, s: slice, cols: np.ndarray, blk: np.ndarray) -> None:
        if s.start == 0:
            self.start = blk[:, 0, :].copy()
        if self.summary is not None:
            self._add_summary(s, cols, blk)
        if self.mean is not None:
            self._add_moments(s, cols, blk)
        self.export[:, s, cols] = blk[: len(self.export)]
        if self.returns is not None and s.start <= self.returns.shape[1]:
            self._add_returns(s, blk)
            self._last = blk[:, -1, :].copy()
        self.stop[cols] = s.stop

    def finish(self) -> None:
        """Give every product's frozen cells the outputs of its last time before them."""
        if self.summary is not None:
            _fill_frozen(self.summary, self.stop)
        if self.mean is not None:
            for moment in (self.log_variance, self.mean, self.mean_se):
                _fill_frozen(moment, self.stop - 1)  # row i holds time i + 1
        _fill_frozen(self.export, self.stop)

    def _add_summary(self, s: slice, cols: np.ndarray, blk: np.ndarray) -> None:
        # each (time, product) lane of paths sorted contiguously, not along
        # the strided path axis: the same order statistics, sorted faster
        lanes = np.ascontiguousarray(blk.transpose(1, 2, 0))
        lanes.sort(axis=-1)
        ordered = lanes.transpose(2, 0, 1)  # paths first again, as a view
        mean, q05, q95 = self.summary
        mean[s, cols] = blk.mean(axis=0)
        q05[s, cols] = _quantiles_of_sorted(ordered, 0.05)
        q95[s, cols] = _quantiles_of_sorted(ordered, 0.95)

    def _add_moments(self, s: slice, cols: np.ndarray, blk: np.ndarray) -> None:
        later = blk[:, 1:, :] if s.start == 0 else blk
        if not later.shape[1]:
            return
        rows = slice(max(s.start - 1, 0), s.stop - 1)  # row i holds time i + 1
        work = later / self.start[:, None, cols]
        np.log(work, out=work)
        self.log_variance[rows, cols] = _sample_variance(work)
        # not the summary's block mean sliced: on a one-product, one-step grid
        # numpy sums this (paths, 1, 1) slice pairwise but its block path by path
        mean = later.mean(axis=0)
        self.mean[rows, cols] = mean
        self.mean_se[rows, cols] = np.sqrt(_variance_about(later, mean, work)) / math.sqrt(self.n_paths)

    def _add_returns(self, s: slice, blk: np.ndarray) -> None:
        # return k is the log of the value at time k + 1 over the value at time k
        n = min(s.stop, self.returns.shape[1] + 1) - s.start  # block times up to the last return's end
        seam = int(s.start > 0)  # a later block's first return starts at the carried row
        rets = self.returns[:, s.start - seam : s.start + n - 1]
        if seam:
            np.divide(blk[:, 0], self._last, out=rets[:, 0])
        np.divide(blk[:, 1:n], blk[:, : n - 1], out=rets[:, seam:])
        np.log(rets, out=rets)

    def write_summary(self, path) -> None:
        labels = [_csv_field(key.label) for key in self.keys]
        cells = [f"{t:.10g},{label}," for t in self.time_grid.tolist() for label in labels]
        distinct, src = _distinct_cells(self.stop, self.time_grid.size)
        mean, q05, q95 = (a.ravel()[distinct].tolist() for a in self.summary)
        stats = [f"{m:.10g},{a:.10g},{b:.10g}\n" for m, a, b in zip(mean, q05, q95)]
        with open(path, "w", newline="") as fh:
            fh.write("time,product_key,mean,q05,q95\n")
            fh.write("".join([cell + stats[i] for cell, i in zip(cells, src)]))

    def write_paths(self, path) -> None:
        _write_path_rows(self.export, self.time_grid, self.keys, path, self.stop)


def _distinct_cells(stop: np.ndarray, n_times: int) -> tuple[np.ndarray, list[int]]:
    """The cells of a (time, product) array before product n freezes at stop[n].

    Returns their C-order positions and, for every cell in C order, the
    index among them of the cell whose value it takes: (min(t, stop[n] - 1), n).
    """
    t = np.arange(n_times)[:, None]
    distinct = (t < stop).ravel()
    rank = np.cumsum(distinct) - 1
    src = rank[(np.minimum(t, stop - 1) * stop.size + np.arange(stop.size)).ravel()]
    return np.flatnonzero(distinct), src.tolist()


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
    for s, cols, blk in _path_blocks(paths):
        stats.add(s, cols, blk)
    stats.finish()
    return _sanity_report(stats, model, paths.config, expected_mean)


def _sanity_report(
    stats: _BlockStats,
    model: FactorModel | ExponentialVol,
    cfg: SimConfig,
    expected_mean: np.ndarray | None = None,
) -> SanityReport:
    """sanity_check's verdicts on the moments and returns of a block pass.

    The correlation check centres ``stats.returns`` in place.
    """
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
        n_samp = stats.returns.size // len(keys)
        emp_corr = _pooled_correlation(stats.returns)
        rows = _rows_for(model, [(d.market, d.bucket) for d in keys])
        cov = rows @ rows.T
        dd = np.sqrt(np.diag(cov))
        model_corr = cov / np.outer(dd, dd)
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


def _pooled_correlation(returns: np.ndarray) -> np.ndarray:
    """np.corrcoef of the pooled returns, each product's (path, step) samples
    one variable, computed in place: ``returns`` is left centred.

    np.corrcoef(returns.reshape(-1, n).T) first copies its argument with the
    argument's strides; this runs np.cov's and np.corrcoef's own steps on
    that transposed view instead, so it has their bits without the copy.
    """
    x = returns.reshape(-1, returns.shape[-1]).T
    x -= np.average(x, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # one sample gives NaN, as np.corrcoef does
        c = np.dot(x, x.T.conj())
        c *= np.true_divide(1, x.shape[1] - 1)
        std = np.sqrt(np.diag(c))
        c /= std[:, None]
        c /= std[None, :]
    np.clip(c, -1, 1, out=c)
    return c


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
    A frozen cell repeats a checked value bit for bit, so it needs no check.
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
    for s, cols, blk in blocks:
        _check_values(blk)
        stats.add(s, cols, blk)
    stats.finish()
    return stats, _sanity_report(stats, model, cfg, expected_mean=expected_mean)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _write_path_rows(values: np.ndarray, time_grid: np.ndarray, keys, path, stop: np.ndarray) -> None:
    """paths.csv of every path in ``values``, path x time x product.

    Product n is frozen from time index stop[n] on: its cells there repeat
    its value at stop[n] - 1, so each path formats only its distinct values,
    with one % call. A path's rows are one join over (id, cell, value)
    pieces laid out by slice assignment, not a concatenation per row.
    """
    labels = [_csv_field(key.label) for key in keys]
    # "time,label," of each (time, product) cell, in the C order of a path's values
    cells = [f"{t:.10g},{label}," for t in time_grid.tolist() for label in labels]
    distinct, src = _distinct_cells(stop, time_grid.size)
    template = "%.10g\n" * distinct.size
    pieces: list = [None] * (3 * len(cells))  # row i is pieces[3i:3i + 3]
    pieces[1::3] = cells
    with open(path, "w", newline="") as fh:
        fh.write("path_id,time,product_key,value\n")
        for p in range(values.shape[0]):
            pieces[::3] = [f"{p},"] * len(cells)
            text = (template % tuple(values[p].ravel()[distinct].tolist())).splitlines(True)
            pieces[2::3] = map(text.__getitem__, src)
            fh.write("".join(pieces))


def write_paths_csv(paths: PathSet, path, max_paths: int | None = None) -> None:
    """Long format, one row per (path, time, product)."""
    limit = paths.n_paths if max_paths is None else min(max_paths, paths.n_paths)
    _write_path_rows(paths.values[:limit], paths.time_grid, paths.product_keys, path, paths._stop)


def write_summary_csv(paths: PathSet, path) -> None:
    """Mean and 5/95 percent quantiles per product and grid time.

    Each block of grid times is sorted once along the paths; both
    quantiles are read from that sort.
    """
    stats = _BlockStats(paths.n_paths, paths.time_grid, paths.product_keys, summary=True)
    for s, cols, blk in _path_blocks(paths):
        stats.add(s, cols, blk)
    stats.finish()
    stats.write_summary(path)
