"""Contract pricing: Black formula, European MC, and LSMC dynamic programs.

The American option and the exotic pricers (virtual power plant, swing,
gas storage) share one backward-induction core over (time, resource
state). Each pricer declares its moves once, as (valid, target) tables
over the states of a step (a validity mask and the successor of every
state), plus one cash(x, k) that turns step k's price column x into the
per-path immediate cash of each move; the core calls it as it reaches the
step, so no paths x steps cash matrix is built. In the core:

* the continuation value of every resource state is regressed on a
  polynomial basis of the observed price; all states share one design
  matrix per step, and U(U'y) from its thin SVD gives the in-sample
  continuation values without a second pass over the design;
* the design side (centre, scale, basis size, SVD) depends on the prices
  alone, so a generator local to the call sets it up in stacked blocks of
  steps and yields each step's set-up as the backward loop reaches it, or
  None where the step is set up alone; each set-up owns its rows of U,
  so a used step's U is freed as the loop runs;
* a swing rights sweep or a VPP lock sweep is one call over the union of
  its contracts' states: a swing's day 0 holds every start, a VPP carries
  one block of states per lock, and each contract reads its value from
  its own start state;
* a move may stop the contract (targets -1): it is then worth its cash
  alone. A step may regress on a price-only sample of its paths and
  decide there alone, the other paths taking a default move. The
  American option is one alive state, exercise (a stop) then hold,
  sampled on its in-the-money paths (Longstaff and Schwartz, 2001);
* values are carried state-major, one row of paths per resource state,
  and each move touches only the states it is valid in. A step holds the
  value-to-go, its new values and the fitted continuation whole, and
  decides a chunk of consecutive states at a time, so every other
  temporary of the decision is chunk-sized (_CHUNK_VALUES values);
* decisions compare immediate payoff plus fitted continuation, but the
  value carried backward is the realized future cash flow of the chosen
  action, which keeps the estimate a true lower bound for the optimal
  adapted policy and makes the perfect-foresight variant dominate it
  path by path;
* the perfect-foresight benchmark runs the same recursion with realized
  values in place of fitted ones, and the out-of-sample value runs it on
  fresh paths with the fitted regressions held fixed, which removes the
  look-ahead bias.

All cash flows are discounted to time zero with e^(-r t) off the path
time grid, so the pricers are agnostic to the grid's calendar meaning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import PricingError, ValidationError
from .simulation import PathSet

_TIE_TOL = 1e-9
_RIDGE = 1e-8  # ridge of the rank-deficient fallback in lsmc_continuation


def _normal_cdf(x: float) -> float:
    # erfc keeps full relative precision in the far left tail
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# European pricing
# ---------------------------------------------------------------------------


def black_price(
    forward: float,
    strike: float,
    total_variance: float,
    maturity: float = 0.0,
    rate: float = 0.0,
    kind: str = "call",
) -> float:
    """Price of a European option on a driftless lognormal forward.

    ``total_variance`` is the full integrated log variance Var[ln F(T0)],
    not an annualized volatility; the formula never needs the split into
    vol and time. Zero variance degenerates to discounted intrinsic value,
    puts come from parity.
    """
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be 'call' or 'put', got {kind!r}")
    if not (forward > 0 and strike > 0):
        raise ValidationError("forward and strike must be positive")
    if total_variance < 0 or not math.isfinite(total_variance):
        raise ValidationError("total_variance must be finite and non-negative")
    if maturity < 0:
        raise ValidationError("maturity must be non-negative")
    disc = math.exp(-rate * maturity)
    if total_variance == 0.0:
        call = disc * max(forward - strike, 0.0)
    else:
        sd = math.sqrt(total_variance)
        d1 = (math.log(forward / strike) + 0.5 * total_variance) / sd
        d2 = d1 - sd
        call = disc * (forward * _normal_cdf(d1) - strike * _normal_cdf(d2))
    if kind == "call":
        return call
    return call - disc * (forward - strike)


def call_payoff(strike: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda terminal: np.maximum(terminal - strike, 0.0)


def put_payoff(strike: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda terminal: np.maximum(strike - terminal, 0.0)


def _require_finite_rate(rate: float) -> None:
    """A NaN rate would otherwise surface as a NaN value or a regression error."""
    if not math.isfinite(rate):
        raise ValidationError(f"rate must be finite, got {rate}")


def _product_values(
    paths: PathSet, paths_name: str, product, product_name: str, n: int | None = None, unit: str = ""
) -> np.ndarray:
    """The values of product ``product`` over the first n grid points of ``paths`` (all by default).

    ``product`` must index one of the set's products, counting from the end
    when negative as numpy does, and the grid must hold n points; each
    failure is a ValidationError naming the argument.
    """
    k = len(paths.product_keys)
    if isinstance(product, bool) or not isinstance(product, (int, np.integer)) or not -k <= product < k:
        raise ValidationError(f"{product_name} = {product!r} is outside the {k} products of {paths_name}")
    if n is not None and paths.time_grid.size < n:
        raise ValidationError(f"{paths_name} cover {paths.time_grid.size} {unit}, contract needs {n}")
    return paths.values[:, :n, product]


def _pair_stats(samples: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Mean and standard error; antithetic pairs are averaged first."""
    x = samples.reshape(-1, 2).mean(axis=1) if antithetic else samples
    if x.size < 2:
        return float(x.mean()), 0.0
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def mc_european(
    paths: PathSet,
    maturity: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    rate: float = 0.0,
    product: int = 0,
) -> tuple[float, float]:
    """Discounted sample mean and standard error of payoff(F(T0)).

    ``maturity`` must land on the path grid; ``payoff`` maps the vector of
    terminal prices to per-path payoffs.
    """
    if not math.isfinite(maturity):
        raise ValidationError(f"maturity must be finite, got {maturity}")
    _require_finite_rate(rate)
    grid = paths.time_grid
    idx = int(np.argmin(np.abs(grid - maturity)))
    if abs(grid[idx] - maturity) > 1e-9 * max(1.0, abs(maturity)):
        raise PricingError(f"maturity {maturity} is not on the simulation grid")
    if paths.n_paths < 2:
        raise PricingError("mc_european needs at least two paths")
    vals = np.asarray(payoff(_product_values(paths, "paths", product, "product")[:, idx]), dtype=float)
    if vals.shape != (paths.n_paths,):
        raise PricingError("payoff must return one value per path")
    disc = math.exp(-rate * grid[idx])
    mean, se = _pair_stats(vals, paths.config.antithetic)
    return disc * mean, disc * se


# ---------------------------------------------------------------------------
# Regression machinery
# ---------------------------------------------------------------------------


@dataclass
class ContinuationFit:
    """Fitted continuation values as polynomials in a standardized state.

    ``coefficients`` has one column per resource state, so evaluating on a
    vector of prices yields the whole continuation surface in one product.
    """

    center: float
    scale: float
    dim: int
    coefficients: np.ndarray
    ridge_used: bool = False

    def design(self, x: np.ndarray) -> np.ndarray:
        """Vandermonde matrix [1, z, z^2, ...] of the standardized state."""
        return _design(np.asarray(x, dtype=float).ravel(), self.center, self.scale, self.dim)

    def evaluate(self, x) -> np.ndarray:
        return self.design(x) @ self.coefficients


def _design(x: np.ndarray, center, scale, dim: int) -> np.ndarray:
    """[1, z, z^2, ...] of z = (x - center) / scale along a new last axis.

    Each column is the previous one times z, the same products (and so
    the same bits) as np.vander, without its call overhead. ``x`` may be
    one step's samples or a (steps, samples) stack, with per-row centres
    and scales.
    """
    out = np.ones(x.shape + (dim,))
    if dim > 1:
        z = (x - center) / scale
        for j in range(1, dim):
            np.multiply(out[..., j - 1], z, out=out[..., j])
    return out


def _rank(sv, n_samples: int, dim: int):
    """np.linalg.lstsq's rank rule over the last axis of singular values."""
    return np.count_nonzero(sv > np.finfo(float).eps * max(n_samples, dim) * sv[..., :1], axis=-1)


@dataclass
class _Setup:
    """The price-only half of a continuation regression: the standardized
    basis and the thin SVD of its design. ``design`` is kept only when the
    rank falls below the basis size, for the ridge fallback."""

    center: float
    scale: float
    dim: int
    u: np.ndarray
    sv: np.ndarray
    vt: np.ndarray
    design: np.ndarray | None = None


def _setup(states, degree: int, min_samples_per_dim: int) -> _Setup:
    """Check the states, then standardize, size the basis and factor the design."""
    x = np.asarray(states, dtype=float)
    if x.ndim != 1:
        raise ValidationError("states and values must align on the sample axis")
    if not np.isfinite(x).all():
        raise ValidationError("regression inputs must be finite")
    if degree < 0:
        raise ValidationError("degree must be non-negative")
    # at most one basis function per distinct sample: never singular by construction
    xs = np.sort(x)
    dim = max(1, min(degree + 1, 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))))
    need = max(1, min_samples_per_dim * dim)  # an empty sample has no mean to centre on
    if x.size < need:
        raise PricingError(
            f"continuation regression needs at least {need} samples for {dim} basis functions, got {x.size}"
        )
    center = float(x.mean())
    scale = float(x.std())
    if scale == 0.0:
        dim, scale = 1, 1.0
    design = _design(x, center, scale, dim)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    deficient = _rank(sv, x.size, dim) < dim
    return _Setup(center, scale, dim, u, sv, vt, design if deficient else None)


def _solve(setup: _Setup, values) -> tuple[ContinuationFit, np.ndarray]:
    """Check the values, then fit them through the set-up's SVD (or ridge).

    Returns the fit and its in-sample values, state-major (one row per
    value column); U(U'y) gives them without a second pass over the design.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != setup.u.shape[0]:
        raise ValidationError("states and values must align on the sample axis")
    if not np.isfinite(y).all():
        raise ValidationError("regression inputs must be finite")
    design = setup.design
    if design is not None:
        warnings.warn("rank-deficient continuation design; using ridge fallback", RuntimeWarning, stacklevel=3)
        gram = design.T @ design + _RIDGE * np.eye(setup.dim)
        coefficients = np.linalg.solve(gram, design.T @ y)
        fitted = coefficients.T @ design.T
    else:
        uty = setup.u.T @ y
        coefficients = (setup.vt.T / setup.sv) @ uty
        fitted = uty.T @ setup.u.T
    fit = ContinuationFit(setup.center, setup.scale, setup.dim, coefficients, design is not None)
    return fit, fitted


def lsmc_continuation(
    states, values, degree: int = 3, min_samples_per_dim: int = 10
) -> ContinuationFit:
    """Least-squares fit of realized future values on polynomials of the state.

    ``values`` may be a matrix with one column per resource state; all
    columns share the design matrix and are solved together through one
    thin SVD of it, with the rank rule of np.linalg.lstsq (singular values
    above eps * max(samples, basis size) * the largest). The basis order
    is capped at the number of distinct state samples minus one, which
    keeps the design from being singular by construction; a residual rank
    deficiency falls back to ridge regression with a warning.
    """
    return _solve(_setup(states, degree, min_samples_per_dim), values)[0]


@dataclass(frozen=True)
class LsmcSettings:
    """Regression knobs shared by all LSMC pricers."""

    degree: int = 3
    min_samples_per_dim: int = 10

    def __post_init__(self):
        _require_finite(self)


_PLAN_VALUES = 2**18  # design values in one stacked block of a regression plan


def _plan(prices: np.ndarray, settings: LsmcSettings):
    """Yield the regression set-up of each step of a price array (paths x
    steps), from the last step back, or None where _setup must run alone.

    Steps are set up in stacked blocks of consecutive steps, each built when
    the loop asks for its last step: one contiguous copy, sort, mean, std,
    design and batched SVD per block, each row computed with the same float
    operations as _setup on that step alone. A step whose basis is reduced,
    whose scale is zero or non-finite, or whose design is rank deficient
    yields None, so it keeps _setup's path and messages. Each set-up owns
    its rows of U and is given up as it is yielded, so a used step's U is
    freed as the loop runs and a block is gone before the next is built.
    """
    n, degree = prices.shape[0], settings.degree
    dim = degree + 1
    size = max(1, _PLAN_VALUES // (n * max(dim, 1)))
    for hi in range(prices.shape[1], 0, -size):
        lo = max(0, hi - size)
        block: list[_Setup | None] = [None] * (hi - lo)
        if degree >= 0 and n >= settings.min_samples_per_dim * dim:
            blk = np.ascontiguousarray(prices[:, lo:hi].T)  # one row per step
            xs = np.sort(blk, axis=1)
            distinct = 1 + np.count_nonzero(xs[:, 1:] != xs[:, :-1], axis=1)
            del xs
            center, scale = blk.mean(axis=1), blk.std(axis=1)
            # a finite mean implies finite samples
            rows = np.flatnonzero((distinct >= dim) & np.isfinite(center) & np.isfinite(scale) & (scale != 0.0))
            design = _design(blk[rows], center[rows, None], scale[rows, None], dim)
            del blk
            u, sv, vt = np.linalg.svd(design, full_matrices=False)
            del design
            for i in np.flatnonzero(_rank(sv, n, dim) == dim):
                j = rows[i]
                block[j] = _Setup(float(center[j]), float(scale[j]), dim, u[i].copy(), sv[i], vt[i])
            del u, sv, vt
        while block:
            yield block.pop()


@dataclass
class PolicyValuation:
    """Value estimate plus the policy that produced it: ``fits[k]`` is the
    regression that decided at step k, None where none ran."""

    value: float
    std_error: float
    fits: list[ContinuationFit | None] | None = None

    def __post_init__(self):
        if not self.std_error >= 0:  # NaN fails too
            raise ValidationError("std_error must be non-negative")


# ---------------------------------------------------------------------------
# Contract definitions
# ---------------------------------------------------------------------------


def _require_integer(name: str, value) -> None:
    """A float count would be truncated or fail deep in numpy, and a bool
    would count as 0 or 1; int and numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_finite(contract) -> None:
    """NaN passes every range check below, and infinity the lower bounds.

    A field declared int must hold an integer.
    """
    for f in fields(contract):
        v = getattr(contract, f.name)
        if f.type == "int":
            _require_integer(f.name, v)
        elif isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class VppContract:
    """Power plant operating rights over an hourly window.

    While committed the unit must run with output in [q_min, q_max]; since
    the payoff is linear in output, it is bang-bang: q_max when the
    spark spread is positive, q_min otherwise (the forced loss at q_min is
    what makes the minimum-on time bite). Switching on costs start_cost
    and locks the unit on for t_on hours; switching off costs stop_cost
    and locks it off for t_off hours.
    """

    n_hours: int
    t_on: int
    t_off: int
    q_min: float
    q_max: float
    start_cost: float
    stop_cost: float
    heat_rate: float

    def __post_init__(self):
        _require_finite(self)
        if self.n_hours < 1:
            raise ValidationError("n_hours must be at least 1")
        if self.t_on < 1 or self.t_off < 1:
            raise ValidationError("t_on and t_off must be at least 1")
        # q_min = 0 is allowed: it is the unconstrained no-must-run limit
        if not 0 <= self.q_min <= self.q_max or self.q_max <= 0:
            raise ValidationError("need 0 <= q_min <= q_max with q_max > 0")
        if self.start_cost < 0 or self.stop_cost < 0:
            raise ValidationError("start and stop costs must be non-negative")
        if self.heat_rate < 0:
            raise ValidationError("heat_rate must be non-negative")


@dataclass(frozen=True)
class SwingContract:
    """Daily swing rights: at most one up- or downswing per day.

    An upswing pays quantity * (S - K)+, a downswing quantity * (K - S)+.
    Rights are held optionally, so u_max + d_max may exceed the window;
    excess rights are simply never used and the value saturates at the
    strip of daily straddles.
    """

    n_days: int
    u_max: int
    d_max: int
    strike: float
    quantity: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.n_days < 1:
            raise ValidationError("n_days must be at least 1")
        if not 0 <= self.u_max <= self.n_days or not 0 <= self.d_max <= self.n_days:
            raise ValidationError("u_max and d_max must lie in [0, n_days]")
        if self.strike <= 0:
            raise ValidationError("strike must be positive")
        if self.quantity <= 0:
            raise ValidationError("quantity must be positive")


@dataclass(frozen=True)
class StorageContract:
    """Gas storage: daily inject / hold / withdraw on a volume grid.

    withdraw_rate is negative (maximum daily draw), inject_rate positive.
    Ending below v_target costs penalty_scale times the terminal spot per
    missing unit, i.e. the shortfall is bought back at a marked-up price.
    """

    n_days: int
    v_min: float
    v_max: float
    v_start: float
    v_target: float
    withdraw_rate: float
    inject_rate: float
    penalty_scale: float = 2.0

    def __post_init__(self):
        _require_finite(self)
        if self.n_days < 1:
            raise ValidationError("n_days must be at least 1")
        if not self.v_min <= self.v_start <= self.v_max:
            raise ValidationError("need v_min <= v_start <= v_max")
        if not self.v_min <= self.v_target <= self.v_max:
            raise ValidationError("need v_min <= v_target <= v_max")
        if not (self.withdraw_rate < 0 < self.inject_rate):
            raise ValidationError("need withdraw_rate < 0 < inject_rate")
        if self.penalty_scale < 0:
            raise ValidationError("penalty_scale must be non-negative")


# ---------------------------------------------------------------------------
# Shared backward induction
# ---------------------------------------------------------------------------

_CHUNK_VALUES = 2**16  # values in one chunk of states a step decides at a time (512 KiB)


def _cells(mask: np.ndarray):
    """The states a mask selects: a slice when they are contiguous, else indices.

    None when it selects none. A slice makes the reads and writes of those
    rows views instead of copies.
    """
    idx = mask.nonzero()[0]
    if idx.size == 0:
        return None
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return slice(lo, hi) if hi - lo == idx.size else idx


def _shifted(values: np.ndarray, target: np.ndarray, immediate: np.ndarray) -> np.ndarray:
    """values[target] + immediate, row by row, in a new array.

    np.take always copies, so the add runs in place on that copy; a basic
    slice of values would be a view, and += on it would corrupt values.
    """
    out = np.take(values, target, axis=0)
    out += immediate
    return out


def _put(out: np.ndarray, rows, values: np.ndarray, target: np.ndarray, immediate) -> None:
    """out[rows] = values[target] + immediate; a slice of rows is written in place."""
    if isinstance(rows, slice):
        view = out[rows]
        np.take(values, target, axis=0, out=view, mode="clip")  # targets are in range
        view += immediate
    else:
        out[rows] = _shifted(values, target, immediate)


def _cell_plan(tables, chunk: slice) -> tuple[int, list, object]:
    """Split a chunk of a step's states into the cells each (valid, target) table sets.

    Returns the chunk's state count; per table, whether it stops (all its
    targets -1, then read as row 0 of a source of zeros), its fresh cells
    (valid in no earlier table) and contested cells, each with their
    targets; and the cells no table is valid in. Cells count from the
    chunk's first state.
    """
    seen = np.zeros(tables[0][0][chunk].size, dtype=bool)
    cells = []
    for valid, target in tables:
        valid = valid[chunk]
        fresh, contested = _cells(valid & ~seen), _cells(valid & seen)
        seen |= valid
        stops = bool((target < 0).all())
        t = np.zeros_like(valid, dtype=target.dtype) if stops else target[chunk]
        t_fresh = None if fresh is None else t[fresh]
        cells.append((stops, fresh, t_fresh, contested, None if contested is None else t[contested]))
    return seen.size, cells, _cells(~seen)


def _backward_induction(
    price_state: np.ndarray,
    terminal: np.ndarray,
    moves: Sequence[list[tuple[np.ndarray, np.ndarray]]],
    cash,
    settings: LsmcSettings,
    foresight: bool,
    fits: list[ContinuationFit | None] | None = None,
    samples: Sequence | None = None,
    default: int = 0,
) -> tuple[np.ndarray, list[ContinuationFit | None] | None]:
    """Generic realized-cash-flow recursion over (step, resource state).

    price_state[:, k] is the regression state at step k; terminal, the
    value matrix (n_paths, n_states) of the last layer, seeds the
    value-to-go. moves[k] lists step k's (valid, target) tables: a mask
    over the states of step k and their successor indices into the states
    of step k + 1 (so the state count may change); a table of -1 targets
    stops the contract and is worth its cash alone. cash(x, k) returns the
    per-path immediate cash of each table, in order, from the price column
    x = price_state[:, k]. With foresight=True realized values decide
    (per-path optimum); otherwise fitted continuations decide and realized
    values are carried. Given ``fits`` from an earlier call, step k's
    continuation is fits[k] evaluated on its prices: on fresh paths, the
    out-of-sample value of that fixed policy. Otherwise every step's
    regression solves at one call site, on the set-up the plan of
    price_state yields for it, or on _setup of its prices where the plan
    yields None.

    ``samples[k]``, unless None, selects step k's regression sample (a
    path mask or indices, from the prices alone). A call with samples
    builds no plan: each step is set up with _setup alone, and a sampled
    step decides only on its sample; the other paths take table
    ``default``. A sample too small for _setup's size rule decides
    nowhere, and the step's fit is None; on an unsampled step that error
    is raised.

    Values are carried state-major, (n_states, n_paths), and returned as
    the transposed view. The first valid table of a state sets it; a later
    one replaces it only when its score beats the best so far by more than
    _TIE_TOL. A state with no valid table is worth -inf.
    """
    # each step's set-up as the loop reaches it; a call with samples sets up every step alone
    plan = _plan(price_state, settings) if samples is None else iter(())
    cf = np.ascontiguousarray(terminal.T)
    fitted: list[ContinuationFit | None] = []
    rows = max(1, _CHUNK_VALUES // max(price_state.shape[0], 1))  # states per chunk
    # per table list, each chunk's first state and cell plan; moves holds
    # every list, so no id is reused
    cell_plans: dict[int, list] = {}
    for k in range(price_state.shape[1] - 1, -1, -1):
        x = price_state[:, k]
        immediate = cash(x, k)
        tables = moves[k]
        n_states = tables[0][0].size
        if id(tables) not in cell_plans:
            cell_plans[id(tables)] = [
                (lo, _cell_plan(tables, slice(lo, lo + rows))) for lo in range(0, n_states, rows)
            ]
        sample = None if samples is None else samples[k]
        if sample is not None:  # every path takes the default move; the sample may then decide
            valid, target = tables[default]
            held = np.full((n_states, cf.shape[1]), -np.inf)
            c = immediate[default]
            held[valid] = c if (target < 0).all() else _shifted(cf, target[valid], c)
            cf, x, immediate = cf[:, sample], x[sample], [col[sample] for col in immediate]
        if foresight:
            fit, cont = None, cf
        elif fits is not None:
            fit = fits[k]
            cont = None if fit is None and sample is not None else fit.evaluate(x).T
        else:
            try:
                setup = next(plan, None) or _setup(x, settings.degree, settings.min_samples_per_dim)
                fit, cont = _solve(setup, cf.T)
                del setup  # a used step's U is freed before the plan builds its next block
            except PricingError:  # too small a sample: the default move on every path
                if sample is None:
                    raise
                fit = cont = None
        fitted.append(fit)
        if cont is None:
            cf = held
            continue
        new_cf = np.empty((n_states, cf.shape[1]))
        stop = np.zeros((1, cf.shape[1]))  # a stop's realized value and score are its cash alone
        # a chunk of states at a time, so the decision's temporaries stay chunk-sized
        for lo, (size, cells, unseen) in cell_plans[id(tables)]:
            out = new_cf[lo : lo + size]
            # with foresight the score is the realized value, so best is out
            best = out if foresight else np.empty_like(out)
            for i, (c, (stops, fresh, t_fresh, contested, t)) in enumerate(zip(immediate, cells)):
                values, scores = (stop, stop) if stops else (cf, cont)
                if fresh is not None:
                    _put(out, fresh, values, t_fresh, c)
                    if not foresight:
                        _put(best, fresh, scores, t_fresh, c)
                if contested is not None:
                    # best is settled before realized is drawn, so score and
                    # realized are not both held through an np.where
                    score = _shifted(scores, t, c)
                    better = score > best[contested] + _TIE_TOL
                    if not foresight and i < len(cells) - 1:
                        best[contested] = np.where(better, score, best[contested])
                    # with foresight or a stop, scores is values: score is realized
                    realized = score if foresight or stops else _shifted(values, t, c)
                    del score
                    out[contested] = np.where(better, realized, out[contested])
                    del realized
            if unseen is not None:
                out[unseen] = -np.inf
        del values, scores, cont, best  # drop the aliases: the old cf is freed when rebound
        if sample is not None:
            held[:, sample] = new_cf
            new_cf = held
        cf = new_cf
    return cf.T, None if foresight else fitted[::-1]


def _policy_values(
    price_state: np.ndarray,
    terminal: np.ndarray,
    moves: Sequence[list[tuple[np.ndarray, np.ndarray]]],
    cash,
    starts: Sequence[int],
    antithetic: bool,
    settings: LsmcSettings,
    foresight: bool,
    fits: list[ContinuationFit] | None = None,
) -> list[tuple[np.ndarray, PolicyValuation]]:
    """Run the core once; return each start state's per-path cash and its valuation."""
    cf, fits = _backward_induction(price_state, terminal, moves, cash, settings, foresight, fits)
    return [(cf[:, s], PolicyValuation(*_pair_stats(cf[:, s], antithetic), fits)) for s in starts]


def _require_dominance(upper: np.ndarray, lower: np.ndarray, what: str) -> None:
    """Path-by-path bound check, up to rounding in the summed cash flows."""
    if np.any(upper < lower - 1e-7):
        raise PricingError(f"internal check failed: {what}")


# ---------------------------------------------------------------------------
# American options
# ---------------------------------------------------------------------------


def american_option(
    paths: PathSet,
    strike: float,
    rate: float = 0.0,
    kind: str = "put",
    settings: LsmcSettings = LsmcSettings(),
    product: int = 0,
    last_exercise: int | None = None,
) -> PolicyValuation:
    """Longstaff-Schwartz value with exercise on every grid date.

    Dates 1..last - 1 run on the backward core as one alive state with the
    moves exercise (a stop worth the discounted intrinsic value) and hold.
    Exercise comes first, so the core's tie rule exercises unless the
    continuation beats it by more than _TIE_TOL. Each date regresses on
    its in-the-money paths, and the others hold; a date with too few of
    them for the set-up's sample-size rule (none included) holds on every
    path and has no fit. Date 0 exercises only when the intrinsic value
    beats the mean continuation. ``last_exercise`` ends the window there.
    """
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be 'call' or 'put', got {kind!r}")
    if not (math.isfinite(strike) and strike > 0):
        raise ValidationError("strike must be positive and finite")
    _require_finite_rate(rate)
    grid = paths.time_grid
    if last_exercise is not None:
        _require_integer("last_exercise", last_exercise)
    last = grid.size - 1 if last_exercise is None else int(last_exercise)
    if not 0 <= last < grid.size:
        raise ValidationError("last_exercise outside the path grid")
    s = _product_values(paths, "paths", product, "product", last + 1)
    intrinsic = np.maximum(s - strike, 0.0) if kind == "call" else np.maximum(strike - s, 0.0)
    disc = np.exp(-rate * grid)
    alive = np.array([True])
    moves = [[(alive, np.array([-1])), (alive, np.array([0]))]] * (last - 1)

    def cash(x, k):  # step k is grid date k + 1
        return disc[k + 1] * intrinsic[:, k + 1], np.zeros_like(x)

    terminal = disc[last] * intrinsic[:, last, None]
    itm = [np.flatnonzero(row) for row in intrinsic[:, 1:last].T > 0]  # step k's sample
    cf, fits = _backward_induction(s[:, 1:last], terminal, moves, cash, settings, False, samples=itm, default=1)
    value, se = _pair_stats(cf[:, 0], paths.config.antithetic)
    if intrinsic[0, 0] > value:
        value, se = float(intrinsic[0, 0]), 0.0
    return PolicyValuation(value, se, fits)


# ---------------------------------------------------------------------------
# Virtual power plant
# ---------------------------------------------------------------------------


@dataclass
class VppValuation:
    lsmc: PolicyValuation
    naive: float
    naive_std_error: float
    upper_bound: float
    upper_bound_std_error: float


def _vpp_moves(locks: Sequence[tuple[int, int]]) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[int]]:
    """Commitment state machines, one block of states per distinct (t_on, t_off)
    of ``locks``: index = lock hours left, on block then off block.

    A state (mode, lock) entering an hour runs in that mode for the hour;
    lock > 0 forces the mode to persist. Switching on at hour k makes
    hours k..k+t_on-1 mandatory, so the successor entering hour k+1
    carries t_on-1 locked hours (symmetrically for switching off). The
    tables are: run while on, idle while off, start from (off, lock 0),
    stop from (on, lock 0); no move leaves its block. Returns the tables
    and each lock's start state, (off, lock 0) of its block: the window
    opens with the unit off and free.
    """
    first: dict[tuple[int, int], int] = {}  # each distinct lock's first state
    for t_on, t_off in locks:
        first.setdefault((t_on, t_off), sum(map(sum, first)))  # the states of the blocks before it
    blocks = []
    for (t_on, t_off), lo in first.items():
        state = np.arange(t_on + t_off)
        is_on = state < t_on
        stay = lo + np.maximum(state - 1, np.where(is_on, 0, t_on))
        switch = lo + np.where(is_on, state.size - 1, t_on - 1)
        blocks.append([(is_on, stay), (~is_on, stay), (state == t_on, switch), (state == 0, switch)])
    tables = [tuple(map(np.concatenate, zip(*table))) for table in zip(*blocks)]
    return tables, [first[t_on, t_off] + t_on for t_on, t_off in locks]


def price_vpp(
    contract: VppContract,
    power_paths: PathSet,
    fuel_paths: PathSet,
    rate: float = 0.0,
    settings: LsmcSettings = LsmcSettings(),
    power_product: int = 0,
    fuel_product: int = 0,
) -> VppValuation:
    """LSMC value of the plant plus perfect-foresight and strip benchmarks.

    Power and fuel paths must come from one joint simulation (same seed,
    paths and grid). The regression state is the spark spread. The strip
    bound values every hour as an unconstrained spark-spread call at
    q_max; perfect foresight optimizes each path in hindsight. Both
    dominate the LSMC value path by path, which is asserted.
    """
    locks = [(contract.t_on, contract.t_off)]
    return _price_vpps(contract, locks, power_paths, fuel_paths, rate, settings, power_product, fuel_product)[0]


def _price_vpps(
    contract: VppContract, locks, power_paths, fuel_paths, rate, settings, power_product, fuel_product
) -> list[VppValuation]:
    """price_vpp of the contract with (t_on, t_off) set to each pair of ``locks``. The
    cash depends on neither lock, so one LSMC pass and one foresight pass run
    over the union of the locks' blocks of states."""
    _require_finite_rate(rate)
    if power_paths.config != fuel_paths.config or power_paths.time_grid.size != fuel_paths.time_grid.size:
        raise ValidationError("power and fuel paths must share seed, path count and grid")
    n = contract.n_hours
    s_power = _product_values(power_paths, "power_paths", power_product, "power_product", n, "hours")
    s_fuel = _product_values(fuel_paths, "fuel_paths", fuel_product, "fuel_product", n, "hours")
    spread = s_power - contract.heat_rate * s_fuel
    disc = np.exp(-rate * power_paths.time_grid[:n])

    # immediate cash depends on the state only through on/off, so the four
    # (action, mode) combinations are four masked tables
    def cash(x, k):
        gen = (contract.q_max * np.maximum(x, 0.0) + contract.q_min * np.minimum(x, 0.0)) * disc[k]
        start, stop = -contract.start_cost * disc[k] + gen, -contract.stop_cost * disc[k]
        return gen, np.zeros_like(x), start, np.full_like(x, stop)

    tables, starts = _vpp_moves(locks)
    moves = [tables] * n
    terminal = np.zeros((power_paths.n_paths, tables[0][0].size))
    anti = power_paths.config.antithetic
    lsmc = _policy_values(spread, terminal, moves, cash, starts, anti, settings, False)
    naive = _policy_values(spread, terminal, moves, cash, starts, anti, settings, True)
    strip_sample = (contract.q_max * np.maximum(spread, 0.0) * disc[None, :]).sum(axis=1)
    strip, strip_se = _pair_stats(strip_sample, anti)

    results = []
    for (sample, policy), (naive_sample, foresight) in zip(lsmc, naive):
        _require_dominance(naive_sample, sample, "foresight value below policy value")
        _require_dominance(strip_sample, naive_sample, "strip bound below foresight value")
        results.append(VppValuation(policy, foresight.value, foresight.std_error, strip, strip_se))
    return results


# ---------------------------------------------------------------------------
# Swing contracts
# ---------------------------------------------------------------------------


@dataclass
class SwingValuation:
    lsmc: PolicyValuation
    lower_bound: float
    lower_bound_std_error: float
    upper_bound: float
    upper_bound_std_error: float
    states: list[list[tuple[int, int]]]


def _swing_layers(contract: SwingContract, starts: Sequence[tuple[int, int]] = ()):
    """Per-step swing states and the (valid, target) table of every move.

    layers[k] lists, sorted, the (upswings, downswings) left entering day k
    for k = 0..n_days. With r = n_days - k days left and one exercise a day,
    (u, d) is worth exactly (min(u, r), min(d, r)), so each layer holds the
    clamped states reachable from the starts, the (u_max, d_max) pairs of
    ``starts`` or else the contract's own: layers[0] holds them and
    layers[n_days] is (0, 0). Clamping commutes with every move, so
    moves[k] = [hold, up, down] over layers[k] indexes into layers[k + 1],
    and a state's value-to-go does not depend on the start it came from.
    """
    n = contract.n_days
    layers = [sorted(set(starts) or {(contract.u_max, contract.d_max)})]
    moves = []
    for k in range(n):
        r = n - k - 1
        rows = [
            (
                (min(u, r), min(d, r)),
                (min(u - 1, r), min(d, r)) if u else None,
                (min(u, r), min(d - 1, r)) if d else None,
            )
            for u, d in layers[k]
        ]
        nxt = sorted({s for row in rows for s in row if s is not None})
        pos = {s: i for i, s in enumerate(nxt)}
        moves.append(
            [
                (np.array([x is not None for x in succ]), np.array([pos.get(x, 0) for x in succ]))
                for succ in zip(*rows)
            ]
        )
        layers.append(nxt)
    return layers, moves


def price_swing(
    contract: SwingContract,
    spot_paths: PathSet,
    rate: float = 0.0,
    settings: LsmcSettings = LsmcSettings(),
    product: int = 0,
) -> SwingValuation:
    """LSMC swing value with its American lower and European upper bounds.

    The state is (remaining upswings, remaining downswings); one exercise
    per day at most. Day k carries only the states reachable from
    (u_max, d_max) in k days, each clamped to at most the days left
    (rights beyond them can never be used), so a saturated contract runs
    one state per day instead of the full (u_max+1)(d_max+1) grid; the
    value is the same. The result's ``states[k]`` lists the states entering
    day k: the columns of ``lsmc.fits[k]`` follow ``states[k + 1]``.

    The lower bound is an American call plus an American put priced on the
    same paths; the upper bound is the strip of daily European calls and
    puts, which dominates path by path. A bound breach beyond three
    combined standard errors raises.
    """
    return _price_swings(contract, [(contract.u_max, contract.d_max)], spot_paths, rate, settings, product)[0]


def _price_swings(contract: SwingContract, rights, spot_paths, rate, settings, product) -> list[SwingValuation]:
    """price_swing of the contract with (u_max, d_max) set to each pair of ``rights``,
    from one LSMC pass whose day 0 holds every start and one pricing of each
    American leg. The results share the pass's ``states`` and fits."""
    _require_finite_rate(rate)
    n = contract.n_days
    s = _product_values(spot_paths, "spot_paths", product, "product", n, "days")
    disc = np.exp(-rate * spot_paths.time_grid[:n])
    q, strike = contract.quantity, contract.strike

    def cash(x, k):
        up = q * np.maximum(x - strike, 0.0) * disc[k]
        return np.zeros_like(x), up, q * np.maximum(strike - x, 0.0) * disc[k]

    layers, moves = _swing_layers(contract, rights)
    terminal = np.zeros((spot_paths.n_paths, len(layers[n])))
    anti = spot_paths.config.antithetic
    starts = [layers[0].index(pair) for pair in rights]
    lsmc = _policy_values(s, terminal, moves, cash, starts, anti, settings, False)
    # one of the two legs is exactly 0, so this is the call plus the put strip
    ub_sample = (q * np.abs(s - strike) * disc).sum(axis=1)
    ub, ub_se = _pair_stats(ub_sample, anti)

    legs = {
        kind: american_option(spot_paths, strike, rate, kind, settings, product, n - 1)
        for i, kind in enumerate(("call", "put"))
        if any(pair[i] for pair in rights)
    }
    results = []
    for (u_max, d_max), (sample, policy) in zip(rights, lsmc):
        parts = [legs[kind] for kind, held in (("call", u_max), ("put", d_max)) if held]
        lb = q * sum(p.value for p in parts)
        lb_se = q * math.sqrt(sum(p.std_error**2 for p in parts))

        _require_dominance(ub_sample, sample, "straddle strip below swing value")
        # the absolute term absorbs rounding when a certain value has zero standard errors
        slack = 3.0 * math.sqrt(policy.std_error**2 + lb_se**2) + 1e-9 * max(1.0, abs(lb))
        if policy.value < lb - slack:
            raise PricingError(f"swing value {policy.value:.6g} breaches its American lower bound {lb:.6g}")
        results.append(SwingValuation(policy, lb, lb_se, ub, ub_se, layers))
    return results


# ---------------------------------------------------------------------------
# Gas storage
# ---------------------------------------------------------------------------


@dataclass
class StorageValuation:
    sdp: PolicyValuation
    deterministic: float
    deterministic_std_error: float
    out_of_sample: PolicyValuation | None
    volume_grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    truncated_low: bool = False
    truncated_high: bool = False


def _storage_grid(contract: StorageContract) -> tuple[np.ndarray, int, int, int, bool, bool]:
    step = min(contract.inject_rate, -contract.withdraw_rate)
    i_units = contract.inject_rate / step
    w_units = -contract.withdraw_rate / step
    if abs(i_units - round(i_units)) > 1e-9 or abs(w_units - round(w_units)) > 1e-9:
        raise ValidationError(
            "inject_rate and withdraw_rate must be integer multiples of the "
            "smaller rate so every move stays on the volume grid"
        )
    i_units, w_units = int(round(i_units)), int(round(w_units))
    tol = 1e-9 * max(1.0, abs(contract.v_max))
    j_lo = math.ceil((contract.v_min - contract.v_start) / step - 1e-12)
    j_hi = math.floor((contract.v_max - contract.v_start) / step + 1e-12)
    grid = contract.v_start + step * np.arange(j_lo, j_hi + 1)
    truncated_low = grid[0] > contract.v_min + tol
    truncated_high = grid[-1] < contract.v_max - tol
    v0_idx = -j_lo
    # target must sit on the grid and be reachable inside the window
    t_units = (contract.v_target - contract.v_start) / step
    if abs(t_units - round(t_units)) > 1e-9:
        raise ValidationError("v_target is not on the volume grid spanned by the rates")
    t_units = int(round(t_units))
    # a injections and b = (a * i_units - t_units) / w_units withdrawals; every
    # a + b <= n_days has a <= n_days, so one search over a finds any solution
    reachable = any(
        a * i_units - t_units >= 0
        and (a * i_units - t_units) % w_units == 0
        and a + (a * i_units - t_units) // w_units <= contract.n_days
        for a in range(contract.n_days + 1)
    )
    if not reachable:
        raise ValidationError("v_target is unreachable from v_start within the window")
    return grid, v0_idx, i_units, w_units, truncated_low, truncated_high


def price_storage(
    contract: StorageContract,
    spot_paths: PathSet,
    fresh_paths: PathSet | None = None,
    rate: float = 0.0,
    settings: LsmcSettings = LsmcSettings(),
    product: int = 0,
) -> StorageValuation:
    """Storage value by LSMC dynamic programming on a volume grid.

    The grid anchors at the starting volume with spacing equal to the
    smaller of the two rates; if the capacity bounds are not multiples of
    the spacing the grid is truncated inward and the result flags it.
    Decisions are bang-bang (payoff linear in the move): inject, hold or
    withdraw. ``fresh_paths`` (a different seed) replays the fitted policy
    out of sample to expose look-ahead bias: the backward core runs on them
    with the fitted regressions held fixed.
    """
    _require_finite_rate(rate)
    n = contract.n_days
    s = _product_values(spot_paths, "spot_paths", product, "product", n + 1, "points")
    if fresh_paths is not None:
        if fresh_paths.config.seed == spot_paths.config.seed:
            raise ValidationError("fresh_paths must use a different seed for the out-of-sample test")
        sf = _product_values(fresh_paths, "fresh_paths", product, "product", n + 1, "points")
        # the replay is discounted on the fitting grid, so the grids must agree
        t_fit, t_fresh = spot_paths.time_grid[: n + 1], fresh_paths.time_grid[: n + 1]
        if np.any(np.abs(t_fresh - t_fit) > 1e-12 * np.abs(t_fit)):
            raise ValidationError(
                "fresh_paths time grid differs from the fitting paths' grid "
                "within the contract window"
            )
    grid, v0_idx, i_units, w_units, trunc_lo, trunc_hi = _storage_grid(contract)
    state = np.arange(grid.size)
    hold = (np.ones(grid.size, dtype=bool), state)
    inject = (state + i_units < grid.size, np.minimum(state + i_units, grid.size - 1))
    withdraw = (state >= w_units, np.maximum(state - w_units, 0))
    moves = [[hold, inject, withdraw]] * n
    disc = np.exp(-rate * spot_paths.time_grid[: n + 1])
    short = np.maximum(contract.v_target - grid, 0.0)
    penalty = -contract.penalty_scale * disc[n]

    def cash(x, k):
        up, down = -x * contract.inject_rate * disc[k], -x * contract.withdraw_rate * disc[k]
        return np.zeros_like(x), up, down

    terminal = penalty * s[:, n, None] * short
    anti = spot_paths.config.antithetic
    [(sample, sdp)] = _policy_values(s[:, :n], terminal, moves, cash, [v0_idx], anti, settings, False)
    [(det_sample, det)] = _policy_values(s[:, :n], terminal, moves, cash, [v0_idx], anti, settings, True)
    _require_dominance(det_sample, sample, "foresight value below policy value")

    out = None
    if fresh_paths is not None:
        terminal = penalty * sf[:, n, None] * short
        anti = fresh_paths.config.antithetic
        fits = sdp.fits
        [(_, out)] = _policy_values(sf[:, :n], terminal, moves, cash, [v0_idx], anti, settings, False, fits)
    return StorageValuation(sdp, det.value, det.std_error, out, grid, trunc_lo, trunc_hi)
