"""Pricers: closed-form European, Monte Carlo, and the LSMC contract family.

Dynamic-programming pricers are validated two ways: statistically on
lognormal paths (bounds, orderings) and exactly on small deterministic
price trees against an independent information-set recursion. The trees
show distinct prices per information class at every step, so the
polynomial regressions recover conditional means exactly and LSMC must
reproduce the true optimum to rounding error.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hjmkit.pricing
from hjmkit.errors import PricingError, ValidationError
from hjmkit.pricing import (
    _TIE_TOL,
    LsmcSettings,
    PolicyValuation,
    StorageContract,
    SwingContract,
    VppContract,
    _backward_induction,
    _RegressionPlan,
    _setup,
    _solve,
    _storage_grid,
    american_option,
    black_price,
    call_payoff,
    lsmc_continuation,
    mc_european,
    price_storage,
    price_swing,
    price_vpp,
    put_payoff,
)
from hjmkit.simulation import ContractDescriptor, ExponentialVol, SimConfig, simulate_swap

from conftest import PRICE_TREE, STORAGE_TERMINAL_COL, make_paths, storage_tree
from oracles import (
    VPP_START_STATE,
    adapted_value,
    american_actions,
    black_call_quadrature,
    black_call_reference,
    foresight_value,
    normal_cdf,
    policy_enumeration_value,
    storage_actions,
    storage_terminal,
    swing_actions,
    vpp_actions,
)

EXACT = LsmcSettings(degree=3, min_samples_per_dim=1)


def gbm_paths(n_paths=4000, n_times=7, s0=100.0, sigma=0.3, dt=1 / 12, seed=9):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_paths, n_times - 1))
    logs = np.cumsum(-0.5 * sigma**2 * dt + sigma * math.sqrt(dt) * z, axis=1)
    vals = s0 * np.exp(np.column_stack([np.zeros(n_paths), logs]))
    return make_paths(vals, step=dt, seed=seed)


# ---------------------------------------------------------------------------
# Black formula
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "forward,strike,variance",
    [(100.0, 100.0, 0.04), (100.0, 60.0, 0.09), (100.0, 150.0, 0.09), (35.0, 42.0, 0.5)],
)
def test_black_matches_erf_reference(forward, strike, variance):
    want = black_call_reference(forward, strike, variance)
    assert black_price(forward, strike, variance) == pytest.approx(want, rel=1e-12)
    assert black_price(forward, strike, variance) == pytest.approx(
        black_call_quadrature(forward, strike, variance), rel=1e-9
    )


def test_black_atm_benchmark():
    # F = K = 100, total variance 0.04: value is 100 (N(0.1) - N(-0.1))
    want = 100.0 * (normal_cdf(0.1) - normal_cdf(-0.1))
    assert black_price(100.0, 100.0, 0.04) == pytest.approx(want, rel=1e-14)
    assert black_price(100.0, 100.0, 0.04) == pytest.approx(7.9656, abs=5e-5)


def test_black_parity_and_degenerate_cases():
    disc = math.exp(-0.05 * 2.0)
    call = black_price(40.0, 38.0, 0.1, maturity=2.0, rate=0.05)
    put = black_price(40.0, 38.0, 0.1, maturity=2.0, rate=0.05, kind="put")
    assert call - put == pytest.approx(disc * 2.0, rel=1e-12)

    # zero variance: discounted intrinsic
    assert black_price(40.0, 38.0, 0.0, 2.0, 0.05) == pytest.approx(disc * 2.0)
    assert black_price(40.0, 38.0, 0.0, 2.0, 0.05, "put") == 0.0
    # vanishing strike: the call converges to the discounted forward
    assert black_price(40.0, 1e-10, 0.1, 2.0, 0.05) == pytest.approx(disc * 40.0, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="straddle"),
        dict(forward=0.0),
        dict(strike=-1.0),
        dict(total_variance=-0.1),
        dict(total_variance=math.inf),
        dict(maturity=-1.0),
    ],
)
def test_black_rejects(kwargs):
    base = dict(forward=100.0, strike=100.0, total_variance=0.04)
    with pytest.raises(ValidationError):
        black_price(**{**base, **kwargs})


@given(
    forward=st.floats(1.0, 200.0),
    k1=st.floats(1.0, 200.0),
    bump=st.floats(0.0, 50.0),
    variance=st.floats(0.0, 2.0),
)
def test_black_call_monotone_and_bounded(forward, k1, bump, variance):
    lo = black_price(forward, k1, variance)
    hi = black_price(forward, k1 + bump, variance)
    assert hi <= lo + 1e-12
    assert max(forward - k1, 0.0) - 1e-12 <= lo <= forward + 1e-12


def test_black_increasing_in_variance():
    vals = [black_price(50.0, 55.0, v) for v in (0.0, 0.01, 0.1, 0.5, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# European Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_constant_payoff_discounts_exactly():
    ps = gbm_paths(n_paths=64)
    value, se = mc_european(ps, 0.25, lambda s: np.ones(s.size), rate=0.1)
    assert value == pytest.approx(math.exp(-0.025), rel=1e-14)
    assert se == 0.0


def test_mc_forward_payoff_recovers_initial():
    ps = gbm_paths(n_paths=40_000, seed=21)
    value, se = mc_european(ps, 0.5, lambda s: s)
    assert se > 0
    assert abs(value - 100.0) < 3 * se


def test_mc_matches_black_on_swap_paths():
    vol = ExponentialVol(0.8, 1.0, 0.2)
    cfg = SimConfig(seed=404, n_paths=40_000, step=1 / 12, horizon=0.5, antithetic=True)
    ps = simulate_swap(vol, ContractDescriptor("swap", "X", tau_start=1.0), 20.0, cfg)
    variance = vol.variance_between(1.0, 0.0, 0.5)
    for strike in (16.0, 20.0, 25.0):
        value, se = mc_european(ps, 0.5, call_payoff(strike))
        assert abs(value - black_price(20.0, strike, variance)) < 3 * se


def test_mc_put_call_payoffs():
    ps = make_paths([[100.0, 120.0], [100.0, 80.0]])
    call, _ = mc_european(ps, 1.0, call_payoff(100.0))
    put, _ = mc_european(ps, 1.0, put_payoff(100.0))
    assert call == 10.0 and put == 10.0


def test_mc_input_validation():
    ps = gbm_paths(n_paths=16)
    with pytest.raises(PricingError, match="grid"):
        mc_european(ps, 0.1234, call_payoff(100.0))
    with pytest.raises(PricingError, match="one value per path"):
        mc_european(ps, 0.25, lambda s: s[:3])
    single = make_paths([[100.0, 110.0]])
    with pytest.raises(PricingError, match="two paths"):
        mc_european(single, 1.0, call_payoff(100.0))


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(maturity=math.nan), "maturity must be finite"),
        (dict(maturity=math.inf), "maturity must be finite"),
        (dict(maturity=-math.inf), "maturity must be finite"),
        (dict(maturity=0.25, rate=math.nan), "rate must be finite"),
        (dict(maturity=0.25, rate=math.inf), "rate must be finite"),
        (dict(maturity=0.25, rate=-math.inf), "rate must be finite"),
    ],
)
def test_mc_rejects_non_finite_maturity_or_rate(kwargs, needle):
    """A NaN or infinite maturity once priced at t = 0, and a NaN rate gave NaN."""
    ps = gbm_paths(n_paths=16, n_times=3)
    with pytest.raises(ValidationError, match=needle):
        mc_european(ps, payoff=call_payoff(100.0), **kwargs)


def test_mc_product_selection():
    vals = np.stack(
        [np.full((3, 2), 100.0), np.array([[50.0, 60.0], [50.0, 55.0], [50.0, 65.0]])],
        axis=2,
    )
    ps = make_paths(vals)
    value, _ = mc_european(ps, 1.0, call_payoff(55.0), product=1)
    assert value == pytest.approx((5.0 + 0.0 + 10.0) / 3)


# ---------------------------------------------------------------------------
# Continuation regression
# ---------------------------------------------------------------------------


def test_regression_hits_class_means():
    fit = lsmc_continuation([1.0, 1.0, 2.0, 2.0], [3.0, 5.0, 10.0, 20.0], 3, 1)
    np.testing.assert_allclose(fit.evaluate([1.0, 2.0])[:, 0], [4.0, 15.0], rtol=1e-12)
    assert fit.dim == 2 and not fit.ridge_used


def test_regression_interpolates_when_saturated():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 2.0 - x + 0.5 * x**3
    fit = lsmc_continuation(x, y, degree=3, min_samples_per_dim=1)
    np.testing.assert_allclose(fit.evaluate(x)[:, 0], y, rtol=1e-10)


def test_regression_constant_state_uses_mean():
    fit = lsmc_continuation([5.0, 5.0, 5.0], [1.0, 2.0, 6.0], 3, 1)
    assert fit.dim == 1
    assert fit.evaluate([5.0])[0, 0] == pytest.approx(3.0)


def test_regression_matrix_values_share_design():
    y = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    fit = lsmc_continuation([0.0, 1.0, 2.0], y, degree=1, min_samples_per_dim=1)
    np.testing.assert_allclose(fit.evaluate([1.0]), [[2.0, 20.0]], rtol=1e-12)


def test_regression_sample_floor():
    with pytest.raises(PricingError, match="at least 40"):
        lsmc_continuation(np.arange(5.0), np.arange(5.0), degree=3, min_samples_per_dim=10)


def test_regression_rejects_an_empty_sample_without_a_floor():
    """An empty sample has no mean to centre on, whatever the sample floor;
    so an American date with no in-the-money path has no fit, even with
    min_samples_per_dim = 0, and nothing warns."""
    with pytest.raises(PricingError, match="at least 1 samples for 1 basis functions, got 0"):
        lsmc_continuation(np.empty(0), np.empty(0), 3, 0)
    vals = np.array([[100.0, 110.0, 90.0, 95.0]] * 8 + [[100.0, 120.0, 80.0, 85.0]] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = american_option(make_paths(vals), 100.0, settings=LsmcSettings(min_samples_per_dim=0))
    assert got.fits[0] is None and got.fits[1] is not None


def test_regression_ridge_fallback_warns():
    """The SVD solve keeps lstsq's rank, coefficients and ridge fallback."""
    rng = np.random.default_rng(11)
    x_random = rng.lognormal(3.0, 0.3, 500)
    # two tight clusters: z^2 nearly repeats the constant column (condition ~5e3)
    x_near = np.concatenate(
        [1.0 + 1e-3 * rng.standard_normal(250), 2.0 + 1e-3 * rng.standard_normal(250)]
    )
    cases = [
        (x_random, x_random[:, None] + rng.standard_normal((500, 5)), False),
        (x_near, rng.standard_normal((500, 3)), False),
        # two abscissae collide after standardization: rank-deficient Vandermonde
        (np.array([0.0, 5e-17, 1.0, 2.0]), np.array([1.0, 1.0, 2.0, 3.0]), True),
    ]
    for x, y, deficient in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = lsmc_continuation(x, y, 3, 1)
        design = fit.design(x)
        y2 = y.reshape(x.size, -1)
        coef, _, rank, _ = np.linalg.lstsq(design, y2, rcond=None)
        assert fit.dim == 4 and (rank < fit.dim) == deficient
        assert fit.ridge_used == deficient
        assert [str(w.message) for w in caught] == (
            ["rank-deficient continuation design; using ridge fallback"] if deficient else []
        )
        if deficient:
            coef = np.linalg.solve(design.T @ design + 1e-8 * np.eye(4), design.T @ y2)
        # near-zero coefficients carry no relative precision: scale by the largest
        tol = dict(rtol=1e-12, atol=1e-12 * np.abs(coef).max())
        np.testing.assert_allclose(fit.coefficients, coef, **tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, fitted = _solve(_setup(x, 3, 1), y)
        np.testing.assert_allclose(fitted, (design @ coef).T, rtol=1e-12, atol=1e-12 * np.abs(y).max())


def test_regression_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="align"):
        lsmc_continuation([1.0, 2.0], [1.0, 2.0, 3.0], 1, 1)
    with pytest.raises(ValidationError, match="finite"):
        lsmc_continuation([1.0, math.nan], [1.0, 2.0], 1, 1)
    with pytest.raises(ValidationError, match="degree"):
        lsmc_continuation([1.0, 2.0], [1.0, 2.0], -1, 1)
    with pytest.raises(ValidationError):
        PolicyValuation(1.0, -0.5)
    with pytest.raises(ValidationError, match="std_error"):
        PolicyValuation(1.0, math.nan)


# ---------------------------------------------------------------------------
# American options
# ---------------------------------------------------------------------------


def test_american_zero_vol_takes_best_date():
    vals = np.tile([100.0, 90.0, 80.0], (16, 1))
    ps = make_paths(vals)
    got = american_option(ps, 100.0, kind="put")
    assert got.value == pytest.approx(20.0, rel=1e-12)


def test_american_deep_itm_exercises_immediately():
    got = american_option(make_paths(PRICE_TREE), 1000.0, rate=0.1, settings=EXACT)
    assert got.value == 900.0 and got.std_error == 0.0


def test_american_last_exercise_zero_is_intrinsic():
    got = american_option(make_paths(PRICE_TREE), 130.0, last_exercise=0)
    assert got.value == 30.0 and got.std_error == 0.0


@pytest.mark.parametrize("rate", [0.0, 0.07])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_american_tree_matches_recursion(rate, kind):
    ps = make_paths(PRICE_TREE)
    got = american_option(ps, 100.0, rate=rate, kind=kind, settings=EXACT)
    disc = np.exp(-rate * ps.time_grid)
    want = adapted_value(PRICE_TREE, 3, 0, american_actions(100.0, kind), None, disc)
    assert got.value == pytest.approx(want, abs=1e-8)


def test_american_dominates_european():
    ps = gbm_paths(seed=31)
    am = american_option(ps, 105.0, rate=0.03, kind="put")
    eu, eu_se = mc_european(ps, 0.5, put_payoff(105.0), rate=0.03)
    assert am.value >= eu - 3 * math.hypot(am.std_error, eu_se)


def test_american_call_no_early_exercise_at_zero_rate():
    ps = gbm_paths(seed=17)
    am = american_option(ps, 100.0, kind="call")
    eu, eu_se = mc_european(ps, 0.5, call_payoff(100.0))
    assert abs(am.value - eu) <= 3 * math.hypot(am.std_error, eu_se)


def test_american_rejects():
    ps = gbm_paths(n_paths=16)
    with pytest.raises(ValidationError, match="kind"):
        american_option(ps, 100.0, kind="chooser")
    with pytest.raises(ValidationError, match="strike"):
        american_option(ps, 0.0)
    with pytest.raises(ValidationError, match="strike"):
        american_option(ps, math.nan)
    with pytest.raises(ValidationError, match="last_exercise"):
        american_option(ps, 100.0, last_exercise=99)


def _reference_american(paths, strike, kind, settings, rate=0.0, last=None, fits=None):
    """The loop american_option had before its sample-size check moved into
    lsmc_continuation's rule: a np.unique count of the in-the-money prices,
    and each date's continuation rebuilt through fit.evaluate. ``fits``,
    when given, collects each date's fit (None where it is skipped), latest
    date first."""
    fits = [] if fits is None else fits
    s = paths.values[:, :, 0]
    grid = paths.time_grid
    last = grid.size - 1 if last is None else last
    intrinsic = np.maximum(s - strike, 0.0) if kind == "call" else np.maximum(strike - s, 0.0)
    disc = np.exp(-rate * grid)
    skipped = []
    cf = disc[last] * intrinsic[:, last]
    for k in range(last - 1, 0, -1):
        itm = intrinsic[:, k] > 0
        n_itm = int(itm.sum())
        dim = max(1, min(settings.degree + 1, np.unique(s[itm, k]).size)) if n_itm else 1
        if n_itm < settings.min_samples_per_dim * dim or n_itm == 0:
            skipped.append(k)
            fits.append(None)
            continue
        fit = lsmc_continuation(s[itm, k], cf[itm], settings.degree, settings.min_samples_per_dim)
        fits.append(fit)
        cont = fit.evaluate(s[itm, k])[:, 0]
        exercise_now = disc[k] * intrinsic[itm, k] >= cont - _TIE_TOL
        cf[np.flatnonzero(itm)[exercise_now]] = disc[k] * intrinsic[itm, k][exercise_now]
    return cf, skipped


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(0, 4),
    st.integers(1, 12),
    st.sampled_from(["call", "put"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_american_sample_rule_matches_unique_count_reference(
    n_paths, degree, min_samples, kind, tied, seed
):
    """Dates with few or tied in-the-money prices are skipped exactly as the
    old np.unique count skipped them, and nothing raises."""
    rng = np.random.default_rng(seed)
    vals = 100.0 * np.exp(0.3 * rng.standard_normal((n_paths, 6)).cumsum(axis=1))
    if tied:
        vals = np.round(vals / 20.0) * 20.0 + 1.0
    vals[:, 0] = 100.0
    ps = make_paths(vals)
    lsmc = LsmcSettings(degree=degree, min_samples_per_dim=min_samples)
    got = american_option(ps, 100.0, kind=kind, settings=lsmc)
    cf, skipped = _reference_american(ps, 100.0, kind, lsmc)
    assert got.value == float(cf.mean())  # at the money at t=0: no immediate exercise
    assert [k for k, fit in enumerate(got.fits, start=1) if fit is None] == sorted(skipped)


@pytest.mark.parametrize("last_exercise", [None, 8, 1, 2])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("rate", [0.0, 0.02])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_american_matches_evaluate_reference_bit_for_bit(kind, rate, antithetic, last_exercise):
    """On seeded lognormal paths, deciding on the solve's in-sample values
    gives the value, standard error and every date's coefficients of the
    loop that rebuilt each continuation through fit.evaluate, under ==.
    last_exercise 1 and 2 leave the backward core zero steps and one."""
    rng = np.random.default_rng(20 + 2 * (kind == "put") + antithetic)
    ps = make_paths(_gbm_values(rng, 2000, 12, antithetic), step=1 / 12, antithetic=antithetic)
    got = american_option(ps, 100.0, rate, kind, last_exercise=last_exercise)
    fits = []
    cf, _ = _reference_american(ps, 100.0, kind, LsmcSettings(), rate, last_exercise, fits)
    x = cf.reshape(-1, 2).mean(axis=1) if antithetic else cf  # at the money at t=0
    assert (got.value, got.std_error) == (float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)))
    last = ps.time_grid.size - 1 if last_exercise is None else last_exercise
    assert len(got.fits) == len(fits) == last - 1
    for g, w in zip(got.fits, fits[::-1]):
        assert g is not None and np.array_equal(g.coefficients, w.coefficients)


# ---------------------------------------------------------------------------
# Exact recursion cross-check (oracle self-test)
# ---------------------------------------------------------------------------


def two_step_instances():
    ones = np.ones(3)
    tree = PRICE_TREE[:, :2]
    yield "american", (tree, 2, 0, american_actions(100.0, "call"), None, ones)
    yield "swing", (tree, 2, (1, 1), swing_actions(100.0), None, ones)
    obs = np.stack([tree, np.full_like(tree, 50.0)], axis=2)
    yield "vpp", (obs, 2, VPP_START_STATE, vpp_actions(1, 1, 0.0, 2.0, 5.0, 0.0, 1.0), None, ones)
    yield "storage", (
        PRICE_TREE,
        2,
        0.0,
        storage_actions(0.0, 1.0, 1.0, -1.0),
        storage_terminal(1.0, 2.0),
        ones,
    )


@pytest.mark.parametrize("name,args", list(two_step_instances()))
def test_recursion_agrees_with_policy_enumeration(name, args):
    """The information-set recursion equals literal policy enumeration."""
    assert adapted_value(*args) == pytest.approx(policy_enumeration_value(*args), abs=1e-12)


@pytest.mark.parametrize("name,args", list(two_step_instances()))
def test_foresight_dominates_adapted(name, args):
    assert foresight_value(*args) >= adapted_value(*args) - 1e-12


# ---------------------------------------------------------------------------
# Backward-induction core against the masked reference
# ---------------------------------------------------------------------------


def masked_backward_induction(
    price_state, terminal, step_actions, settings, foresight, samples=None, default=0
):
    """Test-only reference: the path-major recursion that masks every action.

    Each action is applied to all (path, state) cells with np.where, the
    invalid ones set to -inf, and the continuation is evaluated from the
    fit's coefficients. An action whose targets are all -1 stops: its
    realized value and its score are its cash alone. ``samples[k]``, unless
    None, is a path mask: step k regresses on those paths alone and decides
    only there, every other path takes action ``default``, and a sample too
    small for lsmc_continuation's rule decides nowhere. Returns the values
    and the steps that decided nowhere.
    """
    cf = terminal.copy()
    n_paths, n_steps = price_state.shape
    idle = []
    for k in range(n_steps - 1, -1, -1):
        sampled = samples is not None and samples[k] is not None
        decides = samples[k] if sampled else np.ones(n_paths, dtype=bool)
        cont = cf
        if not foresight:
            try:
                fit = lsmc_continuation(
                    price_state[decides, k], cf[decides], settings.degree, settings.min_samples_per_dim
                )
                cont = fit.evaluate(price_state[:, k])
            except PricingError:
                if not sampled:
                    raise
                idle.append(k)
                decides = np.zeros(n_paths, dtype=bool)
        best_score = None
        new_cf = None
        moves = []
        for immediate, valid, target in step_actions(k):
            stop = bool((target < 0).all())
            realized = immediate[:, None] + (0.0 if stop else cf[:, target])
            score = immediate[:, None] + (0.0 if stop else cont[:, target])
            realized = np.where(valid[None, :], realized, -np.inf)
            moves.append(realized)
            if best_score is None:
                best_score = np.where(valid[None, :], score, -np.inf)
                new_cf = realized
            else:
                score = np.where(valid[None, :], score, -np.inf)
                better = score > best_score + _TIE_TOL
                new_cf = np.where(better, realized, new_cf)
                best_score = np.where(better, score, best_score)
        cf = np.where(decides[:, None], new_cf, moves[default])
    return cf, idle


def core_on_actions(price_state, terminal, actions, settings, foresight, fits=None, **sampled):
    """Test-side adapter: run the core on an actions(k) generator of
    (immediate, valid, target) tuples, the form the references here are
    written in. Each step's tuples become its move tables and its cash;
    ``sampled`` passes samples and a default move on to the core."""
    steps = [list(actions(k)) for k in range(price_state.shape[1])]
    moves = [[(valid, target) for _, valid, target in step] for step in steps]
    cash = [[immediate for immediate, _, _ in step] for step in steps]
    return _backward_induction(
        price_state, terminal, moves, lambda x, k: cash[k], settings, foresight, fits, **sampled
    )


@st.composite
def action_tables(draw):
    """Per-step state counts and, per action, a validity mask, targets and
    zero-cash flag; per step a sample quantile (None: no sample), or no
    samples at all; and the default action.

    Every state gets at least one valid action; the masks are free
    otherwise, so contiguous and scattered masks, single-action states and
    states contested by up to four actions all occur. Any action may stop
    (all targets -1). When samples are drawn, the default action is valid
    in every state, so the paths outside a sample are never worth -inf.
    """
    n_steps = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=n_steps + 1, max_size=n_steps + 1))
    n_actions = draw(st.lists(st.integers(1, 4), min_size=n_steps, max_size=n_steps))
    sampled = draw(st.booleans())
    default = draw(st.integers(0, min(n_actions) - 1)) if sampled else 0
    steps = []
    for k in range(n_steps):
        n, n_next, m = sizes[k], sizes[k + 1], n_actions[k]
        valid = [draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(m)]
        for s in range(n):
            if not any(v[s] for v in valid):
                valid[draw(st.integers(0, m - 1))][s] = True
        if sampled:
            valid[default] = [True] * n
        stops = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        target = [
            [-1] * n if stop else draw(st.lists(st.integers(0, n_next - 1), min_size=n, max_size=n))
            for stop in stops
        ]
        zero_cash = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        steps.append((valid, target, zero_cash))
    quantile = st.sampled_from([None, 0.0, 0.3, 0.6, 0.95])
    quantiles = draw(st.lists(quantile, min_size=n_steps, max_size=n_steps)) if sampled else None
    return sizes, steps, quantiles, default


T, F = True, False
# step 0: state 0 contested three ways, state 3 has one action, action 1's
# mask is scattered; step 1: contiguous and scattered masks, zero-cash ties
MIXED_TABLES = (
    [5, 4, 3],
    [
        (
            [[T, T, T, F, F], [T, F, T, F, T], [T, T, F, T, T]],
            [[0, 1, 2, 3, 0], [1, 2, 3, 0, 3], [3, 0, 1, 2, 2]],
            [F, F, T],
        ),
        (
            [[T, T, T, T], [F, T, T, F], [T, F, T, T]],
            [[0, 1, 2, 2], [2, 0, 1, 0], [0, 1, 2, 2]],
            [T, F, T],
        ),
    ],
    None,
    0,
)
# as MIXED_TABLES, but action 0 of step 0 stops; step 0 regresses on 28 of
# 40 paths, step 1 on 2 (too few: it holds on every path), and the paths
# outside take action 1, a zero-cash stay in step 1
STOP_SAMPLE_TABLES = (
    [5, 4, 3],
    [
        (
            [[T, T, T, F, F], [T, T, T, T, T], [T, T, F, T, T]],
            [[-1] * 5, [1, 2, 3, 0, 3], [3, 0, 1, 2, 2]],
            [F, F, T],
        ),
        (
            [[T, T, T, T], [T, T, T, T], [T, F, T, T]],
            [[0, 1, 2, 2], [0, 1, 2, 2], [-1] * 4],
            [T, T, F],
        ),
    ],
    [0.3, 0.95],
    1,
)
SMALL_SAMPLES = LsmcSettings(degree=2, min_samples_per_dim=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tables=action_tables(),
    foresight=st.booleans(),
    lsmc=st.sampled_from([LsmcSettings(), SMALL_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
@example(tables=MIXED_TABLES, foresight=False, lsmc=LsmcSettings(), seed=1)
@example(tables=MIXED_TABLES, foresight=True, lsmc=LsmcSettings(), seed=1)
@example(tables=STOP_SAMPLE_TABLES, foresight=False, lsmc=SMALL_SAMPLES, seed=1)
@example(tables=STOP_SAMPLE_TABLES, foresight=True, lsmc=SMALL_SAMPLES, seed=1)
def test_core_matches_masked_reference(tables, foresight, lsmc, seed):
    sizes, steps, quantiles, default = tables
    rng = np.random.default_rng(seed)
    n_paths = 40
    price_state = 100.0 * np.exp(0.2 * rng.standard_normal((n_paths, len(steps))))
    terminal = rng.standard_normal((n_paths, sizes[-1]))
    cash = [
        [np.zeros(n_paths) if zero else rng.standard_normal(n_paths) for zero in zero_cash]
        for _, _, zero_cash in steps
    ]
    samples = None
    if quantiles is not None:  # from the prices alone, as the core requires
        samples = [
            None if q is None else price_state[:, k] > np.quantile(price_state[:, k], q)
            for k, q in enumerate(quantiles)
        ]

    def actions(k):
        valid, target, _ = steps[k]
        for a in range(len(valid)):
            yield cash[k][a], np.array(valid[a]), np.array(target[a])

    got, fits = core_on_actions(
        price_state, terminal, actions, lsmc, foresight, samples=samples, default=default
    )
    want, idle = masked_backward_induction(price_state, terminal, actions, lsmc, foresight, samples, default)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (n_paths, sizes[0])
    if foresight:
        assert fits is None
    else:
        assert len(fits) == len(steps)
        assert [k for k, fit in enumerate(fits) if fit is None] == sorted(idle)
        # replayed on the same paths, the fixed fits decide as the reference did
        replay, _ = core_on_actions(
            price_state, terminal, actions, lsmc, False, fits, samples=samples, default=default
        )
        np.testing.assert_array_equal(replay, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    tables=action_tables(),
    lsmc=st.sampled_from([LsmcSettings(), SMALL_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
@example(tables=MIXED_TABLES, lsmc=LsmcSettings(), seed=1)
@example(tables=STOP_SAMPLE_TABLES, lsmc=SMALL_SAMPLES, seed=1)
def test_core_chunks_of_states_match_one_chunk_bit_for_bit(tables, lsmc, seed):
    """Deciding one, two or three states at a time gives the values of one
    chunk of all states under ==, with and without foresight, in the
    replay of fixed fits and on sampled steps, so the seams between chunks
    change nothing."""
    sizes, steps, quantiles, default = tables
    rng = np.random.default_rng(seed)
    n_paths = 40
    assert hjmkit.pricing._CHUNK_VALUES >= max(sizes) * n_paths  # one chunk by default
    price_state = 100.0 * np.exp(0.2 * rng.standard_normal((n_paths, len(steps))))
    terminal = rng.standard_normal((n_paths, sizes[-1]))
    cash = [
        [np.zeros(n_paths) if zero else rng.standard_normal(n_paths) for zero in zero_cash]
        for _, _, zero_cash in steps
    ]
    samples = None
    if quantiles is not None:
        samples = [
            None if q is None else price_state[:, k] > np.quantile(price_state[:, k], q)
            for k, q in enumerate(quantiles)
        ]

    def actions(k):
        valid, target, _ = steps[k]
        for a in range(len(valid)):
            yield cash[k][a], np.array(valid[a]), np.array(target[a])

    def runs():
        sampled = dict(samples=samples, default=default)
        cf, fits = core_on_actions(price_state, terminal, actions, lsmc, False, **sampled)
        replay, _ = core_on_actions(price_state, terminal, actions, lsmc, False, fits, **sampled)
        foresight, _ = core_on_actions(price_state, terminal, actions, lsmc, True, **sampled)
        return (cf, replay, foresight), fits

    want, want_fits = runs()
    for rows in (1, 2, 3):
        with mock.patch.object(hjmkit.pricing, "_CHUNK_VALUES", rows * n_paths):
            got, got_fits = runs()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert [f is None for f in got_fits] == [f is None for f in want_fits]
        assert all(g is None or _same_fit(g, w) for g, w in zip(got_fits, want_fits))


def test_core_peak_memory_is_bounded_by_chunks_of_states():
    """A 30-day swing with 10 rights each way carries up to 121 states over
    2000 paths. The core holds three (states x paths) value arrays whole
    (cf, new_cf and the fitted continuation) and the U matrices of its
    regression plan; every temporary of a step's decision is one chunk of
    states. A decision over all states at once took several more whole
    arrays (17 MB traced against this bound's 10.4 MB)."""
    contract = SwingContract(30, 10, 10, 45.0)
    layers, moves = hjmkit.pricing._swing_layers(contract)
    n_paths, n_states = 2000, max(len(layer) for layer in layers)
    assert n_states == 121
    prices = gbm_paths(n_paths=n_paths, n_times=30, s0=45.0, dt=1 / 365, seed=5).values[:, :, 0]

    def cash(x, k):
        return np.zeros_like(x), np.maximum(x - 45.0, 0.0), np.maximum(45.0 - x, 0.0)

    terminal = np.zeros((n_paths, 1))
    value_bytes = n_states * n_paths * 8
    plan_bytes = 30 * n_paths * 4 * 8  # U of the one stacked block that sets up the 30 days
    chunk_bytes = hjmkit.pricing._CHUNK_VALUES * 8
    assert n_states * n_paths > 3 * hjmkit.pricing._CHUNK_VALUES  # the widest steps split in four
    tracemalloc.start()
    try:
        _backward_induction(prices, terminal, moves, cash, LsmcSettings(), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most four chunk-sized temporaries at once (best, a score, its
    # comparison threshold or np.where's result, a copy of scattered rows),
    # and one chunk budget for the step's small arrays
    assert peak <= 3 * value_bytes + plan_bytes + 5 * chunk_bytes


# ---------------------------------------------------------------------------
# Virtual power plant
# ---------------------------------------------------------------------------


def tree_power_fuel(fuel=50.0):
    vals = np.stack([PRICE_TREE, np.full_like(PRICE_TREE, fuel)], axis=2)
    return make_paths(vals)


def test_vpp_unconstrained_equals_strip():
    ps = gbm_paths(n_paths=400, n_times=6, seed=3)
    fuel = make_paths(np.full((400, 6), 40.0), step=1 / 12, seed=3)
    c = VppContract(6, 1, 1, 0.0, 3.0, 0.0, 0.0, 2.0)
    got = price_vpp(c, ps, fuel)
    assert got.lsmc.value == pytest.approx(got.upper_bound, rel=1e-12)
    assert got.naive == pytest.approx(got.upper_bound, rel=1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_vpp_tree_matches_recursion(rate):
    ps = tree_power_fuel()
    c = VppContract(
        n_hours=3, t_on=2, t_off=1, q_min=0.5, q_max=2.0,
        start_cost=5.0, stop_cost=3.0, heat_rate=1.0,
    )
    got = price_vpp(c, ps, ps, rate=rate, settings=EXACT, power_product=0, fuel_product=1)
    disc = np.exp(-rate * ps.time_grid)
    want = adapted_value(
        np.stack([PRICE_TREE, np.full_like(PRICE_TREE, 50.0)], axis=2),
        3,
        VPP_START_STATE,
        vpp_actions(2, 1, 0.5, 2.0, 5.0, 3.0, 1.0),
        None,
        disc,
    )
    assert got.lsmc.value == pytest.approx(want, abs=1e-8)
    want_naive = foresight_value(
        np.stack([PRICE_TREE, np.full_like(PRICE_TREE, 50.0)], axis=2),
        3,
        VPP_START_STATE,
        vpp_actions(2, 1, 0.5, 2.0, 5.0, 3.0, 1.0),
        None,
        disc,
    )
    assert got.naive == pytest.approx(want_naive, abs=1e-8)


def test_vpp_value_ordering():
    ps = gbm_paths(n_paths=600, n_times=8, seed=5)
    fuel = gbm_paths(n_paths=600, n_times=8, s0=30.0, sigma=0.2, seed=9)
    fuel = make_paths(fuel.values[:, :, 0], step=1 / 12, seed=5)
    c = VppContract(8, 3, 2, 0.5, 2.0, 10.0, 5.0, 1.5)
    got = price_vpp(c, ps, fuel)
    assert got.lsmc.value <= got.naive + 1e-9
    assert got.naive <= got.upper_bound + 1e-9


def test_vpp_must_run_and_costs_hurt():
    ps = gbm_paths(n_paths=500, n_times=6, seed=13)
    fuel = make_paths(np.full((500, 6), 110.0), step=1 / 12, seed=13)
    free = price_vpp(VppContract(6, 1, 1, 0.0, 2.0, 0.0, 0.0, 1.0), ps, fuel)
    tied = price_vpp(VppContract(6, 1, 1, 1.0, 2.0, 6.0, 6.0, 1.0), ps, fuel)
    assert tied.lsmc.value < free.lsmc.value


def _two_product_paths(n_products=2, seed=9):
    """Products 0, 1, ...: one GBM path set scaled by 1, 0.9, ..."""
    base = gbm_paths(n_paths=200, n_times=5, seed=seed).values
    return make_paths(np.concatenate([base * 0.9**i for i in range(n_products)], axis=2), step=1 / 12, seed=seed)


_VPP = VppContract(3, 1, 1, 0.0, 1.0, 0.0, 0.0, 1.0)
_STORAGE = StorageContract(2, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0)
# call -> (argument checked, the paths it indexes, the call's value with that argument at i)
_INDEXED_CALLS = {
    "mc_european": ("product", "paths", lambda ps, i: mc_european(ps, 2 / 12, call_payoff(95.0), product=i)[0]),
    "american_option": ("product", "paths", lambda ps, i: american_option(ps, 100.0, product=i).value),
    "price_vpp-power": (
        "power_product", "power_paths", lambda ps, i: price_vpp(_VPP, ps, ps, power_product=i).lsmc.value
    ),
    "price_vpp-fuel": (
        "fuel_product", "fuel_paths", lambda ps, i: price_vpp(_VPP, ps, ps, fuel_product=i).lsmc.value
    ),
    "price_swing": (
        "product", "spot_paths", lambda ps, i: price_swing(SwingContract(3, 1, 1, 95.0), ps, product=i).lsmc.value
    ),
    "price_storage": ("product", "spot_paths", lambda ps, i: price_storage(_STORAGE, ps, product=i).sdp.value),
}


@pytest.mark.parametrize("index", [2, -3, 1.0, True])
@pytest.mark.parametrize("call", sorted(_INDEXED_CALLS))
def test_pricers_reject_a_product_index_outside_the_paths(call, index):
    """An index outside the set's products is a ValidationError naming the
    argument and the paths, not numpy's IndexError; a negative index counts
    from the end, as it always did."""
    name, paths_name, value = _INDEXED_CALLS[call]
    ps = _two_product_paths()
    with pytest.raises(ValidationError, match=f"^{name} = {index!r} is outside the 2 products of {paths_name}$"):
        value(ps, index)
    assert value(ps, -1) == value(ps, 1)


def test_storage_checks_the_product_index_on_the_fresh_paths():
    ps, fresh = _two_product_paths(2), _two_product_paths(1, seed=10)
    with pytest.raises(ValidationError, match="^product = 1 is outside the 1 products of fresh_paths$"):
        price_storage(_STORAGE, ps, fresh, product=1)
    with pytest.raises(ValidationError, match="^fresh_paths cover 2 points, contract needs 3$"):
        price_storage(_STORAGE, ps, make_paths(fresh.values[:, :2], step=1 / 12, seed=10))
    assert price_storage(_STORAGE, ps, fresh, product=0).out_of_sample is not None


def test_vpp_joint_path_requirements():
    ps = gbm_paths(n_paths=64, n_times=4, seed=1)
    other_seed = gbm_paths(n_paths=64, n_times=4, seed=2)
    c = VppContract(3, 1, 1, 0.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError, match="share"):
        price_vpp(c, ps, other_seed)
    short = gbm_paths(n_paths=64, n_times=2, seed=1)
    with pytest.raises(ValidationError, match="hours"):
        price_vpp(VppContract(4, 1, 1, 0.0, 1.0, 0.0, 0.0, 1.0), short, short)


def test_vpp_contract_validation():
    good = dict(
        n_hours=3, t_on=1, t_off=1, q_min=0.0, q_max=1.0,
        start_cost=0.0, stop_cost=0.0, heat_rate=1.0,
    )
    for bad in (
        dict(n_hours=0), dict(t_on=0), dict(t_off=0), dict(q_min=-1.0),
        dict(q_min=2.0), dict(q_max=0.0), dict(start_cost=-1.0), dict(heat_rate=-1.0),
    ):
        with pytest.raises(ValidationError):
            VppContract(**{**good, **bad})


NON_FINITE = [math.nan, math.inf, -math.inf]


def _price_with_rate(pricer: str, rate: float):
    ps = gbm_paths(n_paths=64, n_times=4, seed=1)
    if pricer == "american_option":
        return american_option(ps, 100.0, rate=rate)
    if pricer == "price_vpp":
        return price_vpp(VppContract(3, 1, 1, 0.0, 1.0, 0.0, 0.0, 1.0), ps, ps, rate=rate)
    if pricer == "price_swing":
        return price_swing(SwingContract(3, 1, 1, 100.0), ps, rate=rate)
    return price_storage(StorageContract(2, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0), ps, rate=rate)


@pytest.mark.parametrize("rate", NON_FINITE)
@pytest.mark.parametrize("pricer", ["american_option", "price_vpp", "price_swing", "price_storage"])
def test_pricers_reject_non_finite_rate(pricer, rate):
    with pytest.raises(ValidationError, match="rate must be finite"):
        _price_with_rate(pricer, rate)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["q_min", "q_max", "start_cost", "stop_cost", "heat_rate"])
def test_vpp_contract_rejects_non_finite(name, value):
    good = dict(
        n_hours=3, t_on=1, t_off=1, q_min=0.0, q_max=1.0,
        start_cost=0.0, stop_cost=0.0, heat_rate=1.0,
    )
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        VppContract(**{**good, name: value})


_COUNTS = [
    (lambda v: SwingContract(v, 1, 1, 100.0), "n_days"),
    (lambda v: SwingContract(3, v, 1, 100.0), "u_max"),
    (lambda v: SwingContract(3, 1, v, 100.0), "d_max"),
    (lambda v: VppContract(v, 1, 1, 0.0, 1.0, 0.0, 0.0, 1.0), "n_hours"),
    (lambda v: VppContract(5, v, 1, 0.0, 1.0, 0.0, 0.0, 1.0), "t_on"),
    (lambda v: VppContract(5, 1, v, 0.0, 1.0, 0.0, 0.0, 1.0), "t_off"),
    (lambda v: StorageContract(v, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0), "n_days"),
    (lambda v: LsmcSettings(degree=v), "degree"),
    (lambda v: LsmcSettings(min_samples_per_dim=v), "min_samples_per_dim"),
    (lambda v: american_option(gbm_paths(n_paths=64, n_times=4), 100.0, last_exercise=v), "last_exercise"),
]


@pytest.mark.parametrize("value", [2.0, 2.7, True, np.float64(2.0), "2"], ids=["2.0", "2.7", "True", "np2.0", "str"])
@pytest.mark.parametrize("make, name", _COUNTS, ids=[f"{i}-{name}" for i, (_, name) in enumerate(_COUNTS)])
def test_counts_reject_non_integers(make, name, value):
    """A float count was truncated (last_exercise = 2.7 priced date 2) or
    failed later with a raw TypeError, and True counted as 1."""
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        make(value)
    make(np.int64(2))  # numpy integers are counts too


# ---------------------------------------------------------------------------
# Swing
# ---------------------------------------------------------------------------


def test_swing_saturated_rights_hit_straddle_strip():
    ps = gbm_paths(n_paths=400, n_times=4, seed=7)
    got = price_swing(SwingContract(4, 4, 4, 100.0), ps)
    assert got.lsmc.value == pytest.approx(got.upper_bound, rel=1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_swing_tree_matches_recursion(rate):
    ps = make_paths(PRICE_TREE)
    got = price_swing(SwingContract(3, 1, 1, 100.0), ps, rate=rate, settings=EXACT)
    disc = np.exp(-rate * ps.time_grid)
    want = adapted_value(PRICE_TREE, 3, (1, 1), swing_actions(100.0), None, disc)
    assert got.lsmc.value == pytest.approx(want, abs=1e-8)


def test_swing_sandwiched_by_bounds():
    ps = gbm_paths(n_paths=5000, n_times=7, seed=11)
    got = price_swing(SwingContract(7, 2, 1, 100.0), ps, rate=0.02)
    slack = 3 * math.hypot(got.lsmc.std_error, got.lower_bound_std_error)
    assert got.lower_bound - slack <= got.lsmc.value <= got.upper_bound + 1e-9


def test_swing_value_monotone_in_rights():
    ps = gbm_paths(n_paths=3000, n_times=6, seed=23)
    values = [
        price_swing(SwingContract(6, u, d, 100.0), ps).lsmc.value
        for u, d in [(1, 0), (1, 1), (2, 1), (3, 2)]
    ]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_swing_single_upswing_is_american_call():
    ps = gbm_paths(n_paths=4000, n_times=5, seed=29)
    got = price_swing(SwingContract(5, 1, 0, 100.0), ps)
    am = american_option(ps, 100.0, kind="call", last_exercise=4)
    assert abs(got.lsmc.value - am.value) <= 3 * math.hypot(
        got.lsmc.std_error, am.std_error
    ) + 1e-9
    assert got.lower_bound == pytest.approx(am.value, rel=1e-12)


def test_swing_quantity_scales_linearly():
    ps = gbm_paths(n_paths=800, n_times=4, seed=37)
    one = price_swing(SwingContract(4, 2, 1, 100.0, quantity=1.0), ps)
    five = price_swing(SwingContract(4, 2, 1, 100.0, quantity=5.0), ps)
    assert five.lsmc.value == pytest.approx(5.0 * one.lsmc.value, rel=1e-10)


@pytest.mark.parametrize(
    "contract",
    [SwingContract(1, 1, 0, 80.68534660513687), SwingContract(2, 0, 1, 117.33)],
)
def test_swing_certain_value_meets_lower_bound(contract):
    # constant paths: the value is certain and equals its American lower
    # bound up to rounding, with both standard errors (near) zero
    ps = make_paths(np.full((240, 2), 100.0))
    got = price_swing(contract, ps)
    assert got.lsmc.value == pytest.approx(got.lower_bound, rel=1e-12)


def full_grid_swing_value(contract, ps, rate, lsmc):
    """Swing value on the full (u_max+1)(d_max+1) grid at every step.

    Test-only reference for the clamped, reachable layers of price_swing:
    the same recursion over every state, rights beyond the days left
    included.
    """
    n = contract.n_days
    s = ps.values[:, :n, 0]
    disc = np.exp(-rate * ps.time_grid[:n])
    q = contract.quantity
    up_cash = q * np.maximum(s - contract.strike, 0.0) * disc[None, :]
    down_cash = q * np.maximum(contract.strike - s, 0.0) * disc[None, :]
    nd = contract.d_max + 1
    state = np.arange((contract.u_max + 1) * nd)
    u, d = np.divmod(state, nd)
    zero = np.zeros(ps.n_paths)

    def actions(k):
        yield zero, np.ones(state.size, dtype=bool), state
        yield up_cash[:, k], u > 0, np.where(u > 0, state - nd, state)
        yield down_cash[:, k], d > 0, np.where(d > 0, state - 1, state)

    terminal = np.zeros((ps.n_paths, state.size))
    cf, _ = core_on_actions(s, terminal, actions, lsmc, foresight=False)
    return cf[:, state[-1]].mean()


# Two days or more and strikes near the money: a contract whose value is
# certain (one day, or all rights taken on day 0) has zero standard errors,
# and its lower-bound check then trips on rounding alone, a separate defect.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_days=st.integers(2, 6),
    u_max=st.integers(0, 6),
    d_max=st.integers(0, 6),
    strike=st.floats(90.0, 110.0),
    antithetic=st.booleans(),
    rate=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_days=4, u_max=3, d_max=2, strike=100.0, antithetic=False, rate=0.0, seed=1)
@example(n_days=4, u_max=4, d_max=4, strike=100.0, antithetic=False, rate=0.05, seed=2)
@example(n_days=5, u_max=2, d_max=0, strike=92.0, antithetic=False, rate=0.0, seed=3)
@example(n_days=3, u_max=0, d_max=3, strike=108.0, antithetic=False, rate=0.0, seed=4)
@example(n_days=6, u_max=4, d_max=3, strike=100.0, antithetic=True, rate=0.0, seed=5)
def test_swing_layers_match_full_grid(n_days, u_max, d_max, strike, antithetic, rate, seed):
    u_max, d_max = min(u_max, n_days), min(d_max, n_days)
    rng = np.random.default_rng(seed)
    n_paths = 240
    z = rng.standard_normal((n_paths // 2 if antithetic else n_paths, n_days))
    if antithetic:
        z = np.stack([z, -z], axis=1).reshape(n_paths, n_days)
    dt = 1 / 12
    logs = np.cumsum(-0.5 * 0.3**2 * dt + 0.3 * math.sqrt(dt) * z, axis=1)
    vals = 100.0 * np.exp(np.column_stack([np.zeros(n_paths), logs]))
    ps = make_paths(vals, step=dt, seed=seed, antithetic=antithetic)
    contract = SwingContract(n_days, u_max, d_max, strike)
    got = price_swing(contract, ps, rate=rate)
    want = full_grid_swing_value(contract, ps, rate, LsmcSettings())
    assert got.lsmc.value == pytest.approx(want, rel=1e-12, abs=1e-12)
    states = got.states
    assert states[0] == [(u_max, d_max)] and states[-1] == [(0, 0)]
    # the columns of lsmc.fits[k] follow states[k + 1]
    assert [f.coefficients.shape[1] for f in got.lsmc.fits] == [len(s) for s in states[1:]]


def test_swing_validation():
    with pytest.raises(ValidationError):
        SwingContract(3, 4, 0, 100.0)
    with pytest.raises(ValidationError):
        SwingContract(3, 1, 1, -5.0)
    with pytest.raises(ValidationError):
        SwingContract(3, 1, 1, 100.0, quantity=0.0)
    with pytest.raises(ValidationError, match="days"):
        price_swing(SwingContract(9, 1, 1, 100.0), gbm_paths(n_paths=64, n_times=4))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["strike", "quantity"])
def test_swing_contract_rejects_non_finite(name, value):
    good = dict(n_days=3, u_max=1, d_max=1, strike=100.0, quantity=1.0)
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        SwingContract(**{**good, name: value})


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


def test_storage_buy_low_sell_high_toy():
    ps = make_paths(np.tile([10.0, 20.0, 15.0], (16, 1)))
    c = StorageContract(
        n_days=2, v_min=0.0, v_max=2.0, v_start=0.0, v_target=0.0,
        withdraw_rate=-2.0, inject_rate=2.0,
    )
    got = price_storage(c, ps)
    assert got.sdp.value == pytest.approx(20.0, rel=1e-12)
    assert got.deterministic == pytest.approx(20.0, rel=1e-12)


def test_storage_penalty_forces_injection():
    ps = make_paths(np.tile([10.0, 20.0], (16, 1)))
    c = StorageContract(1, 0.0, 1.0, 0.0, 1.0, -1.0, 1.0, penalty_scale=2.0)
    got = price_storage(c, ps)
    assert got.sdp.value == pytest.approx(-10.0, rel=1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.04])
def test_storage_tree_matches_recursion(rate):
    ps = make_paths(storage_tree())
    c = StorageContract(3, 0.0, 2.0, 0.0, 0.0, -1.0, 1.0, penalty_scale=2.0)
    got = price_storage(c, ps, rate=rate, settings=EXACT)
    disc = np.exp(-rate * ps.time_grid)
    want = adapted_value(
        storage_tree(), 3, 0.0, storage_actions(0.0, 2.0, 1.0, -1.0),
        storage_terminal(0.0, 2.0), disc,
    )
    assert got.sdp.value == pytest.approx(want, abs=1e-8)
    want_det = foresight_value(
        storage_tree(), 3, 0.0, storage_actions(0.0, 2.0, 1.0, -1.0),
        storage_terminal(0.0, 2.0), disc,
    )
    assert got.deterministic == pytest.approx(want_det, abs=1e-8)
    assert got.deterministic >= got.sdp.value - 1e-9


def test_storage_volume_grid_and_truncation():
    ps = make_paths(np.tile([10.0, 12.0, 11.0], (16, 1)))
    c = StorageContract(2, -0.5, 2.5, 0.0, 0.0, -1.0, 1.0)
    got = price_storage(c, ps)
    np.testing.assert_array_equal(got.volume_grid, [0.0, 1.0, 2.0])
    assert got.truncated_low and got.truncated_high

    aligned = price_storage(StorageContract(2, 0.0, 2.0, 0.0, 0.0, -1.0, 1.0), ps)
    assert not aligned.truncated_low and not aligned.truncated_high


def test_storage_out_of_sample_replay():
    ps = gbm_paths(n_paths=4000, n_times=6, seed=41)
    fresh = gbm_paths(n_paths=4000, n_times=6, seed=42)
    c = StorageContract(5, 0.0, 3.0, 1.0, 1.0, -1.0, 1.0)
    got = price_storage(c, ps, fresh_paths=fresh)
    assert got.out_of_sample is not None
    slack = 3 * math.hypot(got.sdp.std_error, got.out_of_sample.std_error)
    assert got.out_of_sample.value <= got.sdp.value + slack
    # the replayed policy is still a real policy: it cannot beat foresight
    assert got.out_of_sample.value <= got.deterministic + slack


def test_storage_rejects_fresh_paths_on_another_grid():
    """The replay is discounted on the fitting grid, so a fresh set on a
    5-year step cannot stand in for monthly fitting paths."""
    c = StorageContract(5, 0.0, 3.0, 1.0, 1.0, -1.0, 1.0)
    ps = gbm_paths(n_paths=200, n_times=6, dt=1 / 12, seed=41)
    coarse = gbm_paths(n_paths=200, n_times=6, dt=5.0, seed=42)
    with pytest.raises(ValidationError, match="time grid"):
        price_storage(c, ps, fresh_paths=coarse, rate=0.05)
    # the same fresh paths on the fitting grid are accepted
    monthly = make_paths(coarse.values, step=1 / 12, seed=42)
    assert price_storage(c, ps, fresh_paths=monthly, rate=0.05).out_of_sample is not None


def test_storage_input_validation():
    ps = make_paths(np.tile([10.0, 11.0, 12.0], (4, 1)))
    with pytest.raises(ValidationError, match="integer multiples"):
        price_storage(StorageContract(2, 0.0, 1.0, 0.0, 0.0, -0.2, 0.3), ps)
    with pytest.raises(ValidationError, match="unreachable"):
        price_storage(StorageContract(2, 0.0, 5.0, 0.0, 5.0, -1.0, 1.0), ps)
    with pytest.raises(ValidationError, match="not on the volume grid"):
        price_storage(StorageContract(2, 0.0, 2.0, 0.0, 1.5, -1.0, 1.0), ps)
    with pytest.raises(ValidationError, match="different seed"):
        price_storage(StorageContract(2, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0), ps, fresh_paths=ps)
    with pytest.raises(ValidationError, match="contract needs"):
        price_storage(StorageContract(5, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0), ps)
    with pytest.raises(ValidationError):
        StorageContract(2, 0.0, 1.0, 2.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValidationError):
        StorageContract(2, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("i_units,w_units", [(1, 1), (2, 1), (5, 1), (1, 2), (1, 3), (1, 5)])
def test_storage_target_reachability_matches_brute_force(i_units, w_units):
    """_storage_grid accepts a target exactly when some a injections and b
    withdrawals with a + b <= n_days land on it."""
    for n_days in range(1, 9):
        for t in range(-12, 13):
            c = StorageContract(n_days, -20.0, 20.0, 0.0, float(t), -float(w_units), float(i_units))
            want = any(
                a * i_units - b * w_units == t
                for a in range(n_days + 1)
                for b in range(n_days + 1 - a)
            )
            try:
                _storage_grid(c)
                got = True
            except ValidationError as exc:
                assert "unreachable" in str(exc)
                got = False
            assert got == want, (n_days, t)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "name",
    ["v_min", "v_max", "v_start", "v_target", "withdraw_rate", "inject_rate", "penalty_scale"],
)
def test_storage_contract_rejects_non_finite(name, value):
    good = dict(
        n_days=2, v_min=0.0, v_max=1.0, v_start=0.0, v_target=0.0,
        withdraw_rate=-1.0, inject_rate=1.0, penalty_scale=2.0,
    )
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        StorageContract(**{**good, name: value})


def test_storage_asymmetric_rates_stay_on_grid():
    # inject 2 units/day, withdraw 1: spacing 1, inject jumps two levels
    prices = np.tile([10.0, 30.0, 30.0, 30.0], (16, 1))
    ps = make_paths(prices)
    c = StorageContract(3, 0.0, 2.0, 0.0, 0.0, -1.0, 2.0)
    got = price_storage(c, ps)
    # buy 2 at 10, sell 1 at 30 twice
    assert got.sdp.value == pytest.approx(-20.0 + 30.0 + 30.0, rel=1e-12)


def reference_storage_replay(contract, fits, fresh, rate):
    """Test-only copy of the forward loop price_storage used to replay its
    fitted policy: one volume per path, stepped forward day by day, each
    action scored as immediate cash plus fitted continuation."""
    grid, v0_idx, i_units, w_units, _, _ = _storage_grid(contract)
    n, n_v = contract.n_days, grid.size
    sf = fresh.values[:, : n + 1, 0]
    disc = np.exp(-rate * fresh.time_grid[: n + 1])
    rows = np.arange(fresh.n_paths)
    cur = np.full(fresh.n_paths, v0_idx)
    total = np.zeros(fresh.n_paths)
    for k in range(n):
        cont = fits[k].evaluate(sf[:, k])
        imm_inj = -sf[:, k] * contract.inject_rate * disc[k]
        imm_wdr = -sf[:, k] * contract.withdraw_rate * disc[k]
        score_hold = cont[rows, cur]
        inj_ok = cur + i_units <= n_v - 1
        score_inj = np.where(
            inj_ok, imm_inj + cont[rows, np.minimum(cur + i_units, n_v - 1)], -np.inf
        )
        wdr_ok = cur - w_units >= 0
        score_wdr = np.where(wdr_ok, imm_wdr + cont[rows, np.maximum(cur - w_units, 0)], -np.inf)
        take_inj = score_inj > score_hold + _TIE_TOL
        take_wdr = score_wdr > np.maximum(score_hold, score_inj) + _TIE_TOL
        total += np.where(take_wdr, imm_wdr, np.where(take_inj, imm_inj, 0.0))
        cur = np.where(take_wdr, cur - w_units, np.where(take_inj, cur + i_units, cur))
    total += -contract.penalty_scale * disc[n] * sf[:, n] * np.maximum(
        contract.v_target - grid[cur], 0.0
    )
    return total


def _gbm_values(rng, n_paths, n_days, antithetic):
    z = rng.standard_normal((n_paths // 2 if antithetic else n_paths, n_days))
    if antithetic:
        z = np.stack([z, -z], axis=1).reshape(n_paths, n_days)
    dt = 1 / 12
    logs = np.cumsum(-0.5 * 0.4**2 * dt + 0.4 * math.sqrt(dt) * z, axis=1)
    return 100.0 * np.exp(np.column_stack([np.zeros(n_paths), logs]))


@st.composite
def storage_cases(draw):
    """A storage contract with asymmetric rates and, at times, a volume grid
    truncated at either end, plus the seed and rate to price it with."""
    n_days = draw(st.integers(2, 6))
    spacing = draw(st.sampled_from([0.5, 1.0]))
    ratio = draw(st.integers(1, 3))
    i_units, w_units = (ratio, 1) if draw(st.booleans()) else (1, ratio)
    below = draw(st.integers(0, 4)) + draw(st.sampled_from([0.0, 0.5]))
    above = draw(st.integers(0, 4)) + draw(st.sampled_from([0.0, 0.5]))
    assume(int(below) + int(above) >= max(i_units, w_units))
    target = draw(st.integers(-int(below), int(above)))
    contract = StorageContract(
        n_days,
        v_min=10.0 - below * spacing,
        v_max=10.0 + above * spacing,
        v_start=10.0,
        v_target=10.0 + target * spacing,
        withdraw_rate=-w_units * spacing,
        inject_rate=i_units * spacing,
        penalty_scale=draw(st.sampled_from([0.0, 2.0])),
    )
    try:
        _storage_grid(contract)
    except ValidationError:
        assume(False)  # v_target unreachable within the window
    return contract, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.05]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=storage_cases(), antithetic=st.booleans())
def test_storage_out_of_sample_matches_forward_loop(case, antithetic):
    """The backward core with the fits held fixed realizes the same cash as
    stepping the fitted policy forward path by path."""
    contract, seed, rate = case
    rng = np.random.default_rng(seed)
    n = contract.n_days
    ps = make_paths(_gbm_values(rng, 240, n, False), step=1 / 12, seed=1)
    fresh = make_paths(
        _gbm_values(rng, 300, n, antithetic), step=1 / 12, seed=2, antithetic=antithetic
    )
    got = price_storage(contract, ps, fresh_paths=fresh, rate=rate)
    want = reference_storage_replay(contract, got.sdp.fits, fresh, rate)
    want_value = want.reshape(-1, 2).mean(axis=1).mean() if antithetic else want.mean()
    assert got.out_of_sample.value == pytest.approx(want_value, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=storage_cases())
def test_storage_replay_on_fitting_paths_is_in_sample_value(case):
    """Replayed on the paths it was fitted on, the policy earns its in-sample value."""
    contract, seed, rate = case
    vals = _gbm_values(np.random.default_rng(seed), 240, contract.n_days, False)
    ps = make_paths(vals, step=1 / 12, seed=1)
    same = make_paths(vals, step=1 / 12, seed=2)
    got = price_storage(contract, ps, fresh_paths=same, rate=rate)
    assert got.out_of_sample.value == pytest.approx(got.sdp.value, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Per-step cash against the paths x steps cash matrices it replaced
# ---------------------------------------------------------------------------


def _pair_mean(sample, antithetic):
    return float((sample.reshape(-1, 2).mean(axis=1) if antithetic else sample).mean())


def side_matrix_vpp(contract, ps, rate):
    """Test-only copy of price_vpp's former arithmetic: a paths x hours cash
    matrix read column by column through a closure over the commitment
    tables. Returns the LSMC value, the foresight value and the strip, and
    the LSMC fits."""
    n, n_on, n_off = contract.n_hours, contract.t_on, contract.t_off
    spread = ps.values[:, :n, 0] - contract.heat_rate * ps.values[:, :n, 1]
    disc = np.exp(-rate * ps.time_grid[:n])
    dispatch = (
        contract.q_max * np.maximum(spread, 0.0) + contract.q_min * np.minimum(spread, 0.0)
    ) * disc[None, :]
    state = np.arange(n_on + n_off)
    stay = np.concatenate(
        [np.maximum(np.arange(n_on) - 1, 0), n_on + np.maximum(np.arange(n_off) - 1, 0)]
    )
    is_on = state < n_on
    switch = np.zeros(state.size, dtype=int)
    switch[0], switch[n_on] = state.size - 1, n_on - 1
    zero = np.zeros(ps.n_paths)

    def actions(k):
        d_k = dispatch[:, k]
        yield d_k, is_on, stay
        yield zero, ~is_on, stay
        yield -contract.start_cost * disc[k] + d_k, state == n_on, switch
        yield np.full_like(d_k, -contract.stop_cost * disc[k]), state == 0, switch

    terminal = np.zeros((ps.n_paths, state.size))
    cf, fits = core_on_actions(spread, terminal, actions, LsmcSettings(), foresight=False)
    cf_f, _ = core_on_actions(spread, terminal, actions, LsmcSettings(), foresight=True)
    strip = (contract.q_max * np.maximum(spread, 0.0) * disc[None, :]).sum(axis=1)
    anti = ps.config.antithetic
    values = (cf[:, n_on], cf_f[:, n_on], strip)
    return tuple(_pair_mean(v, anti) for v in values), fits


def side_matrix_swing(contract, ps, rate):
    """Test-only copy of price_swing's former arithmetic: up and down cash
    matrices and 5-tuple successor tables over the clamped layers. Returns
    the LSMC value and the straddle strip, and the LSMC fits."""
    n, q, strike = contract.n_days, contract.quantity, contract.strike
    s = ps.values[:, :n, 0]
    disc = np.exp(-rate * ps.time_grid[:n])
    up_cash = q * np.maximum(s - strike, 0.0) * disc[None, :]
    down_cash = q * np.maximum(strike - s, 0.0) * disc[None, :]
    layer, tables = [(contract.u_max, contract.d_max)], []
    for k in range(n):
        r = n - k - 1
        hold = [(min(u, r), min(d, r)) for u, d in layer]
        up = [(min(u - 1, r), min(d, r)) if u else None for u, d in layer]
        down = [(min(u, r), min(d - 1, r)) if d else None for u, d in layer]
        layer = sorted({x for x in hold + up + down if x is not None})
        pos = {x: i for i, x in enumerate(layer)}
        tables.append(
            (
                np.array([pos[x] for x in hold]),
                np.array([x is not None for x in up]),
                np.array([pos.get(x, 0) for x in up]),
                np.array([x is not None for x in down]),
                np.array([pos.get(x, 0) for x in down]),
            )
        )
    zero = np.zeros(ps.n_paths)

    def actions(k):
        hold_target, up_valid, up_target, down_valid, down_target = tables[k]
        yield zero, np.ones(hold_target.size, dtype=bool), hold_target
        yield up_cash[:, k], up_valid, up_target
        yield down_cash[:, k], down_valid, down_target

    terminal = np.zeros((ps.n_paths, len(layer)))
    cf, fits = core_on_actions(s, terminal, actions, LsmcSettings(), foresight=False)
    anti = ps.config.antithetic
    return (_pair_mean(cf[:, 0], anti), _pair_mean((up_cash + down_cash).sum(axis=1), anti)), fits


def side_matrix_storage(contract, ps, fresh, rate):
    """Test-only copy of price_storage's former arithmetic: terminal-value
    and action factories per path set. Returns the LSMC value, the
    foresight value and the out-of-sample value on ``fresh``, and the
    LSMC fits."""
    grid, v0_idx, i_units, w_units, _, _ = _storage_grid(contract)
    n, n_v = contract.n_days, grid.size
    disc = np.exp(-rate * ps.time_grid[: n + 1])
    state = np.arange(n_v)

    def terminal_values(spot_col):
        short = np.maximum(contract.v_target - grid, 0.0)
        return -contract.penalty_scale * disc[n] * spot_col[:, None] * short[None, :]

    def actions_for(spot):
        zero = np.zeros(spot.shape[0])

        def actions(k):
            yield zero, np.ones(n_v, dtype=bool), state
            yield (
                -spot[:, k] * contract.inject_rate * disc[k],
                state + i_units <= n_v - 1,
                np.minimum(state + i_units, n_v - 1),
            )
            yield (
                -spot[:, k] * contract.withdraw_rate * disc[k],
                state - w_units >= 0,
                np.maximum(state - w_units, 0),
            )

        return actions

    s, sf = ps.values[:, : n + 1, 0], fresh.values[:, : n + 1, 0]
    args = (s[:, :n], terminal_values(s[:, n]), actions_for(s), LsmcSettings())
    cf, fits = core_on_actions(*args, foresight=False)
    cf_f, _ = core_on_actions(*args, foresight=True)
    cf_o, _ = core_on_actions(
        sf[:, :n], terminal_values(sf[:, n]), actions_for(sf), LsmcSettings(), False, fits
    )
    anti = ps.config.antithetic
    values = (
        _pair_mean(cf[:, v0_idx], anti),
        _pair_mean(cf_f[:, v0_idx], anti),
        _pair_mean(cf_o[:, v0_idx], fresh.config.antithetic),
    )
    return values, fits


@st.composite
def vpp_contracts(draw):
    q_min = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return VppContract(
        n_hours=draw(st.integers(2, 8)),
        t_on=draw(st.integers(1, 3)),
        t_off=draw(st.integers(1, 3)),
        q_min=q_min,
        q_max=q_min + draw(st.sampled_from([0.5, 2.0])),
        start_cost=draw(st.sampled_from([0.0, 5.0])),
        stop_cost=draw(st.sampled_from([0.0, 3.0])),
        heat_rate=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )


@st.composite
def swing_contracts(draw):
    n_days = draw(st.integers(2, 6))
    return SwingContract(
        n_days,
        draw(st.integers(0, n_days)),
        draw(st.integers(0, n_days)),
        draw(st.sampled_from([92.0, 100.0, 108.0])),
        quantity=draw(st.sampled_from([1.0, 2.5])),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    vpp=vpp_contracts(), swing=swing_contracts(), storage=storage_cases(), antithetic=st.booleans()
)
def test_pricers_match_side_matrix_reference_bit_for_bit(vpp, swing, storage, antithetic):
    """Per-step cash from the price column gives the same bits as the paths
    x steps cash matrices the pricers used to build: every value is
    compared with ==, not approx. The fitted coefficients are compared
    too, since a mean can absorb a one-ulp change in a few paths' cash
    that a regression on those paths does not."""
    contract, seed, rate = storage
    # volumes off the powers of two, so that reordering a product of a rate,
    # a price and a discount factor changes bits
    volumes = ("v_min", "v_max", "v_start", "v_target", "withdraw_rate", "inject_rate")
    contract = replace(contract, **{f: 0.7 * getattr(contract, f) for f in volumes})
    rng = np.random.default_rng(seed)

    def paths(n_days, n_paths=240, path_seed=1, anti=antithetic):
        vals = _gbm_values(rng, n_paths, n_days, anti)
        return make_paths(vals, step=1 / 12, seed=path_seed, antithetic=anti)

    def same_fits(got, want):
        return len(got) == len(want) and all(
            np.array_equal(g.coefficients, w.coefficients) for g, w in zip(got, want)
        )

    n = vpp.n_hours
    power, fuel = _gbm_values(rng, 240, n, antithetic), 0.5 * _gbm_values(rng, 240, n, antithetic)
    ps = make_paths(np.stack([power, fuel], axis=2), step=1 / 12, seed=1, antithetic=antithetic)
    got = price_vpp(vpp, ps, ps, rate, power_product=0, fuel_product=1)
    want, fits = side_matrix_vpp(vpp, ps, rate)
    assert (got.lsmc.value, got.naive, got.upper_bound) == want
    assert same_fits(got.lsmc.fits, fits)

    ps = paths(swing.n_days)
    got = price_swing(swing, ps, rate)
    want, fits = side_matrix_swing(swing, ps, rate)
    assert (got.lsmc.value, got.upper_bound) == want
    assert same_fits(got.lsmc.fits, fits)

    ps, fresh = paths(contract.n_days), paths(contract.n_days, 300, 2, not antithetic)
    got = price_storage(contract, ps, fresh_paths=fresh, rate=rate)
    want, fits = side_matrix_storage(contract, ps, fresh, rate)
    assert (got.sdp.value, got.deterministic, got.out_of_sample.value) == want
    assert same_fits(got.sdp.fits, fits)


# ---------------------------------------------------------------------------
# Regression plans: stacked set-up, bit for bit; sweeps priced in one pass
# ---------------------------------------------------------------------------


def _plan_prices(n_paths=200):
    """Seeded prices whose steps take every set-up path: a constant step, a
    step with two distinct prices (reduced basis), a rank-deficient step
    (two abscissae collide after standardization) and lognormal steps."""
    rng = np.random.default_rng(23)
    prices = 50.0 * np.exp(0.3 * rng.standard_normal((n_paths, 7)))
    prices[:, 0] = 50.0
    prices[:, 2] = np.where(rng.random(n_paths) < 0.5, 40.0, 60.0)
    prices[:, 4] = np.resize([0.0, 5e-17, 1.0, 2.0], n_paths)
    return prices


def _same_fit(got, want):
    return (
        (got.center, got.scale, got.dim, got.ridge_used)
        == (want.center, want.scale, want.dim, want.ridge_used)
        and np.array_equal(got.coefficients, want.coefficients)
    )


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("block_steps", [1, 3, 100])
def test_regression_plan_matches_lsmc_continuation(monkeypatch, stacked, block_steps):
    """Every step's fit and in-sample values through a plan equal those of
    lsmc_continuation's set-up and solve under ==, in blocks of one step,
    of three, and of the whole array, for three stacked value columns (as
    the swing core fits) and for one 1-D value vector (as an American leg
    fits)."""
    prices = _plan_prices()
    n_paths, n_steps = prices.shape
    monkeypatch.setattr(hjmkit.pricing, "_PLAN_VALUES", block_steps * n_paths * 4)
    rng = np.random.default_rng(5)
    plan = _RegressionPlan(prices, LsmcSettings())
    for k in range(n_steps - 1, -1, -1):
        y = rng.standard_normal((n_paths, 3) if stacked else n_paths)
        with warnings.catch_warnings(record=True) as caught_plan:
            warnings.simplefilter("always")
            got, got_fitted = plan.fit(k, y)
        with warnings.catch_warnings(record=True) as caught_ref:
            warnings.simplefilter("always")
            want, want_fitted = _solve(_setup(prices[:, k], 3, 10), y)
        assert _same_fit(got, want) and np.array_equal(got_fitted, want_fitted), k
        assert [str(w.message) for w in caught_plan] == [str(w.message) for w in caught_ref]
        assert (got.dim, got.ridge_used) == {0: (1, False), 2: (2, False), 4: (4, True)}.get(
            k, (4, False)
        )


def test_regression_plan_keeps_lsmc_continuation_errors():
    prices = _plan_prices()
    prices[:, 3] = np.nan
    plan = _RegressionPlan(prices, LsmcSettings())
    y = np.ones(prices.shape[0])
    plan.fit(6, y)  # the non-finite step raises only when it is reached
    with pytest.raises(ValidationError, match="regression inputs must be finite"):
        plan.fit(3, y)
    with pytest.raises(ValidationError, match="regression inputs must be finite"):
        plan.fit(5, np.full(prices.shape[0], np.inf))
    few = _RegressionPlan(_plan_prices(39), LsmcSettings())
    with pytest.raises(PricingError) as got:
        few.fit(6, np.ones(39))
    with pytest.raises(PricingError) as want:
        lsmc_continuation(_plan_prices(39)[:, 6], np.ones(39))
    assert str(got.value) == str(want.value) == (
        "continuation regression needs at least 40 samples for 4 basis functions, got 39"
    )


def _live_spread_paths(n_hours, n_paths, seed, antithetic):
    """Power and fuel whose spread at H = 2.3 changes sign on most hours."""
    rng = np.random.default_rng(seed)
    power = _gbm_values(rng, n_paths, n_hours, antithetic) * 0.5
    fuel = _gbm_values(rng, n_paths, n_hours, antithetic) * 0.2
    return make_paths(np.stack([power, fuel], axis=2), step=1 / 8760, seed=seed, antithetic=antithetic)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    rights=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    locks=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    antithetic=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(rights=[5, 1, 5, 12, 1], locks=[2, 1, 2, 6, 1], antithetic=True, seed=41)
@example(rights=[5, 1, 5, 12, 1], locks=[2, 1, 2, 6, 1], antithetic=False, seed=41)
def test_sweep_in_one_pass_matches_each_contract_priced_alone(rights, locks, antithetic, seed):
    """A swing rights sweep and a VPP lock sweep, each priced with its
    headline contract (the first entry) in one backward pass, give every
    contract the value, standard error and bounds it has priced alone, to
    1e-9 relative, on a spread that changes sign at H = 2.3, with plain or
    antithetic paths, and with duplicate entries and entries equal to the
    headline. A swing sweep prices each American leg once."""
    rng = np.random.default_rng(seed)
    ps = make_paths(_gbm_values(rng, 300, 12, antithetic), step=1 / 365, seed=seed, antithetic=antithetic)
    headline = SwingContract(12, rights[0], rights[0], 100.0, quantity=1.5)
    legs = []
    american = hjmkit.pricing.american_option

    def counting(*args, **kwargs):
        legs.append(args[3])
        return american(*args, **kwargs)

    with mock.patch.object(hjmkit.pricing, "american_option", counting):
        swept = hjmkit.pricing._price_swings(headline, [(r, r) for r in rights], ps, 0.02, LsmcSettings(), 0)
    assert legs == (["call", "put"] if any(rights) else [])
    for r, got in zip(rights, swept, strict=True):
        want = price_swing(replace(headline, u_max=r, d_max=r), ps, 0.02)
        np.testing.assert_allclose(
            [got.lsmc.value, got.lsmc.std_error, got.lower_bound, got.lower_bound_std_error,
             got.upper_bound, got.upper_bound_std_error],
            [want.lsmc.value, want.lsmc.std_error, want.lower_bound, want.lower_bound_std_error,
             want.upper_bound, want.upper_bound_std_error],
            rtol=1e-9, atol=0,
        )

    ps = _live_spread_paths(24, 300, seed, antithetic)
    spread = ps.values[:, 1:, 0] - 2.3 * ps.values[:, 1:, 1]
    assert 0.1 < (spread < 0).mean() < 0.9
    headline = VppContract(24, locks[0], locks[0], 10.0, 50.0, 100.0, 50.0, 2.3)
    swept = hjmkit.pricing._price_vpps(headline, [(t, t) for t in locks], ps, ps, 0.01, LsmcSettings(), 0, 1)
    for t, got in zip(locks, swept, strict=True):
        want = price_vpp(replace(headline, t_on=t, t_off=t), ps, ps, 0.01, power_product=0, fuel_product=1)
        np.testing.assert_allclose(
            [got.lsmc.value, got.lsmc.std_error, got.naive, got.naive_std_error,
             got.upper_bound, got.upper_bound_std_error],
            [want.lsmc.value, want.lsmc.std_error, want.naive, want.naive_std_error,
             want.upper_bound, want.upper_bound_std_error],
            rtol=1e-9, atol=0,
        )
