"""Path generation: config plumbing, occupancy math, exact-step simulators."""

import csv
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjmkit import simulation
from hjmkit.calibration import FactorModel
from hjmkit.errors import ValidationError
from hjmkit.simulation import (
    ContractDescriptor,
    ExponentialVol,
    PathSet,
    SanityReport,
    SimConfig,
    _spot_lag_vols,
    _quantiles_of_sorted,
    _time_slices,
    bucket_occupancy,
    normals,
    path_log_returns,
    sanity_check,
    simulate_fixed_delivery,
    simulate_short_horizon,
    simulate_spot,
    simulate_swap,
    theoretical_log_variance,
    write_paths_csv,
    write_summary_csv,
)

from conftest import make_paths
from oracles import integrated_square_vol, occupancy_riemann


def model_of(rows, markets=("X",), dt=1 / 260, bucket_width=1 / 12):
    """FactorModel straight from a volatility row matrix (market-major)."""
    rows = np.asarray(rows, dtype=float)
    n_factors = rows.shape[1]
    buckets = rows.shape[0] // len(markets)
    return FactorModel(
        markets=list(markets),
        buckets_per_market=buckets,
        n_factors=n_factors,
        dt=dt,
        eigenvalues=np.arange(n_factors, 0, -1, dtype=float),
        sigma_star=rows,
        bucket_width=bucket_width,
    )


# ---------------------------------------------------------------------------
# SimConfig / ContractDescriptor / PathSet
# ---------------------------------------------------------------------------


def test_config_grid_arithmetic():
    cfg = SimConfig(seed=1, n_paths=2, step=1 / 12, horizon=1.0)
    assert cfg.n_steps == 12
    np.testing.assert_allclose(cfg.time_grid, np.arange(13) / 12, rtol=0, atol=1e-15)

    # a partial final step still gets simulated
    assert SimConfig(seed=1, n_paths=2, step=0.25, horizon=0.9).n_steps == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=True),
        dict(seed=1.0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(n_paths=0),
        dict(n_paths=3, antithetic=True),
        dict(step=0.0),
        dict(step=math.inf),
        dict(horizon=0.01),  # below one step
        dict(step=math.nan),
        dict(horizon=math.inf),
        dict(horizon=math.nan),
    ],
)
def test_config_rejects(kwargs):
    base = dict(seed=1, n_paths=2, step=1 / 12, horizon=1.0)
    with pytest.raises(ValidationError):
        SimConfig(**{**base, **kwargs})


def test_contract_labels():
    assert ContractDescriptor("fixed_delivery", "DE", bucket=3).label == "DE:M3"
    assert ContractDescriptor("swap", "DE", tau_start=0.25).label == "DE:swap:0.25"
    assert (
        ContractDescriptor("swap", "DE", tau_start=0.25, tau_end=0.5).label
        == "DE:swap:0.25:0.5"
    )
    assert ContractDescriptor("spot", "TTF").label == "TTF:spot"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="future", market="DE"),
        dict(kind="fixed_delivery", market="DE"),
        dict(kind="fixed_delivery", market="DE", bucket=0),
        dict(kind="swap", market="DE"),
        dict(kind="swap", market="DE", tau_start=0.0),
        dict(kind="swap", market="DE", tau_start=0.5, tau_end=0.25),
        # non-finite maturities used to pass and simulate as constant paths
        dict(kind="swap", market="DE", tau_start=math.inf),
        dict(kind="swap", market="DE", tau_start=math.nan),
        dict(kind="swap", market="DE", tau_start=0.25, tau_end=math.inf),
        dict(kind="swap", market="DE", tau_start=0.25, tau_end=math.nan),
    ],
)
def test_contract_rejects(kwargs):
    with pytest.raises(ValidationError):
        ContractDescriptor(**kwargs)


def test_pathset_validation():
    cfg = SimConfig(seed=1, n_paths=2, step=0.5, horizon=1.0)
    keys = [ContractDescriptor("spot", "X")]
    good = np.full((2, 3, 1), 10.0)
    PathSet(good, cfg.time_grid, keys, cfg)

    with pytest.raises(ValidationError, match="shape|!="):
        PathSet(np.full((2, 4, 1), 10.0), cfg.time_grid, keys, cfg)
    with pytest.raises(ValidationError, match="grid"):
        PathSet(good, np.array([0.1, 0.5, 1.0]), keys, cfg)
    with pytest.raises(ValidationError, match="grid"):
        PathSet(good, np.array([0.0, 1.0, 0.5]), keys, cfg)
    with pytest.raises(ValidationError, match="time grid must start at 0 and increase"):
        PathSet(np.empty((2, 0, 1)), np.array([]), keys, cfg)
    bad = good.copy()
    bad[0, 1, 0] = -1.0
    with pytest.raises(ValidationError, match="positive"):
        PathSet(bad, cfg.time_grid, keys, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_pathset_rejects_each_bad_value_at_an_interior_position(bad):
    cfg = SimConfig(seed=1, n_paths=3, step=0.25, horizon=1.0)
    keys = [ContractDescriptor("spot", "X"), ContractDescriptor("spot", "Y")]
    values = np.full((3, 5, 2), 10.0)
    values[1, 2, 1] = bad
    with pytest.raises(ValidationError) as err:
        PathSet(values, cfg.time_grid, keys, cfg)
    assert str(err.value) == "path values must be positive and finite"


def test_pathset_value_check_allocates_nothing_path_sized():
    cfg = SimConfig(seed=1, n_paths=2**16, step=0.25, horizon=1.0)
    keys = [ContractDescriptor("spot", "X"), ContractDescriptor("spot", "Y")]
    values = np.full((cfg.n_paths, 5, 2), 10.0)
    # a boolean mask of the values would take values.nbytes / 8
    assert _traced_peak(PathSet, values, cfg.time_grid, keys, cfg) < values.nbytes / 32


def test_pathset_accepts_an_empty_product_axis():
    cfg = SimConfig(seed=1, n_paths=2, step=0.5, horizon=1.0)
    ps = PathSet(np.empty((2, 3, 0)), cfg.time_grid, [], cfg)
    assert ps.values.shape == (2, 3, 0)


def test_pathset_product_lookup():
    cfg = SimConfig(seed=1, n_paths=1, step=0.5, horizon=1.0)
    keys = [
        ContractDescriptor("fixed_delivery", "DE", bucket=1),
        ContractDescriptor("fixed_delivery", "DE", bucket=2),
    ]
    vals = np.arange(1, 7, dtype=float).reshape(1, 3, 2)
    ps = PathSet(vals, cfg.time_grid, keys, cfg)
    np.testing.assert_array_equal(ps.product("DE:M2"), vals[:, :, 1])
    with pytest.raises(ValidationError, match="DE:M9"):
        ps.product("DE:M9")


# ---------------------------------------------------------------------------
# Normal draws
# ---------------------------------------------------------------------------


def test_normals_deterministic_and_shaped():
    cfg = SimConfig(seed=42, n_paths=8, step=0.1, horizon=0.5)
    z1 = normals(cfg, 5, 3)
    z2 = normals(cfg, 5, 3)
    assert z1.shape == (8, 5, 3)
    np.testing.assert_array_equal(z1, z2)
    assert not np.array_equal(z1, normals(SimConfig(43, 8, 0.1, 0.5), 5, 3))


def test_normals_antithetic_pairing():
    cfg = SimConfig(seed=7, n_paths=10, step=0.1, horizon=0.5, antithetic=True)
    z = normals(cfg, 4, 2)
    np.testing.assert_array_equal(z[1::2], -z[0::2])
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-15)


def _one_draw(cfg, n_steps, n_factors):
    """Every normal of a run from one standard_normal call, pairs interleaved."""
    rng = np.random.default_rng(cfg.seed)
    if not cfg.antithetic:
        return rng.standard_normal((cfg.n_paths, n_steps, n_factors))
    half = rng.standard_normal((cfg.n_paths // 2, n_steps, n_factors))
    z = np.empty((cfg.n_paths, n_steps, n_factors))
    z[0::2] = half
    z[1::2] = -half
    return z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    n_paths=st.integers(1, 13),
    n_steps=st.integers(1, 7),
    n_factors=st.integers(1, 3),
    antithetic=st.booleans(),
    budget=st.integers(1, 120),
    data=st.data(),
)
@example(seed=1, n_paths=5, n_steps=3, n_factors=2, antithetic=False, budget=1, data=None)  # a path per chunk
@example(seed=2, n_paths=7, n_steps=2, n_factors=2, antithetic=False, budget=9, data=None)  # chunks of 2 paths
@example(seed=3, n_paths=10, n_steps=3, n_factors=1, antithetic=True, budget=5, data=None)  # a pair per chunk
@example(seed=4, n_paths=10, n_steps=3, n_factors=1, antithetic=True, budget=13, data=None)  # 2, 2 and 1 pairs
def test_normal_chunks_cut_one_draw_into_chunks_of_paths(
    seed, n_paths, n_steps, n_factors, antithetic, budget, data
):
    """The chunks, their first steps and normals() against one standard_normal call."""
    if antithetic and n_paths % 2:
        n_paths += 1
    keep = n_steps - 1 if data is None else data.draw(st.integers(0, n_steps), label="keep")
    cfg = SimConfig(seed=seed, n_paths=n_paths, step=0.1, horizon=0.1, antithetic=antithetic)
    want = _one_draw(cfg, n_steps, n_factors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK_VALUES", budget)
        chunks = [chunk.copy() for chunk in simulation._normal_chunks(cfg, n_steps, n_factors)]
        kept = simulation._first_steps(cfg, n_steps, n_factors, keep)
        whole = normals(cfg, n_steps, n_factors)
    pair = 2 if antithetic else 1
    per = pair * max(1, budget // (pair * n_steps * n_factors))  # paths in a full chunk
    assert [len(c) for c in chunks] == [min(per, n_paths - a) for a in range(0, n_paths, per)]
    assert all(c.size <= budget or len(c) == pair for c in chunks)
    np.testing.assert_array_equal(np.concatenate(chunks), want)
    np.testing.assert_array_equal(kept, want[:, :keep])
    np.testing.assert_array_equal(whole, want)


# ---------------------------------------------------------------------------
# Bucket occupancy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "u_lo,u_hi,expected",
    [
        (0.2, 0.8, [0.6, 0.0, 0.0, 0.0]),  # inside one bucket
        (0.5, 1.5, [0.5, 0.5, 0.0, 0.0]),  # straddles a boundary
        (-1.0, 0.5, [0.5, 0.0, 0.0, 0.0]),  # expired part carries nothing
        (3.5, 10.0, [0.0, 0.0, 0.0, 6.5]),  # last bucket extrapolates flat
        (1.0, 1.0, [0.0, 0.0, 0.0, 0.0]),
        (2.0, 1.0, [0.0, 0.0, 0.0, 0.0]),
        (-3.0, -1.0, [0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_occupancy_cases(u_lo, u_hi, expected):
    np.testing.assert_allclose(
        bucket_occupancy(u_lo, u_hi, 4, 1.0), expected, rtol=0, atol=1e-15
    )


def test_occupancy_matches_riemann_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo = rng.uniform(-1.0, 3.0)
        hi = lo + rng.uniform(0.0, 3.0)
        w = rng.uniform(0.05, 0.6)
        n = rng.integers(1, 7)
        got = bucket_occupancy(lo, hi, int(n), w)
        want = occupancy_riemann(lo, hi, int(n), w)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-4)

    # one broadcast array call gives the stacked scalar calls bit for bit
    los = rng.uniform(-1.0, 3.0, size=(4, 5))
    his = los + rng.uniform(-0.5, 3.0, size=(4, 5))
    los[0, 0] = his[0, 0] = math.inf
    stacked = np.array(
        [[bucket_occupancy(a, b, 5, 0.35) for a, b in zip(ra, rb)] for ra, rb in zip(los, his)]
    )
    got = bucket_occupancy(los, his, 5, 0.35)
    assert got.shape == (4, 5, 5)
    np.testing.assert_array_equal(got, stacked)
    np.testing.assert_array_equal(
        bucket_occupancy(0.2, his[0], 5, 0.35),
        [bucket_occupancy(0.2, b, 5, 0.35) for b in his[0]],
    )


@given(
    lo=st.floats(-2.0, 5.0),
    span=st.floats(0.0, 5.0),
    n=st.integers(1, 8),
    w=st.floats(0.01, 2.0),
)
def test_occupancy_conserves_time(lo, span, n, w):
    occ = bucket_occupancy(lo, lo + span, n, w)
    assert np.all(occ >= 0)
    expected = max(lo + span, 0.0) - max(lo, 0.0)
    assert math.isclose(occ.sum(), expected, rel_tol=0, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Parametric volatility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma,k,c",
    [(-0.1, 1.0, 0.0), (0.5, -1.0, 0.0), (0.5, 1.0, -0.1), (0.0, 1.0, 0.0)]
    + [(bad, 1.0, 0.0) for bad in (math.nan, math.inf)]
    + [(0.5, bad, 0.0) for bad in (math.nan, math.inf)]
    + [(0.5, 1.0, bad) for bad in (math.nan, math.inf)],
)
def test_expvol_rejects(gamma, k, c):
    with pytest.raises(ValidationError):
        ExponentialVol(gamma, k, c)


@pytest.mark.parametrize(
    "tau,s0,s1",
    [(1.0, 0.0, 0.5), (1.0, 0.0, 1.0), (2.0, 0.3, 1.7), (0.5, 0.0, 2.0), (1.0, 0.9, 0.95)],
)
def test_expvol_matches_quadrature(tau, s0, s1):
    # the decaying leg and the constant leg ride independent Brownians,
    # so their squared vols add
    vol = ExponentialVol(0.8, 1.0, 0.2)
    sq = lambda u: (0.8 * math.exp(-2.0 * u)) ** 2 + 0.2**2
    want = integrated_square_vol(lambda s: math.sqrt(sq(tau - s)), s0, min(s1, tau))
    assert math.isclose(vol.variance_between(tau, s0, s1), want, rel_tol=1e-10)


def test_expvol_degenerate_forms():
    # no decaying part: pure constant vol
    assert ExponentialVol(0.0, 1.0, 0.3).variance_between(2.0, 0.5, 1.5) == pytest.approx(
        0.09, rel=1e-15
    )
    # no decay rate: gamma acts as a second constant
    assert ExponentialVol(0.4, 0.0, 0.3).variance_between(2.0, 0.0, 1.0) == pytest.approx(
        0.25, rel=1e-15
    )
    # window entirely past delivery
    assert ExponentialVol(0.8, 1.0).variance_between(1.0, 1.2, 1.5) == 0.0


def test_expvol_benchmark_value():
    # half a year of the standard two-factor test volatility, delivery at 1.0
    v = ExponentialVol(0.8, 1.0, 0.2).variance_between(1.0, 0.0, 0.5)
    want = 0.04 * 0.5 + 0.16 * (math.exp(-2.0) - math.exp(-4.0))
    assert math.isclose(v, want, rel_tol=1e-15)
    assert v == pytest.approx(0.0387231, abs=5e-8)


# ---------------------------------------------------------------------------
# Fixed-delivery simulation
# ---------------------------------------------------------------------------


def test_fixed_delivery_one_step_reconstruction():
    """A single step must be exactly F0 * exp(-v/2 + sqrt(v) z)."""
    model = model_of([[0.3]], bucket_width=10.0)
    cfg = SimConfig(seed=7, n_paths=4, step=0.25, horizon=0.25)
    ps = simulate_fixed_delivery(model, [20.0], cfg)
    z = normals(cfg, 1, 1)[:, 0, 0]
    want = 20.0 * np.exp(-0.5 * 0.09 * 0.25 + 0.3 * 0.5 * z)
    np.testing.assert_allclose(ps.values[:, 1, 0], want, rtol=1e-13)
    np.testing.assert_array_equal(ps.values[:, 0, 0], 20.0)


def test_fixed_delivery_freezes_at_delivery():
    model = model_of([[0.5], [0.5]])
    cfg = SimConfig(seed=3, n_paths=6, step=1 / 12, horizon=0.5)
    ps = simulate_fixed_delivery(model, [30.0, 30.0], cfg)
    front = ps.product("X:M1")
    # bucket 1 delivers at 1/12 = the first grid point; flat afterwards
    np.testing.assert_array_equal(front[:, 1:], front[:, 1:2].repeat(6, axis=1))
    assert not np.array_equal(front[:, 1], front[:, 0])
    back = ps.product("X:M2")
    assert np.ptp(back[:, 2:], axis=1).max() == 0.0
    assert not np.array_equal(back[:, 2], back[:, 1])


def test_fixed_delivery_antithetic_product_identity():
    """Paired paths multiply to the deterministic F0^2 e^(-v(t))."""
    model = model_of([[0.4, 0.1], [0.2, 0.05]], bucket_width=5.0)
    cfg = SimConfig(seed=11, n_paths=8, step=0.1, horizon=0.4, antithetic=True)
    ps = simulate_fixed_delivery(model, [50.0], cfg, products=[("X", 1)])
    v = np.array(
        [theoretical_log_variance(model, ps.product_keys[0], t) for t in cfg.time_grid]
    )
    prod = ps.values[0::2, :, 0] * ps.values[1::2, :, 0]
    want = 2500.0 * np.exp(-v)
    for pair in prod:
        np.testing.assert_allclose(pair, want, rtol=1e-12)


def test_fixed_delivery_subset_and_errors():
    model = model_of([[0.2], [0.3], [0.25], [0.15]])
    cfg = SimConfig(seed=1, n_paths=2, step=1 / 52, horizon=1 / 13)
    ps = simulate_fixed_delivery(model, [10.0, 11.0], cfg, products=[("X", 4), ("X", 2)])
    assert [k.label for k in ps.product_keys] == ["X:M4", "X:M2"]
    np.testing.assert_array_equal(ps.values[:, 0, :], [[10.0, 11.0]] * 2)

    with pytest.raises(ValidationError, match="expected 4"):
        simulate_fixed_delivery(model, [10.0], cfg)
    with pytest.raises(ValidationError, match="positive"):
        simulate_fixed_delivery(model, [10.0, -1.0], cfg, products=[("X", 1), ("X", 2)])
    with pytest.raises(ValidationError, match="bucket"):
        simulate_fixed_delivery(model, [10.0], cfg, products=[("X", 9)])


def test_fixed_delivery_deterministic():
    model = model_of([[0.2, 0.05], [0.15, -0.04]])
    cfg = SimConfig(seed=99, n_paths=64, step=1 / 52, horizon=1 / 12)
    a = simulate_fixed_delivery(model, [10.0, 12.0], cfg)
    b = simulate_fixed_delivery(model, [10.0, 12.0], cfg)
    np.testing.assert_array_equal(a.values, b.values)


def test_fixed_delivery_statistics_pass_sanity():
    model = model_of([[0.25, 0.08], [0.22, -0.05], [0.18, 0.02]])
    cfg = SimConfig(seed=2024, n_paths=20_000, step=1 / 52, horizon=3 / 52)
    ps = simulate_fixed_delivery(model, [40.0, 41.0, 42.0], cfg)
    report = sanity_check(ps, model)
    assert report.passed, report.failures
    assert report.empirical_correlation is not None
    np.testing.assert_allclose(np.diag(report.empirical_correlation), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Short-horizon curve simulation
# ---------------------------------------------------------------------------


def test_short_horizon_rejects_long_runs():
    model = model_of([[0.2], [0.3]])
    cfg = SimConfig(seed=1, n_paths=2, step=1 / 12, horizon=0.5)
    with pytest.raises(ValidationError, match="bucket width"):
        simulate_short_horizon(model, "X", [10.0, 10.0], cfg)


def test_short_horizon_zero_row_is_flat():
    model = model_of([[0.3], [0.0]])
    cfg = SimConfig(seed=1, n_paths=4, step=1 / 52, horizon=1 / 13)
    ps = simulate_short_horizon(model, "X", [10.0, 20.0], cfg)
    assert [k.label for k in ps.product_keys] == ["X:M1", "X:M2"]
    np.testing.assert_array_equal(ps.product("X:M2"), 20.0)
    assert np.ptp(ps.product("X:M1")[:, -1]) > 0


def test_short_horizon_means_track_curve():
    model = model_of([[0.3, 0.1], [0.25, -0.08], [0.2, 0.03], [0.18, 0.02]])
    cfg = SimConfig(seed=8, n_paths=20_000, step=1 / 52, horizon=1 / 13)
    initial = [35.0, 36.5, 38.0, 37.0]
    ps = simulate_short_horizon(model, "X", initial, cfg)
    report = sanity_check(ps, model)
    assert report.passed, report.failures
    se = ps.values[:, -1, :].std(axis=0, ddof=1) / math.sqrt(cfg.n_paths)
    np.testing.assert_array_less(
        np.abs(ps.values[:, -1, :].mean(axis=0) - initial), 3 * se
    )


def test_short_horizon_freezes_front_bucket_at_its_delivery():
    # a 0.03 step over a 0.08 horizon ends at 0.09, past M1's delivery at 1/12
    model = model_of([[0.4], [0.3]])
    cfg = SimConfig(seed=15, n_paths=20_000, step=0.03, horizon=0.08)
    initial = [30.0, 31.0]
    ps = simulate_short_horizon(model, "X", initial, cfg)
    np.testing.assert_allclose(ps.time_grid, [0.0, 0.03, 0.06, 0.09], rtol=0, atol=1e-15)
    # the same paths as fixed delivery, which holds each product flat after its delivery
    np.testing.assert_array_equal(ps.values, simulate_fixed_delivery(model, initial, cfg).values)
    m1 = ps.product("X:M1")
    rel_tol = 4 * math.sqrt(2 / (cfg.n_paths - 1))
    # M1 diffuses only the part of the last step before its delivery
    last_step = np.log(m1[:, 3] / m1[:, 2]).var(ddof=1)
    assert last_step == pytest.approx(0.16 * (1 / 12 - 0.06), rel=rel_tol)
    # ... so its log variance at t=0.09 is the frozen theory 0.16 / 12
    frozen = theoretical_log_variance(model, ps.product_keys[0], 0.09)
    assert frozen == pytest.approx(0.16 / 12, rel=1e-12)
    assert np.log(m1[:, -1] / 30.0).var(ddof=1) == pytest.approx(frozen, rel=rel_tol)
    report = sanity_check(ps, model)
    assert report.passed, report.failures


# ---------------------------------------------------------------------------
# Swap simulation
# ---------------------------------------------------------------------------


def test_swap_requires_swap_descriptor():
    with pytest.raises(ValidationError, match="swap"):
        simulate_swap(
            ExponentialVol(0.5, 1.0),
            ContractDescriptor("spot", "X"),
            20.0,
            SimConfig(seed=1, n_paths=2, step=0.1, horizon=0.2),
        )


def test_swap_steps_use_exact_bucket_variances():
    """Each log increment carries the occupancy-weighted step variance,
    even when the step straddles a bucket boundary."""
    model = model_of([[0.4], [0.3], [0.2]], bucket_width=1 / 12)
    contract = ContractDescriptor("swap", "X", tau_start=0.2)
    cfg = SimConfig(seed=21, n_paths=3, step=1 / 16, horizon=5 / 16)
    ps = simulate_swap(model, contract, 25.0, cfg)

    grid = cfg.time_grid
    v = np.diff([theoretical_log_variance(model, contract, t) for t in grid])
    z = normals(cfg, cfg.n_steps, 1)[:, :, 0]
    want = 25.0 * np.exp(np.cumsum(-0.5 * v[None, :] + np.sqrt(v)[None, :] * z, axis=1))
    np.testing.assert_allclose(ps.values[:, 1:, 0], want, rtol=1e-12)
    # the grid runs past tau_start = 0.2: the path must be frozen there
    assert v[-1] == 0.0
    np.testing.assert_array_equal(ps.values[:, -1, 0], ps.values[:, -2, 0])


def test_swap_parametric_is_exact_gbm():
    vol = ExponentialVol(0.0, 1.0, 0.3)
    contract = ContractDescriptor("swap", "X", tau_start=2.0)
    cfg = SimConfig(seed=5, n_paths=4, step=0.5, horizon=1.0)
    ps = simulate_swap(vol, contract, 10.0, cfg)
    z = normals(cfg, 2, 1)[:, :, 0]
    want = 10.0 * np.exp(
        np.cumsum(-0.5 * 0.045 + 0.3 * math.sqrt(0.5) * z, axis=1)
    )
    np.testing.assert_allclose(ps.values[:, 1:, 0], want, rtol=1e-13)


def test_swap_martingale_and_variance():
    vol = ExponentialVol(0.8, 1.0, 0.2)
    contract = ContractDescriptor("swap", "X", tau_start=1.0)
    cfg = SimConfig(seed=77, n_paths=40_000, step=1 / 12, horizon=0.5)
    ps = simulate_swap(vol, contract, 20.0, cfg)
    report = sanity_check(ps, vol)
    assert report.passed, report.failures
    assert report.empirical_correlation is None


# ---------------------------------------------------------------------------
# Spot simulation
# ---------------------------------------------------------------------------


def test_spot_zero_vol_tracks_curve_exactly():
    model = model_of([[0.0], [0.0]])
    cfg = SimConfig(seed=1, n_paths=3, step=1 / 12, horizon=0.25)
    curve = 30.0 + 2.0 * cfg.time_grid
    ps = simulate_spot(model, {"X": curve}, cfg)
    np.testing.assert_array_equal(ps.values[:, :, 0], np.tile(curve, (3, 1)))

    from_callable = simulate_spot(model, {"X": lambda t: 30.0 + 2.0 * t}, cfg)
    np.testing.assert_array_equal(from_callable.values, ps.values)


def direct_spot(model, curves, cfg, markets):
    """Spot as the plain causal sum x_m = sum_i z_i c_(m-i) sqrt(dt)."""
    n, step = cfg.n_steps, cfg.step
    z = normals(cfg, n, model.n_factors)
    out = np.empty((cfg.n_paths, n, len(markets)))
    for k, mk in enumerate(markets):
        occ = [
            bucket_occupancy(q * step, (q + 1) * step, model.buckets_per_market, model.bucket_width)
            for q in range(n)
        ]
        c = np.sqrt(np.array(occ) / step @ model.market_block(mk) ** 2)  # (n, Nf)
        var = step * np.cumsum((c**2).sum(axis=1))
        for m in range(n):
            x = np.einsum("pif,if->p", z[:, : m + 1], c[m::-1]) * math.sqrt(step)
            out[:, m, k] = curves[mk][m + 1] * np.exp(-0.5 * var[m] + x)
    return out


@pytest.mark.parametrize(
    "rows,markets,width,cfg",
    [
        # wide buckets: no shock ages past the front bucket, so spot is a GBM
        (
            [[0.3, 0.1], [0.0, 0.0]],
            ("X",),
            5.0,
            SimConfig(seed=13, n_paths=5, step=0.1, horizon=0.5),
        ),
        # 0.03 does not divide 0.1: lags straddle the boundaries at 0.1 and 0.2
        (
            [[0.45, 0.1], [0.3, -0.05], [0.22, 0.02], [0.3, 0.2], [0.25, -0.1], [0.1, 0.05]],
            ("X", "Y"),
            0.1,
            SimConfig(seed=21, n_paths=6, step=0.03, horizon=0.27, antithetic=True),
        ),
    ],
    ids=["front_bucket", "straddling_boundaries"],
)
def test_spot_matches_direct_lag_sum(rows, markets, width, cfg):
    model = model_of(rows, markets=markets, bucket_width=width)
    grid = cfg.time_grid
    curves = {mk: 25.0 + 5.0 * i + np.sin(7.0 * grid) for i, mk in enumerate(markets)}
    ps = simulate_spot(model, curves, cfg)
    want = direct_spot(model, curves, cfg, markets)
    np.testing.assert_allclose(ps.values[:, 1:, :], want, rtol=1e-12)
    if width == 5.0:  # the front-bucket case is a GBM in closed form
        z = normals(cfg, cfg.n_steps, 2)
        w = np.cumsum(z @ np.array([0.3, 0.1]) * math.sqrt(0.1), axis=1)
        var = 0.1 * np.cumsum(np.full(cfg.n_steps, 0.3**2 + 0.1**2))
        gbm = curves["X"][1:] * np.exp(-0.5 * var[None, :] + w)
        np.testing.assert_allclose(ps.values[:, 1:, 0], gbm, rtol=1e-12)


@pytest.mark.parametrize("n_steps", [72, 1008, 8760])
def test_spot_lag_vols_change_only_at_bucket_boundaries(n_steps):
    # a 3-bucket monthly model at hourly steps: c may change only at a lag
    # that touches a bucket boundary, at most twice per boundary crossed
    model = model_of([[0.5, 0.1], [0.35, -0.05], [0.25, 0.02]], bucket_width=1 / 12)
    step = 1 / 8760
    c = _spot_lag_vols(model, "X", n_steps, step)
    changes = np.flatnonzero((c[:, 1:] != c[:, :-1]).any(axis=0)) + 1
    bounds = [b / 12 for b in (1, 2) if b / 12 < n_steps * step]
    assert len(changes) <= 2 * len(bounds)

    def touches(q):
        return any(q * step <= b <= (q + 1) * step for b in bounds)

    for q in changes:
        assert touches(q) or touches(q - 1), q


def test_spot_mean_and_variance_match_model():
    model = model_of([[0.45, 0.1], [0.3, -0.05], [0.22, 0.02]], bucket_width=1 / 12)
    cfg = SimConfig(seed=314, n_paths=30_000, step=1 / 52, horizon=0.25)
    curve = 40.0 * np.exp(0.3 * cfg.time_grid)  # steep seasonal ramp
    ps = simulate_spot(model, {"X": curve}, cfg)
    report = sanity_check(ps, model, expected_mean=curve[:, None])
    assert report.passed, report.failures
    np.testing.assert_array_equal(ps.values[:, 0, 0], curve[0])

    # without the curve reference the ramp reads as a drift
    assert any("martingale" in f for f in sanity_check(ps, model).failures)
    with pytest.raises(ValidationError, match="expected_mean"):
        sanity_check(ps, model, expected_mean=curve[:-1, None])


def test_spot_antithetic_variance_tolerance_counts_pairs():
    # both paths of an antithetic pair share (x - mean)^2, so the variance
    # tolerance must be sized for n/2 independent squares; sized for n,
    # this seed breaches at t = 3/52
    model = model_of([[0.45, 0.1], [0.3, -0.05], [0.22, 0.02]], bucket_width=1 / 12)
    cfg = SimConfig(seed=8, n_paths=1000, step=1 / 52, horizon=0.25, antithetic=True)
    curve = 40.0 * np.exp(0.3 * cfg.time_grid)
    ps = simulate_spot(model, {"X": curve}, cfg)
    report = sanity_check(ps, model, expected_mean=curve[:, None])
    assert report.passed, report.failures


def test_spot_shared_factors_couple_markets():
    # identical volatility blocks + shared draws => identical paths
    rows = [[0.3, 0.05], [0.2, 0.01], [0.3, 0.05], [0.2, 0.01]]
    model = model_of(rows, markets=("A", "B"))
    cfg = SimConfig(seed=9, n_paths=4, step=1 / 52, horizon=1 / 13)
    curves = {"A": lambda t: 20.0, "B": lambda t: 20.0}
    ps = simulate_spot(model, curves, cfg)
    np.testing.assert_array_equal(ps.values[:, :, 0], ps.values[:, :, 1])
    assert [k.label for k in ps.product_keys] == ["A:spot", "B:spot"]


def test_spot_curve_validation():
    model = model_of([[0.3]])
    cfg = SimConfig(seed=1, n_paths=2, step=0.25, horizon=0.5)
    with pytest.raises(ValidationError, match="no initial curve"):
        simulate_spot(model, {}, cfg)
    with pytest.raises(ValidationError, match="grid dates"):
        simulate_spot(model, {"X": [20.0, 21.0]}, cfg)
    with pytest.raises(ValidationError, match="non-positive"):
        simulate_spot(model, {"X": [20.0, -1.0, 21.0]}, cfg)
    with pytest.raises(ValidationError, match="no initial curve"):
        simulate_spot(model, {"X": [20.0, 20.0, 20.0]}, cfg, markets=["Y"])


def _whole_array_spot(model, curves, cfg, markets):
    """The spot kernel on one whole draw: the cumulative shocks and each
    lag's product path-sized, as it ran before it ran in chunks of paths."""
    n = cfg.n_steps
    shocks = _one_draw(cfg, n, model.n_factors)
    np.cumsum(shocks, axis=1, out=shocks)
    values = np.zeros((cfg.n_paths, n + 1, len(markets)))
    for ki, mk in enumerate(markets):
        c = _spot_lag_vols(model, mk, n, cfg.step)
        var = np.cumsum((c**2).sum(axis=0) * cfg.step)
        dc = np.diff(c * math.sqrt(cfg.step), axis=1, prepend=0.0)
        x = values[:, 1:, ki]
        for q in np.flatnonzero((dc != 0.0).any(axis=0)):
            x[:, q:] += shocks[:, : n - q, :] @ dc[:, q]
        x -= 0.5 * var
        np.exp(x, out=x)
        x *= curves[mk][1:]
        values[:, 0, ki] = curves[mk][0]
    return values


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("markets", [("X",), ("X", "Y")])
@pytest.mark.parametrize("chunk_paths", [2, 6, 14, 40])  # 40: one chunk
def test_spot_in_chunks_of_paths_matches_whole_array_kernel(antithetic, markets, chunk_paths, monkeypatch):
    """Chunks of 2, 6 or 14 paths (the last one short) give the whole-array bits.

    0.03 does not divide the 0.1 buckets, so lags straddle their boundaries.
    """
    rows = [[0.45, 0.1], [0.3, -0.05], [0.22, 0.02], [0.3, 0.2], [0.25, -0.1], [0.1, 0.05]]
    model = model_of(rows[: 3 * len(markets)], markets=markets, bucket_width=0.1)
    cfg = SimConfig(seed=17, n_paths=40, step=0.03, horizon=0.6, antithetic=antithetic)
    curves = {mk: 25.0 + 5.0 * i + np.sin(7.0 * cfg.time_grid) for i, mk in enumerate(markets)}
    want = _whole_array_spot(model, curves, cfg, markets)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", chunk_paths * cfg.n_steps * model.n_factors)
    assert len(next(simulation._normal_chunks(cfg, cfg.n_steps, 2))) == min(chunk_paths, 40)
    ps = simulate_spot(model, curves, cfg)
    np.testing.assert_array_equal(ps.values, want)
    assert [k.label for k in ps.product_keys] == [f"{mk}:spot" for mk in markets]


# ---------------------------------------------------------------------------
# Theoretical variance
# ---------------------------------------------------------------------------


def test_theoretical_variance_fixed_delivery():
    model = model_of([[0.3, 0.1], [0.2, 0.0]], bucket_width=0.25)
    d1 = ContractDescriptor("fixed_delivery", "X", bucket=1)
    assert theoretical_log_variance(model, d1, 0.1) == pytest.approx(0.01, rel=1e-12)
    # frozen at delivery: variance stops accruing at bucket * width
    assert theoretical_log_variance(model, d1, 0.9) == pytest.approx(
        0.1 * 0.25, rel=1e-12
    )
    assert theoretical_log_variance(model, d1, 0.9, t0=0.3) == 0.0


def test_theoretical_variance_swap_occupancy():
    model = model_of([[0.4], [0.2]], bucket_width=0.5)
    contract = ContractDescriptor("swap", "X", tau_start=0.75)
    # over [0, 0.5] time-to-delivery runs 0.75 -> 0.25: 0.25y in each bucket
    want = 0.25 * 0.04 + 0.25 * 0.16
    assert theoretical_log_variance(model, contract, 0.5) == pytest.approx(
        want, rel=1e-12
    )
    # past tau_start the swap is frozen
    assert theoretical_log_variance(model, contract, 5.0) == pytest.approx(
        theoretical_log_variance(model, contract, 0.75), rel=1e-12
    )


def test_theoretical_variance_spot_form():
    model = model_of([[0.4], [0.2]], bucket_width=0.5)
    spot = ContractDescriptor("spot", "X")
    assert theoretical_log_variance(model, spot, 0.75) == pytest.approx(
        0.5 * 0.16 + 0.25 * 0.04, rel=1e-12
    )


def test_theoretical_variance_parametric_and_errors():
    vol = ExponentialVol(0.8, 1.0, 0.2)
    swap = ContractDescriptor("swap", "X", tau_start=1.0)
    assert theoretical_log_variance(vol, swap, 0.5) == vol.variance_between(1.0, 0.0, 0.5)
    with pytest.raises(ValidationError, match="precede"):
        theoretical_log_variance(vol, swap, 0.1, t0=0.5)
    with pytest.raises(ValidationError, match="swaps only"):
        theoretical_log_variance(vol, ContractDescriptor("spot", "X"), 0.5)


def test_simulated_variance_agrees_with_theory_any_step():
    """Same swap, coarse vs fine grid: both match the closed form."""
    vol = ExponentialVol(0.8, 1.0)
    contract = ContractDescriptor("swap", "X", tau_start=1.0)
    for step in (1 / 4, 1 / 52):
        cfg = SimConfig(seed=55, n_paths=50_000, step=step, horizon=0.5)
        ps = simulate_swap(vol, contract, 20.0, cfg)
        logs = np.log(ps.values[:, -1, 0] / 20.0)
        theo = theoretical_log_variance(vol, contract, cfg.time_grid[-1])
        se = theo * math.sqrt(2.0 / (cfg.n_paths - 1))
        assert abs(logs.var(ddof=1) - theo) < 3 * se


# ---------------------------------------------------------------------------
# Log returns off paths
# ---------------------------------------------------------------------------


def test_path_log_returns_layout():
    model = model_of([[0.2], [0.3]], bucket_width=10.0)
    cfg = SimConfig(seed=17, n_paths=3, step=1 / 12, horizon=0.25)
    ps = simulate_fixed_delivery(model, [10.0, 12.0], cfg)
    mat = path_log_returns(ps)
    assert mat.values.shape == (9, 2)
    assert mat.column_keys == [("X", "M1"), ("X", "M2")]
    assert mat.dt == cfg.step
    want = np.log(ps.values[1, 2, :] / ps.values[1, 1, :])
    np.testing.assert_allclose(mat.values[4], want, rtol=1e-14)


def test_path_log_returns_swap_key():
    vol = ExponentialVol(0.5, 1.0)
    contract = ContractDescriptor("swap", "X", tau_start=1.0)
    cfg = SimConfig(seed=1, n_paths=2, step=0.25, horizon=0.5)
    ps = simulate_swap(vol, contract, 10.0, cfg)
    assert path_log_returns(ps).column_keys == [("X", "X:swap:1")]


# ---------------------------------------------------------------------------
# Sanity checks as a consumer
# ---------------------------------------------------------------------------


def _healthy_paths():
    model = model_of([[0.3, 0.0], [0.21, 0.21]], bucket_width=0.5)
    cfg = SimConfig(seed=6, n_paths=8_000, step=1 / 52, horizon=0.25)
    return model, simulate_fixed_delivery(model, [20.0, 22.0], cfg)


def test_sanity_flags_wrong_variance():
    model, ps = _healthy_paths()
    inflated = model_of(2.0 * model.sigma_star, bucket_width=0.5)
    report = sanity_check(ps, inflated)
    assert not report.passed
    assert any("variance breach" in f for f in report.failures)


def test_sanity_flags_drifting_means():
    model, ps = _healthy_paths()
    drifted = PathSet(
        ps.values * np.exp(0.05 * ps.time_grid)[None, :, None],
        ps.time_grid,
        ps.product_keys,
        ps.config,
    )
    report = sanity_check(drifted, model)
    assert any("martingale breach" in f for f in report.failures)


def test_sanity_flags_wrong_correlation():
    # same per-product variance, very different cross correlation
    model, ps = _healthy_paths()
    rho = model.correlation()[0, 1]
    decorrelated = model_of(
        [[0.3, 0.0], [0.0, 0.21 * math.sqrt(2.0)]], bucket_width=0.5
    )
    assert abs(rho - 0.7071) < 1e-3
    report = sanity_check(ps, decorrelated)
    assert any("correlation breach" in f for f in report.failures)
    assert report.model_correlation[0, 1] == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("top", [1e306, 1e308])
def test_sanity_flags_non_finite_moments(top):
    # finite paths whose sum of squares (1e306) or sum (1e308) overflows:
    # an infinite standard error must not widen the tolerance to everything
    model = model_of([[0.3, 0.0], [0.21, 0.21]], bucket_width=0.5)
    cfg = SimConfig(seed=6, n_paths=8, step=1 / 52, horizon=4 / 52)
    ps = simulate_fixed_delivery(model, [top, top], cfg)
    assert np.isfinite(ps.values).all()
    report = sanity_check(ps, model)
    assert not report.passed
    flagged = [f for f in report.failures if f.startswith("non-finite moment")]
    assert len(flagged) == 4 * 2  # every (time, product) cell


def test_sanity_skips_correlation_for_swaps():
    vol = ExponentialVol(0.5, 1.0)
    cfg = SimConfig(seed=4, n_paths=2_000, step=0.1, horizon=0.3)
    ps = simulate_swap(vol, ContractDescriptor("swap", "X", tau_start=1.0), 15.0, cfg)
    report = sanity_check(ps, vol)
    assert report.passed
    assert report.empirical_correlation is None and report.model_correlation is None


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_paths_csv(tmp_path):
    ps = make_paths([[10.0, 11.0, 12.0], [10.0, 9.0, 8.0]], step=0.5)
    out = tmp_path / "paths.csv"
    write_paths_csv(ps, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["path_id", "time", "product_key", "value"]
    assert len(rows) == 1 + 2 * 3
    assert rows[1] == ["0", "0", "X:spot", "10"]
    assert rows[5] == ["1", "0.5", "X:spot", "9"]

    write_paths_csv(ps, tmp_path / "head.csv", max_paths=1)
    assert len(list(csv.reader((tmp_path / "head.csv").open()))) == 1 + 3


def test_write_summary_csv(tmp_path):
    ps = make_paths([[10.0, 20.0], [10.0, 10.0]], step=1.0)
    out = tmp_path / "summary.csv"
    write_summary_csv(ps, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["time", "product_key", "mean", "q05", "q95"]
    assert rows[1][2] == "10"
    assert float(rows[2][2]) == 15.0
    assert float(rows[2][3]) == pytest.approx(10.5)

    # byte-identical on rewrite
    write_summary_csv(ps, tmp_path / "again.csv")
    assert out.read_bytes() == (tmp_path / "again.csv").read_bytes()


# ---------------------------------------------------------------------------
# One path array: whole-array references and memory bounds
# ---------------------------------------------------------------------------


def _reference_fixed_delivery(model, initial, cfg):
    """The whole-array generator: every temporary the size of the paths."""
    products = [(mk, b) for mk in model.markets for b in range(1, model.buckets_per_market + 1)]
    rows = np.vstack([model.row(mk, b) for mk, b in products])
    stops = np.array([b * model.bucket_width for _, b in products])
    grid = cfg.time_grid
    live = np.maximum(
        np.minimum(grid[1:, None], stops[None, :]) - np.minimum(grid[:-1, None], stops[None, :]),
        0.0,
    )
    z = normals(cfg, cfg.n_steps, rows.shape[1])
    shocks = np.einsum("pkj,nj->pkn", z, rows) * np.sqrt(live)[None, :, :]
    drift = -0.5 * (rows**2).sum(axis=1)[None, :] * live
    log_paths = np.cumsum(drift[None, :, :] + shocks, axis=1)
    initial = np.asarray(initial, dtype=float)
    return np.concatenate(
        [np.broadcast_to(initial, (cfg.n_paths, 1, initial.size)), initial * np.exp(log_paths)],
        axis=1,
    )


def _reference_sanity_stats(ps, width=1 / 12):
    """Whole-array sanity statistics: variance, mean, mean SE, correlation."""
    vals = ps.values
    logs = np.log(vals[:, 1:, :] / vals[:, :1, :])
    mean_se = vals[:, 1:, :].std(axis=0, ddof=1) / math.sqrt(ps.n_paths)
    stats = [logs.var(axis=0, ddof=1), vals[:, 1:, :].mean(axis=0), mean_se]
    if all(d.kind == "fixed_delivery" for d in ps.product_keys):
        stops = np.array([d.bucket * width for d in ps.product_keys])
        live = ps.time_grid[1:] <= stops.min() + 1e-12
        rets = np.log(vals[:, 1:, :][:, live, :] / vals[:, :-1, :][:, live, :])
        stats.append(np.corrcoef(rets.reshape(-1, rets.shape[2]).T))
    return stats


def _reference_summary_csv(ps, path):
    mean = ps.values.mean(axis=0)
    q05, q95 = np.quantile(ps.values, [0.05, 0.95], axis=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "product_key", "mean", "q05", "q95"])
        for i, t in enumerate(ps.time_grid):
            for j, key in enumerate(ps.product_keys):
                writer.writerow(
                    [format(t, ".10g"), key.label]
                    + [format(a[i, j], ".10g") for a in (mean, q05, q95)]
                )


def _reference_paths_csv(ps, path, max_paths):
    limit = ps.n_paths if max_paths is None else min(max_paths, ps.n_paths)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path_id", "time", "product_key", "value"])
        for p in range(limit):
            for i, t in enumerate(ps.time_grid):
                for j, key in enumerate(ps.product_keys):
                    writer.writerow(
                        [p, format(t, ".10g"), key.label, format(ps.values[p, i, j], ".10g")]
                    )


def _two_market_model():
    rows = [[0.35, 0.1], [0.3, 0.05], [0.25, -0.02], [0.3, -0.1], [0.28, 0.0], [0.2, 0.04]]
    return model_of(rows, markets=("A", "B"))


@pytest.mark.parametrize("antithetic", [False, True])
def test_blocked_statistics_match_whole_array_reference(antithetic, tmp_path, monkeypatch):
    model = _two_market_model()
    cfg = SimConfig(seed=31, n_paths=60, step=1 / 52, horizon=0.5, antithetic=antithetic)
    ps = simulate_fixed_delivery(model, [30.0, 31.0, 32.0, 20.0, 21.0, 22.0], cfg)
    want = _reference_fixed_delivery(model, ps.values[0, 0], cfg)
    np.testing.assert_array_equal(ps.values, want)

    # 5 grid times per block: 27 grid times leave a short last block
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 5 * 60 * 6)
    assert [s.stop - s.start for s in _time_slices(ps.values.shape)] == [5] * 5 + [2]
    report = sanity_check(ps, model)
    var, mean, se, corr = _reference_sanity_stats(ps)
    np.testing.assert_array_equal(report.empirical_variance, var)
    np.testing.assert_array_equal(report.empirical_mean, mean)
    np.testing.assert_array_equal(report.mean_se, se)
    np.testing.assert_array_equal(report.empirical_correlation, corr)

    write_summary_csv(ps, tmp_path / "blocked.csv")
    _reference_summary_csv(ps, tmp_path / "whole.csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3, 27])  # 27: the whole grid in one block
def test_streamed_stage_matches_whole_array_references(antithetic, width, tmp_path, monkeypatch):
    """Blocks of 1, 2 or 3 grid times split the 4 correlation steps at their seams.

    The buckets deliver inside steps 4, 8 and 12, so the blocks narrow to 4
    and then 2 products, and none is drawn after time 13.
    """
    model = _two_market_model()
    cfg = SimConfig(seed=31, n_paths=60, step=1 / 52, horizon=0.5, antithetic=antithetic)
    initial = [30.0, 31.0, 32.0, 20.0, 21.0, 22.0]
    products = [(mk, b) for mk in model.markets for b in (1, 2, 3)]
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", width * 60 * 6)
    law = simulation._fixed_delivery_law(model, products, initial, cfg)
    assert simulation._correlation_steps(model, law.keys, cfg.time_grid) == 4
    seen = []

    def recorded():
        for s, cols, blk in simulation._lognormal_blocks(law.rows, law.live, law.initial, cfg):
            seen.append((s, cols, blk.copy()))
            yield s, cols, blk

    stats, report = simulation._simulate_stage(recorded(), law.keys, cfg, model, export=7)
    want = _reference_fixed_delivery(model, initial, cfg)
    held = np.zeros(want.shape[1:], dtype=int)
    for s, cols, blk in seen:
        np.testing.assert_array_equal(blk, want[:, s][:, :, cols])
        held[s, cols] += 1
    # every cell up to its product's delivery step exactly once, and no other
    last = np.tile([5, 9, 13], 2)
    np.testing.assert_array_equal(held, np.arange(27)[:, None] <= last)

    ps = PathSet(want, cfg.time_grid, law.keys, cfg)
    var, mean, se, corr = _reference_sanity_stats(ps)
    np.testing.assert_array_equal(report.empirical_variance, var)
    np.testing.assert_array_equal(report.empirical_mean, mean)
    np.testing.assert_array_equal(report.mean_se, se)
    np.testing.assert_array_equal(report.empirical_correlation, corr)
    np.testing.assert_array_equal(stats.export, want[:7])
    stats.write_summary(tmp_path / "streamed.csv")
    _reference_summary_csv(ps, tmp_path / "whole.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_streamed_stage_stops_at_the_first_bad_block(monkeypatch):
    """A block that fails the value rule stops the pass before later blocks are drawn."""
    model = _two_market_model()
    cfg = SimConfig(seed=5, n_paths=10, step=1 / 52, horizon=0.5)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 5 * 10 * 6)
    law = simulation._fixed_delivery_law(model, [(mk, b) for mk in "AB" for b in (1, 2, 3)], [1.0] * 6, cfg)
    drawn = []

    def poisoned():
        for s, cols, blk in simulation._lognormal_blocks(law.rows, law.live, law.initial, cfg):
            drawn.append(s.start)
            if s.start == 6:  # products 1, 2, 4 and 5 of 6, delivering after time 5
                blk[3, 1, 3] = math.nan
            yield s, cols, blk

    with pytest.raises(ValidationError, match="path values must be positive and finite"):
        simulation._simulate_stage(poisoned(), law.keys, cfg, model, export=1)
    # the first delivery ends the first block at time 5 and a one-time block
    assert drawn == [0, 5, 6]


def _whole_width_paths(law, cfg, width):
    """The lognormal engine that diffused every product over every block of
    ``width`` grid times, held cells included, written into one array."""
    rows, live, initial = law.rows, law.live, law.initial
    n_paths, n_prod = cfg.n_paths, rows.shape[0]
    z = normals(cfg, cfg.n_steps, rows.shape[1])
    scale = np.sqrt(live)
    drift = -0.5 * (rows**2).sum(axis=1)[None, :] * live
    values = np.empty((n_paths, cfg.n_steps + 1, n_prod))
    carry = None
    for a in range(0, cfg.n_steps + 1, width):
        s = slice(a, min(a + width, cfg.n_steps + 1))
        blk = x = values[:, s]
        if s.start == 0:
            blk[:, 0, :] = initial
            x = blk[:, 1:, :]
        steps = slice(max(s.start - 1, 0), s.stop - 1)
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
    return values


@st.composite
def _lognormal_runs(draw):
    """A law the simulate stage streams: 1-3 markets of fixed-delivery
    buckets, delivering inside steps (step 1/52) or on the grid (1/48), over
    a horizon before, across or past the deliveries; or one swap whose
    delivery starts before or after the horizon."""
    n_markets = draw(st.integers(1, 3))
    n_factors = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    markets = ("A", "B", "C")[:n_markets]
    model = model_of(0.1 + 0.3 * rng.random((3 * n_markets, n_factors)), markets=markets)
    cfg = SimConfig(
        seed=draw(st.integers(0, 2**16)),
        n_paths=40,
        step=draw(st.sampled_from([1 / 52, 1 / 48])),
        horizon=draw(st.sampled_from([0.05, 0.3, 0.5])),
        antithetic=draw(st.booleans()),
    )
    if draw(st.booleans()):
        contract = ContractDescriptor("swap", markets[0], tau_start=draw(st.sampled_from([0.1, 0.2, 0.6])))
        law = simulation._swap_law(model, contract, 30.0, cfg)
    else:
        products = [(mk, b) for mk in markets for b in (1, 2, 3)]
        law = simulation._fixed_delivery_law(model, products, 20.0 + rng.random(len(products)), cfg)
    return model, cfg, law, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_lognormal_runs())
def test_live_column_stage_matches_whole_width_engine_and_stage(tmp_path_factory, run):
    """Blocks of 1, 2 or 3 whole-width times: the same paths, moments and files."""
    model, cfg, law, width = run
    n_prod = law.rows.shape[0]
    tmp = tmp_path_factory.mktemp("stage")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK_VALUES", width * cfg.n_paths * n_prod)
        want = _whole_width_paths(law, cfg, width)
        blocks = list(simulation._lognormal_blocks(law.rows, law.live, law.initial, cfg))
        stats, report = simulation._simulate_stage(iter(blocks), law.keys, cfg, model, export=7)
        ps = simulation._lognormal_paths(law, cfg)
    last = simulation._last_moves(law.live)
    for s, cols, blk in blocks:
        np.testing.assert_array_equal(blk, want[:, s][:, :, cols])
        # a block of one product may run past its last index, and only then
        assert cols.size == 1 or s.stop <= last[cols].min() + 1
    np.testing.assert_array_equal(ps.values, want)
    np.testing.assert_array_equal(stats.export, want[:7])

    whole = PathSet(want, cfg.time_grid, law.keys, cfg)
    var, mean, se = _reference_sanity_stats(whole)[:3]
    np.testing.assert_array_equal(report.empirical_variance, var)
    np.testing.assert_array_equal(report.empirical_mean, mean)
    np.testing.assert_array_equal(report.mean_se, se)
    if report.empirical_correlation is not None:
        np.testing.assert_array_equal(report.empirical_correlation, _reference_sanity_stats(whole)[3])
    assert report.failures == sanity_check(whole, model).failures
    stats.write_summary(tmp / "summary.csv")
    _reference_summary_csv(whole, tmp / "summary_whole.csv")
    assert (tmp / "summary.csv").read_bytes() == (tmp / "summary_whole.csv").read_bytes()
    stats.write_paths(tmp / "paths.csv")
    _reference_paths_csv(whole, tmp / "paths_whole.csv", 7)
    assert (tmp / "paths.csv").read_bytes() == (tmp / "paths_whole.csv").read_bytes()


def test_nightly_law_blocks_hold_only_the_moving_cells():
    """3 markets x 6 monthly buckets over a daily year: 29.4% of the cells."""
    rows = np.vstack([[0.3 * 0.9**b, 0.05 * (b - 3)] for b in range(18)])
    model = model_of(rows, markets=("DE", "TTF", "NBP"))
    cfg = SimConfig(seed=3001, n_paths=2500, step=1 / 252, horizon=1.0)
    products = [(mk, b) for mk in model.markets for b in range(1, 7)]
    law = simulation._fixed_delivery_law(model, products, np.linspace(30.0, 60.0, 18), cfg)
    last = simulation._last_moves(law.live)
    # bucket b's delivery begins on grid time 21 b
    np.testing.assert_array_equal(last, np.tile(21 * np.arange(1, 7), 3))
    cells = sum(blk.shape[1] * blk.shape[2] for _, _, blk in simulation._lognormal_blocks(*law[:3], cfg))
    assert cells == (last + 1).sum() == 1341
    assert round(cells / (253 * 18), 3) == 0.294


@pytest.mark.parametrize("width", [1, 2])
def test_one_product_blocks_keep_the_whole_array_sums(width, tmp_path, monkeypatch):
    """numpy sums a lone (paths, 1, 1) column pairwise and wider blocks path by
    path, so no block of one product may reduce a single time."""
    contract = ContractDescriptor("swap", "X", tau_start=0.5)
    cfg = SimConfig(seed=7, n_paths=2000, step=1 / 252, horizon=0.25)
    ps = simulate_swap(model_of([[0.4], [0.3], [0.2]]), contract, 25.0, cfg)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", width * 2000)
    slices = _time_slices(ps.values.shape)
    assert slices[0] == slice(0, 3) and all(s.stop - s.start >= 2 for s in slices)
    report = sanity_check(ps, model_of([[0.4], [0.3], [0.2]]))
    var, mean, se = _reference_sanity_stats(ps)
    np.testing.assert_array_equal(report.empirical_variance, var)
    np.testing.assert_array_equal(report.empirical_mean, mean)
    np.testing.assert_array_equal(report.mean_se, se)
    write_summary_csv(ps, tmp_path / "blocked.csv")
    _reference_summary_csv(ps, tmp_path / "whole.csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("width", [2, None])  # 2: blocks of 2 times at full width; None: one block per delivery
def test_path_set_reducers_read_only_the_engines_live_cells(width, tmp_path, monkeypatch):
    """sanity_check and write_summary_csv on a generated set reduce only the
    60 of 162 cells the engine computed, in the engine's blocks, and give the
    bytes of the same values reduced over every cell; so does write_paths_csv."""
    model = _two_market_model()
    cfg = SimConfig(seed=31, n_paths=60, step=1 / 52, horizon=0.5)
    initial = [30.0, 31.0, 32.0, 20.0, 21.0, 22.0]
    if width is not None:
        monkeypatch.setattr(simulation, "_BLOCK_VALUES", width * 60 * 6)
    law = simulation._fixed_delivery_law(model, [(mk, b) for mk in "AB" for b in (1, 2, 3)], initial, cfg)
    engine = [(s, cols) for s, cols, _ in simulation._lognormal_blocks(*law[:3], cfg)]
    ps = simulate_fixed_delivery(model, initial, cfg)
    whole = PathSet(ps.values, ps.time_grid, ps.product_keys, ps.config)
    seen = []
    add = simulation._BlockStats.add

    def counted(stats, s, cols, blk):
        seen.append((s, cols, blk[0].size))
        add(stats, s, cols, blk)

    monkeypatch.setattr(simulation._BlockStats, "add", counted)
    cells, reports = {}, {}
    for name, paths in (("live", ps), ("whole", whole)):
        seen.clear()
        reports[name] = sanity_check(paths, model)
        write_summary_csv(paths, tmp_path / f"summary_{name}.csv")
        write_paths_csv(paths, tmp_path / f"paths_{name}.csv", 7)
        cells[name] = sum(n for _, _, n in seen)
        if name == "live":  # each pass runs the engine's blocks
            assert [(s, cols.tolist()) for s, cols, _ in seen] == 2 * [(s, cols.tolist()) for s, cols in engine]
    assert cells == {"live": 2 * 60, "whole": 2 * 162}
    for f in fields(SanityReport):
        np.testing.assert_array_equal(getattr(reports["live"], f.name), getattr(reports["whole"], f.name))
    for name in ("summary", "paths"):
        assert (tmp_path / f"{name}_live.csv").read_bytes() == (tmp_path / f"{name}_whole.csv").read_bytes()


def test_a_set_rebuilt_from_generated_values_is_reduced_in_full():
    """The freeze index comes from the law alone: drifting only the cells past
    each product's last move, in a set rebuilt from a generated set's values,
    fails the martingale check there."""
    model = _two_market_model()
    cfg = SimConfig(seed=31, n_paths=60, step=1 / 52, horizon=0.5)
    ps = simulate_fixed_delivery(model, [30.0, 31.0, 32.0, 20.0, 21.0, 22.0], cfg)
    assert sanity_check(ps, model).passed
    frozen = np.arange(27)[:, None] > np.tile([5, 9, 13], 2)
    drift = np.where(frozen, 1.5, 1.0)
    for rebuilt in (
        PathSet(ps.values * drift, ps.time_grid, ps.product_keys, ps.config),
        replace(ps, values=ps.values * drift),
    ):
        failures = sanity_check(rebuilt, model).failures
        assert all(f.startswith("martingale breach") for f in failures)
        breached = {(f.split()[2], round(float(f.split("t=")[1].split(":")[0]) * 52)) for f in failures}
        assert breached == {(key.label, t) for t, n in zip(*np.nonzero(frozen)) for key in [ps.product_keys[n]]}


def test_blocked_spot_statistics_match_whole_array_reference(monkeypatch):
    model = model_of([[0.5, 0.1], [0.3, 0.0]], bucket_width=1 / 52)
    cfg = SimConfig(seed=4, n_paths=40, step=1 / 365, horizon=40 / 365)
    curve = 50.0 + np.sin(np.arange(cfg.n_steps + 1))
    ps = simulate_spot(model, {"X": curve}, cfg)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 7 * 40)
    report = sanity_check(ps, model, expected_mean=curve[:, None])
    var, mean, se = _reference_sanity_stats(ps)
    np.testing.assert_array_equal(report.empirical_variance, var)
    np.testing.assert_array_equal(report.empirical_mean, mean)
    np.testing.assert_array_equal(report.mean_se, se)


def test_swap_matches_whole_array_reference():
    model = model_of([[0.4], [0.3], [0.2]])
    contract = ContractDescriptor("swap", "X", tau_start=0.2)
    cfg = SimConfig(seed=21, n_paths=30, step=1 / 52, horizon=0.3, antithetic=True)
    ps = simulate_swap(model, contract, 25.0, cfg)
    v = simulation._log_variance(model, contract, cfg.time_grid[1:], cfg.time_grid[:-1])
    z = normals(cfg, cfg.n_steps, 1)[:, :, 0]
    increments = -0.5 * v[None, :] + np.sqrt(v)[None, :] * z
    want = 25.0 * np.exp(np.cumsum(increments, axis=1))
    np.testing.assert_array_equal(ps.values[:, 1:, 0], want)
    np.testing.assert_array_equal(ps.values[:, 0, 0], 25.0)


@pytest.mark.parametrize(
    "contract",
    [
        ContractDescriptor("fixed_delivery", "B", bucket=2),
        ContractDescriptor("swap", "A", tau_start=0.13),
        ContractDescriptor("swap", "B", tau_start=0.6),
        ContractDescriptor("spot", "B"),
        ContractDescriptor("swap", "parametric", tau_start=0.3),
    ],
)
def test_theoretical_variances_on_a_grid_match_scalar_calls(contract):
    # the "parametric" market runs on a parametric volatility, the others on a factor model
    if contract.market == "parametric":
        model = ExponentialVol(0.8, 1.0, 0.2)
    else:
        model = _two_market_model()
    times = np.linspace(0.0, 0.45, 118)
    grid = simulation._log_variance(model, contract, times)
    scalar = [theoretical_log_variance(model, contract, float(t)) for t in times]
    assert grid.shape == times.shape
    np.testing.assert_allclose(grid, scalar, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("max_paths", [None, 3])
def test_write_paths_csv_matches_row_by_row_reference(max_paths, tmp_path):
    # the second market's labels hold a comma, a double quote and a newline:
    # the csv dialect quotes them, and each of their rows spans two lines
    market = 'Hub "B",\npeak'
    model = model_of(_two_market_model().sigma_star, markets=("A", market))
    cfg = SimConfig(seed=8, n_paths=5, step=1 / 12, horizon=0.25)
    ps = simulate_fixed_delivery(model, [30.0, 31.0, 32.0, 20.0, 21.0, 22.0], cfg)
    write_paths_csv(ps, tmp_path / "fast.csv", max_paths)
    _reference_paths_csv(ps, tmp_path / "slow.csv", max_paths)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
    assert '"Hub ""B"",\npeak:M1"' in (tmp_path / "fast.csv").read_text()


@pytest.mark.parametrize("n_paths", [1, 2, 3, 2500])
def test_write_summary_csv_matches_np_quantile_reference(n_paths, tmp_path, monkeypatch):
    rng = np.random.default_rng(n_paths)
    vals = np.exp(0.2 * rng.standard_normal((n_paths, 9, 2)))
    vals[:, 0] = 1.0  # every path starts at the same value
    vals[:, 4] = 1.0 + rng.integers(0, 3, size=(n_paths, 2))  # heavily tied
    ps = make_paths(vals, step=0.25, market='Hub "A", peak')
    # 4 grid times per block: 9 grid times leave a short last block
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 4 * n_paths * 2)
    assert [s.stop - s.start for s in _time_slices(ps.values.shape)] == [4, 4, 1]
    write_summary_csv(ps, tmp_path / "fast.csv")
    _reference_summary_csv(ps, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_write_summary_csv_matches_reference_on_antithetic_paths(tmp_path, monkeypatch):
    model = _two_market_model()
    cfg = SimConfig(seed=17, n_paths=2500, step=1 / 52, horizon=0.25, antithetic=True)
    ps = simulate_fixed_delivery(model, [30.0, 31.0, 32.0, 20.0, 21.0, 22.0], cfg)
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 3 * 2500 * 6)  # 14 times: 3+3+3+3+2
    write_summary_csv(ps, tmp_path / "fast.csv")
    _reference_summary_csv(ps, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def _sample_columns(n, cols):
    cell = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.5, 1.0, 2.0])
    return st.lists(cell, min_size=n * cols, max_size=n * cols).map(
        lambda v: np.array(v).reshape(n, cols)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 40), st.integers(1, 3)).flatmap(lambda shape: _sample_columns(*shape)),
    st.floats(0.0, 1.0),
)
@example(np.array([[1.34], [4.031], [5.031]]), 0.25)  # gamma exactly 0.5: the b - (b-a)(1-g) side
def test_one_sort_quantile_equals_np_quantile(x, q):
    ordered = np.sort(x, axis=0)
    np.testing.assert_array_equal(_quantiles_of_sorted(ordered, q), np.quantile(x, q, axis=0))
    for q_fixed in (0.05, 0.95):
        got = _quantiles_of_sorted(ordered, q_fixed)
        np.testing.assert_array_equal(got, np.quantile(x, [q_fixed], axis=0)[0])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_stage_holds_one_path_array(tmp_path):
    """Nightly size: 2,500 paths x 253 times x 18 products, 2 factors."""
    rows = np.vstack([[0.3 * 0.9**b, 0.05 * (b - 3)] for b in range(18)])
    model = model_of(rows, markets=("DE", "TTF", "NBP"))
    cfg = SimConfig(seed=3001, n_paths=2500, step=1 / 252, horizon=1.0)
    initial = np.linspace(30.0, 60.0, 18)
    path_bytes = cfg.n_paths * (cfg.n_steps + 1) * 18 * 8
    normal_bytes = cfg.n_paths * cfg.n_steps * 2 * 8

    peak = _traced_peak(simulate_fixed_delivery, model, initial, cfg)
    assert peak <= 1.1 * (path_bytes + normal_bytes)
    ps = simulate_fixed_delivery(model, initial, cfg)
    assert _traced_peak(sanity_check, ps, model) <= 0.25 * path_bytes
    assert _traced_peak(write_summary_csv, ps, tmp_path / "summary.csv") <= 0.25 * path_bytes


def test_sanity_check_correlates_the_pooled_returns_without_a_copy(monkeypatch):
    """A short-horizon set's steps all come before its first delivery, so its
    pooled returns are as large as its path array. With blocks of 2 grid
    times nothing else the check holds is path-sized: np.corrcoef's copy of
    the returns would take the peak to twice them."""
    rows = np.vstack([[0.3 * 0.9**b, 0.05 * (b - 3)] for b in range(6)])
    model = model_of(rows)
    cfg = SimConfig(seed=11, n_paths=2000, step=1 / 260, horizon=20 / 260)
    ps = simulate_short_horizon(model, "X", np.linspace(30.0, 40.0, 6), cfg)
    want = _reference_sanity_stats(ps)[3]
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 2 * cfg.n_paths * 6)
    return_bytes = cfg.n_paths * cfg.n_steps * 6 * 8
    assert _traced_peak(sanity_check, ps, model) <= 1.5 * return_bytes
    np.testing.assert_array_equal(sanity_check(ps, model).empirical_correlation, want)


def test_lognormal_blocks_hold_no_normals_past_the_last_delivery(monkeypatch):
    """Every bucket delivers by half the grid: the draw's later half is never held."""
    model = _two_market_model()
    cfg = SimConfig(seed=8, n_paths=2000, step=1 / 252, horizon=0.5)
    products = [(mk, b) for mk in model.markets for b in (1, 2, 3)]
    law = simulation._fixed_delivery_law(model, products, np.linspace(20.0, 30.0, 6), cfg)
    assert simulation._last_moves(law.live).max() == cfg.n_steps // 2
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", 2**16)
    draw_bytes = cfg.n_paths * cfg.n_steps * 2 * 8

    def run():
        for _ in simulation._lognormal_blocks(law.rows, law.live, law.initial, cfg):
            pass

    assert _traced_peak(run) < draw_bytes


def test_spot_holds_its_values_and_at_most_two_chunks():
    """400 paths x 2000 steps x 2 factors: 4 chunks of paths at the default budget."""
    rows = [[0.45, 0.1], [0.3, -0.05], [0.22, 0.02], [0.3, 0.2], [0.25, -0.1], [0.1, 0.05]]
    model = model_of(rows, markets=("X", "Y"), bucket_width=1 / 12)
    cfg = SimConfig(seed=5, n_paths=400, step=1 / 8760, horizon=2000 / 8760)
    curves = {"X": np.full(cfg.n_steps + 1, 40.0), "Y": np.full(cfg.n_steps + 1, 30.0)}
    assert 3 < cfg.n_paths * cfg.n_steps * 2 / simulation._BLOCK_VALUES <= 4
    value_bytes = cfg.n_paths * (cfg.n_steps + 1) * 2 * 8
    peak = _traced_peak(simulate_spot, model, curves, cfg)
    assert peak < value_bytes + 2 * simulation._BLOCK_VALUES * 8
