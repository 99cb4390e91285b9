import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjmkit.calibration import (
    DEFAULT_BUCKET_WIDTH,
    CovarianceEstimate,
    FactorModel,
    build_sigma_star,
    correlation_surface,
    estimate_covariance,
    pca,
    select_factors,
)
from hjmkit.errors import CalibrationError, ValidationError
from hjmkit.marketdata import LogReturnMatrix

from conftest import (
    TOY_COV,
    TOY_COV_2F,
    TOY_DT,
    TOY_LAMBDA,
    TOY_RHO,
    TOY_RHO_STAR,
    TOY_SIGMA,
)

DT = 1.0 / 252.0


def returns_of(values, keys=None):
    values = np.asarray(values, dtype=float)
    keys = keys or [("DE", f"M{j + 1}") for j in range(values.shape[1])]
    return LogReturnMatrix(values, keys, DT)


def cov_of(matrix, keys=None):
    matrix = np.asarray(matrix, dtype=float)
    keys = keys or [("DE", f"M{j + 1}") for j in range(matrix.shape[0])]
    return CovarianceEstimate(matrix, keys, n_obs=100, dt=DT)


def corr(m):
    d = np.sqrt(np.diag(m))
    return m / np.outer(d, d)


# ---------------------------------------------------------------------------
# Covariance estimation
# ---------------------------------------------------------------------------


def test_identical_rows_give_zero_covariance():
    est = estimate_covariance(returns_of([[0.01, 0.02], [0.01, 0.02]]))
    np.testing.assert_array_equal(est.matrix, np.zeros((2, 2)))
    assert est.n_obs == 2


def test_two_row_hand_value():
    a = 0.03
    est = estimate_covariance(returns_of([[a, a], [-a, -a]]))
    np.testing.assert_allclose(est.matrix, np.full((2, 2), 2 * a * a), atol=1e-18)


def test_incomplete_rows_dropped():
    rows = [[0.03, 0.03], [-0.03, -0.03], [np.nan, 0.5], [0.7, np.nan]]
    est = estimate_covariance(returns_of(rows))
    assert est.n_obs == 2
    np.testing.assert_allclose(est.matrix, np.full((2, 2), 2 * 0.03**2), atol=1e-18)
    with pytest.raises(CalibrationError):
        estimate_covariance(returns_of([[0.1, np.nan], [np.nan, 0.2], [0.1, 0.2]]))


def test_covariance_estimate_validation():
    with pytest.raises(ValidationError):
        cov_of(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
    with pytest.raises(ValidationError):
        CovarianceEstimate(np.eye(2), [("DE", "M1")], 10, DT)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_two_by_two_analytic():
    res = pca(cov_of([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-14)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(res.eigenvectors[:, 0], [s, s], atol=1e-14)
    np.testing.assert_allclose(res.eigenvectors[:, 1], [s, -s], atol=1e-14)
    np.testing.assert_allclose(res.explained, [0.75, 1.0], atol=1e-14)


def test_pca_scaled_identity():
    res = pca(cov_of(0.3 * np.eye(4)))
    np.testing.assert_allclose(res.eigenvalues, np.full(4, 0.3), atol=1e-15)
    np.testing.assert_allclose(
        res.eigenvectors.T @ res.eigenvectors, np.eye(4), atol=1e-12
    )
    # sign rule: the largest-magnitude entry of each column is positive
    idx = np.abs(res.eigenvectors).argmax(axis=0)
    assert (res.eigenvectors[idx, np.arange(4)] > 0).all()


def test_pca_trace_conservation():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    m = A @ A.T
    res = pca(cov_of(m))
    assert res.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-10)
    assert (np.diff(res.eigenvalues) <= 0).all()


def test_pca_is_deterministic():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(5, 5))
    m = A @ A.T
    r1, r2 = pca(cov_of(m)), pca(cov_of(m))
    assert (r1.eigenvalues == r2.eigenvalues).all()
    assert (r1.eigenvectors == r2.eigenvectors).all()


def test_pca_clips_round_off_negatives():
    v = np.array([1.0, 1.0])
    res = pca(cov_of(np.outer(v, v)))  # rank one, second eigenvalue ~ +-1e-17
    assert res.eigenvalues[1] == 0.0


def test_pca_rejects_indefinite():
    with pytest.raises(ValidationError):
        pca(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(ValidationError):
        pca(np.array([[1.0, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Factor count selection
# ---------------------------------------------------------------------------


def test_select_factors_published_spectrum():
    assert select_factors(TOY_LAMBDA, 0.99) == 2
    ratios = np.cumsum(TOY_LAMBDA) / TOY_LAMBDA.sum()
    assert ratios[0] == pytest.approx(0.9867, abs=5e-5)
    assert ratios[1] == pytest.approx(0.9994, abs=5e-5)


def test_select_factors_edges():
    assert select_factors(TOY_LAMBDA, 1.0) == 3  # zero eigenvalue adds nothing
    assert select_factors([1.0, 0.0], 0.5) == 1
    assert select_factors([3.0, 1.0], 0.75) == 1  # boundary hit, smallest N
    with pytest.raises(ValidationError):
        select_factors(TOY_LAMBDA, 0.0)
    with pytest.raises(ValidationError):
        select_factors(TOY_LAMBDA, 1.1)
    with pytest.raises(CalibrationError):
        select_factors([0.0, 0.0], 0.9)


# ---------------------------------------------------------------------------
# sigma* construction
# ---------------------------------------------------------------------------


def test_sigma_star_rank_one():
    res = pca(cov_of([[2.0, 1.0], [1.0, 2.0]]))
    model = build_sigma_star(res, n_factors=1, dt=1.0)
    np.testing.assert_allclose(
        model.sigma_star @ model.sigma_star.T, np.full((2, 2), 1.5), atol=1e-12
    )
    np.testing.assert_allclose(model.sigma_star[:, 0], np.sqrt([1.5, 1.5]), atol=1e-12)


def test_sigma_star_full_rank_recovers_covariance():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4, 4))
    m = A @ A.T
    res = pca(cov_of(m))
    model = build_sigma_star(res, n_factors=4, dt=DT)
    np.testing.assert_allclose(model.covariance(), m, rtol=1e-10, atol=1e-12)


def test_truncation_error_shrinks_with_n():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(5, 5))
    m = A @ A.T
    res = pca(cov_of(m, keys=[("DE", f"M{j+1}") for j in range(5)]))
    errs = []
    for n in range(1, 6):
        model = build_sigma_star(res, n_factors=n, dt=DT)
        errs.append(np.linalg.norm(m - model.covariance()))
    assert all(errs[i] >= errs[i + 1] - 1e-12 for i in range(4))
    assert errs[-1] <= 1e-10 * np.linalg.norm(m)


def test_sigma_star_rejects_bad_factor_counts():
    res = pca(cov_of([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValidationError):
        build_sigma_star(res, n_factors=0, dt=DT)
    with pytest.raises(ValidationError):
        build_sigma_star(res, n_factors=3, dt=DT)
    rank1 = pca(cov_of(np.ones((2, 2))))
    with pytest.raises(CalibrationError):
        build_sigma_star(rank1, n_factors=2, dt=DT)  # second eigenvalue is zero
    with pytest.raises(ValidationError):
        build_sigma_star(res, n_factors=1, dt=0.0)


def test_grid_layout_from_keys():
    keys = [("DE", "M1"), ("DE", "M2"), ("TTF", "M1"), ("TTF", "M2")]
    rng = np.random.default_rng(10)
    A = rng.normal(size=(4, 4))
    res = pca(cov_of(A @ A.T, keys=keys))
    model = build_sigma_star(res, n_factors=2, dt=DT)
    assert model.markets == ["DE", "TTF"]
    assert model.buckets_per_market == 2
    assert model.row_index("TTF", 1) == 2
    np.testing.assert_array_equal(model.row("TTF", 2), model.sigma_star[3])
    np.testing.assert_array_equal(model.market_block("DE"), model.sigma_star[:2])

    for bad in (
        [("DE", "M0"), ("DE", "M1")],             # zero-based bucket
        [("DE", "M1"), ("DE", "M3")],             # gap
        [("DE", "M1"), ("TTF", "M1"), ("DE", "M2"), ("TTF", "M2")],  # interleaved
        [("DE", "M1"), ("DE", "Q1")],             # non-monthly tenor
    ):
        res_bad = pca(cov_of(np.eye(len(bad)), keys=bad))
        with pytest.raises(CalibrationError):
            build_sigma_star(res_bad, n_factors=1, dt=DT)


# ---------------------------------------------------------------------------
# Published 4-bucket fixture: internal consistency of the printed matrices
# ---------------------------------------------------------------------------


def test_published_spectrum_matches_covariance():
    res = pca(cov_of(TOY_COV))
    np.testing.assert_allclose(res.eigenvalues, TOY_LAMBDA, atol=1e-7)
    assert res.explained[1] > 0.999


def test_published_rank_two_truncation():
    res = pca(cov_of(TOY_COV))
    model = build_sigma_star(res, n_factors=2, dt=TOY_DT)
    np.testing.assert_allclose(model.covariance(), TOY_COV_2F, atol=1e-8)


def test_published_correlation_matrices():
    # the displayed sigma reproduces the full correlation matrix to about
    # 0.009 (its entries are rounded to three figures), and the rank-two
    # model reproduces the reduced one to about 0.01
    got = corr(TOY_SIGMA @ TOY_SIGMA.T)
    assert np.abs(got - TOY_RHO).max() < 0.01

    res = pca(cov_of(TOY_COV))
    model = build_sigma_star(res, n_factors=2, dt=TOY_DT)
    assert np.abs(model.correlation() - TOY_RHO_STAR).max() < 0.011
    assert np.abs(corr(TOY_COV) - TOY_RHO).max() < 0.01


# ---------------------------------------------------------------------------
# FactorModel behaviour
# ---------------------------------------------------------------------------


def toy_model(n_factors=4):
    res = pca(cov_of(TOY_COV))
    return build_sigma_star(res, n_factors=n_factors, dt=TOY_DT)


def test_factor_model_covariance_and_correlation():
    model = toy_model()
    np.testing.assert_allclose(model.covariance(), TOY_COV, rtol=1e-9, atol=1e-12)
    c = model.correlation()
    np.testing.assert_allclose(np.diag(c), np.ones(4), atol=1e-12)
    assert np.abs(c).max() <= 1.0 + 1e-12


def test_factor_model_save_load_round_trip(tmp_path):
    model = toy_model(n_factors=2)
    path = tmp_path / "model.json"
    model.save(path)
    back = FactorModel.load(path)
    assert back.markets == model.markets
    assert back.buckets_per_market == model.buckets_per_market
    assert back.n_factors == model.n_factors
    assert back.dt == model.dt
    np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(back.sigma_star, model.sigma_star)


@settings(max_examples=40, deadline=None)
@given(
    n_markets=st.integers(1, 3),
    buckets=st.integers(1, 4),
    data=st.data(),
    bucket_width=st.floats(1e-3, 10.0) | st.just(DEFAULT_BUCKET_WIDTH),
    dt=st.floats(1e-4, 1.0),
)
def test_factor_model_file_round_trip(n_markets, buckets, data, bucket_width, dt):
    rows = n_markets * buckets
    n_factors = data.draw(st.integers(1, rows))
    row = st.lists(st.floats(-5.0, 5.0), min_size=n_factors, max_size=n_factors)
    sigma = data.draw(st.lists(row, min_size=rows, max_size=rows))
    eig = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_factors, max_size=n_factors))
    model = FactorModel(
        markets=[f"M{i}" for i in range(n_markets)],
        buckets_per_market=buckets,
        n_factors=n_factors,
        dt=dt,
        eigenvalues=sorted(eig, reverse=True),
        sigma_star=sigma,
        bucket_width=bucket_width,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        back = FactorModel.load(path)
    assert back.markets == model.markets
    assert (back.buckets_per_market, back.n_factors) == (model.buckets_per_market, model.n_factors)
    assert back.dt == model.dt
    assert back.bucket_width == model.bucket_width
    np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(back.sigma_star, model.sigma_star)


def test_factor_model_load_rejects_missing_fields(tmp_path):
    model = toy_model(n_factors=2)
    path = tmp_path / "model.json"
    model.save(path)
    import json

    doc = json.loads(path.read_text())
    del doc["eigenvalues"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        FactorModel.load(path)


def test_factor_model_validation():
    ok = dict(
        markets=["DE"], buckets_per_market=4, n_factors=2, dt=TOY_DT,
        eigenvalues=TOY_LAMBDA, sigma_star=np.zeros((4, 2)),
    )
    FactorModel(**ok)
    with pytest.raises(ValidationError):
        FactorModel(**{**ok, "markets": ["DE", "DE"]})
    with pytest.raises(ValidationError):
        FactorModel(**{**ok, "sigma_star": np.zeros((4, 3))})
    with pytest.raises(ValidationError):
        FactorModel(**{**ok, "dt": 0.0})
    with pytest.raises(ValidationError):
        FactorModel(**{**ok, "eigenvalues": TOY_LAMBDA[::-1]})
    with pytest.raises(ValidationError):
        FactorModel(**{**ok, "eigenvalues": -TOY_LAMBDA})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["dt", "bucket_width", "eigenvalues", "sigma_star"])
def test_factor_model_rejects_non_finite_field(field, bad):
    fields = dict(
        markets=["DE"], buckets_per_market=4, n_factors=2, dt=TOY_DT,
        eigenvalues=np.array(TOY_LAMBDA, dtype=float), sigma_star=np.zeros((4, 2)),
        bucket_width=1 / 12,
    )
    if np.ndim(fields[field]):
        fields[field].flat[0] = bad  # the leading eigenvalue stays the largest
    else:
        fields[field] = bad
    with pytest.raises(ValidationError, match=f"{field} must be"):
        FactorModel(**fields)


# ---------------------------------------------------------------------------
# Correlation surfaces
# ---------------------------------------------------------------------------


def test_correlation_surface_self_diagonal():
    rng = np.random.default_rng(14)
    X = rng.multivariate_normal(np.zeros(4), TOY_COV, size=500)
    est = estimate_covariance(returns_of(X))
    rows, cols, surf = correlation_surface(est, "DE", "DE")
    assert rows == cols == ["M1", "M2", "M3", "M4"]
    np.testing.assert_allclose(np.diag(surf), np.ones(4), atol=1e-12)
    assert np.abs(surf - TOY_RHO).max() < 0.05  # sampling error at n=500


def test_correlation_surface_cross_market():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((10_000, 2)) * 0.01
    keys = [("DE", "M1"), ("TTF", "M1")]
    est = estimate_covariance(returns_of(X, keys=keys))
    _, _, surf = correlation_surface(est, "DE", "TTF")
    assert surf.shape == (1, 1)
    assert abs(surf[0, 0]) < 0.05  # independent columns


def test_correlation_surface_from_factor_model():
    model = toy_model(n_factors=2)
    rows, cols, surf = correlation_surface(model, "DE", "DE")
    np.testing.assert_allclose(surf, model.correlation(), atol=1e-12)
    assert rows == ["M1", "M2", "M3", "M4"]


def test_correlation_surface_zero_variance_marked_undefined():
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    est = cov_of(cov, keys=[("DE", "M1"), ("TTF", "M1")])
    _, _, surf = correlation_surface(est, "DE", "TTF")
    assert np.isnan(surf[0, 0])
    _, _, self_surf = correlation_surface(est, "TTF", "TTF")
    assert self_surf[0, 0] == 1.0


def test_correlation_surface_unknown_market():
    est = estimate_covariance(returns_of(np.random.default_rng(17).normal(size=(30, 2))))
    with pytest.raises(ValidationError):
        correlation_surface(est, "DE", "NOPE")
