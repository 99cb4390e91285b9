"""Covariance estimation and factor reduction of the forward surface.

The market is described by the covariance of daily log returns of the
rolling monthly products across all markets. A spectral decomposition
orders the risk factors by explained variance; keeping the leading N
eigenpairs and rescaling by the return interval gives the reduced
volatility matrix sigma* whose rows drive the simulation:

    sigma* = V_N * diag(sqrt(lambda_N / dt))

so that dt * sigma* sigma*^T is exactly the rank-N truncation of the
estimated covariance. sigma* itself is unique only up to a rotation of its
columns, so tests and diagnostics always compare dt * sigma sigma^T, never
individual entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ValidationError
from .marketdata import LogReturnMatrix, parse_tenor

EIGENVALUE_CLIP = 1e-12  # relative to trace: below this an eigenvalue is noise
PSD_TOL = 1e-10  # relative to trace: how negative an eigenvalue may be
SYMMETRY_TOL = 1e-12

DEFAULT_BUCKET_WIDTH = 1.0 / 12.0


@dataclass
class CovarianceEstimate:
    """Sample covariance of log returns with its provenance."""

    matrix: np.ndarray
    column_keys: list[tuple[str, str]]
    n_obs: int
    dt: float

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n) or n != len(self.column_keys):
            raise ValidationError("covariance shape does not match column keys")
        scale = max(1.0, float(np.abs(self.matrix).max(initial=0.0)))
        if np.abs(self.matrix - self.matrix.T).max(initial=0.0) > SYMMETRY_TOL * scale:
            raise ValidationError("covariance matrix is not symmetric")
        self.matrix = 0.5 * (self.matrix + self.matrix.T)


def estimate_covariance(returns: LogReturnMatrix) -> CovarianceEstimate:
    """Sample covariance (demeaned, normalized by n-1) of the complete rows
    of a return matrix.

    Rows containing any missing entry are dropped so every pairwise entry
    is estimated from the same dates.
    """
    X = returns.values
    complete = np.isfinite(X).all(axis=1)
    n = int(complete.sum())
    if n < 2:
        raise CalibrationError(
            f"only {n} complete return rows across {X.shape[1]} columns; "
            "cannot estimate a covariance"
        )
    Xc = X[complete]
    Xc = Xc - Xc.mean(axis=0)
    mat = (Xc.T @ Xc) / (n - 1)
    return CovarianceEstimate(mat, list(returns.column_keys), n, returns.dt)


@dataclass
class PcaResult:
    """Eigen-decomposition with deterministic ordering and signs."""

    eigenvalues: np.ndarray  # descending, clipped at zero
    eigenvectors: np.ndarray  # columns, matching order
    column_keys: list[tuple[str, str]] = field(default_factory=list)

    @property
    def explained(self) -> np.ndarray:
        """Cumulative explained-variance ratios."""
        total = self.eigenvalues.sum()
        if total <= 0:
            raise CalibrationError("total variance is zero; nothing to explain")
        return np.cumsum(self.eigenvalues) / total


def pca(cov: CovarianceEstimate | np.ndarray) -> PcaResult:
    """Eigenpairs of a covariance matrix, largest first.

    Signs are fixed by making the largest-magnitude entry of every
    eigenvector positive (first index wins ties); eigenvalues below
    1e-12 of the trace are clipped to exactly zero, and anything more
    negative than the PSD tolerance is an error.
    """
    keys: list[tuple[str, str]] = []
    if isinstance(cov, CovarianceEstimate):
        keys = list(cov.column_keys)
        mat = cov.matrix
    else:
        mat = np.asarray(cov, dtype=float)
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("pca expects a square matrix")
        if np.abs(mat - mat.T).max(initial=0.0) > SYMMETRY_TOL * scale:
            raise ValidationError("pca input is not symmetric")
    trace = float(np.trace(mat))
    w, v = np.linalg.eigh(mat)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    if trace > 0 and w.min() < -PSD_TOL * trace:
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {w.min():.3e}"
        )
    w[w < EIGENVALUE_CLIP * max(trace, 0.0)] = 0.0
    for j in range(v.shape[1]):
        lead = np.argmax(np.abs(v[:, j]))
        if v[lead, j] < 0:
            v[:, j] = -v[:, j]
    return PcaResult(w, v, keys)


def select_factors(eigenvalues, threshold: float) -> int:
    """Smallest N whose leading eigenvalues explain at least ``threshold``."""
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0, 1]")
    w = np.asarray(eigenvalues, dtype=float)
    total = w.sum()
    if total <= 0:
        raise CalibrationError("eigenvalues sum to zero; no variance to explain")
    ratios = np.cumsum(w) / total
    hit = np.nonzero(ratios >= threshold - 1e-12)[0]
    if hit.size == 0:  # numerically short of 1.0 on the last step
        return int(np.count_nonzero(w))
    return int(hit[0]) + 1


@dataclass
class FactorModel:
    """Reduced-factor lognormal volatility model of the forward surface.

    Rows of ``sigma_star`` are keyed market-major: market k's bucket m
    (m = 1..buckets_per_market, time to delivery in ((m-1)w, mw] with
    w = bucket_width years) sits at row k * M + (m - 1). Columns are the
    retained stochastic factors.
    """

    markets: list[str]
    buckets_per_market: int
    n_factors: int
    dt: float
    eigenvalues: np.ndarray
    sigma_star: np.ndarray
    bucket_width: float = DEFAULT_BUCKET_WIDTH

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.sigma_star = np.asarray(self.sigma_star, dtype=float)
        if not self.markets or len(set(self.markets)) != len(self.markets):
            raise ValidationError("markets must be non-empty and unique")
        if self.buckets_per_market < 1:
            raise ValidationError("buckets_per_market must be positive")
        rows = len(self.markets) * self.buckets_per_market
        if self.sigma_star.shape != (rows, self.n_factors):
            raise ValidationError(
                f"sigma_star shape {self.sigma_star.shape} does not match "
                f"{rows} rows x {self.n_factors} factors"
            )
        if not 1 <= self.n_factors <= rows:
            raise ValidationError("n_factors must lie in 1..total rows")
        for name, value in (("dt", self.dt), ("bucket_width", self.bucket_width)):
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite")
        for name in ("eigenvalues", "sigma_star"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} must be finite")
        if np.any(self.eigenvalues < 0) or np.any(np.diff(self.eigenvalues) > 0):
            raise ValidationError("eigenvalues must be non-negative and descending")

    @property
    def n_rows(self) -> int:
        return len(self.markets) * self.buckets_per_market

    @property
    def explained(self) -> np.ndarray:
        total = self.eigenvalues.sum()
        return np.cumsum(self.eigenvalues) / total if total > 0 else self.eigenvalues * 0

    def row_index(self, market: str, bucket: int) -> int:
        if bucket < 1 or bucket > self.buckets_per_market:
            raise ValidationError(
                f"bucket {bucket} outside 1..{self.buckets_per_market}"
            )
        try:
            k = self.markets.index(market)
        except ValueError:
            raise ValidationError(f"unknown market {market!r}") from None
        return k * self.buckets_per_market + (bucket - 1)

    def row(self, market: str, bucket: int) -> np.ndarray:
        return self.sigma_star[self.row_index(market, bucket)]

    def market_block(self, market: str) -> np.ndarray:
        start = self.row_index(market, 1)
        return self.sigma_star[start : start + self.buckets_per_market]

    def covariance(self) -> np.ndarray:
        """Model-implied return covariance dt * sigma* sigma*^T."""
        return self.dt * (self.sigma_star @ self.sigma_star.T)

    def correlation(self) -> np.ndarray:
        cov = self.covariance()
        d = np.sqrt(np.diag(cov))
        if np.any(d == 0):
            raise CalibrationError("model has a zero-volatility row")
        return cov / np.outer(d, d)

    def save(self, path) -> None:
        doc = {
            "markets": self.markets,
            "buckets_per_market": self.buckets_per_market,
            "n_factors": self.n_factors,
            "dt": self.dt,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "sigma_star": [[float(x) for x in row] for row in self.sigma_star],
        }
        # a document without the key means the default width, so models at
        # the default keep writing the same bytes
        if self.bucket_width != DEFAULT_BUCKET_WIDTH:
            doc["bucket_width"] = float(self.bucket_width)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FactorModel":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not text
                raise ValidationError(f"{path}: not a JSON model document ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: model document is not a JSON object")
        missing = {"markets", "buckets_per_market", "n_factors", "dt", "eigenvalues", "sigma_star"} - set(doc)
        if missing:
            raise ValidationError(f"model document missing fields: {sorted(missing)}")
        try:
            return cls(
                markets=list(doc["markets"]),
                buckets_per_market=_count(doc, "buckets_per_market"),
                n_factors=_count(doc, "n_factors"),
                dt=float(doc["dt"]),
                eigenvalues=np.asarray(doc["eigenvalues"], dtype=float),
                sigma_star=np.asarray(doc["sigma_star"], dtype=float),
                bucket_width=float(doc.get("bucket_width", DEFAULT_BUCKET_WIDTH)),
            )
        except (TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}: malformed model field ({exc})") from exc


def _count(doc: dict, key: str) -> int:
    """An integral count of a model document; int() alone truncates 2.9 to 2."""
    value = doc[key]
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _grid_from_keys(column_keys) -> tuple[list[str], int]:
    """Validate that keys form a full market-major M1..M grid."""
    markets: list[str] = []
    offsets: dict[str, list[int]] = {}
    for market, tenor in column_keys:
        kind, off = parse_tenor(tenor)
        if kind != "M":
            raise CalibrationError(
                f"factor grid accepts monthly tenors only, got {market}:{tenor}"
            )
        if market not in offsets:
            markets.append(market)
            offsets[market] = []
        offsets[market].append(off)
    per_market = {m: tuple(v) for m, v in offsets.items()}
    grids = set(per_market.values())
    if len(grids) != 1:
        raise CalibrationError(f"markets have unequal bucket grids: {per_market}")
    grid = grids.pop()
    if grid != tuple(range(1, len(grid) + 1)):
        raise CalibrationError(
            f"bucket grid must be contiguous M1..M{len(grid)}, got {grid}; "
            "the in-delivery M0 product is not part of the factor grid"
        )
    # row k*M + (b-1) must be market k's bucket b, so the keys themselves
    # must already sit in market-major order
    expected = [(mk, f"M{b}") for mk in markets for b in range(1, len(grid) + 1)]
    if list(column_keys) != expected:
        raise CalibrationError("columns must be grouped by market in bucket order")
    return markets, len(grid)


def build_sigma_star(
    result: PcaResult,
    n_factors: int,
    dt: float,
    column_keys=None,
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
) -> FactorModel:
    """Reduced volatility matrix from the leading eigenpairs.

    Column j of sigma* is v_j * sqrt(lambda_j / dt). ``column_keys``
    defaults to the keys carried by the PcaResult and must form a full
    market-major monthly grid M1..M per market.
    """
    keys = list(column_keys) if column_keys is not None else list(result.column_keys)
    if not keys:
        raise CalibrationError("no column keys; cannot lay out the factor grid")
    w = result.eigenvalues
    if not 1 <= n_factors <= w.size:
        raise ValidationError(f"n_factors must lie in 1..{w.size}")
    if w[n_factors - 1] <= 0:
        raise CalibrationError(
            f"factor {n_factors} has zero variance; reduce the factor count"
        )
    if dt <= 0:
        raise ValidationError("dt must be positive")
    markets, m = _grid_from_keys(keys)
    sigma = result.eigenvectors[:, :n_factors] * np.sqrt(w[:n_factors] / dt)
    return FactorModel(
        markets=markets,
        buckets_per_market=m,
        n_factors=n_factors,
        dt=dt,
        eigenvalues=w,
        sigma_star=sigma,
        bucket_width=bucket_width,
    )


def correlation_surface(
    source: CovarianceEstimate | FactorModel, market_a: str, market_b: str
) -> tuple[list[str], list[str], np.ndarray]:
    """Correlation block between the tenor columns of two markets."""
    if isinstance(source, FactorModel):
        cov = source.covariance()
        keys = [
            (mk, f"M{b}")
            for mk in source.markets
            for b in range(1, source.buckets_per_market + 1)
        ]
    else:
        cov = source.matrix
        keys = source.column_keys
    idx_a = [i for i, (mk, _) in enumerate(keys) if mk == market_a]
    idx_b = [i for i, (mk, _) in enumerate(keys) if mk == market_b]
    if not idx_a or not idx_b:
        raise ValidationError(f"market {market_a!r} or {market_b!r} not present")
    d = np.sqrt(np.diag(cov))
    # zero-variance columns have no defined correlation; mark those entries
    # rather than failing the whole surface
    scale = np.outer(d[idx_a], d[idx_b])
    block = np.full(scale.shape, np.nan)
    ok = scale > 0
    block[ok] = cov[np.ix_(idx_a, idx_b)][ok] / scale[ok]
    return (
        [keys[i][1] for i in idx_a],
        [keys[i][1] for i in idx_b],
        block,
    )
