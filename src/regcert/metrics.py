"""Evaluation metrics: error maps, correlations, and risk-coverage curves.

Correlation between a scalar uncertainty map and the true per-voxel error is
reported as Pearson and Spearman coefficients; ranking quality is reported
as the area under the risk-coverage curve (AURC), normalized against the
error-sorted oracle ranking and the keep-everything random baseline.
Degenerate cases (constant inputs, oracle == random) yield NaN, kept
distinct from 0 and emitted as "undefined" downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import DenseTransform, Transform, grid_points, identity_transform
from .register import OracleBackend
from .volume import RoiMask, Volume3

__all__ = [
    "ErrorMap",
    "error_map",
    "pearson",
    "spearman",
    "RiskCoverageCurve",
    "risk_coverage",
    "bin_curve",
    "MseDecompositionReport",
    "mse_decomposition_check",
]


@dataclass(frozen=True)
class ErrorMap:
    """Per-voxel Euclidean error of a predicted transform, with its mask."""

    values: np.ndarray
    mask: RoiMask

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.mask.shape:
            raise ValueError(f"error shape {v.shape} does not match mask {self.mask.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def masked(self) -> np.ndarray:
        return self.values[self.mask.mask]


def error_map(pred: DenseTransform, truth: Transform, mask: RoiMask | None = None) -> ErrorMap:
    """e(y) = ||pred(y) - truth(y)||_2 on the prediction grid, truth analytic."""
    shape = pred.shape
    if mask is None:
        mask = RoiMask.full(shape)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} does not match prediction grid {shape}")
    grid = grid_points(shape).reshape(-1, 3)
    pred_pos = grid + pred.displacement.reshape(-1, 3)
    true_pos = truth.apply(grid)
    e = np.linalg.norm(pred_pos - true_pos, axis=1).reshape(shape)
    return ErrorMap(e, mask)


def _masked_pair(a, b, mask):
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if mask is not None:
        if mask.shape != x.shape:
            raise ValueError(f"mask shape {mask.shape} does not match data {x.shape}")
        x = x[mask.mask]
        y = y[mask.mask]
    else:
        x = x.reshape(-1)
        y = y.reshape(-1)
    if x.size < 2:
        raise ValueError("correlation needs at least 2 values")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("correlation inputs must be finite")
    return x, y


def pearson(a, b, mask: RoiMask | None = None) -> float:
    """Pearson correlation; NaN ("undefined") when either input is constant."""
    x, y = _masked_pair(a, b, mask)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float((xc * yc).sum() / (sx * sy))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; each tie group shares the mean of its ranks.

    Ties are decided by ``==``, so -0.0 and 0.0 tie.  The ranks are exact
    half-integers, equal to SciPy's ``rankdata(x)`` with its default "average" method.
    """
    order = np.argsort(x)
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.arange(x.size)
    s = x[order]
    starts = np.concatenate(([True], s[1:] != s[:-1]))
    group = np.cumsum(starts)[inverse]  # 1-based tie group of each element
    bounds = np.append(np.flatnonzero(starts), x.size)  # group g spans sorted [bounds[g-1], bounds[g])
    return 0.5 * (bounds[group - 1] + bounds[group] + 1)


def spearman(a, b, mask: RoiMask | None = None) -> float:
    """Rank correlation with average ranks for ties; NaN on constant input."""
    x, y = _masked_pair(a, b, mask)
    return pearson(_average_ranks(x), _average_ranks(y))


@dataclass(frozen=True)
class RiskCoverageCurve:
    """Risk at every coverage level plus its area summaries.

    Voxels are admitted in ascending uncertainty (ties broken by linear
    voxel index); risk at coverage k/M is the mean error of the k admitted
    voxels.  aurc averages risk over all coverage levels; naurc rescales it
    so the error-sorted oracle ordering scores 0 and the constant random
    baseline scores 1.
    """

    coverage: np.ndarray
    risk: np.ndarray
    bin_mean_uncertainty: np.ndarray
    aurc: float
    oracle_aurc: float
    random_aurc: float
    naurc: float
    n_voxels: int


def _prefix_means(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values) / np.arange(1, len(values) + 1)


def risk_coverage(error: ErrorMap, uncertainty, mask: RoiMask | None = None) -> RiskCoverageCurve:
    """Build the risk-coverage curve of an uncertainty ranking."""
    u_arr = uncertainty.scalar if isinstance(uncertainty, Volume3) else np.asarray(uncertainty)
    if u_arr.shape != error.values.shape:
        raise ValueError(f"uncertainty shape {u_arr.shape} does not match error {error.values.shape}")
    mask = mask if mask is not None else error.mask
    if mask.shape != error.values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match error {error.values.shape}")
    e = error.values[mask.mask]
    u = np.asarray(u_arr, dtype=np.float64)[mask.mask]
    m = len(e)
    if m < 1:
        raise ValueError("risk_coverage needs at least one voxel")
    # Stable sort on the masked vector: ties fall back to linear voxel index.
    order = np.argsort(u, kind="stable")
    risk = _prefix_means(e[order])
    aurc = float(risk.mean())
    oracle_risk = _prefix_means(np.sort(e, kind="stable"))
    oracle_aurc = float(oracle_risk.mean())
    random_aurc = float(e.mean())
    denom = random_aurc - oracle_aurc
    scale = max(abs(random_aurc), abs(oracle_aurc), 1e-300)
    naurc = math.nan if abs(denom) < 1e-12 * scale else float((aurc - oracle_aurc) / denom)
    return RiskCoverageCurve(
        coverage=np.arange(1, m + 1, dtype=np.float64) / m,
        risk=risk,
        bin_mean_uncertainty=_prefix_means(u[order]),
        aurc=aurc,
        oracle_aurc=oracle_aurc,
        random_aurc=random_aurc,
        naurc=naurc,
        n_voxels=m,
    )


def bin_curve(curve: RiskCoverageCurve, bins: int = 20) -> list[dict]:
    """Equal-count binned view of the curve for compact display."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    m = curve.n_voxels
    bins = min(bins, m)
    edges = np.linspace(0, m, bins + 1).astype(int)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        rows.append(
            {
                "coverage": float(curve.coverage[hi - 1]),
                "risk": float(curve.risk[lo:hi].mean()),
                "bin_mean_uncertainty": float(curve.bin_mean_uncertainty[lo:hi].mean()),
            }
        )
    return rows


@dataclass
class MseDecompositionReport:
    """Empirical mean squared residual against its bias/variance identity.

    For the oracle's Gaussian residuals, E||eps||^2 = ||mu||^2 + tr Sigma
    per voxel; the report carries both sides and their agreement, and
    passed says whether the mean squared residuals agree within the band.
    """

    empirical: np.ndarray = field(repr=False)
    expected: np.ndarray = field(repr=False)
    draws: int
    mean_empirical: float
    mean_expected: float
    median_rel_error: float
    chi2_rel_std: float
    passed: bool

    def to_dict(self) -> dict:
        """Every field but the per-voxel arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def mse_decomposition_check(
    oracle: OracleBackend, draws: int, grid_shape
) -> MseDecompositionReport:
    """Sample the unperturbed oracle and test E||eps||^2 = ||mu||^2 + tr Sigma.

    chi2_rel_std is the per-voxel relative standard deviation of the
    empirical mean, sqrt(Var(||eps||^2)/draws)/E||eps||^2 with
    Var(||eps||^2) = 2 tr(Sigma^2) + 4 mu^T Sigma mu.  passed requires the
    mean empirical value within max(3 chi2_rel_std, 5%) of the expected one
    (5% when chi2_rel_std is undefined).
    """
    if not isinstance(oracle, OracleBackend):
        raise TypeError("mse decomposition check requires the oracle backend")
    if draws < 2:
        raise ValueError("need at least 2 draws")
    shape = tuple(int(s) for s in grid_shape)
    grid = grid_points(shape).reshape(-1, 3)
    phi_pos = oracle.true_transform.apply(grid)
    blank = Volume3(np.zeros(shape, dtype=np.float32))
    acc = np.zeros(len(grid), dtype=np.float64)
    for m in range(draws):
        out = oracle.register(blank, blank, perturbation=None, nonce=m).transform
        eps = grid + out.displacement.reshape(-1, 3) - phi_pos
        acc += (eps * eps).sum(axis=1)
    empirical = (acc / draws).reshape(shape)
    tau0 = identity_transform()
    mu = oracle.error_model.mean(tau0, grid)
    sig = oracle.error_model.cov(tau0)
    expected = ((mu * mu).sum(axis=1) + np.trace(sig)).reshape(shape)
    rel = np.abs(empirical - expected) / np.maximum(expected, 1e-300)
    mean_expected = float(expected.mean())
    var_per_draw = float(
        np.mean(2.0 * np.trace(sig @ sig) + 4.0 * np.einsum("ni,ij,nj->n", mu, sig, mu))
    )
    chi2_rel_std = (
        math.sqrt(var_per_draw / draws) / mean_expected if mean_expected > 0 else math.nan
    )
    mean_empirical = float(empirical.mean())
    band = max(3.0 * chi2_rel_std, 0.05) if math.isfinite(chi2_rel_std) else 0.05
    return MseDecompositionReport(
        empirical=empirical,
        expected=expected,
        draws=draws,
        mean_empirical=mean_empirical,
        mean_expected=mean_expected,
        median_rel_error=float(np.median(rel)),
        chi2_rel_std=chi2_rel_std,
        passed=abs(mean_empirical - mean_expected) <= band * max(mean_expected, 1e-12),
    )
