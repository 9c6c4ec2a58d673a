"""Per-voxel registration uncertainty from perturbed re-registrations.

The estimator draws N small perturbations of the source image, re-registers
each perturbed copy to the target, maps every result back through its own
perturbation, and reports the per-voxel mean, covariance, and root-trace
spread of the N back-mapped transforms.  A matching closed form exists when
the registration residuals follow an explicit Gaussian model: the covariance
splits into an intrinsic part (noise pushed through the perturbation
Jacobian) and a jitter part (spread of the Jacobian-mapped bias), and
verify_lemma confronts the two on shared perturbation draws.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import DenseTransform, Transform, dense, grid_points, is_linear
from .perturb import PerturbSpec, sample_perturbation
from .register import ErrorModel, OracleBackend, RegistrationBackend
from .volume import Volume3, make_phantom, warp

__all__ = [
    "UncertaintyResult",
    "estimate_uncertainty",
    "CovDecomposition",
    "decompose_cov",
    "closed_form_cov_affine",
    "LemmaCheckReport",
    "verify_lemma",
    "LEMMA_KINDS",
    "REGIME_STRENGTH_MAX",
]

# Upper-triangle component order for symmetric 3x3 matrices stored per voxel.
_TRI = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_TRACE_IDX = (0, 3, 5)

LEMMA_KINDS = ("translation", "scale", "shear", "affine", "deform")

# Above this deform strength the first-order covariance identity is out of
# its regime; verify_lemma reports a violation instead of failing.  Frozen
# from the strength sweep: 0.08 stays within tolerance, 0.3 does not.
REGIME_STRENGTH_MAX = 0.15


def tri_to_matrices(tri: np.ndarray) -> np.ndarray:
    """(..., 6) upper-triangle components -> (..., 3, 3) symmetric matrices."""
    out = np.empty(tri.shape[:-1] + (3, 3), dtype=tri.dtype)
    for k, (i, j) in enumerate(_TRI):
        out[..., i, j] = tri[..., k]
        out[..., j, i] = tri[..., k]
    return out


def _outer_tri(vecs: np.ndarray) -> np.ndarray:
    """(N, 3) -> (N, 6) upper-triangle components of v v^T."""
    out = np.empty((len(vecs), 6), dtype=np.float64)
    for k, (i, j) in enumerate(_TRI):
        out[:, k] = vecs[:, i] * vecs[:, j]
    return out


class _Moments:
    """Shifted-sum per-voxel mean and covariance of (V, 3) samples, in add order."""

    def __init__(self):
        self.n = 0
        self.ref = None

    def add(self, x: np.ndarray) -> None:
        if self.ref is None:
            # Center on the first sample so the sums carry perturbation-sized
            # numbers, not absolute coordinates.
            self.ref = x
            self.s1 = np.zeros_like(x)
            self.s2 = np.zeros((len(x), 6), dtype=np.float64)
        c = x - self.ref
        self.s1 += c
        self.s2 += _outer_tri(c)
        self.n += 1

    def finalize(self, divisor) -> tuple[np.ndarray, np.ndarray]:
        """(mean (V, 3), covariance (V, 6)) with the given covariance divisor."""
        mean_c = self.s1 / self.n
        cov = self.s2 / divisor - (self.n / divisor) * _outer_tri(mean_c)
        return self.ref + mean_c, cov


@dataclass
class UncertaintyResult:
    """Per-voxel spread of the back-mapped re-registrations.

    cov holds the 6 upper-triangle components (xx, xy, xz, yy, yz, zz) of
    the per-voxel sample covariance; uncertainty is its root trace.
    """

    mean: DenseTransform
    cov: np.ndarray
    uncertainty: Volume3
    n_samples: int
    divisor: str
    spec: PerturbSpec
    backend_name: str
    wall_time_s: float

    def cov_matrices(self) -> np.ndarray:
        return tri_to_matrices(self.cov)


def _one_sample(backend, source, target, spec, n):
    tau = sample_perturbation(spec, n)
    # A backend that never reads voxel values gets the source as it is.
    perturbed = warp(source, tau) if backend.reads_images else source
    try:
        reg = backend.register(perturbed, target, perturbation=tau, nonce=n)
        fitted = dense(reg.transform, target.shape)
    except Exception as exc:
        msg = f"backend failed on perturbation sample {n}: {exc}"
        try:
            wrapped = type(exc)(msg)
        except TypeError:
            # The exception type cannot be built from a message alone.
            wrapped = RuntimeError(msg)
        raise wrapped from exc
    grid = grid_points(fitted.shape).reshape(-1, 3)
    # Compose tau o fitted with tau evaluated analytically at fitted(y).
    return tau.apply(grid + fitted.displacement.reshape(-1, 3))


def estimate_uncertainty(
    backend: RegistrationBackend,
    source: Volume3,
    target: Volume3,
    spec: PerturbSpec,
    unbiased: bool = False,
    threads: int = 1,
) -> UncertaintyResult:
    """Perturb, re-register, back-map, and reduce to per-voxel statistics.

    Samples may be computed by a worker pool, but accumulation always runs
    in sample order in 64-bit, so results are independent of thread count.
    The covariance divisor is N (the estimator's own convention); pass
    unbiased=True for N-1.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    t0 = time.perf_counter()
    n_total = spec.count
    moments = _Moments()
    if threads == 1:
        for n in range(n_total):
            moments.add(_one_sample(backend, source, target, spec, n))
    else:
        chunk = max(4 * threads, 8)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for start in range(0, n_total, chunk):
                idx = range(start, min(start + chunk, n_total))
                futures = [
                    pool.submit(_one_sample, backend, source, target, spec, n)
                    for n in idx
                ]
                for f in futures:
                    moments.add(f.result())

    shape = target.shape
    denom = n_total - 1 if unbiased else n_total
    if unbiased and n_total < 2:
        raise ValueError("unbiased covariance needs at least 2 samples")
    mean_pos, cov = moments.finalize(denom)
    grid = grid_points(shape).reshape(-1, 3)
    mean_field = DenseTransform((mean_pos - grid).reshape(shape + (3,)))
    trace = cov[:, _TRACE_IDX].sum(axis=1)
    u = np.sqrt(np.maximum(trace, 0.0)).reshape(shape)
    return UncertaintyResult(
        mean=mean_field,
        cov=cov.reshape(shape + (6,)),
        uncertainty=Volume3(u.astype(np.float32)),
        n_samples=n_total,
        divisor="n-1" if unbiased else "n",
        spec=spec,
        backend_name=getattr(backend, "name", type(backend).__name__),
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass
class CovDecomposition:
    """Closed-form covariance split: intrinsic noise vs bias jitter.

    Per voxel, intrinsic = mean over draws of J Sigma J^T and jitter is the
    sample covariance (divisor M) of J mu; both stored as 6 upper-triangle
    components on the grid.
    """

    intrinsic: np.ndarray
    jitter: np.ndarray
    n_samples: int
    max_inversion_residual: float

    @property
    def total(self) -> np.ndarray:
        return self.intrinsic + self.jitter


def decompose_cov(backend: OracleBackend, spec: PerturbSpec, m_samples: int) -> CovDecomposition:
    """Closed-form covariance over the first m_samples perturbation draws.

    Uses the same draw streams as estimate_uncertainty, so empirical and
    closed-form sides see identical perturbations.  Requires the oracle
    backend: only there is the error model known analytically.
    """
    if not isinstance(backend, OracleBackend):
        raise TypeError("decomposition requires analytic error model (oracle backend)")
    if m_samples < 1:
        raise ValueError("need at least one sample")
    if m_samples > spec.count:
        raise ValueError(f"m_samples {m_samples} exceeds spec.count {spec.count}")
    shape = spec.shape
    grid = grid_points(shape).reshape(-1, 3)
    n_vox = len(grid)
    phi_pos = backend.true_transform.apply(grid)
    intr = np.zeros((n_vox, 6), dtype=np.float64)
    jitter = _Moments()
    max_residual = 0.0
    for m in range(m_samples):
        tau = sample_perturbation(spec, m)
        v, residual = backend.inverse_positions(tau, phi_pos)
        max_residual = max(max_residual, residual)
        # A linear tau has one Jacobian: taken once as (1, 3, 3), it and its
        # J Sigma J^T broadcast over the voxels instead of being rebuilt at each.
        jac = tau.jacobian(v[:1] if is_linear(tau) else v)
        sig = backend.error_model.cov(tau)
        if np.any(sig):
            js = jac @ sig
            full = np.einsum("nik,njk->nij", js, jac)
            for k, (i, j) in enumerate(_TRI):
                intr[:, k] += full[:, i, j]
        jitter.add(np.einsum("nij,nj->ni", jac, backend.error_model.mean(tau, grid)))
    intr /= m_samples
    return CovDecomposition(
        intrinsic=intr.reshape(shape + (6,)),
        jitter=jitter.finalize(m_samples)[1].reshape(shape + (6,)),
        n_samples=m_samples,
        max_inversion_residual=max_residual,
    )


def closed_form_cov_affine(samples, model: ErrorModel, y) -> tuple[np.ndarray, np.ndarray]:
    """Exact covariance terms for affine perturbations at one point.

    Over the given draws A_k: intrinsic = mean of A Sigma A^T and jitter =
    sample covariance (divisor K) of A mu.  Exact, no linearization: for an
    affine the translation part cancels in the back-mapping and the residual
    is carried through A alone.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("closed_form_cov_affine needs at least one sample")
    pt = np.asarray(y, dtype=np.float64).reshape(1, 3)
    intr = np.zeros((3, 3))
    ws = []
    for tau in samples:
        a = tau.jacobian(pt)[0]
        intr += a @ model.cov(tau) @ a.T
        ws.append(a @ model.mean(tau, pt)[0])
    intr /= len(samples)
    w = np.stack(ws)
    c = w - w.mean(axis=0)
    jitter = c.T @ c / len(samples)
    return intr, jitter


@dataclass
class LemmaCheckReport:
    """Empirical-vs-closed-form covariance comparison on shared draws."""

    kind: str
    n_samples: int
    grid_shape: tuple
    strength: float | None
    median_rel_error: float
    max_rel_error_central: float
    mc_bound: float
    tolerance: float
    within_tolerance: bool
    regime_violation: bool
    passed: bool
    max_inversion_residual: float
    note: str
    rel_error: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_samples": self.n_samples,
            "grid_shape": list(self.grid_shape),
            "strength": self.strength,
            "median_rel_error": float(self.median_rel_error),
            "max_rel_error_central": float(self.max_rel_error_central),
            "mc_bound": float(self.mc_bound),
            "tolerance": float(self.tolerance),
            "within_tolerance": bool(self.within_tolerance),
            "regime_violation": bool(self.regime_violation),
            "passed": bool(self.passed),
            "max_inversion_residual": float(self.max_inversion_residual),
            "note": self.note,
        }


def relative_frobenius(emp: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Per-voxel ||emp - closed||_F / ||closed||_F on (..., 6) components.

    Off-diagonal components count twice, matching the full-matrix norm.
    Where both sides vanish the error is zero, not undefined.
    """
    wts = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
    diff2 = ((emp - closed) ** 2 * wts).sum(axis=-1)
    ref2 = (closed**2 * wts).sum(axis=-1)
    # A floor relative to the largest reference that cannot underflow to 0.
    floor = max(float(ref2.max()) * 1e-24, np.finfo(np.float64).tiny)
    return np.sqrt(diff2 / np.maximum(ref2, floor))


def _central_box(shape):
    return tuple(slice(s // 4, max(s - s // 4, s // 4 + 1)) for s in shape)


def mc_relative_bound(n_samples: int) -> float:
    """Expected relative Frobenius error scale of an N-sample covariance."""
    return float(2.5 / np.sqrt(n_samples))


def _linearized_cov(backend: OracleBackend, spec: PerturbSpec) -> tuple[np.ndarray, float]:
    """Covariance of the first-order model J_tau(y) eps on shared draws.

    Reuses both the perturbation streams and the oracle's noise streams
    (same seed and nonce), so the difference from the empirical covariance
    is the Taylor remainder of the linearization alone, with the
    Monte-Carlo sampling noise cancelled by common random numbers.
    """
    shape = spec.shape
    grid = grid_points(shape).reshape(-1, 3)
    phi_pos = backend.true_transform.apply(grid)
    moments = _Moments()
    max_residual = 0.0
    for m in range(spec.count):
        tau = sample_perturbation(spec, m)
        v, residual = backend.inverse_positions(tau, phi_pos)
        max_residual = max(max_residual, residual)
        eps = backend.error_model.sample(tau, grid, m)
        moments.add(np.einsum("nij,nj->ni", tau.jacobian(v), eps))
    return moments.finalize(spec.count)[1].reshape(shape + (6,)), max_residual


def verify_lemma(
    kind: str,
    model: ErrorModel,
    phi: Transform,
    grid_shape,
    n_mc: int = 2000,
    seed: int = 0,
    strength: float = 0.08,
    grid_spacing: int = 10,
    node_max: float = 12.5,
    tolerance: float | None = None,
) -> LemmaCheckReport:
    """Run the estimator against its closed form on shared perturbation draws.

    Linear kinds (translation/scale/shear/affine) satisfy the closed form
    exactly, so the residual is pure Monte-Carlo noise; 'deform' holds to
    first order, is compared against the linearized model on common random
    numbers so the residual is the Taylor remainder itself, and large
    strengths are reported as regime violations rather than failures.
    """
    if kind not in LEMMA_KINDS:
        raise ValueError(f"unknown lemma kind {kind!r}; expected one of {LEMMA_KINDS}")
    shape = tuple(int(s) for s in grid_shape)
    spec = PerturbSpec(
        family=kind,
        shape=shape,
        seed=seed,
        count=n_mc,
        deform_strength=strength,
        grid_spacing=grid_spacing,
        node_max=node_max,
    )
    if min(shape) >= 16:
        source = make_phantom(shape, "blobs", seed=seed)
    else:
        source = Volume3(np.zeros(shape, dtype=np.float32))
    target = warp(source, phi)
    backend = OracleBackend(phi, model, lenient_inversion=(kind == "deform"))
    est = estimate_uncertainty(backend, source, target, spec)
    is_deform = kind == "deform"
    if is_deform:
        closed, max_residual = _linearized_cov(backend, spec)
    else:
        dec = decompose_cov(backend, spec, n_mc)
        closed, max_residual = dec.total, dec.max_inversion_residual
    rel = relative_frobenius(est.cov, closed)
    median = float(np.median(rel))
    central = float(rel[_central_box(shape)].max())
    mc = mc_relative_bound(n_mc)
    tol = tolerance if tolerance is not None else mc + (0.05 if is_deform else 0.0)
    within = median <= tol
    regime = is_deform and strength > REGIME_STRENGTH_MAX
    if not is_deform:
        note = "exact (no linearization)"
    elif regime:
        note = (
            f"regime violation: strength {strength} exceeds {REGIME_STRENGTH_MAX}; "
            "first-order comparison not expected to hold"
        )
    else:
        note = "first-order comparison within regime"
    return LemmaCheckReport(
        kind=kind,
        n_samples=n_mc,
        grid_shape=shape,
        strength=strength if is_deform else None,
        median_rel_error=median,
        max_rel_error_central=central,
        mc_bound=mc,
        tolerance=tol,
        within_tolerance=within,
        regime_violation=regime,
        passed=within or regime,
        max_inversion_residual=max_residual,
        note=note,
        rel_error=rel,
    )
