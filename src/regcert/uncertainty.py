"""Per-voxel registration uncertainty from perturbed re-registrations.

The estimator draws N small perturbations of the source image, re-registers
each perturbed copy to the target, maps every result back through its own
perturbation, and reports the per-voxel mean, covariance, and root-trace
spread of the N back-mapped transforms.  A matching closed form exists when
the registration residuals follow an explicit Gaussian model: the covariance
splits into an intrinsic part (noise pushed through the perturbation
Jacobian) and a jitter part (spread of the Jacobian-mapped bias), and
verify_lemma confronts the two in one pass over the perturbation draws.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import Transform, dense, grid_points
from .perturb import PerturbSpec, sample_perturbation
from .register import ErrorModel, OracleBackend, RegistrationBackend
from .volume import Volume3, make_phantom, warp

__all__ = [
    "estimate_uncertainty",
    "SampleError",
    "CovDecomposition",
    "decompose_cov",
    "LemmaCheckReport",
    "verify_lemma",
    "REGIME_STRENGTH_MAX",
    "MAX_THREADS",
]

# Upper-triangle component order for symmetric 3x3 matrices stored per voxel.
_TRI = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_TRACE_IDX = (0, 3, 5)

# Above this deform strength the first-order covariance identity is out of
# its regime; verify_lemma reports a violation instead of failing.  Frozen
# from the strength sweep: 0.08 stays within tolerance, 0.3 does not.
REGIME_STRENGTH_MAX = 0.15

# The most sample threads estimate_uncertainty starts.  It is not capped at
# the core count: more threads than cores is legal and thread-invariant.
MAX_THREADS = 256


class SampleError(RuntimeError):
    """The backend failed on one perturbation sample; the message names it and
    __cause__ holds the backend's exception."""


class _Moments:
    """Shifted-sum per-voxel mean and covariance of (V, 3) samples, in add order.

    The sums are kept as contiguous rows, s1 (3, V) and s2 (6, V) in _TRI
    order, so each update is a run of long contiguous loops.
    """

    def __init__(self):
        self.n = 0
        self.ref = None

    def add(self, x: np.ndarray) -> None:
        if self.ref is None:
            # Center on the first sample so the sums carry perturbation-sized
            # numbers, not absolute coordinates.
            self.ref = np.ascontiguousarray(x.T)
            self.s1 = np.zeros_like(self.ref)
            self.s2 = np.zeros((6, len(x)), dtype=np.float64)
        c = np.subtract(x.T, self.ref, out=np.empty_like(self.ref))
        self.s1 += c
        # One row at a time: add runs on the calling thread while the sample
        # threads work, so it holds no (6, V) temporary.
        for k, (i, j) in enumerate(_TRI):
            self.s2[k] += c[i] * c[j]
        self.n += 1

    def finalize(self, divisor) -> tuple[np.ndarray, np.ndarray]:
        """(mean (V, 3), covariance (V, 6)) with the given covariance divisor."""
        mean_c = self.s1 / self.n
        mean = np.add(self.ref.T, mean_c.T, out=np.empty(mean_c.shape[::-1], mean_c.dtype))
        # s2 / divisor - (n / divisor) * mean_c[i] * mean_c[j], one component
        # at a time, so no (6, V) temporary is alive next to the result.
        cov = np.empty(self.s2.shape[::-1])
        outer = np.empty(len(cov))
        for k, (i, j) in enumerate(_TRI):
            np.multiply(mean_c[i], mean_c[j], out=outer)
            outer *= self.n / divisor
            np.subtract(self.s2[k] / divisor, outer, out=cov[:, k])
        return mean, cov


class _Spread:
    """The estimator's own reducer: the spread of the back-maps on the target's grid.

    cov holds the 6 upper-triangle components (xx, xy, xz, yy, yz, zz) of
    the per-voxel sample covariance; u is its root trace, clamped to 0 at
    the n_clamped voxels where rounding leaves the trace negative; mean is
    the mean displacement.  max_inversion_residual is the largest
    Registration.inversion_residual (0.0 for backends that invert nothing).
    """

    def __init__(self, shape, unbiased: bool):
        self.shape, self.unbiased = tuple(shape), unbiased
        self.moments, self.max_residual = _Moments(), 0.0

    def observe(self, n, tau, reg, x):
        return x, reg.inversion_residual

    def add(self, value) -> None:
        x, residual = value
        self.moments.add(x)
        self.max_residual = max(self.max_residual, residual)

    def report(self) -> dict:
        n = self.moments.n
        mean, cov = self.moments.finalize(n - 1 if self.unbiased else n)
        mean -= grid_points(self.shape).reshape(-1, 3)
        trace = cov[:, _TRACE_IDX].sum(axis=1)
        return {
            "u": np.sqrt(np.maximum(trace, 0.0)).reshape(self.shape),
            "cov": cov.reshape(self.shape + (6,)),
            "mean": mean.reshape(self.shape + (3,)),
            "n_samples": n,
            "divisor": "n-1" if self.unbiased else "n",
            "n_clamped": int(np.count_nonzero(trace < 0.0)),
            "max_inversion_residual": self.max_residual,
        }


def _one_sample(backend, source, target, spec, n, reducers):
    """Each reducer's observe(n, tau, reg, x); only these values leave the worker."""
    tau = sample_perturbation(spec, n)
    # A backend that never reads voxel values gets the source as it is.
    perturbed = warp(source, tau) if backend.reads_images else source
    try:
        reg = backend.register(perturbed, target, perturbation=tau, nonce=n)
        fitted = dense(reg.transform, target.shape)
    except Exception as exc:
        raise SampleError(f"backend failed on perturbation sample {n}: {exc}") from exc
    pts = grid_points(fitted.shape).reshape(-1, 3)
    pts += fitted.displacement.reshape(-1, 3)
    # Compose tau o fitted with tau evaluated analytically at fitted(y).
    x = tau.apply(pts)
    return [reducer.observe(n, tau, reg, x) for reducer in reducers]


def _in_sample_order(run, count: int, threads: int):
    """run(n) for n = 0 .. count-1, in order.

    One thread maps on the caller with no run-ahead; more map a pool chunk at
    a time.  Closing it cancels the samples not started and waits for the rest.
    """
    if threads == 1:
        yield from map(run, range(count))
        return
    chunk = max(4 * threads, 8)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, count, chunk):
            yield from pool.map(run, range(start, min(start + chunk, count)))


def estimate_uncertainty(
    backend: RegistrationBackend,
    source: Volume3,
    target: Volume3,
    spec: PerturbSpec,
    unbiased: bool = False,
    threads: int = 1,
    reducers=(),
) -> dict:
    """Perturb, re-register, back-map, and reduce to per-voxel statistics.

    Samples may be computed by a worker pool, but accumulation always runs
    in sample order in 64-bit, so results are independent of thread count.
    The covariance divisor is N (the estimator's own convention); pass
    unbiased=True for N-1.

    A reducer has three methods: observe(n, tau, reg, x) runs in the worker
    next to sample n's back-map x, add(value) receives its results on the
    calling thread in sample order, and report() returns its named outputs.
    The result merges the reports, _Spread's first, and adds wall_time_s.
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in 1..{MAX_THREADS}, got {threads}")
    t0 = time.perf_counter()
    reducers = [_Spread(target.shape, unbiased), *reducers]
    samples = _in_sample_order(lambda n: _one_sample(backend, source, target, spec, n, reducers),
                               spec.count, threads)
    try:
        for values in samples:
            # Popping leaves nothing of this sample alive while the next is drawn.
            for reducer in reducers:
                reducer.add(values.pop(0))
    finally:
        samples.close()
    result = {key: value for reducer in reducers for key, value in reducer.report().items()}
    result["wall_time_s"] = time.perf_counter() - t0
    return result


class CovDecomposition:
    """Closed-form covariance split, intrinsic noise vs bias jitter, as a reducer.

    Per voxel, intrinsic is the mean over draws of J Sigma J^T and jitter the
    sample covariance (divisor N) of J mu, with J = D tau at the oracle's own
    inversion v = tau^-1(phi(y)); both are 6 upper-triangle components on the
    grid.  For a linear family under an error model without mu_field, J, mu
    and Sigma do not depend on y, so both terms are one row: taken at the
    first voxel and broadcast over the grid, bitwise equal to the per-voxel
    sums that deform draws and mu_field models take.
    """

    def __init__(self, model: ErrorModel, shape, one_row: bool):
        self.model, self.shape = model, tuple(shape)
        self.rows = slice(0, 1 if one_row else None)
        self.grid = grid_points(shape).reshape(-1, 3)[self.rows]
        self.reps = int(np.prod(self.shape)) // len(self.grid)
        self.intr = np.zeros((len(self.grid), 6), dtype=np.float64)
        self.jit = _Moments()

    def observe(self, n, tau, reg, x):
        jac = tau.jacobian(reg.inverted_positions[self.rows])
        sig = self.model.cov(tau)
        tri = None
        if np.any(sig):
            full = np.einsum("nik,njk->nij", jac @ sig, jac)
            # Six components wait in the pool's chunk, not the (V, 3, 3) product.
            tri = np.stack([full[:, i, j] for i, j in _TRI], axis=1)
        return tri, np.einsum("nij,nj->ni", jac, self.model.mean(tau, self.grid))

    def add(self, value) -> None:
        tri, jac_mu = value
        if tri is not None:
            self.intr += tri
        self.jit.add(jac_mu)

    def report(self) -> dict:
        terms = {"intrinsic": self.intr / self.jit.n, "jitter": self.jit.finalize(self.jit.n)[1]}
        return {name: np.repeat(term, self.reps, axis=0).reshape(self.shape + (6,))
                for name, term in terms.items()}


def decompose_cov(backend: OracleBackend, spec: PerturbSpec) -> CovDecomposition:
    """The split over spec's draws on the grid of spec.shape, the target's.

    It is reduced in estimate_uncertainty's pass with the oracle backend: only
    there is the error model known, and only it returns the inversions used.
    """
    if not isinstance(backend, OracleBackend):
        raise TypeError("decomposition requires analytic error model (oracle backend)")
    one_row = spec.family != "deform" and backend.error_model.mu_field is None
    return CovDecomposition(backend.error_model, spec.shape, one_row)


class _Linearization:
    """The covariance of the first-order model J_tau(v) eps, as a reducer.

    It reads each sample's tau and the oracle's inversion v and noise eps, so
    its difference from the estimate is the Taylor remainder alone: common
    random numbers cancel the Monte-Carlo noise.
    """

    def __init__(self, shape):
        self.shape, self.moments = tuple(shape), _Moments()
        self.add = self.moments.add

    def observe(self, n, tau, reg, x):
        return np.einsum("nij,nj->ni", tau.jacobian(reg.inverted_positions), reg.noise)

    def report(self) -> dict:
        return {"linearized": self.moments.finalize(self.moments.n)[1].reshape(self.shape + (6,))}


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

    def to_dict(self) -> dict:
        """Every field, as lemma_report.json lists it."""
        return asdict(self)


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


def verify_lemma(spec: PerturbSpec, model: ErrorModel, phi: Transform) -> LemmaCheckReport:
    """Run the estimator against its closed form on the draws of spec.

    The source is a blobs phantom drawn at spec.seed (a blank volume below
    16 voxels a side), and the target is it warped through phi.  Linear
    families (translation/scale/shear/affine) satisfy the closed form
    exactly, so the residual is pure Monte-Carlo noise; 'deform' holds to
    first order, is compared against the linearized model on common random
    numbers so the residual is the Taylor remainder itself, and large
    strengths are reported as regime violations rather than failures.
    """
    shape = spec.shape
    if min(shape) >= 16:
        source = make_phantom(shape, "blobs", seed=spec.seed)
    else:
        source = Volume3(np.zeros(shape, dtype=np.float32))
    target = warp(source, phi)
    is_deform = spec.family == "deform"
    strength = spec.deform_strength
    backend = OracleBackend(phi, model, lenient_inversion=is_deform)
    closed = _Linearization(shape) if is_deform else decompose_cov(backend, spec)
    est = estimate_uncertainty(backend, source, target, spec, reducers=[closed])
    closed_cov = est["linearized"] if is_deform else est["intrinsic"] + est["jitter"]
    rel = relative_frobenius(est["cov"], closed_cov)
    median = float(np.median(rel))
    central = float(rel[_central_box(shape)].max())
    mc = mc_relative_bound(spec.count)
    tol = mc + (0.05 if is_deform else 0.0)
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
        kind=spec.family,
        n_samples=spec.count,
        grid_shape=shape,
        strength=strength if is_deform else None,
        median_rel_error=median,
        max_rel_error_central=central,
        mc_bound=mc,
        tolerance=tol,
        within_tolerance=within,
        regime_violation=regime,
        passed=within or regime,
        max_inversion_residual=est["max_inversion_residual"],
        note=note,
    )
