"""Registration backends: a noise-model oracle and two classical solvers.

A backend maps a (source, target) pair to a transform from target
coordinates into source coordinates, so warping the source with the result
reproduces the target.  The oracle backend skips the images entirely: given
the true transform and a perturbation it returns the analytically correct
answer plus Gaussian residuals drawn from an explicit error model, which is
what makes closed-form covariance predictions checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .geometry import (
    AffineTransform,
    DenseTransform,
    Transform,
    TranslationTransform,
    grid_points,
    identity_transform,
    invert,
    invert_at,
    is_linear,
    trilinear_sample,
)
from .volume import Volume3

__all__ = [
    "Registration",
    "RegistrationBackend",
    "ErrorModel",
    "OracleBackend",
    "affine_ssd_register",
    "AffineSsdBackend",
    "demons_register",
    "DemonsBackend",
    "TAU_SCALE_FUNCTIONS",
]

_TAG_ORACLE = 103


def _linear_offset(t: Transform):
    if isinstance(t, TranslationTransform):
        return np.eye(3), t.offset
    if isinstance(t, AffineTransform):
        return t.matrix, t.offset
    raise ValueError(
        "declared scale functions are defined only for translation/affine perturbations"
    )


# Named scalar functions of a linear perturbation's parameters.  Keeping
# these in a registry (rather than accepting arbitrary callables) makes
# error models serializable and runs reproducible from config alone.
TAU_SCALE_FUNCTIONS = {
    "one": lambda t: 1.0,
    "mean_diag": lambda t: float(np.trace(_linear_offset(t)[0]) / 3.0),
    "det": lambda t: float(np.linalg.det(_linear_offset(t)[0])),
    "offset_norm": lambda t: float(np.linalg.norm(_linear_offset(t)[1])),
}


class ErrorModel:
    """Gaussian residual model eps(tau; y) ~ N(mu, Sigma), per voxel, independent.

    The mean is a constant 3-vector or a per-voxel field, optionally scaled
    by a named scalar function of the perturbation; the covariance is a
    constant PSD matrix (zero and sigma^2*I as special cases), optionally
    scaled the same way.  The seed drives the oracle's noise stream.
    """

    def __init__(
        self,
        mu=(0.0, 0.0, 0.0),
        sigma=0.0,
        mu_field=None,
        mu_scale: str | None = None,
        sigma_scale: str | None = None,
        seed: int = 0,
    ):
        if mu_field is not None:
            fld = np.asarray(mu_field, dtype=np.float64)
            if fld.ndim != 4 or fld.shape[3] != 3:
                raise ValueError("mu_field must have shape (nx, ny, nz, 3)")
            if not np.all(np.isfinite(fld)):
                raise ValueError("mu_field must be finite")
            fld = fld.copy()
            fld.flags.writeable = False
            self.mu_field = fld
            self.mu = None
        else:
            v = np.asarray(mu, dtype=np.float64)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError("mu must be a finite 3-vector")
            v = v.copy()
            v.flags.writeable = False
            self.mu = v
            self.mu_field = None
        s = np.asarray(sigma, dtype=np.float64)
        if s.ndim == 0:
            if s < 0:
                raise ValueError("isotropic sigma must be >= 0")
            s = float(s) ** 2 * np.eye(3)
        if s.shape != (3, 3) or not np.all(np.isfinite(s)):
            raise ValueError("sigma must be a scalar std or a (3, 3) matrix")
        if not np.allclose(s, s.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        w, v = np.linalg.eigh(s)
        if w.min() < -1e-12 * max(w.max(), 1.0):
            raise ValueError("sigma must be positive semidefinite")
        s = s.copy()
        s.flags.writeable = False
        self.sigma = s
        # A factor F with F F^T = Sigma, valid for singular Sigma too.
        self._factor = v * np.sqrt(np.clip(w, 0.0, None))
        for name in (mu_scale, sigma_scale):
            if name is not None and name not in TAU_SCALE_FUNCTIONS:
                raise ValueError(
                    f"unknown scale function {name!r}; expected one of {sorted(TAU_SCALE_FUNCTIONS)}"
                )
        self.mu_scale = mu_scale
        self.sigma_scale = sigma_scale
        self.seed = int(seed)

    @classmethod
    def isotropic(cls, sigma_std: float, mu=(0.0, 0.0, 0.0), **kw) -> "ErrorModel":
        return cls(mu=mu, sigma=float(sigma_std), **kw)

    def mean(self, tau: Transform, pts: np.ndarray) -> np.ndarray:
        """mu_eps(tau; y) at (N, 3) points, shape (N, 3)."""
        if self.mu_field is not None:
            base = trilinear_sample(self.mu_field, pts)
        else:
            base = np.broadcast_to(self.mu, (len(pts), 3)).copy()
        if self.mu_scale is not None:
            base *= TAU_SCALE_FUNCTIONS[self.mu_scale](tau)
        return base

    def cov(self, tau: Transform) -> np.ndarray:
        if self.sigma_scale is None:
            return self.sigma.copy()
        return self.sigma * TAU_SCALE_FUNCTIONS[self.sigma_scale](tau)

    def factor(self, tau: Transform) -> np.ndarray:
        """F with F F^T = cov(tau)."""
        if self.sigma_scale is None:
            return self._factor
        scale = TAU_SCALE_FUNCTIONS[self.sigma_scale](tau)
        if scale < 0:
            raise ValueError(f"sigma scale function returned {scale} < 0")
        return self._factor * np.sqrt(scale)

    def sample(self, tau: Transform, pts: np.ndarray, nonce: int) -> np.ndarray:
        """One residual draw eps(tau; pts), shape (N, 3), from the stream (seed, nonce)."""
        eps = self.mean(tau, pts)
        factor = self.factor(tau)
        if np.any(factor):
            rng = np.random.default_rng([self.seed, _TAG_ORACLE, int(nonce)])
            eps = eps + rng.standard_normal((len(pts), 3)) @ factor.T
        return eps


@dataclass(frozen=True)
class Registration:
    """One registration: the fitted transform, the solver's log and its health.

    The transform is in the solver's own form; geometry.dense renders it on a
    grid.  log holds one row per solver iteration, log_header names its
    columns, and iterations, final_ssd and diverged say how the solver ended
    (a backend without a solver keeps the defaults).
    """

    transform: Transform
    log: tuple = field(repr=False, default=())
    log_header: tuple = ()
    iterations: int = 0
    final_ssd: float | None = None
    diverged: bool = False


class RegistrationBackend:
    """Maps a source/target pair to a target-to-source Registration.

    The transform comes in the solver's own form; geometry.dense renders it.

    reads_images says whether register looks at voxel values.  A backend
    that sets it False promises a result that depends on the images' shapes
    alone, never on their values, so the estimator hands it the unperturbed
    source and skips warping it through each perturbation.
    """

    name = "backend"
    reads_images = True

    def register(
        self,
        source: Volume3,
        target: Volume3,
        perturbation: Transform | None = None,
        nonce: int = 0,
    ) -> Registration:
        raise NotImplementedError


class OracleBackend(RegistrationBackend):
    """Analytic backend: (tau^-1 o phi)(y) + eps(y), no image access.

    The perturbation tau is supplied per call by the harness; its inverse is
    closed-form for linear transforms and fixed-point otherwise.  Noise is
    drawn per call from (error_model.seed, nonce), so samples are
    reproducible regardless of evaluation order.
    """

    name = "oracle"
    reads_images = False

    def __init__(
        self,
        true_transform: Transform,
        error_model: ErrorModel,
        lenient_inversion: bool = False,
    ):
        self.true_transform = true_transform
        self.error_model = error_model
        self.lenient_inversion = bool(lenient_inversion)

    def inverse_positions(self, tau: Transform, pts: np.ndarray) -> tuple[np.ndarray, float]:
        """tau^-1 evaluated at the given points, with the round-trip residual.

        Closed form (zero residual) for linear perturbations; fixed-point
        iteration directly at the query points otherwise, so no dense
        intermediate field or interpolation enters the oracle's output.
        """
        if is_linear(tau):
            return invert(tau).transform.apply(pts), 0.0
        positions, residual, _ = invert_at(tau, pts, strict=not self.lenient_inversion)
        return positions, residual

    def register(self, source, target, perturbation=None, nonce=0):
        shape = target.shape
        grid = grid_points(shape).reshape(-1, 3)
        if perturbation is None:
            positions = self.true_transform.apply(grid)
            tau_eff: Transform = identity_transform()
        else:
            positions, _ = self.inverse_positions(perturbation, self.true_transform.apply(grid))
            tau_eff = perturbation
        eps = self.error_model.sample(tau_eff, grid, nonce)
        return Registration(DenseTransform((positions + eps - grid).reshape(shape + (3,))))


def _pyramid(arr: np.ndarray, levels: int, min_size: int = 8):
    """Smooth-and-decimate pyramid, finest first; coarse voxel i = fine voxel 2i."""
    out = [arr]
    for _ in range(levels - 1):
        prev = out[-1]
        if min(prev.shape) < 2 * min_size:
            break
        sm = gaussian_filter(prev, sigma=1.0, mode="nearest")
        out.append(sm[::2, ::2, ::2])
    return out


def _image_gradient(arr: np.ndarray):
    gx, gy, gz = np.gradient(arr)
    return np.stack([gx, gy, gz], axis=-1)


def _ssd_level(src: np.ndarray, tgt: np.ndarray, a: np.ndarray, b: np.ndarray,
               iters: int, step: float, level: int, log: list):
    """Diagonally preconditioned gradient descent on mean SSD at one level."""
    shape = tgt.shape
    grid = grid_points(shape).reshape(-1, 3)
    center = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    q = grid - center
    tgt_flat = tgt.reshape(-1).astype(np.float64)
    # Intensity and gradient as one field, so a trial costs one gather.
    src_and_grad = np.empty(shape + (4,))
    src_and_grad[..., 0] = src
    src_and_grad[..., 1:] = _image_gradient(src.astype(np.float64))
    m = len(grid)

    def objective(a_, b_):
        # einsum, not BLAS, for the K=3 products (see AffineTransform.apply).
        pos = np.einsum("nj,ij->ni", q, a_) + center + b_
        sampled = trilinear_sample(src_and_grad, pos)
        r = sampled[:, 0] - tgt_flat
        return sampled[:, 1:], r, float(np.mean(r * r))

    u = b + a @ center - center  # offset in the centered parameterization
    g, r, e = objective(a, u)
    best_a, best_u, best_e = a.copy(), u.copy(), e
    eta = step
    increases = 0
    diverged = False
    for it in range(iters):
        rg = r[:, None] * g
        grad_a = np.einsum("ni,nj->ij", 2.0 / m * rg, q)
        grad_u = 2.0 / m * rg.sum(axis=0)
        # Gauss-Newton diagonal as a per-parameter scale.
        g2 = g * g
        h_u = 2.0 / m * g2.sum(axis=0)
        h_a = np.einsum("ni,nj->ij", 2.0 / m * g2, q * q)
        floor = 1e-12 * max(float(h_a.max()), float(h_u.max()), 1e-300)
        new_a = a - eta * grad_a / np.maximum(h_a, floor)
        new_u = u - eta * grad_u / np.maximum(h_u, floor)
        g_n, r_n, e_n = objective(new_a, new_u)
        if e_n <= e:
            improvement = e - e_n
            a, u, g, r, e = new_a, new_u, g_n, r_n, e_n
            eta = min(eta * 1.2, 1.0)
            increases = 0
            if e < best_e:
                best_a, best_u, best_e = a.copy(), u.copy(), e
            if e < 1e-14 or improvement < 1e-10 * max(e, 1e-30):
                log.append((level, it, e, eta))
                break
        else:
            eta *= 0.5
            # At a minimum, rejected trials approach the floor from above
            # with geometrically decaying excess; that is convergence, not
            # divergence.  Count only material rises: trials that stay a
            # fixed fraction above the best value seen.
            if e_n > best_e * 1.05 + 1e-12:
                increases += 1
        log.append((level, it, e, eta))
        if increases >= 10:
            diverged = True
            break
        if eta < 1e-8:
            break
    b_out = best_u - best_a @ center + center
    return best_a, b_out, best_e, diverged


def affine_ssd_register(
    source: Volume3,
    target: Volume3,
    levels: int = 3,
    iters: int = 80,
    step: float = 0.5,
) -> Registration:
    """Fit y -> A y + b minimizing mean squared intensity difference.

    Multi-resolution (x2 decimation per level), 12 free parameters, descent
    with a Gauss-Newton diagonal preconditioner and backtracking steps.  If
    the objective rises 10 consecutive times the best-so-far fit is returned
    with the diverged flag set.
    """
    if source.shape != target.shape:
        raise ValueError(f"shape mismatch: source {source.shape} vs target {target.shape}")
    if source.channels != 1 or target.channels != 1:
        raise ValueError("affine_ssd_register expects 1-channel volumes")
    if levels < 1 or iters < 1 or step <= 0:
        raise ValueError("need levels >= 1, iters >= 1, step > 0")
    src_pyr = _pyramid(source.scalar, levels)
    tgt_pyr = _pyramid(target.scalar, levels)
    n_levels = min(len(src_pyr), len(tgt_pyr))
    a = np.eye(3)
    b = np.zeros(3)
    log: list = []
    diverged = False
    final_e = np.inf
    for level in reversed(range(n_levels)):
        scale = 2.0**level
        a_l, b_l = a, b / scale
        a, b_l, final_e, div = _ssd_level(
            src_pyr[level], tgt_pyr[level], a_l, b_l, iters, step, level, log
        )
        diverged = diverged or div
        b = b_l * scale
    return Registration(AffineTransform(a, b), tuple(log), ("level", "iteration", "ssd", "step"),
                        iterations=len(log), final_ssd=final_e, diverged=diverged)


def demons_register(
    source: Volume3,
    target: Volume3,
    iters: int = 60,
    smooth_sigma: float = 1.0,
) -> Registration:
    """Thirion demons with Gaussian field smoothing each iteration.

    Update per voxel: d <- d + (T - S(phi)) grad(S(phi)) /
    (||grad||^2 + (T - S(phi))^2), guarded to zero where the denominator
    vanishes, so constant image pairs yield the zero field.
    """
    if source.shape != target.shape:
        raise ValueError(f"shape mismatch: source {source.shape} vs target {target.shape}")
    if source.channels != 1 or target.channels != 1:
        raise ValueError("demons_register expects 1-channel volumes")
    if iters < 1 or smooth_sigma < 0:
        raise ValueError("need iters >= 1 and smooth_sigma >= 0")
    shape = target.shape
    grid = grid_points(shape).reshape(-1, 3)
    tgt = target.scalar.astype(np.float64)
    src = source.scalar
    disp = np.zeros(shape + (3,), dtype=np.float64)
    log = []
    final_ssd = np.inf
    for it in range(iters):
        warped = trilinear_sample(src, grid + disp.reshape(-1, 3)).reshape(shape)
        diff = tgt - warped
        grad = _image_gradient(warped)
        denom = (grad * grad).sum(axis=-1) + diff * diff
        safe = np.where(denom > 1e-12, denom, 1.0)
        scale = np.where(denom > 1e-12, diff / safe, 0.0)
        disp += scale[..., None] * grad
        if smooth_sigma > 0:
            for ax in range(3):
                disp[..., ax] = gaussian_filter(disp[..., ax], sigma=smooth_sigma, mode="nearest")
        final_ssd = float(np.mean(diff * diff))
        log.append((it, final_ssd))
    return Registration(DenseTransform(disp), tuple(log), ("iteration", "ssd"),
                        iterations=iters, final_ssd=final_ssd)


@dataclass(frozen=True)
class AffineSsdBackend(RegistrationBackend):
    levels: int = 3
    iters: int = 80
    step: float = 0.5

    name = "affine_ssd"

    def register(self, source, target, perturbation=None, nonce=0):
        return affine_ssd_register(
            source, target, levels=self.levels, iters=self.iters, step=self.step
        )


@dataclass(frozen=True)
class DemonsBackend(RegistrationBackend):
    iters: int = 60
    smooth_sigma: float = 1.0

    name = "demons"

    def register(self, source, target, perturbation=None, nonce=0):
        return demons_register(source, target, iters=self.iters, smooth_sigma=self.smooth_sigma)
