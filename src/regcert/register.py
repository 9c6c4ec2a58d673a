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

from .geometry import (
    AffineTransform,
    DenseTransform,
    Transform,
    TranslationTransform,
    _add_vec3,
    _frozen,
    grid_points,
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
# The scale functions that read a linear tau through _linear_offset.
LINEAR_TAU_SCALES = frozenset(TAU_SCALE_FUNCTIONS) - {"one"}


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
            self.mu_field = _frozen(fld)
            self.mu = None
        else:
            v = np.asarray(mu, dtype=np.float64)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError("mu must be a finite 3-vector")
            self.mu = _frozen(v)
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
        self.sigma = _frozen(s)
        # A factor F with F F^T = Sigma, valid for singular Sigma too.
        self._factor = v * np.sqrt(np.clip(w, 0.0, None))
        for name in (mu_scale, sigma_scale):
            if name is not None and name not in TAU_SCALE_FUNCTIONS:
                raise ValueError(
                    f"unknown scale function {name!r}; expected one of {sorted(TAU_SCALE_FUNCTIONS)}"
                )
        self.mu_scale = mu_scale
        self.sigma_scale = sigma_scale
        if isinstance(seed, bool) or seed != int(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)

    def require_grid(self, shape) -> None:
        """Raise ValueError unless the mu_field, if any, lies on the grid shape."""
        if self.mu_field is not None and self.mu_field.shape[:3] != tuple(shape):
            raise ValueError(f"mu_field is on a {self.mu_field.shape[:3]} grid, not {tuple(shape)}")

    def mean(self, tau: Transform, pts: np.ndarray) -> np.ndarray:
        """mu_eps(tau; y) at (N, 3) points, shape (N, 3)."""
        if self.mu_field is not None:
            # In C order, as the constant mean's: the einsums that take it
            # (the jitter moments) sum in a stride-dependent order.
            base = np.ascontiguousarray(trilinear_sample(self.mu_field, pts))
        else:
            base = _add_vec3(None, self.mu, out=np.empty((len(pts), 3)))
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
    columns, and iterations (the log's length), final_ssd and diverged say
    how the solver ended (a backend without a solver keeps the defaults).
    The oracle also returns inverted_positions v = tau^-1(phi(y)) and the
    noise eps it drew, read-only (V, 3) arrays at the target's voxels, and
    the inversion's round-trip residual (0.0 where no inversion ran).
    """

    transform: Transform
    log: tuple = field(repr=False, default=())
    log_header: tuple = ()
    final_ssd: float | None = None
    diverged: bool = False
    inverted_positions: np.ndarray | None = field(repr=False, compare=False, default=None)
    noise: np.ndarray | None = field(repr=False, compare=False, default=None)
    inversion_residual: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.log)


class RegistrationBackend:
    """Maps a source/target pair to a target-to-source Registration.

    The transform comes in the solver's own form; geometry.dense renders it.

    reads_images says whether register looks at voxel values.  A backend
    that sets it False promises a result that depends on the images' shapes
    alone, never on their values, so the estimator hands it the unperturbed
    source and skips warping it through each perturbation.
    """

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
        self._grid_slot = None

    def _grid_and_phi(self, shape):
        """The target's voxel centres and phi at them, read-only (V, 3) arrays.

        They are kept in one slot (shape, phi, grid, phi(grid)) while the
        shape and the true_transform object stay the same.  The slot is
        replaced as one tuple, so sample threads share it without a lock; a
        race only computes it twice.
        """
        phi = self.true_transform
        slot = self._grid_slot
        if slot is None or slot[0] != shape or slot[1] is not phi:
            grid = grid_points(shape).reshape(-1, 3)
            phi_pos = phi.apply(grid)
            grid.flags.writeable = phi_pos.flags.writeable = False
            slot = self._grid_slot = (shape, phi, grid, phi_pos)
        return slot[2], slot[3]

    def inverse_positions(self, tau: Transform, pts: np.ndarray) -> tuple[np.ndarray, float]:
        """tau^-1 evaluated at the given points, with the round-trip residual.

        Closed form (zero residual) for linear perturbations; fixed-point
        iteration directly at the query points otherwise, so no dense
        intermediate field or interpolation enters the oracle's output.
        """
        if is_linear(tau):
            return invert(tau).apply(pts), 0.0
        positions, residual, _ = invert_at(tau, pts, strict=not self.lenient_inversion)
        return positions, residual

    def register(self, source, target, perturbation=None, nonce=0):
        shape = target.shape
        self.error_model.require_grid(shape)
        grid, phi_pos = self._grid_and_phi(shape)
        if perturbation is None:
            positions, residual = phi_pos, 0.0
            tau_eff: Transform = TranslationTransform((0.0, 0.0, 0.0))
        else:
            positions, residual = self.inverse_positions(perturbation, phi_pos)
            tau_eff = perturbation
        eps = self.error_model.sample(tau_eff, grid, nonce)
        positions.flags.writeable = eps.flags.writeable = False
        return Registration(DenseTransform((positions + eps - grid).reshape(shape + (3,))),
                            inverted_positions=positions, noise=eps, inversion_residual=residual)


def _gaussian(arr: np.ndarray, sigma: float, step: int = 1,
              out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian smoothing of the last three axes, keeping every step-th voxel of each.

    Bit for bit scipy.ndimage.gaussian_filter(arr, sigma, mode="nearest")
    [..., ::step, ::step, ::step], because it repeats scipy's arithmetic: a
    kernel exp(-x^2 / 2 sigma^2) / sum of radius int(4 sigma + 0.5), edges
    extended, each output x_0 w_0 plus (x_-j + x_j) w_j from the outermost
    pair inwards in float64, and each axis's result stored in arr's dtype.
    Like scipy, sigma <= 1e-15 leaves the values as they are.

    The result is written to out when it is given (it may be arr itself,
    which is read only by the first pass) and to a new array otherwise.
    """
    if sigma <= 1e-15:
        kept = arr[..., ::step, ::step, ::step]
        if out is None:
            return kept.copy()
        out[...] = kept
        return out
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    cur = arr
    for _ in range(3):
        # The filtered axis comes first among the three and is rotated last
        # afterwards, so every pass reads contiguous blocks.
        n = cur.shape[-3]
        pad = np.empty(cur.shape[:-3] + (n + 2 * radius,) + cur.shape[-2:])
        pad[..., radius:radius + n, :, :] = cur
        pad[..., :radius, :, :] = cur[..., :1, :, :]
        pad[..., radius + n:, :, :] = cur[..., -1:, :, :]
        # The pad holds the pass's input now: the last pass's result is freed.
        cur = None
        acc = pad[..., radius:radius + n:step, :, :] * w[radius]
        pair = np.empty_like(acc)
        for j in range(radius, 0, -1):
            np.add(pad[..., radius - j:radius - j + n:step, :, :],
                   pad[..., radius + j:radius + j + n:step, :, :], out=pair)
            pair *= w[radius - j]
            acc += pair
        del pad, pair
        cur = np.moveaxis(acc.astype(arr.dtype, copy=False), -3, -1)
    if out is None:
        return np.ascontiguousarray(cur)
    out[...] = cur
    return out


def _pyramid(arr: np.ndarray, levels: int, min_size: int = 8):
    """Smooth-and-decimate pyramid, finest first; coarse voxel i = fine voxel 2i."""
    out = [arr]
    for _ in range(levels - 1):
        prev = out[-1]
        if min(prev.shape) < 2 * min_size:
            break
        out.append(_gaussian(prev, 1.0, step=2))
    return out


def _ssd_level(src: np.ndarray, tgt: np.ndarray, a: np.ndarray, b: np.ndarray,
               iters: int, step: float, level: int, log: list):
    """Diagonally preconditioned gradient descent on mean SSD at one level.

    Per-voxel quantities are contiguous (3, N) channel rows, so each sum over
    voxels is a row reduction.  A trial keeps one per-voxel sample alive: its
    descent terms are reduced as soon as it is gathered, and only they are
    kept for the next step.
    """
    shape = tgt.shape
    center = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    q = np.empty((3,) + shape)
    q[0] = (np.arange(shape[0], dtype=np.float64) - center[0])[:, None, None]
    q[1] = (np.arange(shape[1], dtype=np.float64) - center[1])[None, :, None]
    q[2] = (np.arange(shape[2], dtype=np.float64) - center[2])[None, None, :]
    q = q.reshape(3, -1)
    tgt_flat = tgt.reshape(-1).astype(np.float64)
    # Intensity and gradient as one field, so a trial costs one gather.
    src_and_grad = np.empty(shape + (4,))
    src_and_grad[..., 0] = src
    for ax in range(3):
        src_and_grad[..., 1 + ax] = np.gradient(src_and_grad[..., 0], axis=ax)
    m = q.shape[1]
    pos = np.empty((3, m))

    def objective(a_, b_, slopes_at):
        """Mean SSD at (a_, b_), and its descent terms if it is at most slopes_at.

        slopes_at None gathers intensity only: the float32 level gives the
        same float64 products as the joint field's intensity channel.
        """
        # One row per axis, not a BLAS product (see AffineTransform.apply);
        # trilinear_sample reads pos.T, an (N, 3) view of the rows.
        for i in range(3):
            np.multiply(q[0], a_[i, 0], out=pos[i])
            pos[i] += a_[i, 1] * q[1]
            pos[i] += a_[i, 2] * q[2]
            pos[i] += center[i]
            pos[i] += b_[i]
        if slopes_at is None:
            r = trilinear_sample(src, pos.T)
        else:
            sampled = trilinear_sample(src_and_grad, pos.T).T
            r, g = sampled[0], sampled[1:]
        r -= tgt_flat
        # pos is spent: it is the scratch for r * r, g * r and q * q.
        np.multiply(r, r, out=pos[0])
        e = float(np.mean(pos[0]))
        if slopes_at is None or e > slopes_at:
            return e, None
        np.multiply(g, r, out=pos)
        grad_u = 2.0 / m * pos.sum(axis=1)
        np.multiply(pos, 2.0 / m, out=pos)
        grad_a = np.einsum("in,jn->ij", pos, q)
        # Gauss-Newton diagonal as a per-parameter scale.
        g *= g
        h_u = 2.0 / m * g.sum(axis=1)
        g *= 2.0 / m
        np.multiply(q, q, out=pos)
        h_a = np.einsum("in,jn->ij", g, pos)
        return e, (grad_u, grad_a, h_u, h_a)

    u = b + a @ center - center  # offset in the centered parameterization
    e, slopes = objective(a, u, np.inf)
    best_a, best_u, best_e = a.copy(), u.copy(), e
    eta = step
    increases = 0
    diverged = False
    for it in range(iters):
        grad_u, grad_a, h_u, h_a = slopes
        floor = 1e-12 * max(float(h_a.max()), float(h_u.max()), 1e-300)
        new_a = a - eta * grad_a / np.maximum(h_a, floor)
        new_u = u - eta * grad_u / np.maximum(h_u, floor)
        # Only an accepted trial's terms are read, and the last trial's never.
        e_n, slopes_n = objective(new_a, new_u, e if it < iters - 1 else None)
        if e_n <= e:
            improvement = e - e_n
            a, u, e, slopes = new_a, new_u, e_n, slopes_n
            eta = min(eta * 1.2, 1.0)
            increases = 0
            if e < best_e:
                best_a, best_u, best_e = a.copy(), u.copy(), e
            if e < 1e-14 or improvement < 1e-10 * max(e, 1e-30):
                log.append((level, it, e, eta))
                break
        else:
            # The point did not move, so its cached terms stand.
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


def _check_ssd_params(levels, iters, step) -> None:
    if levels < 1 or iters < 1:
        raise ValueError("need levels >= 1 and iters >= 1")
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")


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
    _check_ssd_params(levels, iters, step)
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
                        final_ssd=final_e, diverged=diverged)


def _check_demons_params(iters, smooth_sigma) -> None:
    if iters < 1:
        raise ValueError("need iters >= 1")
    if not (np.isfinite(smooth_sigma) and smooth_sigma >= 0):
        raise ValueError(f"smooth_sigma must be finite and >= 0, got {smooth_sigma!r}")


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
    _check_demons_params(iters, smooth_sigma)
    shape = target.shape
    if min(shape) < 2:
        raise ValueError(f"demons_register needs at least 2 voxels per axis, got {shape}")
    tgt = target.scalar.astype(np.float64)
    src = source.scalar
    # Channel-major (3, nx, ny, nz), so the three components smooth in one
    # call.  Every per-voxel buffer is allocated once per call: pos holds the
    # sample positions, then the gradient of the warped source.
    disp = np.zeros((3,) + shape, dtype=np.float64)
    pos = np.empty_like(disp)
    denom = np.empty(shape)
    sq = np.empty(shape)
    coords = [np.arange(n, dtype=np.float64).reshape([-1 if a == ax else 1 for a in range(3)])
            for ax, n in enumerate(shape)]

    def warp_by_disp():
        for ax in range(3):
            np.add(disp[ax], coords[ax], out=pos[ax])
        return trilinear_sample(src, pos.reshape(3, -1).T).reshape(shape)

    log = []
    for it in range(iters):
        warped = warp_by_disp()
        grad = pos
        # np.gradient(warped) with edge_order 1, bit for bit: central
        # differences / 2.0 inside, one-sided differences (/ 1.0) at the ends.
        for ax in range(3):
            g = np.moveaxis(grad[ax], ax, 0)
            f = np.moveaxis(warped, ax, 0)
            np.subtract(f[2:], f[:-2], out=g[1:-1])
            g[1:-1] /= 2.0
            np.subtract(f[1], f[0], out=g[0])
            np.subtract(f[-1], f[-2], out=g[-1])
        diff = np.subtract(tgt, warped, out=warped)
        # ((g0^2 + g1^2) + g2^2) + diff^2, summed in the expression's order.
        np.multiply(grad[0], grad[0], out=denom)
        for term in (grad[1], grad[2], diff):
            np.multiply(term, term, out=sq)
            denom += sq
        log.append((it, float(np.mean(sq))))
        sq.fill(0.0)
        np.divide(diff, denom, out=sq, where=denom > 1e-12)
        grad *= sq
        disp += grad
        if smooth_sigma > 0:
            _gaussian(disp, smooth_sigma, out=disp)
    # The log rows describe the field each update started from; final_ssd
    # describes the field that is returned.
    final = warp_by_disp()
    np.subtract(tgt, final, out=final)
    final *= final
    return Registration(DenseTransform(np.moveaxis(disp, 0, -1)), tuple(log),
                        ("iteration", "ssd"), final_ssd=float(np.mean(final)))


@dataclass(frozen=True)
class AffineSsdBackend(RegistrationBackend):
    levels: int = 3
    iters: int = 80
    step: float = 0.5

    def __post_init__(self):
        _check_ssd_params(self.levels, self.iters, self.step)

    def register(self, source, target, perturbation=None, nonce=0):
        return affine_ssd_register(
            source, target, levels=self.levels, iters=self.iters, step=self.step
        )


@dataclass(frozen=True)
class DemonsBackend(RegistrationBackend):
    iters: int = 60
    smooth_sigma: float = 1.0

    def __post_init__(self):
        _check_demons_params(self.iters, self.smooth_sigma)

    def register(self, source, target, perturbation=None, nonce=0):
        return demons_register(source, target, iters=self.iters, smooth_sigma=self.smooth_sigma)
