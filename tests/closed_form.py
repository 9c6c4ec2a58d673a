"""Test references that are not part of the library.

closed_form_cov_affine is the closed-form covariance for affine
perturbations at one point: criterion 3 checks the estimator against it at
one voxel, and the uncertainty tests check it against a hand example and
against decompose_cov.  split_on_the_pass reduces decompose_cov's split in
the estimator's pass on blank volumes.  tri_to_matrices unpacks the estimator's per-voxel
covariance components for comparison with full matrices.  demons_reference
is the demons loop written with a fresh array per step, which
demons_register must equal bit for bit.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from regcert.geometry import grid_points, trilinear_sample
from regcert.register import ErrorModel
from regcert.uncertainty import _TRI, decompose_cov, estimate_uncertainty
from regcert.volume import Volume3


def split_on_the_pass(backend, spec, threads: int = 1) -> dict:
    """The estimate with decompose_cov's intrinsic and jitter, from one pass on blank volumes."""
    blank = Volume3(np.zeros(spec.shape, dtype=np.float32))
    return estimate_uncertainty(backend, blank, blank, spec, threads=threads,
                                reducers=[decompose_cov(backend, spec)])


def tri_to_matrices(tri: np.ndarray) -> np.ndarray:
    """(..., 6) upper-triangle components -> (..., 3, 3) symmetric matrices."""
    out = np.empty(tri.shape[:-1] + (3, 3), dtype=tri.dtype)
    for k, (i, j) in enumerate(_TRI):
        out[..., i, j] = tri[..., k]
        out[..., j, i] = tri[..., k]
    return out


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


def demons_reference(source, target, iters: int, smooth_sigma: float):
    """Thirion demons as a plain loop: (displacement (nx, ny, nz, 3), log, final_ssd).

    np.gradient for the gradient, a new array for every intermediate, and
    scipy's gaussian_filter on the three spatial axes for the smoothing.
    """
    shape = target.shape
    grid = grid_points(shape).reshape(-1, 3)
    tgt = target.scalar.astype(np.float64)
    src = source.scalar
    disp = np.zeros((3,) + shape)
    log = []
    for it in range(iters):
        warped = trilinear_sample(src, grid + disp.reshape(3, -1).T).reshape(shape)
        diff = tgt - warped
        grad = np.array(np.gradient(warped))
        denom = grad[0] * grad[0] + grad[1] * grad[1] + grad[2] * grad[2] + diff * diff
        safe = np.where(denom > 1e-12, denom, 1.0)
        scale = np.where(denom > 1e-12, diff / safe, 0.0)
        disp += scale * grad
        if smooth_sigma > 0:
            disp = gaussian_filter(disp, (0.0,) + (smooth_sigma,) * 3, mode="nearest")
        log.append((it, float(np.mean(diff * diff))))
    final = tgt - trilinear_sample(src, grid + disp.reshape(3, -1).T).reshape(shape)
    return np.moveaxis(disp, 0, -1), tuple(log), float(np.mean(final * final))
