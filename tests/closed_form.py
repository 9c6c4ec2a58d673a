"""Test references that are not part of the library.

closed_form_cov_affine is the closed-form covariance for affine
perturbations at one point: criterion 3 checks the estimator against it at
one voxel, and the uncertainty tests check it against a hand example and
against decompose_cov.  tri_to_matrices unpacks the estimator's per-voxel
covariance components for comparison with full matrices.
"""

import numpy as np

from regcert.register import ErrorModel
from regcert.uncertainty import _TRI


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
