"""Spatial transforms on 3-D voxel grids.

All coordinates are continuous voxel indices: voxel centers sit at integer
positions and the domain of a shape-(nx, ny, nz) grid is
[0, nx-1] x [0, ny-1] x [0, nz-1].  Physical spacing and origin travel as
volume metadata and never enter the math here.

Four transform kinds are provided: translations, invertible affines, cubic
B-spline free-form deformations, and dense displacement fields.  Dense
fields store displacement, not absolute coordinates, so the identity is the
zero field.  Sampling anywhere uses clamp-to-edge boundary handling.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "ConvergenceError",
    "Transform",
    "TranslationTransform",
    "AffineTransform",
    "BSplineTransform",
    "DenseTransform",
    "is_linear",
    "grid_points",
    "trilinear_sample",
    "compose",
    "dense",
    "invert",
    "invert_at",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _add_vec3(pts, vec, out=None) -> np.ndarray:
    """pts + vec for (..., 3) points and a 3-vector, one column at a time.

    Bit for bit the broadcast pts + vec, at under half its cost: numpy runs
    that broadcast as an inner loop three long.  out may be pts itself.
    With pts None, out is filled with vec.
    """
    if out is None:
        out = np.empty(np.shape(pts), np.result_type(pts, vec))
    if out.shape[-1:] != (3,):
        raise ValueError(f"points must have shape (..., 3), got {out.shape}")
    for i in range(3):
        if pts is None:
            out[..., i] = vec[i]
        else:
            # dtype pins the broadcast's loop: numpy 1.x would add a float64
            # scalar to a float32 column in float32.
            np.add(pts[..., i], vec[i], out=out[..., i], dtype=out.dtype)
    return out


def grid_points(shape) -> np.ndarray:
    """Voxel-center coordinates of a grid, shape (nx, ny, nz, 3)."""
    nx, ny, nz = (int(s) for s in shape)
    g = np.empty((nx, ny, nz, 3), dtype=np.float64)
    g[..., 0] = np.arange(nx, dtype=np.float64)[:, None, None]
    g[..., 1] = np.arange(ny, dtype=np.float64)[None, :, None]
    g[..., 2] = np.arange(nz, dtype=np.float64)[None, None, :]
    return g


# Points per block in trilinear_sample: its per-block buffers stay under 1.5 MB.
_BLOCK = 8192
# Points per block in BSplineTransform: a block's (n, 4, 48) cell gather is
# 1.5 MiB, inside a 2 MiB per-core L2 cache.
_BSPLINE_BLOCK = 1024


def _bspline_blocks(n: int) -> list:
    """Slices of n points in blocks of _BSPLINE_BLOCK, the last taking the remainder.

    A call of fewer than two blocks stays whole: a second block's fixed cost,
    some thirty numpy calls, outweighs its smaller gather there.
    """
    edges = list(range(0, n, _BSPLINE_BLOCK))[: max(1, n // _BSPLINE_BLOCK)] + [n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def trilinear_sample(field: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sample a (nx, ny, nz[, C]) field at (N, 3) points, clamp-to-edge.

    Exact at voxel centers: integer coordinates return stored values
    untouched.  Accumulation is float64 regardless of the field dtype.

    The values accumulate in (C, N) channel rows and come back as their
    (N, C) transpose, so ``.T`` hands a caller contiguous channel rows
    without a copy.  Points are taken in blocks of ``_BLOCK`` through
    buffers allocated once per call; each point's arithmetic is its own, so
    a point's value does not depend on the batch it comes in.
    """
    scalar = field.ndim == 3
    data = field[..., None] if scalar else field
    shape = data.shape[:3]
    rows = data.reshape(-1, data.shape[3])
    channels = rows.shape[1]
    strides = (shape[1] * shape[2], shape[2], 1)
    # A corner's flat index is the lower corner's plus a constant: the upper
    # neighbour is one stride up, or the voxel itself on a size-1 axis.
    up = [strides[ax] if shape[ax] > 1 else 0 for ax in range(3)]

    n = len(pts)
    out = np.zeros((channels, n), dtype=np.float64)
    b = min(n, _BLOCK)
    x = np.empty(b)
    i0 = np.empty(b, dtype=np.intp)
    base = np.empty(b, dtype=np.intp)
    idx = np.empty(b, dtype=np.intp)
    # w[ax] holds the lower and upper weights (1 - t, t) along axis ax.
    w = np.empty((3, 2, b))
    wxy = np.empty(b)
    wc = np.empty(b)
    vals = np.empty((b, channels), dtype=rows.dtype)
    # Products are taken in float64 whatever the field dtype.
    prod = np.empty(b)
    for s in range(0, n, _BLOCK):
        p = pts[s : s + _BLOCK]
        m = len(p)
        x_, i0_, base_, idx_ = x[:m], i0[:m], base[:m], idx[:m]
        w_, wxy_, wc_ = w[:, :, :m], wxy[:m], wc[:m]
        vals_, prod_, acc = vals[:m], prod[:m], out[:, s : s + m]
        base_.fill(0)
        for ax in range(3):
            np.clip(p[:, ax], 0.0, shape[ax] - 1.0, out=x_)
            if shape[ax] == 1:
                i0_.fill(0)
            else:
                i0_[...] = np.floor(x_)
                np.minimum(i0_, shape[ax] - 2, out=i0_)
            np.subtract(x_, i0_, out=w_[ax, 1])
            np.subtract(1.0, w_[ax, 1], out=w_[ax, 0])
            base_ += i0_ * strides[ax]
        for dx, dy, dz in itertools.product((0, 1), repeat=3):
            if dz == 0:
                np.multiply(w_[0, dx], w_[1, dy], out=wxy_)
            np.multiply(wxy_, w_[2, dz], out=wc_)
            np.add(base_, dx * up[0] + dy * up[1] + dz * up[2], out=idx_)
            # Indices are in range by construction; mode="clip" avoids
            # the temporary copy of ``out`` that mode="raise" makes.
            rows.take(idx_, axis=0, out=vals_, mode="clip")
            # One long loop per channel row, not a (b, 1) x (b, C)
            # broadcast whose inner loop is C long.
            for c in range(channels):
                np.multiply(wc_, vals_[:, c], out=prod_)
                acc[c] += prod_
    return out[0] if scalar else out.T


class Transform:
    """A point mapping y -> t(y) on voxel-index space."""

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Map an (N, 3) array of points."""
        raise NotImplementedError

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """Spatial derivative Dt at each point, shape (N, 3, 3)."""
        raise NotImplementedError

    def apply_grid(self, shape) -> np.ndarray:
        """apply at the voxel centers of shape, (V, 3) in grid_points order."""
        return self.apply(grid_points(shape).reshape(-1, 3))


class TranslationTransform(Transform):
    """y -> y + offset."""

    def __init__(self, offset):
        t = np.asarray(offset, dtype=np.float64)
        if t.shape != (3,):
            raise ValueError(f"translation offset must have shape (3,), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation offset must be finite")
        self.offset = _frozen(t)

    def apply(self, pts):
        return _add_vec3(np.asarray(pts), self.offset)

    def jacobian(self, pts):
        return np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()

    def __repr__(self):
        return f"TranslationTransform({self.offset.tolist()})"


class AffineTransform(Transform):
    """y -> A y + b with invertible A."""

    def __init__(self, matrix, offset):
        a = np.asarray(matrix, dtype=np.float64)
        b = np.asarray(offset, dtype=np.float64)
        if a.shape != (3, 3) or b.shape != (3,):
            raise ValueError("affine needs a (3, 3) matrix and a (3,) offset")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("affine parameters must be finite")
        if abs(np.linalg.det(a)) < 1e-12:
            raise ValueError("affine matrix is singular")
        self.matrix = _frozen(a)
        self.offset = _frozen(b)

    @classmethod
    def center_fixed(cls, matrix, center, extra_offset=(0.0, 0.0, 0.0)):
        """Linear map about ``center`` (so the center stays put) plus a shift."""
        a = np.asarray(matrix, dtype=np.float64)
        c = np.asarray(center, dtype=np.float64)
        b = c - a @ c + np.asarray(extra_offset, dtype=np.float64)
        return cls(a, b)

    def apply(self, pts):
        # einsum's own loops, not BLAS: a K=3 product is too small to
        # thread, and BLAS worker threads spin on the spare cores after it.
        out = np.einsum("...j,ij->...i", pts, self.matrix)
        return _add_vec3(out, self.offset, out=out)

    def jacobian(self, pts):
        return np.broadcast_to(self.matrix, (len(pts), 3, 3)).copy()

    def __repr__(self):
        return f"AffineTransform({self.matrix.tolist()}, {self.offset.tolist()})"


def is_linear(t: Transform) -> bool:
    """True when t is affine in y, so its Jacobian is one matrix everywhere."""
    return isinstance(t, (TranslationTransform, AffineTransform))


def _bspline_weights(t: np.ndarray) -> np.ndarray:
    """Cubic B-spline basis values for fractional offsets t, shape (4, *t.shape)."""
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        [
            (1.0 - 3.0 * t + 3.0 * t2 - t3) / 6.0,
            (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
            (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
            t3 / 6.0,
        ]
    )


def _bspline_dweights(t: np.ndarray) -> np.ndarray:
    """Derivatives of the basis values with respect to t, shape (4, *t.shape)."""
    t2 = t * t
    return np.stack(
        [
            -(1.0 - t) ** 2 / 2.0,
            (3.0 * t2 - 4.0 * t) / 2.0,
            (-3.0 * t2 + 2.0 * t + 1.0) / 2.0,
            t2 / 2.0,
        ]
    )


def bspline_control_shape(domain_shape, grid_spacing: int) -> tuple[int, int, int]:
    """Control-grid shape covering a domain with one boundary ring per side."""
    return tuple(int(np.floor((s - 1) / grid_spacing)) + 4 for s in domain_shape)


def _contract_x(wx, block):
    """Contract (N, 4, 48) cell rows along x with (4, N) weights: the x-stage, (N, 4, 12).

    np.einsum's own loops, not BLAS: a stacked matmul calls BLAS once per point.
    """
    return np.einsum("an,nak->nk", wx, block).reshape(len(block), 4, 12)


def _contract_yz(wy, wz, t):
    """Finish a contraction from its x-stage with (4, N) weights, y then z: (N, 3)."""
    t = np.einsum("bn,nbk->nk", wy, t).reshape(len(t), 4, 3)
    return np.einsum("cn,nci->ni", wz, t)


def _contract_axis(t, ax, i0, w):
    """Sum of w[a] * t[i0 + a] along axis ax, a = 0..3 added in order to zeros.

    The einsum contractions above add the same products in the same order,
    so a grid contracted axis by axis equals the point kernel bit for bit.
    """
    shape = list(t.shape)
    shape[ax] = len(i0)
    out = np.zeros(shape)
    term = np.empty(shape)
    bcast = [1] * t.ndim
    bcast[ax] = len(i0)
    for a in range(4):
        np.take(t, i0 + a, axis=ax, out=term)
        term *= w[a].reshape(bcast)
        out += term
    return out


class BSplineTransform(Transform):
    """Free-form deformation y -> y + u(y) on a cubic B-spline lattice.

    Control nodes sit at positions (j * h) per axis for j = -1, 0, 1, ...;
    array index a holds node j = a - 1, so one ring of nodes lies outside
    the domain on the low side and at least one on the high side.

    Points are evaluated from a control table built once here: one contiguous
    (4, 48) row per lattice cell holding its 4x4x4 nodes, components last,
    (na-3)(nb-3)(nc-3)*192 float64 in all.  It cannot go stale: ``control``
    is frozen.  Points are evaluated in blocks of ``_BSPLINE_BLOCK`` (the
    last under twice that), which bounds a block's (n, 4, 48) cell gather; a
    point's value does not depend on the batch it comes in.
    """

    def __init__(self, grid_spacing: int, control_displacements, domain_shape):
        h = int(grid_spacing)
        if h < 2:
            raise ValueError("B-spline grid spacing must be >= 2 voxels")
        shape = tuple(int(s) for s in domain_shape)
        if len(shape) != 3 or any(s < 2 for s in shape):
            raise ValueError(f"bad domain shape {domain_shape}")
        c = np.asarray(control_displacements, dtype=np.float64)
        need = bspline_control_shape(shape, h)
        if c.ndim != 4 or c.shape[3] != 3:
            raise ValueError("control displacements must have shape (na, nb, nc, 3)")
        if any(c.shape[i] < need[i] for i in range(3)):
            raise ValueError(
                f"control grid {c.shape[:3]} does not cover domain {shape} "
                f"with spacing {h}; need at least {need}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("control displacements must be finite")
        self.grid_spacing = h
        self.control = _frozen(c)
        self.domain_shape = shape
        win = np.lib.stride_tricks.sliding_window_view(self.control, (4, 4, 4), axis=(0, 1, 2))
        self._cells = _frozen(np.moveaxis(win, 3, -1).reshape(-1, 4, 48))

    def _cell(self, x, last):
        """Lattice cell index of coordinates x, clipped to [0, last], and x's fraction in it."""
        g = x / float(self.grid_spacing)
        i0 = np.clip(np.floor(g).astype(np.intp), 0, last)
        return i0, g - i0

    def _cells_at(self, pts):
        """Each point's cell row of the control table, (N, 4, 48), and its (3, N) fractions."""
        i0, frac = self._cell(pts, np.subtract(self.control.shape[:3], 4))
        nb, nc = self.control.shape[1] - 3, self.control.shape[2] - 3
        return self._cells.take((i0[:, 0] * nb + i0[:, 1]) * nc + i0[:, 2], axis=0), frac.T

    def displacement(self, pts: np.ndarray) -> np.ndarray:
        """u(p) for (N, 3) points, shape (N, 3)."""
        out = np.empty((len(pts), 3), dtype=np.float64)
        for b in _bspline_blocks(len(pts)):
            block, frac = self._cells_at(pts[b])
            wx, wy, wz = _bspline_weights(frac).swapaxes(0, 1)
            out[b] = _contract_yz(wy, wz, _contract_x(wx, block))
            # Freed before the next block is gathered, not replaced after it.
            del block
        return out

    def displacement_jacobian(self, pts: np.ndarray) -> np.ndarray:
        """Du at each point (analytic), shape (N, 3, 3)."""
        h = float(self.grid_spacing)
        out = np.empty((len(pts), 3, 3), dtype=np.float64)
        for b in _bspline_blocks(len(pts)):
            block, frac = self._cells_at(pts[b])
            wx, wy, wz = _bspline_weights(frac).swapaxes(0, 1)
            dx, dy, dz = (_bspline_dweights(frac) / h).swapaxes(0, 1)
            o = out[b]
            # Column x is finished before y and z's shared x-stage is built,
            # so one (n, 4, 12) x-stage is alive at a time.
            o[:, :, 0] = _contract_yz(wy, wz, _contract_x(dx, block))
            t = _contract_x(wx, block)
            o[:, :, 1] = _contract_yz(dy, wz, t)
            o[:, :, 2] = _contract_yz(wy, dz, t)
            del block, t
        return out

    def apply(self, pts):
        out = self.displacement(pts)
        out += pts
        return out

    def apply_grid(self, shape):
        """apply on a voxel grid as a tensor product: x, then y, then z contracted.

        Each axis's cells and weights come from the point kernel's own
        arithmetic, so the result equals apply(grid_points(shape)) bit for
        bit without the per-point cell gather.
        """
        t = self.control
        for ax, n in enumerate(shape):
            i0, frac = self._cell(np.arange(n, dtype=np.float64), self.control.shape[ax] - 4)
            t = _contract_axis(t, ax, i0, _bspline_weights(frac))
        grid = grid_points(shape).reshape(-1, 3)
        grid += t.reshape(-1, 3)
        return grid

    def jacobian(self, pts):
        j = self.displacement_jacobian(pts)
        j[:, 0, 0] += 1.0
        j[:, 1, 1] += 1.0
        j[:, 2, 2] += 1.0
        return j

    def __repr__(self):
        return (
            f"BSplineTransform(spacing={self.grid_spacing}, "
            f"control={self.control.shape[:3]}, domain={self.domain_shape})"
        )


class DenseTransform(Transform):
    """y -> y + d(y) with d stored per voxel and interpolated trilinearly.

    The identity part uses the raw query point; only the displacement lookup
    is clamped to the grid, so the map stays continuous off-domain.  It has
    no Jacobian: the library takes Jacobians of perturbations only, and no
    perturbation is dense.
    """

    def __init__(self, displacement):
        d = np.asarray(displacement, dtype=np.float64)
        if d.ndim != 4 or d.shape[3] != 3:
            raise ValueError("displacement must have shape (nx, ny, nz, 3)")
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement must be finite")
        self.displacement = _frozen(d)
        self.shape = d.shape[:3]

    def apply(self, pts):
        return pts + trilinear_sample(self.displacement, pts)

    def __repr__(self):
        return f"DenseTransform(shape={self.shape})"


def dense(t: Transform, shape) -> DenseTransform:
    """t sampled at the voxel centers of shape; a DenseTransform comes back as it is."""
    if isinstance(t, DenseTransform):
        return t
    mapped = t.apply_grid(shape)
    mapped -= grid_points(shape).reshape(-1, 3)
    return DenseTransform(mapped.reshape(tuple(shape) + (3,)))


def compose(outer: Transform, inner: Transform, shape) -> DenseTransform:
    """Dense composition (outer o inner) sampled at the voxel centers of shape.

    The outer transform is evaluated analytically (or, for dense fields,
    interpolated) at inner(y).
    """
    shape = tuple(int(s) for s in shape)
    if isinstance(inner, DenseTransform) and inner.shape != shape:
        raise ValueError(f"shape mismatch: inner grid {inner.shape} vs requested {shape}")
    if isinstance(outer, DenseTransform) and isinstance(inner, DenseTransform) and outer.shape != inner.shape:
        raise ValueError(f"shape mismatch: outer grid {outer.shape} vs inner grid {inner.shape}")
    mapped = outer.apply(inner.apply_grid(shape))
    mapped -= grid_points(shape).reshape(-1, 3)
    return DenseTransform(mapped.reshape(shape + (3,)))


def invert_at(
    t: Transform, pts, tol: float = 1e-3, max_iter: int = 50, strict: bool = True
):
    """Evaluate t^-1 at arbitrary query points by fixed-point iteration.

    Solves v = -u(z + v) per point for the displacement form t(x) = x + u(x),
    so no intermediate grid or interpolation is involved.  Returns
    (positions t^-1(z), round-trip residual max_z ||t(t^-1(z)) - z||,
    iterations); with ``strict`` a residual above 10*tol raises.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("inversion needs tol > 0 and max_iter >= 1")
    z = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    v = np.zeros_like(z)
    iterations = 0
    diverged = False
    # Folding fields can blow the iterate up; silence the transient overflow
    # and report it as a (possibly infinite) residual instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            v_new = -(t.apply(z + v) - (z + v))
            if not np.all(np.isfinite(v_new)):
                diverged = True
                break
            delta = float(np.max(np.abs(v_new - v))) if len(v) else 0.0
            v = v_new
            if delta < tol:
                break
        if diverged:
            residual = float("inf")
        else:
            round_trip = t.apply(z + v) - z
            residual = float(np.max(np.linalg.norm(round_trip, axis=1))) if len(z) else 0.0
    if strict and not residual <= 10.0 * tol:
        raise ConvergenceError(
            f"inversion failed: residual {residual:.3g} exceeds {10.0 * tol:.3g} "
            f"after {iterations} iterations"
        )
    return z + v, residual, iterations


def invert(t: Transform) -> Transform:
    """Closed-form inverse of a translation or an affine.

    Other transforms have none; invert_at evaluates their inverse at query
    points.
    """
    if isinstance(t, TranslationTransform):
        return TranslationTransform(-t.offset)
    if isinstance(t, AffineTransform):
        a_inv = np.linalg.inv(t.matrix)
        return AffineTransform(a_inv, -a_inv @ t.offset)
    raise TypeError(f"{type(t).__name__} has no closed-form inverse; use invert_at")
