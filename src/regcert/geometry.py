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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "Transform",
    "TranslationTransform",
    "AffineTransform",
    "BSplineTransform",
    "DenseTransform",
    "InversionResult",
    "identity_transform",
    "is_linear",
    "grid_points",
    "trilinear_sample",
    "evaluate",
    "compose",
    "dense",
    "invert",
    "invert_at",
    "jacobian_at",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


def _as_points(p) -> tuple[np.ndarray, bool]:
    """Coerce a point or point array to shape (N, 3); flag single-point input."""
    pts = np.asarray(p, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (3,) or (N, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point: non-finite coordinates")
    return pts, single


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def grid_points(shape) -> np.ndarray:
    """Voxel-center coordinates of a grid, shape (nx, ny, nz, 3)."""
    nx, ny, nz = (int(s) for s in shape)
    g = np.empty((nx, ny, nz, 3), dtype=np.float64)
    g[..., 0] = np.arange(nx, dtype=np.float64)[:, None, None]
    g[..., 1] = np.arange(ny, dtype=np.float64)[None, :, None]
    g[..., 2] = np.arange(nz, dtype=np.float64)[None, None, :]
    return g


def trilinear_sample(field: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sample a (nx, ny, nz[, C]) field at (N, 3) points, clamp-to-edge.

    Exact at voxel centers: integer coordinates return stored values
    untouched.  Accumulation is float64 regardless of the field dtype.
    """
    scalar = field.ndim == 3
    data = field[..., None] if scalar else field
    shape = data.shape[:3]
    rows = data.reshape(-1, data.shape[3])
    strides = (shape[1] * shape[2], shape[2], 1)

    idx0 = []
    idx1 = []
    frac = []
    for ax in range(3):
        n = shape[ax]
        x = np.clip(pts[:, ax], 0.0, n - 1.0)
        if n == 1:
            i0 = np.zeros(len(x), dtype=np.intp)
        else:
            i0 = np.minimum(np.floor(x).astype(np.intp), n - 2)
        i1 = np.minimum(i0 + 1, n - 1)
        idx0.append(i0 * strides[ax])
        idx1.append(i1 * strides[ax])
        frac.append(x - i0)

    tx, ty, tz = frac
    out = np.zeros((len(pts), rows.shape[1]), dtype=np.float64)
    vals = np.empty(out.shape, dtype=rows.dtype)
    # Products are taken in float64 whatever the field dtype.
    prod = vals if rows.dtype == np.float64 else np.empty_like(out)
    idx = np.empty(len(pts), dtype=np.intp)
    for cx, wx in ((idx0[0], 1.0 - tx), (idx1[0], tx)):
        for cy, wy in ((idx0[1], 1.0 - ty), (idx1[1], ty)):
            wxy = wx * wy
            cxy = cx + cy
            for cz, wz in ((idx0[2], 1.0 - tz), (idx1[2], tz)):
                np.add(cxy, cz, out=idx)
                # Indices are in range by construction; mode="clip" avoids
                # the temporary copy of ``out`` that mode="raise" makes.
                rows.take(idx, axis=0, out=vals, mode="clip")
                np.multiply((wxy * wz)[:, None], vals, out=prod)
                out += prod
    return out[:, 0] if scalar else out


class Transform:
    """A point mapping y -> t(y) on voxel-index space."""

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Map an (N, 3) array of points."""
        raise NotImplementedError

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """Spatial derivative Dt at each point, shape (N, 3, 3)."""
        raise NotImplementedError


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
        return pts + self.offset

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
        return np.einsum("...j,ij->...i", pts, self.matrix) + self.offset

    def jacobian(self, pts):
        return np.broadcast_to(self.matrix, (len(pts), 3, 3)).copy()

    def __repr__(self):
        return f"AffineTransform({self.matrix.tolist()}, {self.offset.tolist()})"


def is_linear(t: Transform) -> bool:
    """True when t is affine in y, so its Jacobian is one matrix everywhere."""
    return isinstance(t, (TranslationTransform, AffineTransform))


def _bspline_weights(t: np.ndarray) -> np.ndarray:
    """Cubic B-spline basis values for fractional offsets, shape (4, N)."""
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
    """Derivatives of the basis values with respect to t, shape (4, N)."""
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


def _contract(w, block):
    """Contract (N, 4, 48) cell rows with per-axis (4, N) weights, x then y then z.

    np.einsum's own loops, not BLAS: a stacked matmul calls BLAS once per point.
    """
    n = block.shape[0]
    t = np.einsum("an,nak->nk", w[0], block).reshape(n, 4, 12)
    t = np.einsum("bn,nbk->nk", w[1], t).reshape(n, 4, 3)
    return np.einsum("cn,nci->ni", w[2], t)


class BSplineTransform(Transform):
    """Free-form deformation y -> y + u(y) on a cubic B-spline lattice.

    Control nodes sit at positions (j * h) per axis for j = -1, 0, 1, ...;
    array index a holds node j = a - 1, so one ring of nodes lies outside
    the domain on the low side and at least one on the high side.

    Points are evaluated from a control table built once here: one contiguous
    (4, 48) row per lattice cell holding its 4x4x4 nodes, components last,
    (na-3)(nb-3)(nc-3)*192 float64 in all.  It cannot go stale: ``control``
    is frozen.
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

    @classmethod
    def zeros(cls, domain_shape, grid_spacing: int):
        shape = bspline_control_shape(domain_shape, grid_spacing)
        return cls(grid_spacing, np.zeros(shape + (3,)), domain_shape)

    _CHUNK = 65536

    def _base_and_frac(self, pts):
        h = float(self.grid_spacing)
        base = []
        frac = []
        for ax in range(3):
            g = pts[:, ax] / h
            i0 = np.floor(g).astype(np.intp)
            i0 = np.clip(i0, 0, self.control.shape[ax] - 4)
            base.append(i0)
            frac.append(g - i0)
        return base, frac

    def _cells_at(self, pts):
        """Each point's cell row of the control table, (N, 4, 48), and its fractions."""
        base, frac = self._base_and_frac(pts)
        nb, nc = self.control.shape[1] - 3, self.control.shape[2] - 3
        return self._cells.take((base[0] * nb + base[1]) * nc + base[2], axis=0), frac

    def displacement(self, pts: np.ndarray) -> np.ndarray:
        """u(p) for (N, 3) points, shape (N, 3)."""
        out = np.empty((len(pts), 3), dtype=np.float64)
        for s in range(0, len(pts), self._CHUNK):
            block, frac = self._cells_at(pts[s : s + self._CHUNK])
            out[s : s + self._CHUNK] = _contract([_bspline_weights(f) for f in frac], block)
        return out

    def displacement_jacobian(self, pts: np.ndarray) -> np.ndarray:
        """Du at each point (analytic), shape (N, 3, 3)."""
        h = float(self.grid_spacing)
        out = np.empty((len(pts), 3, 3), dtype=np.float64)
        for s in range(0, len(pts), self._CHUNK):
            block, frac = self._cells_at(pts[s : s + self._CHUNK])
            w = [_bspline_weights(f) for f in frac]
            dw = [_bspline_dweights(f) / h for f in frac]
            combos = ((dw[0], w[1], w[2]), (w[0], dw[1], w[2]), (w[0], w[1], dw[2]))
            for ax, wt in enumerate(combos):
                out[s : s + self._CHUNK, :, ax] = _contract(wt, block)
        return out

    def apply(self, pts):
        return pts + self.displacement(pts)

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
    is clamped to the grid, so the map stays continuous off-domain.
    """

    def __init__(self, displacement):
        d = np.asarray(displacement, dtype=np.float64)
        if d.ndim != 4 or d.shape[3] != 3:
            raise ValueError("displacement must have shape (nx, ny, nz, 3)")
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement must be finite")
        self.displacement = _frozen(d)
        self.shape = d.shape[:3]

    @classmethod
    def identity(cls, shape):
        return cls(np.zeros(tuple(int(s) for s in shape) + (3,)))

    def apply(self, pts):
        return pts + trilinear_sample(self.displacement, pts)

    def jacobian(self, pts):
        return self.jacobian_with_flags(pts)[0]

    def jacobian_with_flags(self, pts):
        """Central differences of the map, step 1 voxel.

        Near the domain edge the stencil is clamped, degrading to one-sided
        differences; the returned mask marks those points.
        """
        n = len(pts)
        jac = np.empty((n, 3, 3), dtype=np.float64)
        one_sided = np.zeros(n, dtype=bool)
        hi = np.asarray(self.shape, dtype=np.float64) - 1.0
        for ax in range(3):
            step = np.zeros(3)
            step[ax] = 1.0
            pp = pts + step
            pm = pts - step
            # Clamp the stencil endpoints onto the domain along this axis only.
            pp_ax = np.minimum(pp[:, ax], hi[ax])
            pm_ax = np.maximum(pm[:, ax], 0.0)
            pp[:, ax] = pp_ax
            pm[:, ax] = pm_ax
            denom = pp_ax - pm_ax
            degenerate = denom <= 0
            one_sided |= denom < 2.0 - 1e-12
            denom = np.where(degenerate, 1.0, denom)
            fp = pp + trilinear_sample(self.displacement, pp)
            fm = pm + trilinear_sample(self.displacement, pm)
            col = (fp - fm) / denom[:, None]
            col[degenerate] = np.eye(3)[:, ax]
            jac[:, :, ax] = col
        return jac, one_sided

    def __repr__(self):
        return f"DenseTransform(shape={self.shape})"


def identity_transform() -> TranslationTransform:
    return TranslationTransform((0.0, 0.0, 0.0))


def evaluate(t: Transform, p):
    """Evaluate t at a point (3,) or batch (N, 3) of points."""
    pts, single = _as_points(p)
    out = t.apply(pts)
    return out[0] if single else out


def dense(t: Transform, shape) -> DenseTransform:
    """t sampled at the voxel centers of shape; a DenseTransform comes back as it is."""
    if isinstance(t, DenseTransform):
        return t
    grid = grid_points(shape).reshape(-1, 3)
    return DenseTransform((t.apply(grid) - grid).reshape(tuple(shape) + (3,)))


def _domain_shape_of(t: Transform):
    if isinstance(t, DenseTransform):
        return t.shape
    if isinstance(t, BSplineTransform):
        return t.domain_shape
    return None


def compose(outer: Transform, inner: Transform, shape=None) -> DenseTransform:
    """Dense composition (outer o inner) sampled at every voxel center.

    The outer transform is evaluated analytically (or, for dense fields,
    interpolated) at inner(y); the inner transform supplies the grid when
    no explicit shape is given.
    """
    if shape is None:
        shape = _domain_shape_of(inner)
    if shape is None:
        raise ValueError("composition needs a grid shape when the inner transform has none")
    shape = tuple(int(s) for s in shape)
    if isinstance(inner, DenseTransform) and inner.shape != shape:
        raise ValueError(f"shape mismatch: inner grid {inner.shape} vs requested {shape}")
    if isinstance(outer, DenseTransform) and isinstance(inner, DenseTransform) and outer.shape != inner.shape:
        raise ValueError(f"shape mismatch: outer grid {outer.shape} vs inner grid {inner.shape}")
    grid = grid_points(shape).reshape(-1, 3)
    mapped = outer.apply(inner.apply(grid))
    return DenseTransform((mapped - grid).reshape(shape + (3,)))


@dataclass(frozen=True)
class InversionResult:
    """Inverse transform plus the achieved round-trip residual."""

    transform: Transform
    residual: float
    iterations: int


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


def invert(t: Transform, tol: float = 1e-3, max_iter: int = 50) -> InversionResult:
    """Invert a transform.

    Translations and affines invert in closed form with zero residual.
    B-spline and dense transforms run the fixed-point iteration
    v <- -u(y + v) on their own grid and report the round-trip residual
    max_y ||t(t^-1(y)) - y||; a residual above 10*tol raises.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("inversion needs tol > 0 and max_iter >= 1")
    if isinstance(t, TranslationTransform):
        return InversionResult(TranslationTransform(-t.offset), 0.0, 0)
    if isinstance(t, AffineTransform):
        a_inv = np.linalg.inv(t.matrix)
        return InversionResult(AffineTransform(a_inv, -a_inv @ t.offset), 0.0, 0)
    shape = _domain_shape_of(t)
    grid = grid_points(shape).reshape(-1, 3)
    positions, residual, iterations = invert_at(t, grid, tol, max_iter)
    inv = DenseTransform((positions - grid).reshape(tuple(shape) + (3,)))
    return InversionResult(inv, residual, iterations)


def jacobian_at(t: Transform, p, return_flag: bool = False):
    """Spatial Jacobian of t at a point or batch of points.

    Analytic for translations (identity), affines (the matrix), and
    B-splines (basis derivatives); central finite differences with a
    1-voxel step for dense fields.  With ``return_flag`` the result also
    reports whether any stencil was clamped one-sided at the boundary.
    """
    pts, single = _as_points(p)
    if isinstance(t, DenseTransform):
        jac, flags = t.jacobian_with_flags(pts)
        flag = bool(flags.any())
    else:
        jac = t.jacobian(pts)
        flag = False
    out = jac[0] if single else jac
    return (out, flag) if return_flag else out
