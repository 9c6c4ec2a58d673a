"""Transform algebra against independent reference implementations.

The oracles here are deliberately naive: nested 1-D lerps for interpolation,
explicit matrix arithmetic for affine composition, and central differences
for Jacobians.  The library must agree with them, not the other way around.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcert.geometry import (
    AffineTransform,
    BSplineTransform,
    ConvergenceError,
    DenseTransform,
    TranslationTransform,
    bspline_control_shape,
    compose,
    dense,
    evaluate,
    grid_points,
    identity_transform,
    invert,
    invert_at,
    jacobian_at,
    trilinear_sample,
)
from regcert.geometry import _bspline_dweights, _bspline_weights


def lerp_sample_oracle(field, p):
    """Trilinear lookup via three nested 1-D lerps, clamping to the edge."""
    out = np.zeros(field.shape[-1])
    q = [min(max(float(c), 0.0), n - 1.0) for c, n in zip(p, field.shape[:3])]
    idx = [min(int(np.floor(c)), n - 2) if n > 1 else 0 for c, n in zip(q, field.shape[:3])]
    frac = [c - i for c, i in zip(q, idx)]
    for ch in range(field.shape[-1]):
        planes = []
        for dx in range(2):
            rows = []
            for dy in range(2):
                a = field[idx[0] + dx, idx[1] + dy, idx[2], ch]
                b = field[idx[0] + dx, idx[1] + dy, min(idx[2] + 1, field.shape[2] - 1), ch]
                rows.append(a + frac[2] * (b - a))
            planes.append(rows[0] + frac[1] * (rows[1] - rows[0]))
        out[ch] = planes[0] + frac[0] * (planes[1] - planes[0])
    return out


def fancy_index_trilinear_oracle(field, pts):
    """Trilinear sampling by 3-array fancy indexing, one gather per corner.

    Same corner order, weights and float64 accumulation as the library, so
    the two must agree bit for bit.
    """
    scalar = field.ndim == 3
    data = field[..., None] if scalar else field
    shape = data.shape[:3]
    idx0, idx1, frac = [], [], []
    for ax in range(3):
        n = shape[ax]
        x = np.clip(pts[:, ax], 0.0, n - 1.0)
        if n == 1:
            i0 = np.zeros(len(x), dtype=np.intp)
        else:
            i0 = np.minimum(np.floor(x).astype(np.intp), n - 2)
        idx0.append(i0)
        idx1.append(np.minimum(i0 + 1, n - 1))
        frac.append((x - i0).astype(np.float64))
    tx, ty, tz = frac
    out = np.zeros((len(pts), data.shape[3]), dtype=np.float64)
    for cx, wx in ((idx0[0], 1.0 - tx), (idx1[0], tx)):
        for cy, wy in ((idx0[1], 1.0 - ty), (idx1[1], ty)):
            wxy = wx * wy
            for cz, wz in ((idx0[2], 1.0 - tz), (idx1[2], tz)):
                out += (wxy * wz)[:, None] * data[cx, cy, cz]
    return out[:, 0] if scalar else out


def affine_compose_oracle(ao, bo, ai, bi):
    """(A_o, b_o) o (A_i, b_i) by hand: x -> A_o A_i x + A_o b_i + b_o."""
    return ao @ ai, ao @ bi + bo


def fd_jacobian_oracle(t, p, h=0.01):
    probes = np.repeat(p[None, :], 6, axis=0)
    for ax in range(3):
        probes[2 * ax, ax] += h
        probes[2 * ax + 1, ax] -= h
    images = t.apply(probes)
    return np.stack([(images[2 * ax] - images[2 * ax + 1]) / (2.0 * h) for ax in range(3)], axis=-1)


def small_affine(rng):
    a = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    return AffineTransform(a, rng.standard_normal(3))


# ---------------------------------------------------------------------------
# grids and evaluation


def test_grid_points_layout():
    g = grid_points((2, 3, 4))
    assert g.shape == (2, 3, 4, 3)
    assert np.array_equal(g[1, 2, 3], [1.0, 2.0, 3.0])
    assert np.array_equal(g[0, 0, 0], [0.0, 0.0, 0.0])


def test_evaluate_single_and_batch_shapes():
    t = TranslationTransform((1.0, 2.0, 3.0))
    assert evaluate(t, (0.0, 0.0, 0.0)).shape == (3,)
    assert evaluate(t, np.zeros((5, 3))).shape == (5, 3)
    assert np.allclose(evaluate(t, (1.0, 1.0, 1.0)), [2.0, 3.0, 4.0])


def test_non_finite_point_rejected():
    t = identity_transform()
    with pytest.raises(ValueError, match="invalid point"):
        evaluate(t, (np.nan, 0.0, 0.0))
    with pytest.raises(ValueError, match="invalid point"):
        evaluate(t, (np.inf, 0.0, 0.0))


# ---------------------------------------------------------------------------
# dense interpolation vs the nested-lerp oracle


def test_dense_apply_matches_nested_lerp_oracle():
    rng = np.random.default_rng(0)
    disp = rng.standard_normal((5, 6, 7, 3))
    t = DenseTransform(disp)
    # Points inside, on the edge, and outside (exercises clamping).
    pts = rng.uniform(-1.0, 7.5, size=(200, 3))
    got = t.apply(pts)
    want = np.array([p + lerp_sample_oracle(disp, p) for p in pts])
    assert np.max(np.abs(got - want)) < 1e-12


def test_dense_sampling_exact_at_voxel_centers():
    rng = np.random.default_rng(1)
    disp = rng.standard_normal((4, 4, 4, 3))
    g = grid_points((4, 4, 4)).reshape(-1, 3)
    # The interpolant itself returns stored values bitwise at centers;
    # apply() adds the coordinate back, which costs one rounding.
    assert np.array_equal(trilinear_sample(disp, g), disp.reshape(-1, 3))
    t = DenseTransform(disp)
    assert np.max(np.abs(t.apply(g) - g - disp.reshape(-1, 3))) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [None, 3, 4])
@pytest.mark.parametrize("shape", [(5, 6, 7), (4, 1, 6)])
def test_trilinear_sample_bitwise_matches_fancy_index_oracle(shape, channels, dtype):
    rng = np.random.default_rng(11)
    field = rng.standard_normal(shape + ((channels,) if channels else ())).astype(dtype)
    # Points inside, outside the domain on every side, and at exact voxel
    # coordinates (integers, including the last index of each axis).
    pts = rng.uniform(-2.0, 9.0, size=(300, 3))
    pts[:60] = rng.integers(0, shape, size=(60, 3))
    pts[60] = np.asarray(shape) - 1.0
    got = trilinear_sample(field, pts)
    want = fancy_index_trilinear_oracle(field, pts)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dense_identity_is_identity():
    t = DenseTransform.identity((3, 4, 5))
    g = grid_points((3, 4, 5)).reshape(-1, 3)
    assert np.array_equal(t.apply(g), g)


def test_dense_requires_three_channels():
    with pytest.raises(ValueError):
        DenseTransform(np.zeros((4, 4, 4, 2)))


# ---------------------------------------------------------------------------
# linear transforms


def test_translation_apply_and_jacobian():
    t = TranslationTransform((1.5, -0.75, 0.5))
    p = np.array([2.0, 3.0, 4.0])
    assert np.array_equal(t.apply(p), [3.5, 2.25, 4.5])
    assert np.array_equal(jacobian_at(t, p), np.eye(3))


def test_affine_apply_matches_matrix_arithmetic():
    rng = np.random.default_rng(2)
    t = small_affine(rng)
    pts = rng.standard_normal((50, 3))
    want = pts @ t.matrix.T + t.offset
    assert np.max(np.abs(t.apply(pts) - want)) < 1e-12
    assert np.array_equal(jacobian_at(t, pts[0]), t.matrix)


@pytest.mark.parametrize("pts_shape", [(3,), (1, 3), (50, 3)])
def test_affine_apply_point_shapes(pts_shape):
    rng = np.random.default_rng(12)
    t = small_affine(rng)
    pts = rng.standard_normal(pts_shape)
    got = t.apply(pts)
    want = pts @ t.matrix.T + t.offset
    assert got.shape == pts_shape
    # Only the summation order of a 3-term dot product may differ.
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


def test_center_fixed_fixes_center():
    rng = np.random.default_rng(3)
    a = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    c = np.array([7.5, 7.5, 7.5])
    t = AffineTransform.center_fixed(a, c)
    assert np.max(np.abs(t.apply(c) - c)) < 1e-9
    t2 = AffineTransform.center_fixed(a, c, extra_offset=(1.0, 2.0, 3.0))
    assert np.max(np.abs(t2.apply(c) - (c + [1.0, 2.0, 3.0]))) < 1e-9


def test_singular_affine_rejected():
    a = np.eye(3)
    a[2, 2] = 0.0
    with pytest.raises(ValueError, match="singular"):
        AffineTransform(a, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# composition


def test_compose_affines_matches_matrix_oracle():
    rng = np.random.default_rng(4)
    outer, inner = small_affine(rng), small_affine(rng)
    shape = (6, 7, 8)
    dense = compose(outer, inner, shape=shape)
    a, b = affine_compose_oracle(outer.matrix, outer.offset, inner.matrix, inner.offset)
    g = grid_points(shape).reshape(-1, 3)
    want = g @ a.T + b
    got = g + dense.displacement.reshape(-1, 3)
    assert np.max(np.abs(got - want)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_compose_is_associative_on_affines(seed):
    rng = np.random.default_rng(seed)

    def tiny_affine():
        return AffineTransform(np.eye(3) + 0.02 * rng.standard_normal((3, 3)),
                               0.3 * rng.standard_normal(3))

    f, g, h = (tiny_affine() for _ in range(3))
    shape = (8, 8, 8)
    left = compose(compose(f, g, shape=shape), h, shape=shape)
    right = compose(f, compose(g, h, shape=shape), shape=shape)
    # Affine displacements are linear in position, so interpolating the inner
    # dense field is exact as long as the maps stay inside the grid; compare
    # on the central block where small maps cannot reach the clamped edge.
    d = np.abs(left.displacement - right.displacement)[2:6, 2:6, 2:6]
    assert np.max(d) < 1e-9


def test_dense_keeps_a_field_and_samples_other_transforms_at_the_grid():
    rng = np.random.default_rng(8)
    shape = (6, 7, 5)
    field = DenseTransform(rng.standard_normal(shape + (3,)))
    assert dense(field, shape) is field
    control = rng.uniform(-1.0, 1.0, size=bspline_control_shape(shape, 3) + (3,))
    g = grid_points(shape).reshape(-1, 3)
    for t in (small_affine(rng), BSplineTransform(3, control, shape)):
        d = dense(t, shape)
        assert isinstance(d, DenseTransform) and d.shape == shape
        assert np.max(np.abs(d.apply(g) - t.apply(g))) < 1e-12


def test_compose_needs_shape_for_analytic_inner():
    with pytest.raises(ValueError, match="needs a grid shape"):
        compose(TranslationTransform((1, 0, 0)), TranslationTransform((0, 1, 0)))


def test_compose_shape_mismatch_rejected():
    inner = DenseTransform.identity((4, 4, 4))
    with pytest.raises(ValueError, match="shape mismatch: inner grid"):
        compose(TranslationTransform((1, 0, 0)), inner, shape=(5, 5, 5))
    outer = DenseTransform.identity((5, 5, 5))
    with pytest.raises(ValueError, match="shape mismatch: outer grid"):
        compose(outer, inner)


# ---------------------------------------------------------------------------
# B-splines


def test_bspline_control_shape_covers_domain():
    assert bspline_control_shape((16, 16, 16), 10) == (5, 5, 5)
    assert bspline_control_shape((21, 16, 32), 10) == (6, 5, 7)


def test_bspline_partition_of_unity():
    # Constant control displacements must reproduce that constant everywhere:
    # the cubic basis functions sum to one.
    shape = (20, 18, 16)
    cshape = bspline_control_shape(shape, 5)
    v = np.array([0.7, -1.3, 2.1])
    control = np.broadcast_to(v, cshape + (3,)).copy()
    t = BSplineTransform(5, control, shape)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, np.array(shape) - 1.0, size=(300, 3))
    disp = t.apply(pts) - pts
    assert np.max(np.abs(disp - v)) < 1e-12


def test_bspline_jacobian_matches_finite_differences():
    shape = (20, 20, 20)
    rng = np.random.default_rng(6)
    control = rng.uniform(-2.0, 2.0, size=bspline_control_shape(shape, 4) + (3,))
    t = BSplineTransform(4, control, shape)
    pts = rng.uniform(2.0, 17.0, size=(50, 3))
    jac = t.jacobian(pts)
    for p, j in zip(pts, jac):
        assert np.max(np.abs(j - fd_jacobian_oracle(t, p))) < 1e-4


def bspline_reference(t, pts, deriv_axis=None):
    """The earlier B-spline evaluation: a 64-node gather per point and two full einsums.

    Returns u at the points, or the column of Du for ``deriv_axis``.
    """
    base, frac = t._base_and_frac(pts)
    nb, nc = t.control.shape[1], t.control.shape[2]
    off = np.arange(4)
    flat = (
        (base[0][:, None] + off)[:, :, None, None] * (nb * nc)
        + (base[1][:, None] + off)[:, None, :, None] * nc
        + (base[2][:, None] + off)[:, None, None, :]
    )
    block = t.control.reshape(-1, 3)[flat.reshape(len(pts), 64)].reshape(len(pts), 4, 4, 4, 3)
    w = [_bspline_weights(f) for f in frac]
    if deriv_axis is not None:
        w[deriv_axis] = _bspline_dweights(frac[deriv_axis]) / t.grid_spacing
    wt = np.einsum("an,bn,cn->nabc", *w)
    return np.einsum("nabc,nabci->ni", wt, block)


def _bspline_probe_points(shape, h, rng):
    """Interior points, knots, the far domain edge, and points outside every side."""
    hi = np.array(shape, dtype=np.float64) - 1.0
    inside = rng.uniform(0.0, hi, size=(200, 3))
    knots = np.stack(np.meshgrid(*[np.arange(0.0, n, h) for n in shape], indexing="ij"), -1)
    edge = rng.uniform(0.0, hi, size=(3, 3))
    edge[np.arange(3), np.arange(3)] = hi
    corner = hi[None, :]
    outside = []
    for ax in range(3):
        for v in (-3.7, -0.5, hi[ax] + 0.5, hi[ax] + 6.2):
            p = rng.uniform(0.0, hi, size=3)
            p[ax] = v
            outside.append(p)
    return np.concatenate([inside, knots.reshape(-1, 3), edge, corner, outside])


BSPLINE_LATTICES = {
    # Anisotropic: a swapped y/z cell stride changes the answer.
    "anisotropic": ((12, 23, 37), 5, (0, 0, 0)),
    # Control grid larger than bspline_control_shape on every axis.
    "oversized": ((14, 11, 17), 4, (2, 1, 3)),
}


def _bspline_case(lattice, seed):
    shape, h, extra = BSPLINE_LATTICES[lattice]
    rng = np.random.default_rng(seed)
    cshape = tuple(n + e for n, e in zip(bspline_control_shape(shape, h), extra))
    t = BSplineTransform(h, rng.uniform(-3.0, 3.0, size=cshape + (3,)), shape)
    return t, _bspline_probe_points(shape, h, rng)


@pytest.mark.parametrize("lattice", sorted(BSPLINE_LATTICES))
def test_bspline_matches_64_node_reference(lattice):
    t, pts = _bspline_case(lattice, 14)
    # float64 rounding over 64 terms of size <= max|control|.
    tol = 1e-13 * max(1.0, float(np.max(np.abs(t.control))))
    assert np.max(np.abs(t.displacement(pts) - bspline_reference(t, pts))) <= tol
    jac = t.displacement_jacobian(pts)
    for ax in range(3):
        assert np.max(np.abs(jac[:, :, ax] - bspline_reference(t, pts, ax))) <= tol


@pytest.mark.parametrize("lattice", sorted(BSPLINE_LATTICES))
def test_bspline_chunking_is_bitwise_invisible(lattice, monkeypatch):
    t, pts = _bspline_case(lattice, 15)
    whole = (t.displacement(pts), t.displacement_jacobian(pts))
    monkeypatch.setattr(BSplineTransform, "_CHUNK", 7)
    chunked = (t.displacement(pts), t.displacement_jacobian(pts))
    for a, b in zip(whole, chunked):
        assert a.tobytes() == b.tobytes()


def test_bspline_spacing_validation():
    with pytest.raises(ValueError, match=">= 2"):
        BSplineTransform(1, np.zeros((4, 4, 4, 3)), (4, 4, 4))


def test_bspline_control_cover_validation():
    with pytest.raises(ValueError):
        BSplineTransform(5, np.zeros((3, 3, 3, 3)), (20, 20, 20))


def test_bspline_non_finite_control_rejected():
    cshape = bspline_control_shape((10, 10, 10), 4)
    control = np.zeros(cshape + (3,))
    control[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        BSplineTransform(4, control, (10, 10, 10))


# ---------------------------------------------------------------------------
# dense Jacobians


def test_dense_jacobian_recovers_affine_matrix():
    rng = np.random.default_rng(7)
    aff = small_affine(rng)
    shape = (10, 10, 10)
    dense = compose(aff, DenseTransform.identity(shape))
    interior = np.array([[3.0, 4.0, 5.0], [6.0, 2.0, 7.0]])
    jac, flags = dense.jacobian_with_flags(interior)
    assert np.max(np.abs(jac - aff.matrix)) < 1e-6
    assert not flags.any()


def test_dense_jacobian_boundary_flagged_one_sided():
    dense = DenseTransform.identity((6, 6, 6))
    _, flags = dense.jacobian_with_flags(np.array([[0.0, 3.0, 3.0], [5.0, 3.0, 3.0]]))
    assert flags.all()
    _, flags = dense.jacobian_with_flags(np.array([[2.0, 3.0, 3.0]]))
    assert not flags.any()


def test_jacobian_at_with_flag():
    j, flag = jacobian_at(DenseTransform.identity((6, 6, 6)), (0.0, 0.0, 0.0), return_flag=True)
    assert np.allclose(j, np.eye(3))
    assert flag


# ---------------------------------------------------------------------------
# inversion


def test_linear_inverse_is_closed_form():
    rng = np.random.default_rng(8)
    for t in (TranslationTransform((1.5, -0.75, 0.5)), small_affine(rng)):
        res = invert(t)
        assert res.residual == 0.0
        assert res.iterations == 0
        pts = rng.standard_normal((20, 3))
        assert np.max(np.abs(res.transform.apply(t.apply(pts)) - pts)) < 1e-9


def test_spline_inverse_round_trip():
    shape = (24, 24, 24)
    rng = np.random.default_rng(9)
    control = rng.uniform(-1.0, 1.0, size=bspline_control_shape(shape, 4) + (3,))
    t = BSplineTransform(4, control, shape)
    res = invert(t)
    assert res.residual < 5e-3
    g = grid_points(shape).reshape(-1, 3)
    back = t.apply(res.transform.apply(g))
    assert np.max(np.linalg.norm(back - g, axis=1)) <= res.residual + 1e-12


def test_invert_at_matches_grid_inverse():
    shape = (16, 16, 16)
    rng = np.random.default_rng(10)
    control = rng.uniform(-0.8, 0.8, size=bspline_control_shape(shape, 4) + (3,))
    t = BSplineTransform(4, control, shape)
    g = grid_points(shape).reshape(-1, 3)
    res = invert(t, tol=1e-6, max_iter=100)
    pos, residual, iters = invert_at(t, g, tol=1e-6, max_iter=100)
    assert np.max(np.abs(pos - res.transform.apply(g))) < 1e-12
    assert residual == res.residual
    assert iters >= 1


def test_invert_at_off_grid_round_trip():
    shape = (16, 16, 16)
    rng = np.random.default_rng(11)
    control = rng.uniform(-0.8, 0.8, size=bspline_control_shape(shape, 4) + (3,))
    t = BSplineTransform(4, control, shape)
    pts = rng.uniform(1.0, 14.0, size=(100, 3))
    pos, residual, _ = invert_at(t, pts, tol=1e-6, max_iter=100)
    assert residual <= 1e-5
    assert np.max(np.linalg.norm(t.apply(pos) - pts, axis=1)) <= residual + 1e-15


def test_invert_at_validation():
    t = identity_transform()
    with pytest.raises(ValueError, match="tol > 0"):
        invert_at(t, np.zeros((1, 3)), tol=0.0)
    with pytest.raises(ValueError, match="max_iter >= 1"):
        invert_at(t, np.zeros((1, 3)), max_iter=0)


def test_folding_field_fails_inversion_honestly():
    # Node displacements of +-8 voxels on a 4-voxel grid fold the domain;
    # the fixed point cannot reach the tolerance and must say so.
    shape = (16, 16, 16)
    rng = np.random.default_rng(12)
    control = rng.uniform(-8.0, 8.0, size=bspline_control_shape(shape, 4) + (3,))
    t = BSplineTransform(4, control, shape)
    with pytest.raises(ConvergenceError, match="inversion failed"):
        invert(t, tol=1e-4, max_iter=30)
