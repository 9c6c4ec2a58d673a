"""Backends: the analytic oracle and the two classical solvers.

Solver bounds are frozen from reference runs on the blobs phantom; they are
regression tests, not statements about solver quality in general.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

# The reference for register._gaussian; only the tests load scipy
# (see test_stages_run_without_scipy).
from scipy.ndimage import gaussian_filter

from regcert.geometry import (
    AffineTransform,
    BSplineTransform,
    TranslationTransform,
    bspline_control_shape,
    compose,
    dense,
    grid_points,
    trilinear_sample,
)
from regcert.perturb import PerturbSpec, sample_perturbation
from regcert import register
from regcert.register import (
    TAU_SCALE_FUNCTIONS,
    AffineSsdBackend,
    DemonsBackend,
    ErrorModel,
    OracleBackend,
    affine_ssd_register,
    demons_register,
)
from regcert.volume import Volume3, make_phantom, warp

from closed_form import blank, demons_reference

PHI = TranslationTransform((1.5, -0.75, 0.5))


# ---------------------------------------------------------------------------
# error model


def test_scalar_sigma_becomes_isotropic_covariance():
    m = ErrorModel(sigma=0.5)
    assert np.array_equal(m.sigma, 0.25 * np.eye(3))
    assert np.allclose(m._factor @ m._factor.T, m.sigma, atol=1e-12)


def test_matrix_sigma_factor_reproduces_covariance():
    s = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
    m = ErrorModel(sigma=s)
    f = m.factor(TranslationTransform((0.0, 0.0, 0.0)))
    assert np.allclose(f @ f.T, s, atol=1e-12)


def test_singular_covariance_accepted_zero_negative_rejected():
    ErrorModel(sigma=np.diag([0.0, 0.0, 1.0]))  # PSD but singular: fine
    with pytest.raises(ValueError, match="positive semidefinite"):
        ErrorModel(sigma=np.diag([-0.1, 1.0, 1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        ErrorModel(sigma=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match=">= 0"):
        ErrorModel(sigma=-0.5)


def test_mu_validation():
    with pytest.raises(ValueError, match="finite 3-vector"):
        ErrorModel(mu=(np.nan, 0.0, 0.0))
    with pytest.raises(ValueError, match="mu_field"):
        ErrorModel(mu_field=np.zeros((4, 4, 4, 2)))


@pytest.mark.parametrize("seed", [-1, 2.7, True])
def test_error_model_rejects_bad_seeds(seed):
    # Rejected where the model is built, not at its first sample.
    with pytest.raises(ValueError, match="seed"):
        ErrorModel(sigma=0.5, seed=seed)
    assert ErrorModel(sigma=0.5, seed=2.0).seed == 2


def test_unknown_scale_function_rejected():
    with pytest.raises(ValueError, match="unknown scale function"):
        ErrorModel(mu=(1.0, 0.0, 0.0), mu_scale="cube")


def test_tau_scale_functions_hand_values():
    t = AffineTransform(np.diag([2.0, 3.0, 4.0]), (3.0, 4.0, 0.0))
    assert TAU_SCALE_FUNCTIONS["one"](t) == 1.0
    assert TAU_SCALE_FUNCTIONS["mean_diag"](t) == 3.0
    assert TAU_SCALE_FUNCTIONS["det"](t) == pytest.approx(24.0)
    assert TAU_SCALE_FUNCTIONS["offset_norm"](t) == pytest.approx(5.0)
    tr = TranslationTransform((0.0, 3.0, 4.0))
    assert TAU_SCALE_FUNCTIONS["mean_diag"](tr) == 1.0
    assert TAU_SCALE_FUNCTIONS["offset_norm"](tr) == pytest.approx(5.0)


def test_scale_functions_reject_non_linear_perturbations():
    m = ErrorModel(mu=(1.0, 0.0, 0.0), mu_scale="det")
    from regcert.geometry import DenseTransform

    with pytest.raises(ValueError, match="translation/affine"):
        m.mean(DenseTransform(np.zeros((4, 4, 4, 3))), np.zeros((2, 3)))


def test_mu_field_is_interpolated():
    field = grid_points((6, 6, 6))  # mu(y) = y
    m = ErrorModel(mu_field=field)
    pts = np.array([[1.25, 2.5, 3.75], [0.0, 0.0, 5.0]])
    mean = m.mean(TranslationTransform((0.0, 0.0, 0.0)), pts)
    assert np.allclose(mean, pts, atol=1e-12)
    # np.einsum("nij,nj->ni", ...) of the jitter moments sums in an order
    # that depends on the operand's strides.
    assert mean.flags.c_contiguous


def test_sigma_scale_scales_covariance():
    t = AffineTransform(np.diag([2.0, 2.0, 2.0]), (0.0, 0.0, 0.0))
    m = ErrorModel(sigma=0.5, sigma_scale="mean_diag")
    assert np.allclose(m.cov(t), 2.0 * 0.25 * np.eye(3), atol=1e-12)
    f = m.factor(t)
    assert np.allclose(f @ f.T, m.cov(t), atol=1e-12)


# ---------------------------------------------------------------------------
# oracle backend


def test_oracle_zero_noise_returns_exact_composition():
    shape = (8, 8, 8)
    backend = OracleBackend(PHI, ErrorModel())
    out = backend.register(blank(shape), blank(shape), perturbation=None).transform
    g = grid_points(shape).reshape(-1, 3)
    assert np.max(np.abs(out.displacement.reshape(-1, 3) - PHI.offset)) < 1e-12

    tau = TranslationTransform((0.4, -0.2, 0.1))
    out2 = backend.register(blank(shape), blank(shape), perturbation=tau).transform
    want = PHI.offset - tau.offset  # tau^-1 o phi for translations
    assert np.max(np.abs(out2.displacement.reshape(-1, 3) - want)) < 1e-12


def test_oracle_constant_bias_added_exactly():
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(mu=(1.0, 0.0, 0.0)))
    out = backend.register(blank(shape), blank(shape), perturbation=None).transform
    want = PHI.offset + [1.0, 0.0, 0.0]
    assert np.max(np.abs(out.displacement.reshape(-1, 3) - want)) < 1e-12


def test_oracle_noise_deterministic_in_nonce():
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.3, seed=5))
    a = backend.register(blank(shape), blank(shape), nonce=2).transform
    b = backend.register(blank(shape), blank(shape), nonce=2).transform
    c = backend.register(blank(shape), blank(shape), nonce=3).transform
    assert np.array_equal(a.displacement, b.displacement)
    assert not np.array_equal(a.displacement, c.displacement)


def test_oracle_equivariance_with_zero_error_model():
    # Mapping the perturbed-frame output back through tau recovers the
    # unperturbed transform, up to the inversion residual.
    shape = (10, 10, 10)
    backend = OracleBackend(PHI, ErrorModel())
    g = grid_points(shape).reshape(-1, 3)
    want = PHI.apply(g)

    tau_lin = sample_perturbation(
        PerturbSpec(family="affine", shape=shape, seed=3, count=4), 1
    )
    fitted = backend.register(blank(shape), blank(shape), perturbation=tau_lin).transform
    got = tau_lin.apply(g + fitted.displacement.reshape(-1, 3))
    assert np.max(np.linalg.norm(got - want, axis=1)) < 1e-9

    tau_def = sample_perturbation(
        PerturbSpec(family="deform", shape=shape, seed=3, count=4, deform_strength=0.05), 1
    )
    _, residual = backend.inverse_positions(tau_def, want)
    fitted = backend.register(blank(shape), blank(shape), perturbation=tau_def).transform
    got = tau_def.apply(g + fitted.displacement.reshape(-1, 3))
    assert np.max(np.linalg.norm(got - want, axis=1)) <= 2.0 * residual + 1e-9


def test_oracle_returns_its_inversion_read_only():
    model = ErrorModel(mu=(0.2, 0.0, 0.1), sigma=0.3, seed=5)
    backend = OracleBackend(PHI, model, lenient_inversion=True)
    shape = (6, 6, 6)
    grid = grid_points(shape).reshape(-1, 3)
    phi_pos = PHI.apply(grid)
    tau = sample_perturbation(PerturbSpec(family="deform", shape=shape, seed=1, count=3), 2)
    reg = backend.register(blank(shape), blank(shape), perturbation=tau, nonce=2)
    want, residual = backend.inverse_positions(tau, phi_pos)
    assert reg.inverted_positions.tobytes() == want.tobytes()
    assert reg.inversion_residual == residual > 0.0
    unperturbed = backend.register(blank(shape), blank(shape))
    assert unperturbed.inverted_positions.tobytes() == phi_pos.tobytes()
    assert unperturbed.inversion_residual == 0.0
    # The noise is the draw of stream (seed, nonce) at tau (the zero shift
    # without a perturbation), and the transform is v + eps - y.
    for r, tau_eff, nonce in ((reg, tau, 2), (unperturbed, TranslationTransform((0, 0, 0)), 0)):
        assert r.noise.tobytes() == model.sample(tau_eff, grid, nonce).tobytes()
        moved = (r.inverted_positions + r.noise - grid).reshape(shape + (3,))
        assert r.transform.displacement.tobytes() == moved.tobytes()
    for arr in (reg.inverted_positions, unperturbed.inverted_positions, reg.noise,
                unperturbed.noise):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_oracle_grid_slot_follows_the_shape_and_the_true_transform():
    model = ErrorModel(mu=(0.2, 0.0, 0.1), sigma=0.3, seed=5)
    backend = OracleBackend(PHI, model)
    shapes = ((6, 7, 8), (5, 5, 5))
    spec = PerturbSpec(family="affine", shape=shapes[0], seed=1, count=4)
    # Two shapes alternating on one backend, then a new true_transform.
    for phi, shape, n in ((PHI, shapes[0], 0), (PHI, shapes[1], 1), (PHI, shapes[0], 2),
                          (PHI, shapes[1], 3), (AffineTransform(1.1 * np.eye(3), (0.5, 0, 0)),
                                                shapes[1], 3)):
        backend.true_transform = phi
        tau = sample_perturbation(spec, n)
        for perturbation in (tau, None):
            got = backend.register(blank(shape), blank(shape), perturbation=perturbation, nonce=n)
            want = OracleBackend(phi, model).register(blank(shape), blank(shape),
                                                      perturbation=perturbation, nonce=n)
            for arr in ("inverted_positions", "noise"):
                assert getattr(got, arr).tobytes() == getattr(want, arr).tobytes()
            assert got.transform.displacement.tobytes() == want.transform.displacement.tobytes()
            assert got.inversion_residual == want.inversion_residual
        # The unperturbed inversion is phi at the voxel centres.
        phi_pos = phi.apply(grid_points(shape).reshape(-1, 3))
        assert got.inverted_positions.tobytes() == phi_pos.tobytes()
        # The slot's arrays are shared by every sample, so no caller may write them.
        grid, kept = backend._grid_and_phi(shape)
        assert kept is got.inverted_positions
        assert grid.tobytes() == grid_points(shape).reshape(-1, 3).tobytes()
        for arr in (grid, kept):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def test_oracle_rejects_a_mu_field_on_another_grid():
    backend = OracleBackend(PHI, ErrorModel(mu_field=np.zeros((4, 4, 4, 3))))
    assert backend.register(blank((4, 4, 4)), blank((4, 4, 4))).noise.shape == (64, 3)
    with pytest.raises(ValueError, match=r"mu_field is on a \(4, 4, 4\) grid"):
        backend.register(blank((6, 6, 6)), blank((6, 6, 6)))


def test_oracle_noise_variance_matches_model():
    # sigma = 0.5: per-voxel per-axis sample variance over 2000 draws stays
    # in [0.225, 0.275] up to Monte-Carlo scatter (chi-square rel. std.
    # sqrt(2/1999) ~ 3.2%, band is +-10%); the bulk must be inside.
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.5, seed=0))
    draws = 2000
    n = 6 * 6 * 6
    acc = np.zeros((n, 3))
    acc2 = np.zeros((n, 3))
    for m in range(draws):
        fitted = backend.register(blank(shape), blank(shape), nonce=m).transform
        d = fitted.displacement.reshape(-1, 3)
        acc += d
        acc2 += d * d
    var = acc2 / draws - (acc / draws) ** 2
    inside = (var >= 0.225) & (var <= 0.275)
    assert 0.225 <= np.median(var) <= 0.275
    assert 0.225 <= var.mean() <= 0.275
    assert inside.mean() >= 0.99


# ---------------------------------------------------------------------------
# affine SSD solver


def test_affine_ssd_identity_pair_is_identity():
    src = make_phantom((32, 32, 32), "blobs", seed=0)
    r = affine_ssd_register(src, src)
    assert float(np.abs(dense(r.transform, src.shape).displacement).max()) < 0.1
    assert not r.diverged


def test_affine_ssd_recovers_translation():
    src = make_phantom((32, 32, 32), "blobs", seed=0)
    gt = TranslationTransform((4.0, -3.0, 2.0))
    r = affine_ssd_register(src, warp(src, gt))
    assert np.max(np.abs(r.transform.offset - gt.offset)) < 0.5
    assert np.max(np.abs(r.transform.matrix - np.eye(3))) < 1e-3
    assert not r.diverged
    # The log tracks (level, iteration, ssd, step) and SSD never worsens.
    ssds = [row[2] for row in r.log]
    assert len(ssds) > 0 and ssds[-1] <= ssds[0]


def test_affine_ssd_recovers_scale():
    shape = (32, 32, 32)
    src = make_phantom(shape, "blobs", seed=0)
    c = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    gt = AffineTransform.center_fixed(np.diag([1.1, 1.1, 1.1]), c)
    r = affine_ssd_register(src, warp(src, gt))
    assert np.max(np.abs(np.diag(r.transform.matrix) - 1.1)) < 0.02


def row_major_ssd_level(src, tgt, a, b, iters, step, level, log):
    """The solver level with (N, 3) point rows and per-iteration q * q.

    Same steps as register._ssd_level; only the order of the sums differs.
    """
    shape = tgt.shape
    grid = grid_points(shape).reshape(-1, 3)
    center = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    q = grid - center
    tgt_flat = tgt.reshape(-1).astype(np.float64)
    src_and_grad = np.empty(shape + (4,))
    src_and_grad[..., 0] = src
    src_and_grad[..., 1:] = np.stack(np.gradient(src.astype(np.float64)), axis=-1)
    m = len(grid)

    def objective(a_, b_):
        pos = np.einsum("nj,ij->ni", q, a_) + center + b_
        sampled = trilinear_sample(src_and_grad, pos)
        r = sampled[:, 0] - tgt_flat
        return sampled[:, 1:], r, float(np.mean(r * r))

    u = b + a @ center - center
    g, r, e = objective(a, u)
    best_a, best_u, best_e = a.copy(), u.copy(), e
    eta = step
    increases = 0
    diverged = False
    for it in range(iters):
        rg = r[:, None] * g
        grad_a = np.einsum("ni,nj->ij", 2.0 / m * rg, q)
        grad_u = 2.0 / m * rg.sum(axis=0)
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
            if e_n > best_e * 1.05 + 1e-12:
                increases += 1
        log.append((level, it, e, eta))
        if increases >= 10:
            diverged = True
            break
        if eta < 1e-8:
            break
    return best_a, best_u - best_a @ center + center, best_e, diverged


def test_affine_ssd_matches_row_major_reference(monkeypatch):
    shape = (24, 24, 24)
    src = make_phantom(shape, "blobs", seed=0)
    c = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    gt = AffineTransform.center_fixed(
        [[1.06, 0.02, 0.0], [-0.01, 0.97, 0.03], [0.0, 0.01, 1.03]], c, (1.2, -0.8, 0.5)
    )
    # Noise on the target keeps the SSD away from 0, where it is a
    # cancellation and any change of summation order moves it relatively more.
    noise = 0.02 * np.random.default_rng(1).standard_normal(shape)
    tgt = Volume3((warp(src, gt).scalar + noise).astype(np.float32))
    got = affine_ssd_register(src, tgt, levels=2, iters=40)
    monkeypatch.setattr(register, "_ssd_level", row_major_ssd_level)
    want = affine_ssd_register(src, tgt, levels=2, iters=40)
    for x, y in ((got.transform.matrix, want.transform.matrix),
                 (got.transform.offset, want.transform.offset)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
    assert [(row[0], row[1], row[3]) for row in got.log] == [
        (row[0], row[1], row[3]) for row in want.log
    ]
    ssd = np.array([row[2] for row in got.log])
    np.testing.assert_allclose(ssd, [row[2] for row in want.log], rtol=1e-12, atol=0)
    assert got.final_ssd == pytest.approx(want.final_ssd, rel=1e-12)
    assert got.diverged == want.diverged
    assert len(got.log) > 20


def test_affine_ssd_peak_memory_is_one_sample():
    # Criterion 7's solver on 48^3.  At the finest level a trial holds the
    # centred grid, the point rows, the target, the joint intensity and
    # gradient field and one (4, N) sample: about 14 MiB.  Keeping a second
    # sample and its products for the next step was 28 MiB.
    shape = (48, 48, 48)
    src = make_phantom(shape, "blobs", seed=1)
    tgt = warp(src, TranslationTransform((1.3, -0.7, 0.4)))
    tracemalloc.start()
    try:
        affine_ssd_register(src, tgt, levels=3, iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"affine_ssd_register peaked at {peak / 2**20:.1f} MiB"


def test_affine_ssd_validation():
    a = blank((8, 8, 8))
    with pytest.raises(ValueError, match="shape mismatch"):
        affine_ssd_register(a, blank((8, 8, 9)))
    with pytest.raises(ValueError, match="1-channel"):
        affine_ssd_register(Volume3(np.zeros((8, 8, 8, 3))), Volume3(np.zeros((8, 8, 8, 3))))
    with pytest.raises(ValueError, match="levels"):
        affine_ssd_register(a, a, levels=0)


# ---------------------------------------------------------------------------
# Gaussian smoothing: bitwise scipy.ndimage.gaussian_filter(mode="nearest")


def _scipy_gaussian(arr, sigma):
    return gaussian_filter(arr, sigma=sigma, mode="nearest")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.7, 1e-170])
def test_gaussian_is_scipys_bit_for_bit(dtype, sigma):
    arr = np.random.default_rng(3).standard_normal((13, 20, 9)).astype(dtype)
    got = register._gaussian(arr, sigma)
    want = _scipy_gaussian(arr, sigma)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gaussian_axis_shorter_than_its_radius():
    # Radius int(4 * 1.5 + 0.5) = 6 exceeds the first axis: the edge repeats.
    arr = np.random.default_rng(4).standard_normal((3, 20, 9)).astype(np.float32)
    assert register._gaussian(arr, 1.5).tobytes() == _scipy_gaussian(arr, 1.5).tobytes()


def test_pyramid_level_is_filter_then_decimate():
    fine = make_phantom((36, 34, 33), "blobs", seed=2).scalar
    _, coarse = register._pyramid(fine, levels=2)
    want = _scipy_gaussian(fine, 1.0)[::2, ::2, ::2]
    assert coarse.shape == want.shape
    assert coarse.tobytes() == want.tobytes()


def test_one_call_field_smoothing_equals_per_component_loop():
    field = np.random.default_rng(5).standard_normal((10, 12, 11, 3))
    want = field.copy()
    for ax in range(3):
        want[..., ax] = _scipy_gaussian(want[..., ax], 1.0)
    got = register._gaussian(np.ascontiguousarray(np.moveaxis(field, -1, 0)), 1.0)
    assert np.moveaxis(got, 0, -1).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("shape", [(3, 10, 12, 11), (3, 4, 20, 9)])
def test_gaussian_into_its_input_is_scipys_bit_for_bit(shape):
    # Demons smooths its (3, nx, ny, nz) field in place; at sigma 1.5 the
    # radius (6) exceeds the second case's first spatial axis.
    field = np.random.default_rng(6).standard_normal(shape)
    want = gaussian_filter(field, (0.0, 1.5, 1.5, 1.5), mode="nearest")
    got = register._gaussian(field, 1.5, out=field)
    assert got is field
    assert field.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# demons solver


def test_demons_identity_pair_is_identity():
    src = make_phantom((32, 32, 32), "blobs", seed=0)
    r = demons_register(src, src)
    assert float(np.abs(r.transform.displacement).max()) < 0.1


def test_demons_constant_pair_yields_zero_field():
    a = Volume3(np.full((12, 12, 12), 0.25, dtype=np.float32))
    b = Volume3(np.full((12, 12, 12), 0.75, dtype=np.float32))
    r = demons_register(a, b)
    assert np.array_equal(r.transform.displacement, np.zeros((12, 12, 12, 3)))


def test_demons_halves_endpoint_error_on_smooth_warp():
    # Frozen reference run: blobs 32^3, B-spline truth with nodes U(-2, 2)
    # at spacing 8, seed 0 -> mean endpoint error falls 52.6% vs identity.
    shape = (32, 32, 32)
    src = make_phantom(shape, "blobs", seed=0)
    rng = np.random.default_rng(0)
    control = rng.uniform(-2.0, 2.0, size=bspline_control_shape(shape, 8) + (3,))
    gt = BSplineTransform(8, control, shape)
    r = demons_register(src, warp(src, gt))
    g = grid_points(shape).reshape(-1, 3)
    true_pos = gt.apply(g)
    epe0 = np.linalg.norm(true_pos - g, axis=1).mean()
    epe1 = np.linalg.norm(g + r.transform.displacement.reshape(-1, 3) - true_pos, axis=1).mean()
    assert 1.0 - epe1 / epe0 >= 0.5
    assert r.iterations == 60


def test_demons_final_ssd_describes_the_returned_field():
    src = make_phantom((16, 16, 16), "blobs", seed=0)
    tgt = warp(src, TranslationTransform((1.5, 0.0, 0.0)))
    reg = demons_register(src, tgt, iters=1)
    g = grid_points(src.shape).reshape(-1, 3)
    warped = trilinear_sample(src.scalar, reg.transform.apply(g))
    want = float(np.mean((tgt.scalar.astype(np.float64).ravel() - warped) ** 2))
    assert reg.final_ssd == pytest.approx(want, rel=1e-12)
    # The one log row describes the identity field the update started from.
    assert reg.final_ssd < reg.log[0][1]


@pytest.mark.parametrize("shape", [(16, 16, 16), (16, 18, 20)])
@pytest.mark.parametrize("smooth_sigma", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("iters", [1, 3])
def test_demons_equals_reference_loop_bitwise(shape, smooth_sigma, iters):
    src = make_phantom(shape, "blobs", seed=0)
    rng = np.random.default_rng(7)
    control = rng.uniform(-1.5, 1.5, size=bspline_control_shape(shape, 4) + (3,))
    tgt = warp(src, BSplineTransform(4, control, shape))
    got = demons_register(src, tgt, iters=iters, smooth_sigma=smooth_sigma)
    disp, log, final_ssd = demons_reference(src, tgt, iters, smooth_sigma)
    assert got.transform.displacement.tobytes() == np.ascontiguousarray(disp).tobytes()
    assert got.log == log
    assert got.final_ssd == final_ssd


def test_demons_peak_memory_is_a_few_fields():
    # 32^3: the field, the positions that become the gradient, four scalar
    # maps and the smoothing's pad, accumulator and pair, about 5 MiB.  Fresh
    # arrays for every step peaked at 7.7 MiB.
    shape = (32, 32, 32)
    src = make_phantom(shape, "blobs", seed=0)
    tgt = warp(src, TranslationTransform((1.3, -0.7, 0.4)))
    tracemalloc.start()
    try:
        demons_register(src, tgt, iters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25 * 2**20, f"demons_register peaked at {peak / 2**20:.1f} MiB"


def test_demons_validation():
    a = blank((8, 8, 8))
    with pytest.raises(ValueError, match="shape mismatch"):
        demons_register(a, blank((9, 8, 8)))
    with pytest.raises(ValueError, match="iters"):
        demons_register(a, a, iters=0)
    # A size-1 axis has no gradient, in the solver as in np.gradient.
    flat = blank((1, 8, 8))
    with pytest.raises(ValueError):
        demons_reference(flat, flat, 1, 1.0)
    with pytest.raises(ValueError, match="2 voxels"):
        demons_register(flat, flat)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_solvers_reject_non_finite_parameters(bad):
    a = blank((8, 8, 8))
    # NaN fails every comparison, so a sign test alone lets it through: a NaN
    # smooth_sigma would run unsmoothed, as sigma 0 does.
    with pytest.raises(ValueError, match="step"):
        AffineSsdBackend(step=bad)
    with pytest.raises(ValueError, match="step"):
        affine_ssd_register(a, a, step=bad)
    with pytest.raises(ValueError, match="smooth_sigma"):
        DemonsBackend(smooth_sigma=bad)
    with pytest.raises(ValueError, match="smooth_sigma"):
        demons_register(a, a, smooth_sigma=bad)


# ---------------------------------------------------------------------------
# backend wrappers


def test_backend_wrappers_expose_names_and_register():
    src = make_phantom((16, 16, 16), "blobs", seed=0)
    for backend in (AffineSsdBackend(levels=2, iters=5, step=0.5), DemonsBackend(iters=5)):
        out = dense(backend.register(src, src, perturbation=None, nonce=0).transform, src.shape)
        assert out.shape == (16, 16, 16)
        assert np.all(np.isfinite(out.displacement))


def test_registration_carries_the_solver_log():
    def same(reg, direct):
        # Transforms compare by their arrays; every other field by value.
        assert replace(reg, transform=None) == replace(direct, transform=None)
        assert np.array_equal(dense(reg.transform, src.shape).displacement,
                              dense(direct.transform, src.shape).displacement)

    src = make_phantom((16, 16, 16), "blobs", seed=0)
    reg = AffineSsdBackend(levels=2, iters=5, step=0.5).register(src, src)
    same(reg, affine_ssd_register(src, src, levels=2, iters=5, step=0.5))
    assert isinstance(reg.transform, AffineTransform)
    assert reg.log_header == ("level", "iteration", "ssd", "step")
    assert reg.iterations == len(reg.log) > 0
    assert isinstance(reg.final_ssd, float) and reg.diverged is False
    reg = DemonsBackend(iters=5).register(src, src)
    same(reg, demons_register(src, src, iters=5))
    assert reg.log_header == ("iteration", "ssd")
    assert reg.iterations == 5 == len(reg.log)
    assert isinstance(reg.final_ssd, float) and reg.diverged is False
    assert (reg.inverted_positions, reg.noise, reg.inversion_residual) == (None, None, 0.0)
    reg = OracleBackend(PHI, ErrorModel()).register(blank((6, 6, 6)), blank((6, 6, 6)))
    assert reg.log == () and reg.log_header == ()
    assert (reg.iterations, reg.final_ssd, reg.diverged) == (0, None, False)
