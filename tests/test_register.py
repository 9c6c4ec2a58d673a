"""Backends: the analytic oracle and the two classical solvers.

Solver bounds are frozen from reference runs on the blobs phantom; they are
regression tests, not statements about solver quality in general.
"""

from dataclasses import replace

import numpy as np
import pytest

from regcert.geometry import (
    AffineTransform,
    TranslationTransform,
    compose,
    dense,
    grid_points,
    identity_transform,
    trilinear_sample,
)
from regcert.perturb import PerturbSpec, sample_perturbation
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

PHI = TranslationTransform((1.5, -0.75, 0.5))


def blank(shape):
    return Volume3(np.zeros(shape, dtype=np.float32))


# ---------------------------------------------------------------------------
# error model


def test_scalar_sigma_becomes_isotropic_covariance():
    m = ErrorModel.isotropic(0.5)
    assert np.array_equal(m.sigma, 0.25 * np.eye(3))
    assert np.allclose(m._factor @ m._factor.T, m.sigma, atol=1e-12)


def test_matrix_sigma_factor_reproduces_covariance():
    s = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
    m = ErrorModel(sigma=s)
    f = m.factor(identity_transform())
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
        m.mean(DenseTransform.identity((4, 4, 4)), np.zeros((2, 3)))


def test_mu_field_is_interpolated():
    field = grid_points((6, 6, 6))  # mu(y) = y
    m = ErrorModel(mu_field=field)
    pts = np.array([[1.25, 2.5, 3.75], [0.0, 0.0, 5.0]])
    assert np.allclose(m.mean(identity_transform(), pts), pts, atol=1e-12)


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
    backend = OracleBackend(PHI, ErrorModel.isotropic(0.3, seed=5))
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


def test_oracle_noise_variance_matches_model():
    # sigma = 0.5: per-voxel per-axis sample variance over 2000 draws stays
    # in [0.225, 0.275] up to Monte-Carlo scatter (chi-square rel. std.
    # sqrt(2/1999) ~ 3.2%, band is +-10%); the bulk must be inside.
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel.isotropic(0.5, seed=0))
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


def test_affine_ssd_validation():
    a = blank((8, 8, 8))
    with pytest.raises(ValueError, match="shape mismatch"):
        affine_ssd_register(a, blank((8, 8, 9)))
    with pytest.raises(ValueError, match="1-channel"):
        affine_ssd_register(Volume3(np.zeros((8, 8, 8, 3))), Volume3(np.zeros((8, 8, 8, 3))))
    with pytest.raises(ValueError, match="levels"):
        affine_ssd_register(a, a, levels=0)


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
    from regcert.geometry import BSplineTransform, bspline_control_shape

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


def test_demons_validation():
    a = blank((8, 8, 8))
    with pytest.raises(ValueError, match="shape mismatch"):
        demons_register(a, blank((9, 8, 8)))
    with pytest.raises(ValueError, match="iters"):
        demons_register(a, a, iters=0)


# ---------------------------------------------------------------------------
# backend wrappers


def test_backend_wrappers_expose_names_and_register():
    src = make_phantom((16, 16, 16), "blobs", seed=0)
    for backend in (AffineSsdBackend(levels=2, iters=5, step=0.5), DemonsBackend(iters=5)):
        out = dense(backend.register(src, src, perturbation=None, nonce=0).transform, src.shape)
        assert out.shape == (16, 16, 16)
        assert np.all(np.isfinite(out.displacement))
    assert AffineSsdBackend().name == "affine_ssd"
    assert DemonsBackend().name == "demons"
    assert OracleBackend(PHI, ErrorModel()).name == "oracle"


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
    reg = OracleBackend(PHI, ErrorModel()).register(blank((6, 6, 6)), blank((6, 6, 6)))
    assert reg.log == () and reg.log_header == ()
    assert (reg.iterations, reg.final_ssd, reg.diverged) == (0, None, False)
