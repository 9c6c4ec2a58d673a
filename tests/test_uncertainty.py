"""Estimator statistics against closed forms on shared perturbation draws.

The linear families admit exact covariance identities, so most tolerances
here are float-level; Monte-Carlo noise only enters where a fresh noise
stream is genuinely involved.
"""

import json
import pickle
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcert import uncertainty
from regcert.geometry import DenseTransform, TranslationTransform, grid_points
from regcert.perturb import PerturbSpec, sample_perturbation
from regcert.register import (
    TAU_SCALE_FUNCTIONS,
    AffineSsdBackend,
    ErrorModel,
    OracleBackend,
    Registration,
    RegistrationBackend,
)
from regcert.uncertainty import (
    MAX_THREADS,
    REGIME_STRENGTH_MAX,
    SampleError,
    decompose_cov,
    estimate_uncertainty,
    mc_relative_bound,
    relative_frobenius,
    verify_lemma,
)
from regcert.uncertainty import _TRI, _Linearization, _Moments
from regcert.volume import make_phantom, warp

from closed_form import blank, closed_form_cov_affine, split_on_the_pass, tri_to_matrices

PHI = TranslationTransform((1.5, -0.75, 0.5))


def spec_for(family, shape=(8, 8, 8), count=20, **kw):
    return PerturbSpec(family=family, shape=shape, seed=0, count=count, **kw)


# ---------------------------------------------------------------------------
# packed symmetric components


def test_tri_to_matrices_round_trip():
    tri = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    m = tri_to_matrices(tri)
    assert m.shape == (3, 3)
    assert np.array_equal(m, [[1, 2, 3], [2, 4, 5], [3, 5, 6]])
    assert np.array_equal(m, m.T)


# ---------------------------------------------------------------------------
# estimator determinism and reductions


def _two_pass(draws, divisor):
    """Float64 two-pass reference: (mean (V, 3), covariance (V, 3, 3))."""
    mean = draws.mean(axis=0)
    c = draws - mean
    return mean, np.einsum("nvi,nvj->vij", c, c) / divisor


def _moments_of(draws):
    acc = _Moments()
    for x in draws:
        acc.add(x)
    return acc


def test_moments_match_two_pass_reference_far_from_origin():
    # A common offset of 1e6 with a spread of 1e-3: the raw second moment
    # loses the spread entirely unless the sums are centred.
    rng = np.random.default_rng(11)
    draws = 1e6 + 1e-3 * rng.standard_normal((40, 64, 3))
    mean, cov = _moments_of(draws).finalize(len(draws))
    ref_mean, ref_cov = _two_pass(draws, len(draws))
    np.testing.assert_allclose(mean - 1e6, ref_mean - 1e6, rtol=0, atol=1e-9)
    np.testing.assert_allclose(tri_to_matrices(cov), ref_cov, rtol=1e-9, atol=1e-18)
    # The same check rejects an accumulator that does not centre.
    raw = np.einsum("nvi,nvj->vij", draws, draws) / len(draws)
    uncentred = raw - np.einsum("vi,vj->vij", ref_mean, ref_mean)
    assert not np.allclose(uncentred, ref_cov, rtol=1e-9, atol=1e-18)


def test_moments_divisor_n_and_n_minus_one():
    rng = np.random.default_rng(12)
    draws = 5.0 + rng.standard_normal((25, 16, 3))
    acc = _moments_of(draws)
    n = len(draws)
    mean_n, cov_n = acc.finalize(n)
    mean_u, cov_u = acc.finalize(n - 1)
    np.testing.assert_array_equal(mean_n, mean_u)
    np.testing.assert_allclose(tri_to_matrices(cov_n), _two_pass(draws, n)[1], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(tri_to_matrices(cov_u), _two_pass(draws, n - 1)[1], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(cov_u, cov_n * n / (n - 1), rtol=1e-12, atol=1e-14)


def test_moments_single_sample_has_zero_covariance():
    x = np.random.default_rng(13).standard_normal((10, 3)) + 3.0
    mean, cov = _moments_of([x]).finalize(1)
    np.testing.assert_array_equal(mean, x)
    np.testing.assert_array_equal(cov, np.zeros((10, 6)))


class _ColumnMoments:
    """Reference: the moment sums as (V, 6) columns, one column per update."""

    def __init__(self):
        self.n, self.ref = 0, None

    def add(self, x):
        if self.ref is None:
            self.ref = x
            self.s1 = np.zeros_like(x)
            self.s2 = np.zeros((len(x), 6))
        c = x - self.ref
        self.s1 += c
        for k, (i, j) in enumerate(_TRI):
            self.s2[:, k] += c[:, i] * c[:, j]
        self.n += 1

    def finalize(self, divisor):
        mean_c = self.s1 / self.n
        outer = np.empty((len(mean_c), 6))
        for k, (i, j) in enumerate(_TRI):
            outer[:, k] = mean_c[:, i] * mean_c[:, j]
        return self.ref + mean_c, self.s2 / divisor - (self.n / divisor) * outer


@pytest.mark.parametrize("voxels", [1, 97])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_moment_rows_equal_the_column_sums_bit_for_bit(n, voxels):
    draws = 3.0 + np.random.default_rng(14).standard_normal((n, voxels, 3))
    rows, cols = _moments_of(draws), _ColumnMoments()
    for x in draws:
        cols.add(x)
    for divisor in (n, n - 1) if n > 1 else (n,):
        (mean, cov), (want_mean, want_cov) = rows.finalize(divisor), cols.finalize(divisor)
        assert mean.shape == (voxels, 3) and cov.shape == (voxels, 6)
        assert mean.tobytes() == want_mean.tobytes()
        assert cov.tobytes() == want_cov.tobytes()


def test_estimate_bitwise_deterministic_and_thread_invariant():
    shape = (8, 8, 8)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.2, seed=4))
    spec = spec_for("translation", shape)
    a = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    b = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    c = estimate_uncertainty(backend, blank(shape), blank(shape), spec, threads=3)
    assert np.array_equal(a["cov"], b["cov"])
    assert np.array_equal(a["cov"], c["cov"])
    assert np.array_equal(a["u"], c["u"])
    assert np.array_equal(a["mean"], c["mean"])
    assert a["n_samples"] == spec.count
    assert a["divisor"] == "n"
    assert a["wall_time_s"] > 0


def test_n_clamped_counts_the_negative_traces(monkeypatch):
    def trace(cov):
        return cov[..., 0] + cov[..., 3] + cov[..., 5]

    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.3, seed=1))
    spec = spec_for("affine", shape, count=5)
    # The sums are centred on the first draw, so a variance is at least 1/N of
    # the mean squared offset and rounding leaves no trace negative.
    res = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    assert res["n_clamped"] == np.count_nonzero(trace(res["cov"]) < 0.0) == 0

    finalize = uncertainty._Moments.finalize

    def dented(self, divisor):
        mean, cov = finalize(self, divisor)
        cov[::7, 0] = -1e-3 - cov[::7, 3] - cov[::7, 5]
        cov[1::7] = 0.0  # a zero trace is not clamped
        return mean, cov

    monkeypatch.setattr(uncertainty._Moments, "finalize", dented)
    res = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    negative = trace(res["cov"]) < 0.0
    assert res["n_clamped"] == np.count_nonzero(negative) == len(range(0, 216, 7))
    assert np.all(res["u"][negative] == 0.0)


def test_unbiased_divisor_rescales_covariance():
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.3, seed=1))
    spec = spec_for("translation", shape, count=10)
    biased = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    unbiased = estimate_uncertainty(backend, blank(shape), blank(shape), spec, unbiased=True)
    assert unbiased["divisor"] == "n-1"
    assert np.allclose(unbiased["cov"], biased["cov"] * (10.0 / 9.0), rtol=1e-12, atol=1e-300)


def test_translation_perturbations_only_shift_mean():
    # For the oracle with zero noise the back-mapped samples all equal
    # phi + dust from one add/subtract cancellation; the spread stays at
    # float-dust scale and the mean recovers phi.
    shape = (8, 8, 8)
    backend = OracleBackend(PHI, ErrorModel())
    est = estimate_uncertainty(backend, blank(shape), blank(shape), spec_for("translation", shape))
    assert float(est["u"].max()) < 1e-12
    assert np.max(np.abs(est["mean"] - PHI.offset)) < 1e-12


def test_collapsed_ranges_give_exactly_zero_uncertainty():
    shape = (8, 8, 8)
    collapsed = dict(translation_fraction=0.0, scale_range=(1.0, 1.0), shear_max=0.0)
    spec = spec_for("translation", shape, count=5, **collapsed)
    backend = OracleBackend(PHI, ErrorModel())
    est = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    assert np.array_equal(est["u"], np.zeros(shape))
    assert np.array_equal(est["cov"], np.zeros(shape + (6,)))


def test_collapsed_ranges_zero_even_for_real_solver():
    # Identical perturbed sources -> identical registrations -> zero spread,
    # without any assumption about solver quality.
    shape = (16, 16, 16)
    src = make_phantom(shape, "blobs", seed=0)
    tgt = warp(src, TranslationTransform((1.0, 0.0, 0.0)))
    spec = PerturbSpec(family="translation", shape=shape, seed=0, count=4,
                       translation_fraction=0.0)
    est = estimate_uncertainty(AffineSsdBackend(levels=2, iters=4, step=0.5), src, tgt, spec)
    assert float(np.abs(est["u"]).max()) == 0.0


def test_covariance_is_positive_semidefinite():
    shape = (8, 8, 8)
    backend = OracleBackend(PHI, ErrorModel(mu=(0.3, 0.1, 0.0), sigma=0.25, seed=2))
    est = estimate_uncertainty(backend, blank(shape), blank(shape), spec_for("affine", shape, count=40))
    w = np.linalg.eigvalsh(tri_to_matrices(est["cov"]).reshape(-1, 3, 3))
    assert w.min() >= -1e-9 * max(w.max(), 1.0)


def test_backend_failure_reports_sample_index():
    class Failing(AffineSsdBackend):
        def register(self, source, target, perturbation=None, nonce=0):
            if nonce == 3:
                raise ValueError("synthetic failure")
            return super().register(source, target)

    shape = (16, 16, 16)
    src = make_phantom(shape, "blobs", seed=0)
    spec = PerturbSpec(family="translation", shape=shape, seed=0, count=6)
    with pytest.raises(SampleError, match="sample 3: synthetic failure") as info:
        estimate_uncertainty(Failing(levels=1, iters=2, step=0.5), src, src, spec)
    assert isinstance(info.value.__cause__, ValueError)


def test_backend_failure_with_multi_argument_exception_reports_sample_index():
    class TwoArgError(Exception):
        def __init__(self, code, detail):
            super().__init__(code, detail)

    class Failing(OracleBackend):
        def register(self, source, target, perturbation=None, nonce=0):
            if nonce == 2:
                raise TwoArgError(7, "synthetic failure")
            return super().register(source, target, perturbation, nonce)

    shape = (6, 6, 6)
    with pytest.raises(SampleError, match="sample 2") as info:
        estimate_uncertainty(Failing(PHI, ErrorModel()), blank(shape), blank(shape),
                             spec_for("translation", shape, count=4))
    err = info.value
    assert isinstance(err.__cause__, TwoArgError)
    # A worker process would ship the error to its parent this way.
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is SampleError and str(copy) == str(err)


def test_oracle_estimate_never_warps_the_source(monkeypatch):
    calls = []
    monkeypatch.setattr(uncertainty, "warp", lambda volume, t: calls.append(t))
    shape = (6, 6, 6)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.2, seed=1))
    assert RegistrationBackend.reads_images and not backend.reads_images
    for family in ("affine", "deform"):
        spec = spec_for(family, shape, count=4)
        estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    assert calls == []


def test_image_backend_receives_the_warped_source(monkeypatch):
    class Recording(RegistrationBackend):
        def __init__(self):
            self.seen = []

        def register(self, source, target, perturbation=None, nonce=0):
            self.seen.append((source, perturbation))
            return Registration(DenseTransform(np.zeros(target.shape + (3,))))

    calls = []

    def counting_warp(volume, t):
        calls.append(t)
        return warp(volume, t)

    monkeypatch.setattr(uncertainty, "warp", counting_warp)
    shape = (16, 16, 16)
    src = make_phantom(shape, "blobs", seed=0)
    backend = Recording()
    estimate_uncertainty(backend, src, src, spec_for("affine", shape, count=3))
    assert len(calls) == 3
    assert [tau for _, tau in backend.seen] == calls
    for got, tau in backend.seen:
        assert np.array_equal(got.data, warp(src, tau).data)


def test_threads_validation():
    shape = (6, 6, 6)
    for threads in (0, MAX_THREADS + 1):
        with pytest.raises(ValueError, match="threads"):
            estimate_uncertainty(OracleBackend(PHI, ErrorModel()), blank(shape), blank(shape),
                                 spec_for("translation", shape), threads=threads)


# ---------------------------------------------------------------------------
# closed-form decomposition


def test_decompose_requires_oracle():
    with pytest.raises(TypeError, match="analytic error model"):
        decompose_cov(AffineSsdBackend(), spec_for("translation"))


def _decompose_cov_per_voxel(backend, spec, m_samples):
    """Reference: each draw inverted again, J built and contracted at every voxel.

    These are the sums decompose_cov's reducer takes for non-linear tau; for
    linear tau its one-row path must give the same bits.
    """
    grid = grid_points(spec.shape).reshape(-1, 3)
    phi_pos = backend.true_transform.apply(grid)
    intr = np.zeros((len(grid), 6))
    jitter = _Moments()
    for m in range(m_samples):
        tau = sample_perturbation(spec, m)
        v, _ = backend.inverse_positions(tau, phi_pos)
        jac = tau.jacobian(v)
        sig = backend.error_model.cov(tau)
        if np.any(sig):
            full = np.einsum("nik,njk->nij", jac @ sig, jac)
            for k, (i, j) in enumerate(_TRI):
                intr[:, k] += full[:, i, j]
        jitter.add(np.einsum("nij,nj->ni", jac, backend.error_model.mean(tau, grid)))
    intr /= m_samples
    return intr.reshape(spec.shape + (6,)), jitter.finalize(m_samples)[1].reshape(spec.shape + (6,))


_SIGMA = np.array([[0.3, 0.05, 0.0], [0.05, 0.2, 0.01], [0.0, 0.01, 0.1]])


def _reference_model(kind, shape):
    if kind == "scaled-mu":
        return ErrorModel(mu=(0.5, 0.2, -0.1), sigma=_SIGMA, mu_scale="mean_diag",
                          sigma_scale="det")
    field = np.random.default_rng(5).normal(size=tuple(shape) + (3,))
    return ErrorModel(mu_field=field, sigma=_SIGMA)


@pytest.mark.parametrize("model_kind", ["scaled-mu", "mu-field"])
@pytest.mark.parametrize("family", ["translation", "scale", "shear", "affine"])
def test_linear_decomposition_equals_per_voxel_reference(family, model_kind):
    shape = (7, 8, 9)
    spec = spec_for(family, shape, count=12)
    backend = OracleBackend(PHI, _reference_model(model_kind, shape))
    est = split_on_the_pass(backend, spec)
    intr, jitter = _decompose_cov_per_voxel(backend, spec, 12)
    assert np.array_equal(est["intrinsic"], intr)
    assert np.array_equal(est["jitter"], jitter)


def test_deform_decomposition_equals_per_voxel_reference():
    shape = (7, 8, 9)
    spec = spec_for("deform", shape, count=6, deform_strength=0.02)
    backend = OracleBackend(PHI, _reference_model("mu-field", shape))
    est = split_on_the_pass(backend, spec)
    intr, jitter = _decompose_cov_per_voxel(backend, spec, 6)
    assert np.array_equal(est["intrinsic"], intr)
    assert np.array_equal(est["jitter"], jitter)


@pytest.mark.parametrize(
    "family, model_kind, points",
    [("translation", "scaled-mu", 1), ("affine", "constant-mu", 1),
     ("affine", "mu-field", 7 * 8 * 9), ("deform", "constant-mu", 7 * 8 * 9)],
)
def test_decomposition_inverts_one_point_only_where_the_closed_form_is_uniform(
    monkeypatch, family, model_kind, points
):
    """The split inverts nothing itself, and takes J and mu at one point where uniform."""
    from regcert import geometry

    shape = (7, 8, 9)
    n_vox = 7 * 8 * 9
    sizes = {"inverse": [], "jacobian": [], "mean": []}

    def counting(key, fn):
        def wrapped(self, *args):
            sizes[key].append(len(args[-1]))
            return fn(self, *args)
        return wrapped

    monkeypatch.setattr(OracleBackend, "inverse_positions",
                        counting("inverse", OracleBackend.inverse_positions))
    for cls in (geometry.TranslationTransform, geometry.AffineTransform,
                geometry.BSplineTransform):
        monkeypatch.setattr(cls, "jacobian", counting("jacobian", cls.jacobian))
    monkeypatch.setattr(ErrorModel, "mean", counting("mean", ErrorModel.mean))
    if model_kind == "constant-mu":
        model = ErrorModel(mu=(0.5, 0.2, -0.1), sigma=_SIGMA)
    else:
        model = _reference_model(model_kind, shape)
    kw = {"deform_strength": 0.02} if family == "deform" else {}
    est = split_on_the_pass(OracleBackend(PHI, model), spec_for(family, shape, count=5, **kw))
    # The oracle's own inversion of each draw is the only one.
    assert sizes["inverse"] == [n_vox] * 5
    # Per draw the oracle's noise takes mu on the grid, then the split takes J and mu.
    assert sizes["jacobian"] == [points] * 5
    assert sizes["mean"] == [n_vox, points] * 5
    assert est["intrinsic"].shape == est["jitter"].shape == shape + (6,)
    assert est["intrinsic"].flags.writeable and est["jitter"].flags.writeable


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(("translation", "scale", "shear", "affine")),
    seed=st.integers(0, 10_000),
    rank=st.integers(0, 3),
    mu_field=st.booleans(),
    mu_scale=st.sampled_from((None,) + tuple(TAU_SCALE_FUNCTIONS)),
    sigma_scale=st.sampled_from((None,) + tuple(TAU_SCALE_FUNCTIONS)),
)
def test_decomposition_terms_are_psd(family, seed, rank, mu_field, mu_scale, sigma_scale):
    shape = (5, 6, 7)
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(3, rank))
    mean = {"mu_field": rng.normal(size=shape + (3,))} if mu_field else {"mu": rng.normal(size=3)}
    model = ErrorModel(sigma=factor @ factor.T, mu_scale=mu_scale, sigma_scale=sigma_scale,
                       seed=seed, **mean)
    spec = PerturbSpec(family=family, shape=shape, seed=seed, count=8)
    # The estimator's own covariance on the same draws is held to the same bound.
    est = split_on_the_pass(OracleBackend(PHI, model), spec)
    for term in (est["intrinsic"], est["jitter"], est["cov"]):
        w = np.linalg.eigvalsh(tri_to_matrices(term).reshape(-1, 3, 3))
        assert w.min() >= -1e-12 * max(1.0, float(np.abs(w).max()))


def test_translation_intrinsic_is_model_covariance():
    # J = I for translations, so the intrinsic term is Sigma at every voxel
    # and a constant mu contributes no jitter at all.
    sigma = np.diag([0.04, 0.09, 0.16])
    backend = OracleBackend(PHI, ErrorModel(mu=(1.0, 0.0, 0.0), sigma=sigma))
    est = split_on_the_pass(backend, spec_for("translation", (6, 6, 6), count=12))
    want = np.array([0.04, 0.0, 0.0, 0.09, 0.0, 0.16])
    assert np.max(np.abs(est["intrinsic"] - want)) < 1e-15
    assert np.array_equal(est["jitter"], np.zeros((6, 6, 6, 6)))


def test_scaled_mean_jitter_matches_hand_computation():
    shape = (6, 6, 6)
    spec = spec_for("translation", shape, count=30)
    model = ErrorModel(mu=(1.0, 0.0, 0.0), sigma=0.0, mu_scale="offset_norm")
    est = split_on_the_pass(OracleBackend(PHI, model), spec)
    norms = np.array([
        np.linalg.norm(sample_perturbation(spec, m).offset) for m in range(30)
    ])
    var = norms.var()  # divisor K, same convention
    assert np.max(np.abs(est["jitter"][..., 0] - var)) < 1e-12
    assert np.max(np.abs(est["jitter"][..., 1:])) < 1e-12
    assert np.array_equal(est["intrinsic"], np.zeros(shape + (6,)))


def test_estimator_matches_decomposition_without_noise():
    # Sigma = 0 makes the estimator's spread purely the jitter of the
    # Jacobian-mapped bias; both sides see the same draws, so agreement is
    # float-exact, not statistical.
    shape = (8, 8, 8)
    spec = spec_for("scale", shape, count=25)
    model = ErrorModel(mu=(1.0, 0.0, 0.0), sigma=0.0, mu_scale="mean_diag")
    est = split_on_the_pass(OracleBackend(PHI, model), spec)
    assert np.array_equal(est["intrinsic"], np.zeros(shape + (6,)))
    assert np.max(np.abs(est["cov"] - (est["intrinsic"] + est["jitter"]))) < 1e-12


def test_closed_form_affine_worked_example():
    from regcert.geometry import AffineTransform

    samples = [
        AffineTransform(np.eye(3), (0.0, 0.0, 0.0)),
        AffineTransform(np.diag([2.0, 1.0, 1.0]), (0.0, 0.0, 0.0)),
    ]
    model = ErrorModel(mu=(1.0, 0.0, 0.0), sigma=1.0)
    intr, jit = closed_form_cov_affine(samples, model, (3.0, 3.0, 3.0))
    assert np.allclose(intr, np.diag([2.5, 1.0, 1.0]), atol=1e-15)
    assert np.allclose(jit, np.diag([0.25, 0.0, 0.0]), atol=1e-15)


def test_closed_form_matches_decomposition_at_a_voxel():
    shape = (8, 8, 8)
    spec = spec_for("affine", shape, count=15)
    model = ErrorModel(mu=(0.5, 0.2, 0.0), sigma=0.3)
    est = split_on_the_pass(OracleBackend(PHI, model), spec)
    samples = [sample_perturbation(spec, m) for m in range(15)]
    y = (6.0, 6.0, 6.0)
    intr, jit = closed_form_cov_affine(samples, model, y)
    vox = (6, 6, 6)
    assert np.max(np.abs(tri_to_matrices(est["intrinsic"][vox]) - intr)) < 1e-12
    assert np.max(np.abs(tri_to_matrices(est["jitter"][vox]) - jit)) < 1e-12


def _linearized(backend, spec) -> dict:
    """The estimate with the linearization reducer's covariance, from one pass on blank volumes."""
    return estimate_uncertainty(backend, blank(spec.shape), blank(spec.shape), spec,
                                reducers=[_Linearization(spec.shape)])


def test_linearized_model_is_exact_for_translations():
    # Common-random-numbers check: for translations the first-order model
    # is the identity map of the noise, so it reproduces the empirical
    # covariance to float precision on shared draws.
    shape = (6, 6, 6)
    spec = spec_for("translation", shape, count=40)
    backend = OracleBackend(PHI, ErrorModel(mu=(0.3, 0.0, 0.0), sigma=0.2, seed=7))
    est = _linearized(backend, spec)
    assert est["max_inversion_residual"] == 0.0
    assert np.max(np.abs(est["cov"] - est["linearized"])) < 1e-12


def _linearized_cov_two_pass(backend, spec):
    """Reference: the first-order covariance drawn and inverted a second time."""
    shape = spec.shape
    grid = grid_points(shape).reshape(-1, 3)
    phi_pos = backend.true_transform.apply(grid)
    moments = _Moments()
    max_residual = 0.0
    for m in range(spec.count):
        tau = sample_perturbation(spec, m)
        v, residual = backend.inverse_positions(tau, phi_pos)
        max_residual = max(max_residual, residual)
        eps = backend.error_model.sample(tau, grid, m)
        moments.add(np.einsum("nij,nj->ni", tau.jacobian(v), eps))
    return moments.finalize(spec.count)[1].reshape(shape + (6,)), max_residual


@pytest.mark.parametrize("strength", [0.08, 0.3])
def test_one_pass_linearization_is_bitwise_the_two_pass_one(strength):
    shape = (8, 8, 8)
    spec = spec_for("deform", shape, count=20, deform_strength=strength)
    model = ErrorModel(mu=(0.3, 0.0, 0.0), sigma=0.2, seed=7)
    backend = OracleBackend(PHI, model, lenient_inversion=True)
    est = _linearized(backend, spec)
    ref, ref_residual = _linearized_cov_two_pass(
        OracleBackend(PHI, model, lenient_inversion=True), spec
    )
    assert est["linearized"].tobytes() == ref.tobytes()
    assert est["max_inversion_residual"] == ref_residual
    assert ref_residual > 0.0


def test_max_inversion_residual_is_the_largest_sample_residual():
    shape = (8, 8, 8)
    spec = spec_for("deform", shape, count=12, deform_strength=0.3)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.2, seed=3), lenient_inversion=True)
    est = estimate_uncertainty(backend, blank(shape), blank(shape), spec)
    phi_pos = PHI.apply(grid_points(shape).reshape(-1, 3))
    want = max(
        backend.inverse_positions(sample_perturbation(spec, n), phi_pos)[1]
        for n in range(spec.count)
    )
    assert want > 0.0
    assert est["max_inversion_residual"] == want
    src = make_phantom((16, 16, 16), "blobs", seed=0)
    solver = estimate_uncertainty(AffineSsdBackend(levels=1, iters=2), src, src,
                                  spec_for("translation", (16, 16, 16), count=3))
    assert solver["max_inversion_residual"] == 0.0


def test_observer_results_reduce_in_sample_order_at_any_thread_count():
    shape = (8, 8, 8)
    backend = OracleBackend(PHI, ErrorModel(sigma=0.2, seed=4), lenient_inversion=True)

    def observe(n, tau, reg, x):
        return n, reg.inverted_positions.sum()

    # 29 draws at 3 threads span three pool chunks of 12.
    for count in (11, 29):
        spec = spec_for("deform", shape, count=count)
        runs, seen = {}, {}
        for threads in (1, 3):
            seen[threads], moments = [], _Moments()
            order = SimpleNamespace(observe=observe, add=seen[threads].append,
                                    report=lambda got=seen[threads]: {"order": [n for n, _ in got]})
            reducers = [order, SimpleNamespace(observe=lambda n, tau, reg, x: x, add=moments.add,
                                               report=dict)]
            runs[threads] = estimate_uncertainty(backend, blank(shape), blank(shape), spec,
                                                 threads=threads, reducers=reducers)
            # A reducer's report reaches the result next to the estimator's own keys.
            assert runs[threads]["order"] == list(range(count))
            # The estimator's own moments are a reducer like any caller's.
            cov = moments.finalize(count)[1].reshape(shape + (6,))
            assert cov.tobytes() == runs[threads]["cov"].tobytes()
        assert seen[1] == seen[3]
        plain = estimate_uncertainty(backend, blank(shape), blank(shape), spec, threads=3)
        for other in (runs[3], plain):
            assert other["cov"].tobytes() == runs[1]["cov"].tobytes()
            assert other["mean"].tobytes() == runs[1]["mean"].tobytes()
            assert other["max_inversion_residual"] == runs[1]["max_inversion_residual"]


@pytest.mark.parametrize("where", ["backend", "reducer"])
def test_threaded_failure_leaves_no_worker_running(where):
    class Failing(OracleBackend):
        def register(self, source, target, perturbation=None, nonce=0):
            if where == "backend" and nonce == 13:
                raise ValueError("synthetic failure")
            return super().register(source, target, perturbation, nonce)

    def refuse(n):
        if n == 13:
            raise ValueError(f"reducer refused sample {n}")

    shape = (6, 6, 6)
    refusing = SimpleNamespace(observe=lambda n, tau, reg, x: n, add=refuse, report=dict)
    reducers = [refusing] if where == "reducer" else []
    before = threading.active_count()
    # Sample 13 falls in the second pool chunk of 12.  The held traceback keeps
    # the call's frame alive, so garbage collection cannot be what ends the pool.
    # A backend's error reaches the caller as a SampleError, a reducer's as it is.
    expected = SampleError if where == "backend" else ValueError
    with pytest.raises(expected, match="sample 13") as info:
        estimate_uncertainty(Failing(PHI, ErrorModel()), blank(shape), blank(shape),
                             spec_for("translation", shape, count=30), threads=3,
                             reducers=reducers)
    if where == "backend":
        assert isinstance(info.value.__cause__, ValueError)
    assert info.tb is not None
    assert threading.active_count() == before


def _count_draws_and_inversions(monkeypatch) -> dict:
    """Calls of sample_perturbation, ErrorModel.sample, inverse_positions and
    invert_at from here on."""
    from regcert import geometry, perturb, register

    calls = {"sample": 0, "noise": 0, "inverse": 0, "invert_at": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    sample = counting("sample", perturb.sample_perturbation)
    for module in (perturb, uncertainty):
        monkeypatch.setattr(module, "sample_perturbation", sample)
    invert_at = counting("invert_at", geometry.invert_at)
    for module in (geometry, register):
        monkeypatch.setattr(module, "invert_at", invert_at)
    monkeypatch.setattr(OracleBackend, "inverse_positions",
                        counting("inverse", OracleBackend.inverse_positions))
    monkeypatch.setattr(ErrorModel, "sample", counting("noise", ErrorModel.sample))
    return calls


def test_deform_lemma_draws_and_inverts_each_perturbation_once(monkeypatch):
    calls = _count_draws_and_inversions(monkeypatch)
    k = 7
    rep = verify_lemma(spec_for("deform", count=k, deform_strength=0.08),
                       ErrorModel(sigma=0.2, seed=7), PHI)
    assert rep.passed
    # The linearization reads the noise the oracle drew instead of drawing it again.
    assert calls == {"sample": k, "noise": k, "inverse": k, "invert_at": k}


@pytest.mark.parametrize("family", ["translation", "affine"])
def test_linear_lemma_draws_and_inverts_each_perturbation_once(monkeypatch, family):
    calls = _count_draws_and_inversions(monkeypatch)
    k = 7
    rep = verify_lemma(spec_for(family, count=k), ErrorModel(mu=(0.5, 0.0, 0.0), sigma=0.5), PHI)
    assert rep.passed
    assert calls == {"sample": k, "noise": k, "inverse": k, "invert_at": 0}


def test_oracle_estimate_draws_and_inverts_each_perturbation_once(monkeypatch, tmp_path):
    from regcert.cli import main

    k = 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": [16, 16, 16], "perturb": {"family": "deform", "count": k},
                               "backend": {"kind": "oracle", "error_model": {"sigma": 0.2}}}))
    out = str(tmp_path / "out")
    assert main(["simulate-pair", "--config", str(cfg), "--out", out]) == 0
    calls = _count_draws_and_inversions(monkeypatch)
    assert main(["estimate", "--config", str(cfg), "--out", out]) == 0
    # The closed-form split rides the estimator's pass: no draw is taken twice.
    # The unperturbed prediction draws the one extra noise.
    assert calls == {"sample": k, "noise": k + 1, "inverse": k, "invert_at": k}
    assert (tmp_path / "out" / "intrinsic.rcv").is_file()


# ---------------------------------------------------------------------------
# relative error helpers


def test_mc_relative_bound_values():
    assert mc_relative_bound(400) == pytest.approx(0.125)
    assert mc_relative_bound(2000) == pytest.approx(2.5 / np.sqrt(2000.0))


def test_relative_frobenius_counts_off_diagonals_twice():
    emp = np.array([[1.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
    closed = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    rel = relative_frobenius(emp, closed)
    assert rel[0] == pytest.approx(np.sqrt(2.0 / 3.0))


def test_relative_frobenius_zero_where_both_vanish():
    z = np.zeros((4, 6))
    z[0, 0] = 1.0
    rel = relative_frobenius(z.copy(), z.copy())
    assert np.array_equal(rel, np.zeros(4))


def test_relative_frobenius_all_zero_inputs_give_zeros():
    z = np.zeros((4, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rel = relative_frobenius(z, z.copy())
    assert np.array_equal(rel, np.zeros(4))


# ---------------------------------------------------------------------------
# lemma verification harness


def test_verify_lemma_translation_is_exact_comparison():
    rep = verify_lemma(
        spec_for("translation", count=150), ErrorModel(mu=(0.5, 0.0, 0.0), sigma=0.5, seed=0), PHI
    )
    assert rep.passed
    assert rep.within_tolerance
    assert not rep.regime_violation
    assert rep.note == "exact (no linearization)"
    assert rep.strength is None
    assert rep.mc_bound == pytest.approx(2.5 / np.sqrt(150.0))
    assert rep.median_rel_error <= rep.tolerance


def test_verify_lemma_deform_within_regime():
    rep = verify_lemma(
        spec_for("deform", (10, 10, 10), count=60, deform_strength=0.02),
        ErrorModel(mu=(0.3, 0.0, 0.0), sigma=0.2, seed=7),
        PHI,
    )
    assert rep.passed and not rep.regime_violation
    assert rep.note == "first-order comparison within regime"
    # Shared noise streams cancel the Monte-Carlo error; what is left is the
    # Taylor remainder, far below the fresh-draw noise floor.
    assert rep.median_rel_error < 0.05
    assert rep.max_inversion_residual < 1e-2


def test_verify_lemma_reports_regime_violation():
    rep = verify_lemma(
        spec_for("deform", (10, 10, 10), count=40, deform_strength=0.3),
        ErrorModel(mu=(0.3, 0.0, 0.0), sigma=0.2, seed=7),
        PHI,
    )
    assert rep.regime_violation
    assert rep.passed
    assert "regime violation" in rep.note
    assert rep.strength == 0.3
    assert REGIME_STRENGTH_MAX < 0.3


def test_lemma_report_serializes_to_json():
    rep = verify_lemma(spec_for("translation", (6, 6, 6), count=50),
                       ErrorModel(mu=(0.5, 0.0, 0.0), sigma=0.5), PHI)
    d = rep.to_dict()
    text = json.dumps(d)
    for key in ("kind", "median_rel_error", "mc_bound", "tolerance", "passed", "note"):
        assert key in d
    assert json.loads(text)["kind"] == "translation"
