"""Correlation, risk-coverage, and the error-norm decomposition check.

Hand-computed examples pin the exact arithmetic; property tests cover the
invariances (monotone transforms, bounds, tie handling).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
# The reference for the average ranks; only the tests load scipy
# (see test_stages_run_without_scipy).
from scipy.stats import rankdata

from regcert.geometry import AffineTransform, DenseTransform, TranslationTransform, grid_points
from regcert.metrics import (
    ErrorMap,
    _average_ranks,
    bin_curve,
    error_map,
    mse_decomposition_check,
    pearson,
    risk_coverage,
    spearman,
)
from regcert.register import AffineSsdBackend, ErrorModel, OracleBackend
from regcert.volume import RoiMask, Volume3

finite_arrays = hnp.arrays(
    np.float64,
    st.integers(3, 40),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


def emap(values):
    """1-D or 3-D error values as a fully masked ErrorMap (3-D as (n, 1, 1))."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1, 1)
    return ErrorMap(v, RoiMask.full(v.shape))


def as3d(values):
    v = np.asarray(values, dtype=np.float64)
    return v.reshape(-1, 1, 1) if v.ndim == 1 else v


# ---------------------------------------------------------------------------
# error maps


def test_error_map_of_exact_prediction_is_zero():
    shape = (6, 6, 6)
    truth = TranslationTransform((1.5, -0.75, 0.5))
    g = grid_points(shape)
    pred = DenseTransform(np.broadcast_to(truth.offset, shape + (3,)).copy())
    e = error_map(pred, truth)
    assert np.max(np.abs(e.values)) < 1e-12


def test_error_map_magnitude_hand_example():
    shape = (4, 4, 4)
    truth = TranslationTransform((0.0, 0.0, 0.0))
    disp = np.zeros(shape + (3,))
    disp[1, 2, 3] = [3.0, 4.0, 0.0]
    e = error_map(DenseTransform(disp), truth)
    assert e.values[1, 2, 3] == pytest.approx(5.0)
    assert e.values[0, 0, 0] == 0.0


def test_error_map_equals_norm_of_the_difference_bitwise():
    # error_map works in one buffer; the values are np.linalg.norm's.
    shape = (7, 6, 5)
    rng = np.random.default_rng(4)
    pred = DenseTransform(rng.normal(size=shape + (3,)))
    c = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    grid = grid_points(shape).reshape(-1, 3)
    for truth in (TranslationTransform((0.3, -1.2, 2.0)),
                  AffineTransform.center_fixed(np.diag([1.05, 0.97, 1.02]), c, (0.4, 0.1, -0.3))):
        want = np.linalg.norm(grid + pred.displacement.reshape(-1, 3) - truth.apply(grid), axis=1)
        assert error_map(pred, truth).values.tobytes() == want.reshape(shape).tobytes()


def test_error_map_respects_mask():
    shape = (4, 4, 4)
    m = np.zeros(shape, dtype=bool)
    m[0, 0, 0] = True
    e = error_map(DenseTransform(np.zeros(shape + (3,))), TranslationTransform((1.0, 0.0, 0.0)),
                  RoiMask(m))
    assert e.masked.shape == (1,)
    assert e.masked[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# correlations


def test_pearson_hand_example():
    assert pearson(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4])) == pytest.approx(0.8)
    assert pearson(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(1.0)
    assert pearson(np.array([1.0, 2, 3]), np.array([-1.0, -2, -3])) == pytest.approx(-1.0)


def test_spearman_hand_examples():
    # Rank permutation (1,3,2,4): 1 - 6*2/(4*15) = 0.8.
    assert spearman(np.array([1.0, 2, 3, 4]), np.array([10.0, 30, 20, 40])) == pytest.approx(0.8)
    # Tied pair gets the average rank 2.5: correlation sqrt(3)/2.
    assert spearman(np.array([1.0, 2, 3]), np.array([1.0, 2, 2])) == pytest.approx(math.sqrt(3) / 2)


def test_correlations_undefined_for_constant_input():
    c = np.full(5, 2.0)
    v = np.arange(5.0)
    assert math.isnan(pearson(c, v))
    assert math.isnan(pearson(v, c))
    assert math.isnan(spearman(c, v))


def test_correlation_input_validation():
    with pytest.raises(ValueError):
        pearson(np.arange(4.0), np.arange(5.0))
    with pytest.raises(ValueError):
        pearson(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        pearson(np.array([1.0, np.nan, 2.0]), np.arange(3.0))


@settings(max_examples=60, deadline=None)
@given(finite_arrays, finite_arrays)
def test_pearson_bounded(a, b):
    if len(a) != len(b):
        b = np.resize(b, len(a))
    r = pearson(a, b)
    assert math.isnan(r) or -1.0 - 1e-9 <= r <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(finite_arrays)
def test_spearman_invariant_under_monotone_transform(a):
    b = np.sort(a) + np.arange(len(a)) * 1e-6  # strictly increasing companion
    r1 = spearman(a, b)
    r2 = spearman(a, np.exp(b / (1.0 + np.abs(b).max())))  # monotone reparametrization
    if math.isnan(r1):
        assert math.isnan(r2)
    else:
        assert r1 == pytest.approx(r2, abs=1e-9)


@pytest.mark.parametrize(
    "x",
    [
        [3.0, 1.0, 4.0, 1.5, 9.0, 2.0],  # no ties
        [2.0, 2.0, 2.0, 2.0, 2.0],  # all equal
        [5.0, 1.0, 5.0, 3.0, 1.0, 5.0, 0.5, 3.0],  # mixed tie groups
        [7.0, -7.0],  # n = 2
        [7.0, 7.0],  # n = 2, tied
        [0.0, -0.0, 1.0, -1.0, -0.0],  # -0.0 ties with 0.0
        [4.0, 1.0, 3.0, 1.0, 2.0, 4.0, 4.0],  # integer-valued floats
    ],
)
def test_average_ranks_match_scipy_rankdata(x):
    x = np.array(x)
    assert np.array_equal(_average_ranks(x), rankdata(x))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)
    )
)
def test_average_ranks_match_scipy_rankdata_with_duplicates(values):
    # at most 5 distinct values, so longer draws always hold ties
    x = np.array(values)
    assert np.array_equal(_average_ranks(x), rankdata(x))


# ---------------------------------------------------------------------------
# risk-coverage


def test_risk_coverage_two_point_hand_example():
    e = emap([1.0, 2.0])
    c = risk_coverage(e, as3d([1.0, 2.0]))
    assert np.allclose(c.coverage, [0.5, 1.0])
    assert np.allclose(c.risk, [1.0, 1.5])
    assert c.aurc == pytest.approx(1.25)
    assert c.oracle_aurc == pytest.approx(1.25)
    assert c.random_aurc == pytest.approx(1.5)
    assert c.naurc == pytest.approx(0.0)

    worst = risk_coverage(e, as3d([2.0, 1.0]))  # anti-correlated ranking
    assert np.allclose(worst.risk, [2.0, 1.5])
    assert worst.aurc == pytest.approx(1.75)
    assert worst.naurc == pytest.approx(2.0)


def test_risk_coverage_ties_break_by_index():
    e = emap([3.0, 1.0, 2.0])
    c = risk_coverage(e, as3d(np.zeros(3)))
    # Constant uncertainty: stable sort keeps linear index order.
    assert np.allclose(c.risk, [3.0, 2.0, 2.0])


def test_perfect_ranking_is_oracle_and_naurc_zero():
    rng = np.random.default_rng(0)
    vals = rng.random(64)
    e = emap(vals)
    c = risk_coverage(e, as3d(vals))
    assert c.aurc == c.oracle_aurc
    assert c.naurc == 0.0


def test_oracle_aurc_is_minimal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        vals = rng.random(50)
        u = rng.random(50)
        c = risk_coverage(emap(vals), as3d(u))
        assert c.aurc >= c.oracle_aurc - 1e-12
        assert c.random_aurc >= c.oracle_aurc - 1e-12


def test_constant_error_aurc_equals_mean_error():
    # Every prefix mean of a constant sequence is that constant; cumulative
    # float rounding keeps this to ~1e-14, not bitwise.
    e = emap(np.full(4096, 0.7))
    c = risk_coverage(e, as3d(np.random.default_rng(2).random(4096)))
    assert abs(c.aurc - 0.7) <= 1e-12
    assert math.isnan(c.naurc)  # oracle == random: normalization undefined


def test_risk_coverage_accepts_volume_uncertainty_and_mask():
    shape = (4, 4, 4)
    rng = np.random.default_rng(3)
    vals = rng.random(shape)
    m = np.zeros(shape, dtype=bool)
    m[:2] = True
    e = ErrorMap(vals, RoiMask(m))
    u = Volume3(rng.random(shape))
    c = risk_coverage(e, u)
    assert c.n_voxels == 32
    assert len(c.coverage) == 32


def test_shuffled_uncertainty_close_to_random_baseline():
    # 200 random rankings: mean normalized area sits near 1 (frozen seeds).
    rng = np.random.default_rng(42)
    vals = np.abs(rng.standard_normal(16 ** 3))
    e = emap(vals.reshape(16, 16, 16))
    shuffler = np.random.default_rng(7)
    ratios = []
    for _ in range(200):
        u = shuffler.permutation(len(vals))
        c = risk_coverage(e, u.reshape(16, 16, 16).astype(np.float64))
        ratios.append(c.naurc)
    mean = float(np.mean(ratios))
    assert 0.9 <= mean <= 1.1


def test_bin_curve_partitions_coverage():
    rng = np.random.default_rng(4)
    vals = rng.random(100)
    c = risk_coverage(emap(vals), as3d(rng.random(100)))
    rows = bin_curve(c, bins=20)
    assert len(rows) == 20
    assert rows[-1]["coverage"] == pytest.approx(1.0)
    cov = [r["coverage"] for r in rows]
    assert all(b > a for a, b in zip(cov, cov[1:]))
    for key in ("coverage", "risk", "bin_mean_uncertainty"):
        assert key in rows[0]


def test_bin_curve_with_fewer_points_than_bins():
    c = risk_coverage(emap([1.0, 2.0]), as3d([1.0, 2.0]))
    rows = bin_curve(c, bins=20)
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# mean-squared-error decomposition


def test_mse_check_requires_oracle_and_enough_draws():
    with pytest.raises(TypeError, match="oracle backend"):
        mse_decomposition_check(AffineSsdBackend(), 10, (6, 6, 6))
    backend = OracleBackend(TranslationTransform((1.0, 0.0, 0.0)), ErrorModel())
    with pytest.raises(ValueError, match="at least 2"):
        mse_decomposition_check(backend, 1, (6, 6, 6))


@pytest.mark.parametrize("phi", ["translation", "affine"])
@pytest.mark.parametrize("mu", [(0.5, 0.0, 0.0), (0.5, 0.1, 0.0)], ids=["mu-x", "mu-xy"])
def test_mse_check_exact_for_noise_free_model(phi, mu):
    # Sigma = 0: every draw equals mu, so empirical == ||mu||^2 with zero
    # scatter; 4 draws keep the division exact in floats.  The check reads
    # the drawn noise itself, so neither phi nor mu's rounding through
    # phi(grid) + eps - grid can move a bit.
    phis = {
        "translation": TranslationTransform((1.0, 0.0, 0.0)),
        "affine": AffineTransform(
            [[1.1, 0.05, 0.0], [-0.04, 0.95, 0.02], [0.0, 0.03, 1.05]], (0.5, -0.25, 1.0)
        ),
    }
    backend = OracleBackend(phis[phi], ErrorModel(mu=mu))
    rep = mse_decomposition_check(backend, 4, (6, 6, 6))
    assert np.array_equal(rep.empirical, rep.expected)
    assert rep.mean_expected == pytest.approx(sum(m * m for m in mu))
    assert rep.median_rel_error == 0.0
    assert rep.chi2_rel_std == 0.0


def test_mse_check_matches_mean_plus_trace():
    # E||eps||^2 = ||mu||^2 + tr(Sigma); 500 draws on a small grid puts the
    # empirical mean well inside three relative standard deviations.
    mu = (1.0, 1.0, 1.0)
    sigma = 0.25 * np.eye(3)
    backend = OracleBackend(
        TranslationTransform((1.0, 0.0, 0.0)), ErrorModel(mu=mu, sigma=sigma, seed=3)
    )
    rep = mse_decomposition_check(backend, 500, (8, 8, 8))
    assert rep.mean_expected == pytest.approx(3.75)
    band = 3.0 * rep.chi2_rel_std * rep.mean_expected
    assert abs(rep.mean_empirical - rep.mean_expected) <= band
    assert rep.draws == 500
    d = rep.to_dict()
    assert set(d) >= {"mean_empirical", "mean_expected", "median_rel_error", "chi2_rel_std"}
