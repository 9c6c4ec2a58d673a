"""Perturbation families and simulated ground truths.

Range-containment properties run over many draws; the exact draw values are
free, but every sampled parameter must stay inside its declared closed
interval and the whole pipeline must be deterministic in (seed, index).
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
    grid_points,
    invert_at,
)
from regcert.perturb import (
    GT_KINDS,
    PERTURB_FAMILIES,
    GtSpec,
    PerturbSpec,
    _TAG_GT,
    _TAG_PERTURB,
    _deform2_attempt,
    sample_perturbation,
    simulate_gt_with_info,
)

SHAPE = (20, 20, 20)
CENTER = np.array([9.5, 9.5, 9.5])


def spec_for(family, **kw):
    return PerturbSpec(family=family, shape=SHAPE, seed=0, count=1000, **kw)


def hand_affine(stream, shape, spec):
    """The affine draw written out: translation, then 6 shears, then 3 scales, about the center."""
    rng = np.random.default_rng(stream)
    bound = spec.translation_fraction * np.asarray(shape, dtype=np.float64)
    t = rng.uniform(-bound, bound)
    shear = np.eye(3)
    shear[~np.eye(3, dtype=bool)] = rng.uniform(-spec.shear_max, spec.shear_max, size=6)
    a = shear @ np.diag(rng.uniform(*spec.scale_range, size=3))
    c = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    return a, c - a @ c + t


def assert_is_hand_affine(t, stream, shape, spec):
    a, b = hand_affine(stream, shape, spec)
    assert t.matrix.tobytes() == a.tobytes() and t.offset.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("family", PERTURB_FAMILIES)
def test_sampling_is_deterministic_and_count_independent(family):
    a = sample_perturbation(spec_for(family), 7)
    b = sample_perturbation(spec_for(family), 7)
    g = grid_points((6, 6, 6)).reshape(-1, 3)
    assert np.array_equal(a.apply(g), b.apply(g))
    # The draw for sample n must not depend on how many samples exist.
    c = sample_perturbation(PerturbSpec(family=family, shape=SHAPE, seed=0, count=10), 7)
    assert np.array_equal(a.apply(g), c.apply(g))


def test_sample_index_validation():
    with pytest.raises(ValueError, match=r"outside \[0, 1000\)"):
        sample_perturbation(spec_for("translation"), 1000)
    with pytest.raises(ValueError):
        sample_perturbation(spec_for("translation"), -1)


# ---------------------------------------------------------------------------
# range containment (1000 draws per family)


def test_translation_draws_stay_inside_declared_range():
    spec = PerturbSpec(family="translation", shape=(100, 100, 100), seed=0, count=1000)
    offsets = np.array([sample_perturbation(spec, n).offset for n in range(1000)])
    assert np.all(np.abs(offsets) <= 1.0 + 1e-12)
    # The draws actually move: spread within an order of magnitude of the cap.
    assert offsets.std() > 0.1


def test_scale_draws_stay_inside_declared_range():
    spec = spec_for("scale")
    for n in range(1000):
        t = sample_perturbation(spec, n)
        d = np.diag(t.matrix)
        assert np.all((d >= 0.9 - 1e-12) & (d <= 1.1 + 1e-12))
        off = t.matrix - np.diag(d)
        assert np.all(off == 0.0)


def test_shear_draws_stay_inside_declared_range():
    spec = spec_for("shear")
    for n in range(1000):
        t = sample_perturbation(spec, n)
        assert np.all(np.diag(t.matrix) == 1.0)
        off = t.matrix[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) <= 0.02 + 1e-12)


def test_affine_draws_compose_shear_scale_translation():
    spec = spec_for("affine")
    for n in range(200):
        t = sample_perturbation(spec, n)
        assert isinstance(t, AffineTransform)
        assert_is_hand_affine(t, [spec.seed, _TAG_PERTURB, n], SHAPE, spec)
        # Row i scaled by the diagonal of the scale factor; shear bounded.
        s = np.diag(t.matrix)
        assert np.all((s >= 0.9 - 1e-12) & (s <= 1.1 + 1e-12))


def test_deform_draws_respect_node_bound():
    spec = spec_for("deform", deform_strength=0.08)
    for n in range(200):
        t = sample_perturbation(spec, n)
        assert isinstance(t, BSplineTransform)
        assert t.grid_spacing == 10
        assert np.max(np.abs(t.control)) <= 12.5 * 0.08 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 999))
def test_center_fixing_property(n):
    for family in ("scale", "shear", "affine"):
        t = sample_perturbation(spec_for(family), n)
        moved = t.apply(CENTER[None, :])[0]
        if family == "affine":
            moved = moved - sample_perturbation(spec_for("translation"), n).offset
        assert np.max(np.abs(moved - CENTER)) < 1e-9


def test_collapsed_ranges_give_identity():
    g = grid_points((8, 8, 8)).reshape(-1, 3)
    collapsed = dict(translation_fraction=0.0, scale_range=(1.0, 1.0), shear_max=0.0,
                     deform_strength=0.0)
    for family in PERTURB_FAMILIES:
        t = sample_perturbation(spec_for(family, **collapsed), 3)
        assert np.max(np.abs(t.apply(g) - g)) < 1e-12


# ---------------------------------------------------------------------------
# PerturbSpec and GtSpec validation


def test_perturb_spec_validation():
    with pytest.raises(ValueError):
        PerturbSpec(family="warp", shape=SHAPE)
    with pytest.raises(ValueError):
        PerturbSpec(family="translation", shape=SHAPE, count=1)
    with pytest.raises(ValueError):
        PerturbSpec(family="translation", shape=SHAPE, seed=-1)
    with pytest.raises(ValueError):
        PerturbSpec(family="deform", shape=SHAPE, grid_spacing=1)
    with pytest.raises(ValueError):
        PerturbSpec(family="scale", shape=SHAPE, scale_range=(1.1, 0.9))


def test_gt_spec_validation():
    with pytest.raises(ValueError, match="unknown ground-truth kind"):
        GtSpec("rigid")
    with pytest.raises(ValueError):
        GtSpec("translation", max_resample=0)


# ---------------------------------------------------------------------------
# ground truths


def test_translation_gt_range_and_metadata():
    for seed in range(20):
        gt, info = simulate_gt_with_info(GtSpec("translation", seed=seed), (40, 40, 40))
        assert isinstance(gt, TranslationTransform)
        assert info["kind"] == "translation"
        assert np.array_equal(info["offset"], gt.offset.tolist())
        assert np.all(np.abs(gt.offset) <= 4.0 + 1e-12)  # 10% of 40


def test_affine_gt_metadata_reproduces_transform():
    spec = GtSpec("affine", seed=4)
    gt, info = simulate_gt_with_info(spec, (32, 32, 32))
    # The same draw order as the perturbation family, from the ground-truth stream.
    assert_is_hand_affine(gt, [4, _TAG_GT], (32, 32, 32), spec)
    rebuilt = AffineTransform(info["matrix"], info["offset"])
    g = grid_points((8, 8, 8)).reshape(-1, 3)
    assert np.array_equal(gt.apply(g), rebuilt.apply(g))
    s = np.linalg.svd(gt.matrix, compute_uv=False)
    assert s.max() < 1.5 and s.min() > 0.5


def test_deform2_composes_two_layers_and_inverts():
    spec = GtSpec("deform2", seed=0, node_max=3.0)
    gt, info = simulate_gt_with_info(spec, (32, 32, 32))
    assert isinstance(gt, DenseTransform)
    assert info["kind"] == "deform2"
    assert len(info["layers"]) == 2
    assert info["inversion_residual_voxels"] <= 0.5
    # The metadata pins down both layers; rebuilding them reproduces the GT.
    composed, layers = _deform2_attempt(spec, (32, 32, 32), info["attempt"])
    assert np.array_equal(composed.displacement, gt.displacement)
    assert all(isinstance(l, BSplineTransform) for l in layers)
    # And the accepted draw really is invertible to the recorded residual.
    _, residual, _ = invert_at(gt, grid_points((32, 32, 32)).reshape(-1, 3), max_iter=100)
    assert residual == info["inversion_residual_voxels"]


def test_deform2_accepts_a_draw_within_invert_tol_voxels():
    # Attempt 0 of this spec inverts to about 0.24 voxels: above the fixed
    # point's own 10*tol, yet within the default tolerance of 0.5.
    shape = (16, 16, 16)
    _, info = simulate_gt_with_info(GtSpec("deform2", seed=1, node_max=6.9), shape)
    assert info["attempt"] == 0
    assert 0.01 < info["inversion_residual_voxels"] <= 0.5
    _, tight = simulate_gt_with_info(
        GtSpec("deform2", seed=1, node_max=6.9, invert_tol_voxels=0.2), shape
    )
    assert tight["attempt"] == 1
    assert tight["inversion_residual_voxels"] <= 0.2


def test_deform2_displacement_bounded_by_node_sum():
    # Two stacked layers can displace at most 2 x node_max voxels (the cubic
    # basis is a partition of unity).  Observed max over 100 raw draws at
    # default strength: 13.7269; frozen with headroom as a regression bound.
    mx = 0.0
    for attempt in range(100):
        composed, _ = _deform2_attempt(GtSpec("deform2", seed=0), (32, 32, 32), attempt)
        mx = max(mx, float(np.abs(composed.displacement).max()))
    assert mx <= 25.0
    assert mx <= 14.0


def test_deform2_resample_exhaustion_raises():
    # Full-strength layers fold the domain, so every redraw fails and the
    # simulator must say so, with the last draw's residual, rather than hand
    # back a non-invertible truth.
    with pytest.raises(ConvergenceError, match=r"not invertible within .*last residual \d"):
        simulate_gt_with_info(GtSpec("deform2", seed=0, node_max=60.0, max_resample=2), (16, 16, 16))


def test_solver_real_gt_records_both_stages():
    gt, info = simulate_gt_with_info(GtSpec("solver-real", seed=2), (16, 16, 16))
    assert isinstance(gt, DenseTransform)
    assert [s["solver"] for s in info["stages"]] == ["affine_ssd", "demons"]
    for stage in info["stages"]:
        assert isinstance(stage["final_ssd"], float)
        assert isinstance(stage["diverged"], bool)
        assert isinstance(stage["iterations"], int)
    assert info["phantom_seeds"] == [2, 3]
    assert np.all(np.isfinite(gt.displacement))


def test_gt_kinds_constant():
    assert set(GT_KINDS) == {"translation", "affine", "deform2", "solver-real"}
    assert set(PERTURB_FAMILIES) == {"translation", "scale", "shear", "deform", "affine"}
