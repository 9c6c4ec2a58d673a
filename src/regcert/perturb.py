"""Perturbation sampling and simulated ground-truth transforms.

Perturbation draws are small transforms applied to the source image before
re-registration; ground-truth draws are the larger transforms used to
synthesize evaluation pairs.  Every draw is deterministic in (seed, index):
each sample owns an independent RNG stream, so results do not depend on
evaluation order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AffineTransform,
    BSplineTransform,
    ConvergenceError,
    Transform,
    TranslationTransform,
    bspline_control_shape,
    compose,
    grid_points,
    invert_at,
)

__all__ = [
    "PerturbSpec",
    "GtSpec",
    "sample_perturbation",
    "simulate_gt_with_info",
]

PERTURB_FAMILIES = ("translation", "scale", "shear", "deform", "affine")
GT_KINDS = ("translation", "affine", "deform2", "solver-real")

# Stream tags keep perturbation, ground-truth, and noise draws disjoint
# even when they share one user-facing seed.
_TAG_PERTURB = 101
_TAG_GT = 102

_OFF_DIAG = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _check_shape(shape):
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 2 for s in shape):
        raise ValueError(f"bad domain shape {shape}")
    return shape


def _check_magnitudes(spec) -> None:
    """Checks of the fields PerturbSpec and GtSpec share; normalises scale_range."""
    object.__setattr__(spec, "scale_range", tuple(float(s) for s in spec.scale_range))
    lo, hi = spec.scale_range
    for ok, rule in ((spec.seed >= 0, "seed must be >= 0"),
                     (spec.translation_fraction >= 0, "translation_fraction must be >= 0"),
                     (0 < lo <= hi, f"bad scale range {spec.scale_range}"),
                     (spec.shear_max >= 0, "shear_max must be >= 0"),
                     (spec.grid_spacing >= 2, "grid_spacing must be >= 2"),
                     (spec.node_max >= 0, "node_max must be >= 0")):
        if not ok:
            raise ValueError(rule)


@dataclass(frozen=True)
class PerturbSpec:
    """What to draw when perturbing the source image.

    Magnitudes default to the small test-time ranges: per-axis translations
    up to 1% of the shape, scale factors in [0.9, 1.1], shear factors in
    [-0.02, 0.02], and B-spline fields (10-voxel lattice, node displacement
    up to 12.5 voxels) shrunk by a strength factor of 0.08.  'affine'
    combines translation, scale, and shear in one center-fixed draw.
    """

    family: str
    shape: tuple[int, int, int]
    seed: int = 0
    count: int = 50
    translation_fraction: float = 0.01
    scale_range: tuple[float, float] = (0.9, 1.1)
    shear_max: float = 0.02
    grid_spacing: int = 10
    node_max: float = 12.5
    deform_strength: float = 0.08

    def __post_init__(self):
        if self.family not in PERTURB_FAMILIES:
            raise ValueError(
                f"unknown perturbation family {self.family!r}; expected one of {PERTURB_FAMILIES}"
            )
        object.__setattr__(self, "shape", _check_shape(self.shape))
        _check_magnitudes(self)
        if self.count < 2:
            raise ValueError("perturbation count must be >= 2")
        if self.deform_strength < 0:
            raise ValueError("deform_strength must be >= 0")


def _center(shape) -> np.ndarray:
    return (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0


def _draw_translation(rng, shape, fraction) -> np.ndarray:
    bound = fraction * np.asarray(shape, dtype=np.float64)
    return rng.uniform(-bound, bound)


def _draw_scale_matrix(rng, scale_range) -> np.ndarray:
    lo, hi = scale_range
    return np.diag(rng.uniform(lo, hi, size=3))


def _draw_shear_matrix(rng, shear_max) -> np.ndarray:
    m = np.eye(3)
    vals = rng.uniform(-shear_max, shear_max, size=6)
    for (i, j), v in zip(_OFF_DIAG, vals):
        m[i, j] = v
    return m


def _draw_affine(rng, shape, spec) -> AffineTransform:
    """Translation, then shear, then scale, composed about the center of shape."""
    t = _draw_translation(rng, shape, spec.translation_fraction)
    a = _draw_shear_matrix(rng, spec.shear_max) @ _draw_scale_matrix(rng, spec.scale_range)
    return AffineTransform.center_fixed(a, _center(shape), extra_offset=t)


def _draw_bspline(rng, shape, spacing, node_max, strength) -> BSplineTransform:
    control_shape = bspline_control_shape(shape, spacing) + (3,)
    nodes = rng.uniform(-node_max, node_max, size=control_shape) * strength
    return BSplineTransform(spacing, nodes, shape)


def sample_perturbation(spec: PerturbSpec, n: int) -> Transform:
    """Draw perturbation n of spec.count; deterministic in (spec.seed, n)."""
    if not 0 <= n < spec.count:
        raise ValueError(f"sample index {n} outside [0, {spec.count})")
    rng = np.random.default_rng([spec.seed, _TAG_PERTURB, n])
    c = _center(spec.shape)
    if spec.family == "translation":
        return TranslationTransform(_draw_translation(rng, spec.shape, spec.translation_fraction))
    if spec.family == "scale":
        return AffineTransform.center_fixed(_draw_scale_matrix(rng, spec.scale_range), c)
    if spec.family == "shear":
        return AffineTransform.center_fixed(_draw_shear_matrix(rng, spec.shear_max), c)
    if spec.family == "affine":
        return _draw_affine(rng, spec.shape, spec)
    return _draw_bspline(
        rng, spec.shape, spec.grid_spacing, spec.node_max, spec.deform_strength
    )


@dataclass(frozen=True)
class GtSpec:
    """What to draw as the simulated ground-truth transform.

    Defaults follow the evaluation protocol: 10% translations, affines with
    shear in [-0.1, 0.1] and scale in [0.8, 1.2], 'deform2' as a composition
    of two full-strength B-spline layers (re-drawn until invertible within
    invert_tol_voxels), and 'solver-real' running the classical solvers on a
    phantom pair and adopting their estimate as truth.
    """

    kind: str
    seed: int = 0
    translation_fraction: float = 0.10
    shear_max: float = 0.10
    scale_range: tuple[float, float] = (0.8, 1.2)
    grid_spacing: int = 10
    node_max: float = 12.5
    invert_tol_voxels: float = 0.5
    max_resample: int = 10
    phantom_kind: str = "blobs"

    def __post_init__(self):
        if self.kind not in GT_KINDS:
            raise ValueError(f"unknown ground-truth kind {self.kind!r}; expected one of {GT_KINDS}")
        _check_magnitudes(self)
        if self.max_resample < 1:
            raise ValueError("max_resample must be >= 1")
        if self.invert_tol_voxels <= 0:
            raise ValueError("invert_tol_voxels must be > 0")


def _deform2_attempt(spec: GtSpec, shape, attempt: int):
    layers = []
    for layer in range(2):
        rng = np.random.default_rng([spec.seed, _TAG_GT, attempt, layer])
        layers.append(
            _draw_bspline(rng, shape, spec.grid_spacing, spec.node_max, 1.0)
        )
    composed = compose(layers[1], layers[0], shape=shape)
    return composed, layers


def _simulate_deform2(spec: GtSpec, shape):
    grid = grid_points(shape).reshape(-1, 3)
    for attempt in range(spec.max_resample):
        composed, layers = _deform2_attempt(spec, shape, attempt)
        _, residual, _ = invert_at(composed, grid, max_iter=100, strict=False)
        if residual <= spec.invert_tol_voxels:
            info = {
                "kind": "deform2",
                "attempt": attempt,
                "inversion_residual_voxels": float(residual),
                "layers": [
                    {
                        "grid_spacing": spec.grid_spacing,
                        "node_max": spec.node_max,
                        "seed_stream": [spec.seed, _TAG_GT, attempt, layer],
                    }
                    for layer in range(2)
                ],
            }
            return composed, info
    raise ConvergenceError(
        f"deform2 ground truth not invertible within {spec.invert_tol_voxels} voxels "
        f"after {spec.max_resample} attempts (last residual {residual:.3g})"
    )


def _simulate_solver_real(spec: GtSpec, shape):
    # Imported lazily: the solvers live downstream of this module.
    from .register import affine_ssd_register, demons_register
    from .volume import make_phantom, warp

    src = make_phantom(shape, spec.phantom_kind, seed=spec.seed)
    other = make_phantom(shape, spec.phantom_kind, seed=spec.seed + 1)
    aff = affine_ssd_register(src, other)
    aligned = warp(src, aff.transform)
    dem = demons_register(aligned, other)
    total = compose(aff.transform, dem.transform, shape=shape)
    info = {
        "kind": "solver-real",
        "phantom_kind": spec.phantom_kind,
        "phantom_seeds": [spec.seed, spec.seed + 1],
        "stages": [
            {"solver": solver, "final_ssd": reg.final_ssd, "diverged": reg.diverged,
             "iterations": reg.iterations}
            for solver, reg in (("affine_ssd", aff), ("demons", dem))
        ],
    }
    return total, info


def simulate_gt_with_info(spec: GtSpec, shape) -> tuple[Transform, dict]:
    """Draw a ground-truth transform plus metadata describing how it was built."""
    shape = _check_shape(shape)
    rng = np.random.default_rng([spec.seed, _TAG_GT])
    if spec.kind == "translation":
        t = _draw_translation(rng, shape, spec.translation_fraction)
        return TranslationTransform(t), {"kind": "translation", "offset": t.tolist()}
    if spec.kind == "affine":
        tr = _draw_affine(rng, shape, spec)
        return tr, {"kind": "affine", "matrix": tr.matrix.tolist(), "offset": tr.offset.tolist()}
    if spec.kind == "deform2":
        return _simulate_deform2(spec, shape)
    return _simulate_solver_real(spec, shape)
