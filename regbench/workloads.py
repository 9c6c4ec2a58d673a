"""The benchmark's workloads: regcert CLI configs, pins and layer activity.

Every workload is a sequence of ``regcert`` CLI stages run in one fresh
child process.  Its inputs derive from the workload seed alone.  At the
acceptance seed the outputs are pinned (rel 1e-9) to the values the
acceptance criteria and the seed commit produce; at any other seed the
outputs must pass their own checks (lemma PASS, uncertainty maps that rank
the error better than random).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

PIN_REL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    acceptance_seed: int
    stages: tuple  # (stage name, regcert subcommand)
    draws: int  # perturbation draws per run of the workload
    threads: int  # ``--threads`` given to ``estimate``
    active: frozenset  # layers with calls > 0; every other layer must show 0
    pins: dict = field(default_factory=dict)

    def blas_threads(self, nproc: int) -> int:
        return max(1, nproc // self.threads)

    def config(self, seed: int) -> dict:
        return _CONFIGS[self.name](seed)

    def check(self, out_dir: Path, seed: int) -> list[tuple[str, bool, str]]:
        pinned = seed == self.acceptance_seed
        if self.stages == PIPELINE:
            return _check_pipeline(self, out_dir, pinned)
        return _check_lemma(self, out_dir, pinned)


def _pipeline_affine(seed):
    # Criterion 7 of the acceptance gate.
    return {
        "shape": [48, 48, 48],
        "seed": seed,
        "phantom": {"kind": "blobs"},
        "gt": {"kind": "translation", "translation_fraction": 0.10},
        "perturb": {"family": "translation", "count": 50, "translation_fraction": 0.01},
        "backend": {"kind": "affine_ssd", "levels": 3, "iters": 3, "step": 0.25},
        "evaluate": {"bins": 20},
    }


def _lemma_oracle(seed):
    # The default translation and affine checks with mu=(0.5,0,0), sigma=0.5.
    return {
        "seed": seed,
        "lemma": {
            "grid": [16, 16, 16],
            "n_mc": 2000,
            "mse": [{"model": {"mu": [0.5, 0.0, 0.0], "sigma": 0.5}, "draws": 2000}],
        },
    }


def _lemma_deform(seed):
    # Criterion 6 of the acceptance gate: noise stream seed 7 at seed 0.
    model = {"mu": [0.3, 0.0, 0.0], "sigma": 0.2, "seed": 7 + seed}
    return {
        "seed": seed,
        "lemma": {
            "grid": [12, 12, 12],
            "n_mc": 200,
            "checks": [
                {"kind": "deform", "strength": s, "model": model} for s in (0.02, 0.08, 0.3)
            ],
        },
    }


def _pipeline_demons(seed):
    return {
        "shape": [32, 32, 32],
        "seed": seed,
        "phantom": {"kind": "blobs"},
        "gt": {"kind": "translation", "translation_fraction": 0.05},
        "perturb": {"family": "deform", "count": 20},
        "backend": {"kind": "demons", "iters": 20, "smooth_sigma": 1.0},
        "evaluate": {"bins": 20},
    }


_CONFIGS = {
    "pipeline_affine": _pipeline_affine,
    "lemma_oracle": _lemma_oracle,
    "lemma_deform": _lemma_deform,
    "pipeline_demons": _pipeline_demons,
}

PIPELINE = (("simulate", "simulate-pair"), ("estimate", "estimate"), ("evaluate", "evaluate"))
LEMMA = (("lemma", "lemma-check"),)

_ALWAYS = {
    "geometry.trilinear_sample",
    "volume.warp",
    "perturb.sample_perturbation",
    "uncertainty.estimate_uncertainty",
    "uncertainty._one_sample",
    "cli.main",
}
_PIPELINE_LAYERS = _ALWAYS | {
    "volume.read_volume",
    "volume.write_volume",
    "volume.make_phantom",
    "metrics.error_map",
    "metrics.risk_coverage",
    "metrics.pearson",
    "metrics.spearman",
}
_ORACLE_LAYERS = _ALWAYS | {
    "register.OracleBackend.register",
    "register.OracleBackend.inverse_positions",
    "uncertainty.verify_lemma",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_affine",
            why="criterion-7 pipeline, 48^3 affine_ssd N=50: the solver and trilinear gather "
            "hot path; no B-spline, inversion or closed form runs",
            acceptance_seed=1,
            stages=PIPELINE,
            draws=50,
            threads=1,
            active=frozenset(
                _PIPELINE_LAYERS
                | {"register.affine_ssd_register", "register.AffineSsdBackend.register"}
            ),
            pins={"pearson": 0.9840393475613693, "naurc": 0.02348257824815998},
        ),
        Workload(
            name="lemma_oracle",
            why="oracle lemma-check, 16^3 N=2000 translation+affine and 2000 mse draws: "
            "per-draw overhead, moment loops and decompose_cov; no solver or B-spline",
            acceptance_seed=0,
            stages=LEMMA,
            draws=4000,
            threads=1,
            active=frozenset(
                _ORACLE_LAYERS
                | {
                    "volume.make_phantom",
                    "uncertainty.decompose_cov",
                    "metrics.mse_decomposition_check",
                }
            ),
            pins={
                "median_rel_error": (0.04221029592641315, 0.04237187493238523),
                "mse": (0.999971173024303, 1.0, 0.011929481532835517),
            },
        ),
        Workload(
            name="lemma_deform",
            why="criterion-6 deform sweep, 12^3 N=200 at strengths 0.02/0.08/0.3: small-point "
            "B-spline evaluation and fixed-point invert_at, two inversions per draw",
            acceptance_seed=0,
            stages=LEMMA,
            draws=600,
            threads=1,
            active=frozenset(
                _ORACLE_LAYERS
                | {
                    "geometry.BSplineTransform.displacement",
                    "geometry.BSplineTransform.displacement_jacobian",
                    "geometry.invert_at",
                }
            ),
            pins={
                "median_rel_error": (
                    0.00018905117261270416,
                    0.0007520984836766532,
                    0.0027702363617571587,
                ),
            },
        ),
        Workload(
            name="pipeline_demons",
            why="32^3 demons pipeline, N=20 deform perturbations, --threads 2: demons, "
            "gaussian_filter, full-grid B-spline warps and the threaded sample pool",
            acceptance_seed=1,
            stages=PIPELINE,
            draws=20,
            threads=2,
            active=frozenset(
                _PIPELINE_LAYERS
                | {
                    "geometry.BSplineTransform.displacement",
                    "register.demons_register",
                    "register.DemonsBackend.register",
                }
            ),
            pins={"pearson": 0.5048384019192482, "naurc": 0.373006863427411},
        ),
    )
}


def _close(value, pin) -> bool:
    return isinstance(value, float) and math.isclose(value, pin, rel_tol=PIN_REL)


def _check_pipeline(w: Workload, out_dir: Path, pinned: bool):
    metrics = json.loads((out_dir / "metrics.json").read_text())
    pearson, naurc = metrics["pearson"], metrics["naurc"]
    if pinned:
        return [
            ("pearson pin", _close(pearson, w.pins["pearson"]), f"pearson={pearson!r}"),
            ("naurc pin", _close(naurc, w.pins["naurc"]), f"naurc={naurc!r}"),
        ]
    # Criterion 7's pearson > 0.5 holds at its own seed only (seed 2 gives 0.465),
    # so other seeds require what any useful map does: a positive correlation
    # with the error and a ranking better than random.
    return [
        ("pearson>0", isinstance(pearson, float) and pearson > 0.0, f"pearson={pearson!r}"),
        ("naurc<1", isinstance(naurc, float) and naurc < 1.0, f"naurc={naurc!r}"),
    ]


def _check_lemma(w: Workload, out_dir: Path, pinned: bool):
    report = json.loads((out_dir / "lemma_report.json").read_text())
    checks = []
    for i, rep in enumerate(report["checks"]):
        label = f"{rep['kind']}[{i}]"
        checks.append((f"{label} PASS", rep["passed"], rep["note"]))
        if pinned:
            err = rep["median_rel_error"]
            checks.append(
                (f"{label} median_rel_error pin", _close(err, w.pins["median_rel_error"][i]),
                 f"median_rel_error={err!r}")
            )
    if w.name == "lemma_deform":
        flags = tuple(rep["regime_violation"] for rep in report["checks"])
        checks.append(("regime flags (F,F,T)", flags == (False, False, True), f"flags={flags}"))
    for rep in report["mse"]:
        checks.append(("mse PASS", rep["passed"], f"mean_empirical={rep['mean_empirical']!r}"))
        if pinned:
            got = (rep["mean_empirical"], rep["mean_expected"], rep["median_rel_error"])
            ok = all(_close(g, p) for g, p in zip(got, w.pins["mse"]))
            checks.append(("mse pin", ok, f"(mean_empirical, mean_expected, median_rel)={got!r}"))
    return checks
