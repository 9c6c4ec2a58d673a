"""Every metric the benchmark reports: unit, direction, layer and prediction.

``moves`` names the end-to-end metric and workload a change to the metric's
layer should move; the per-layer figures exist to show where a saving lands.
``BENCHMARK.json`` at the checkout root holds the same names, units,
directions and bounds; ``python3 regbench/catalog.py`` prints it.
"""

from __future__ import annotations

import json
import sys

from spans import LAYERS
from workloads import WORKLOADS

RUN_SECONDS = 20

# Measured with tracing off, in every run of every workload.  Stage times
# (stage.simulate_s, stage.estimate_s, stage.evaluate_s, stage.lemma_s) and
# check_fail_frac are printed as info lines instead: a stage exists on only
# some workloads, and check_fail_frac is 0 whenever a run is correct, so
# neither can carry a relative bound.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25, "layer": "cli",
     "moves": "child start until regcert.cli is imported, median of several children; "
              "no src change should move it, work moved into import shows here"},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25, "layer": "all",
     "moves": "all CLI stages, in process; every optimisation claims on it"},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25, "layer": "all",
     "moves": "user+sys of the stages; BLAS spin (ROADMAP 2c) on pipeline_affine"},
    {"name": "draws_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "layer": "uncertainty",
     "moves": "perturbation draws per second of the estimate or lemma stage"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1, "layer": "all",
     "moves": "child peak resident set; guards memory traded for speed"},
)

# Layers whose calls are non-zero on every workload: only these report span
# times by bound-free metric, so no reported time is a constant zero.
TIMED = (
    "geometry.trilinear_sample",
    "volume.warp",
    "perturb.sample_perturbation",
    "uncertainty.estimate_uncertainty",
    "cli.main",
)

PER_DRAW = (
    "perturb.sample_perturbation",
    "register.OracleBackend.register",
    "register.OracleBackend.inverse_positions",
)

# Internal spans: recorded for derived metrics, not reported by name.
INTERNAL = ("uncertainty._one_sample",)

MOVES = {
    "geometry.trilinear_sample": "stage.estimate_s on pipeline_affine (ROADMAP 2a)",
    "geometry.BSplineTransform.displacement":
        "wall_s on lemma_deform and stage.estimate_s on pipeline_demons (ROADMAP 2d)",
    "geometry.BSplineTransform.displacement_jacobian": "wall_s on lemma_deform",
    "geometry.invert_at": "wall_s on lemma_deform (ROADMAP 3)",
    "volume.warp": "stage.estimate_s on pipeline_demons and pipeline_affine",
    "volume.read_volume": "pipeline stage.* times; guard, nothing should move it today",
    "volume.write_volume": "pipeline stage.* times; guard, nothing should move it today",
    "volume.make_phantom": "stage.simulate_s on the pipelines",
    "perturb.sample_perturbation": "draws_per_s on lemma_oracle and lemma_deform (ROADMAP 3)",
    "register.affine_ssd_register": "stage.estimate_s on pipeline_affine (ROADMAP 2b, 2c)",
    "register.demons_register": "stage.estimate_s on pipeline_demons",
    "register.AffineSsdBackend.register": "stage.estimate_s on pipeline_affine",
    "register.DemonsBackend.register": "stage.estimate_s on pipeline_demons",
    "register.OracleBackend.register": "draws_per_s on the lemma workloads (ROADMAP 3)",
    "register.OracleBackend.inverse_positions":
        "draws_per_s on the lemma workloads (ROADMAP 3)",
    "uncertainty.estimate_uncertainty": "wall_s on every workload (reduce, ROADMAP 3)",
    "uncertainty.decompose_cov": "draws_per_s on lemma_oracle (ROADMAP 3)",
    "uncertainty.verify_lemma": "wall_s on lemma_deform (linearized closed form, ROADMAP 3)",
    "metrics.error_map": "stage.evaluate_s on the pipelines",
    "metrics.risk_coverage": "stage.evaluate_s on the pipelines",
    "metrics.pearson": "stage.evaluate_s on the pipelines",
    "metrics.spearman": "stage.evaluate_s on the pipelines",
    "metrics.mse_decomposition_check": "wall_s on lemma_oracle (ROADMAP 3)",
    "cli.main": "wall_s on every workload; cli self time is config, JSON and CSV handling",
}


def _layer_metrics():
    out = []
    for layer in LAYERS:
        name = layer.name
        if name in INTERNAL:
            continue
        layer_of = name.split(".")[0]
        moves = MOVES[name]
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower",
                    "layer": layer_of, "moves": moves})
        for count, _ in layer.counts:
            out.append({"name": f"{name}.{count}", "unit": "count", "better": "lower",
                        "layer": layer_of, "moves": moves})
        if name in PER_DRAW:
            out.append({"name": f"{name}.calls_per_draw", "unit": "count/draw",
                        "better": "lower", "layer": layer_of, "moves": moves})
        if name in TIMED:
            for stat in ("busy_s", "self_s"):
                out.append({"name": f"{name}.{stat}", "unit": "s", "better": "lower",
                            "layer": layer_of, "moves": moves})
    sample = "stage.estimate_s and draws_per_s on every workload"
    out += [
        {"name": "register.sample_s.p50", "unit": "s", "better": "lower", "layer": "register",
         "moves": sample},
        {"name": "register.sample_s.tail", "unit": "s", "better": "lower", "layer": "register",
         "moves": sample},
        {"name": "register.sample_s.n", "unit": "count", "better": "higher",
         "layer": "register", "moves": sample},
        {"name": "uncertainty.worker_busy_frac", "unit": "frac", "better": "higher",
         "layer": "uncertainty", "moves": "stage.estimate_s on pipeline_demons"},
        {"name": "trace.overhead_frac", "unit": "frac", "better": "lower", "layer": "trace",
         "moves": "none: the cost of tracing itself, traced / untraced wall_s - 1"},
    ]
    return tuple(out)


PER_LAYER = _layer_metrics()


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "regbench/run.py"],
        "paths": ["regbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
