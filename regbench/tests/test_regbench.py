"""Tests of the benchmark itself.

    python3 -m pytest regbench/tests -q

The traced runs execute every workload once untraced and once traced at its
acceptance seed, about three minutes on two cores.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "regbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_benchmark_json_limits():
    spec = catalog.benchmark_json()
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for w in spec["workloads"]:
        assert NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_reported_layer_names_what_it_moves():
    reported = {l.name for l in LAYERS} - set(catalog.INTERNAL)
    assert set(catalog.MOVES) == reported
    for w in WORKLOADS.values():
        assert w.active <= {l.name for l in LAYERS}


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run("--workload", "pipeline_demons", "--seconds", "1", "--trace", "0")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in catalog.END_TO_END]
    for m in catalog.END_TO_END:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert "info check_fail_frac 0.0 frac" in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_sees_exactly_the_active_layers(workload):
    w = WORKLOADS[workload]
    proc = _run("--workload", workload, "--trace", "1")
    res = _result(proc)
    assert res["correct"], proc.stdout
    assert "check PASS traced outputs == untraced outputs" in proc.stdout
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in catalog.PER_LAYER]
    for layer in LAYERS:
        if layer.name in catalog.INTERNAL:
            continue
        calls = metrics[f"{layer.name}.calls"]["value"]
        assert (calls > 0) == (layer.name in w.active), (layer.name, calls)
    if workload == "pipeline_affine":
        assert metrics["geometry.invert_at.calls"]["value"] == 0
    if workload.startswith("lemma"):
        assert metrics["register.affine_ssd_register.calls"]["value"] == 0
        assert metrics["perturb.sample_perturbation.calls_per_draw"]["value"] == 2.0
        assert metrics["register.OracleBackend.inverse_positions.calls_per_draw"]["value"] == 2.0
    prefix = "info binding_sites "
    line = next(l for l in proc.stdout.splitlines() if l.startswith(prefix))
    sites = json.loads(line[len(prefix):])
    assert {"regcert.geometry", "regcert.volume", "regcert.register"} <= set(
        sites["geometry.trilinear_sample"]
    )
    assert {"regcert.uncertainty", "regcert.cli"} <= set(sites["volume.warp"])


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "regbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lemma_deform", "--seed", "3", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
