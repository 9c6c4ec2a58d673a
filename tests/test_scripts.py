"""Smoke tests for the scripts under ``scripts/``.

Each script is loaded from its path and its ``main`` is called in-process
on a small configuration.
"""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_strength_sweep_writes_one_row_per_strength(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["--grid", "8", "8", "8", "--n-mc", "20", "--strengths", "0.08", "--json-out", str(out)]
    assert load_script("strength_sweep").main(argv) == 0
    rows = json.loads(out.read_text())
    assert [(r["kind"], r["strength"], r["n_samples"]) for r in rows] == [("deform", 0.08, 20)]
    assert f"wrote {out}" in capsys.readouterr().out


def test_run_pipeline_runs_all_three_stages(tmp_path, capsys):
    cfg = {
        "shape": [16, 16, 16],
        "seed": 1,
        "perturb": {"family": "translation", "count": 2},
        "backend": {"kind": "affine_ssd", "iters": 1},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert load_script("run_pipeline").main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "estimate.json").read_text())["n_samples"] == 2
    assert "naurc" in json.loads((out / "metrics.json").read_text())
    assert "pipeline finished" in capsys.readouterr().out
