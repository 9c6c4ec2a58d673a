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
