"""End-to-end tests for the command-line interface.

Every test drives ``regcert.cli.main`` in-process with a JSON config in a
temp directory, then inspects the files it writes and the exit code it
returns.  One smoke test runs the installed module through a real
subprocess.
"""

import dataclasses
import gzip
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

import regcert.cli as cli
from regcert.cli import main
from regcert.perturb import PerturbSpec
from regcert.volume import Volume3, read_volume, write_volume


# ---------------------------------------------------------------------------
# helpers


def write_cfg(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def write_minimal_nifti(path, data, spacing=(1.0, 1.0, 1.0), byteorder="<"):
    """348-byte header + 4-byte extension flag + float32 payload (x fastest)."""
    hdr = bytearray(348)
    struct.pack_into(f"{byteorder}i", hdr, 0, 348)
    dim = (3,) + data.shape + (1, 1, 1, 1)
    struct.pack_into(f"{byteorder}8h", hdr, 40, *dim)
    struct.pack_into(f"{byteorder}h", hdr, 70, 16)  # float32
    struct.pack_into(f"{byteorder}h", hdr, 72, 32)  # bitpix
    pixdim = (1.0,) + tuple(spacing) + (0.0, 0.0, 0.0, 0.0)
    struct.pack_into(f"{byteorder}8f", hdr, 76, *pixdim)
    struct.pack_into(f"{byteorder}f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    payload = np.asarray(data, dtype=f"{byteorder}f4").ravel(order="F").tobytes()
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)


def base_sim_cfg(**extra):
    cfg = {
        "shape": [20, 20, 20],
        "seed": 1,
        "phantom": {"kind": "blobs"},
        "gt": {"kind": "translation", "translation_fraction": 0.10},
    }
    cfg.update(extra)
    return cfg


def oracle_est_cfg(count=12, sigma=0.25, **extra):
    cfg = {
        "perturb": {"family": "translation", "count": count, "translation_fraction": 0.01},
        "backend": {"kind": "oracle", "error_model": {"mu": [0.5, 0.0, 0.0], "sigma": sigma}},
    }
    cfg.update(extra)
    return cfg


def simulate(tmp_path, out, cfg=None, argv_extra=()):
    cfg_path = write_cfg(tmp_path, "sim.json", cfg if cfg is not None else base_sim_cfg())
    rc = main(["simulate-pair", "--config", cfg_path, "--out", str(out), *argv_extra])
    assert rc == 0
    return out


def json_without_wall_time(path):
    obj = json.loads(path.read_text())
    obj.pop("wall_time_s", None)
    return obj


# ---------------------------------------------------------------------------
# subprocess smoke


def test_module_help_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "regcert", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate-pair" in proc.stdout
    assert "lemma-check" in proc.stdout


def test_pair_stages_never_import_scipy_stats(tmp_path):
    # scipy.stats costs more start-up than the rest of the package together,
    # and every stage is its own process; a lazy import would hide from a
    # check on `import regcert.cli` alone, so the child runs all three stages.
    out = tmp_path / "pair"
    sim = write_cfg(tmp_path, "sim.json", base_sim_cfg(shape=[16, 16, 16]))
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    ev = write_cfg(tmp_path, "ev.json", {})
    child = (
        "import json, sys\n"
        "from regcert.cli import main\n"
        "sim, est, ev, out = sys.argv[1:]\n"
        "for cmd, cfg in (('simulate-pair', sim), ('estimate', est), ('evaluate', ev)):\n"
        "    assert main([cmd, '--config', cfg, '--out', out]) == 0, cmd\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats'])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, sim, est, ev, str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert isinstance(json.loads((out / "metrics.json").read_text())["spearman"], float)


# ---------------------------------------------------------------------------
# simulate-pair


def test_simulate_pair_writes_volumes_and_metadata(tmp_path, capsys):
    out = tmp_path / "pair"
    simulate(tmp_path, out)
    for name in ("source.rcv", "target.rcv", "gt.rcv", "gt.json"):
        assert (out / name).is_file()
    meta = json.loads((out / "gt.json").read_text())
    assert meta["seed"] == 1
    assert meta["shape"] == [20, 20, 20]
    assert meta["source"] == "phantom"
    assert meta["gt"]["kind"] == "translation"
    assert meta["gt_spec"]["kind"] == "translation"
    assert f"wrote pair to {out}" in capsys.readouterr().out


def test_simulate_pair_seed_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    simulate(tmp_path, out_a, base_sim_cfg(seed=9), argv_extra=["--seed", "4"])
    simulate(tmp_path, out_b, base_sim_cfg(seed=4))
    assert (out_a / "source.rcv").read_bytes() == (out_b / "source.rcv").read_bytes()
    assert (out_a / "target.rcv").read_bytes() == (out_b / "target.rcv").read_bytes()


def test_simulate_pair_deform2_records_layer_metadata(tmp_path):
    out = tmp_path / "pair"
    cfg = base_sim_cfg(gt={"kind": "deform2", "node_max": 3.0})
    simulate(tmp_path, out, cfg)
    meta = json.loads((out / "gt.json").read_text())
    info = meta["gt"]
    assert info["kind"] == "deform2"
    assert len(info["layers"]) == 2
    for layer in info["layers"]:
        assert layer["node_max"] == 3.0
        assert layer["grid_spacing"] == 10
        assert len(layer["seed_stream"]) == 4
    assert info["inversion_residual_voxels"] <= 0.5


def test_simulate_pair_imports_nifti_source(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 1.0, size=(18, 17, 16)).astype(np.float32)
    nii = tmp_path / "head.nii"
    write_minimal_nifti(nii, data)
    out = tmp_path / "pair"
    cfg = write_cfg(tmp_path, "sim.json", base_sim_cfg())
    rc = main(
        ["simulate-pair", "--config", cfg, "--out", str(out), "--import-nifti", str(nii)]
    )
    assert rc == 0
    src = read_volume(out / "source.rcv")
    assert src.shape == (18, 17, 16)
    np.testing.assert_array_equal(src.scalar, data)
    meta = json.loads((out / "gt.json").read_text())
    assert meta["source"] == "nifti-import"


# ---------------------------------------------------------------------------
# estimate


def test_estimate_writes_maps_and_echoes_config(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair")
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg())
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    for name in ("u.rcv", "cov.rcv", "mean.rcv", "pred.rcv", "estimate.json"):
        assert (out / name).is_file()
    # oracle backends get the analytic covariance split as well
    assert (out / "intrinsic.rcv").is_file()
    assert (out / "jitter.rcv").is_file()
    meta = json.loads((out / "estimate.json").read_text())
    assert meta["backend"]["kind"] == "oracle"
    assert meta["perturb_spec"]["family"] == "translation"
    assert meta["perturb_spec"]["count"] == 12
    assert meta["n_samples"] == 12
    assert meta["divisor"] == "n"
    assert meta["unbiased"] is False
    assert meta["threads"] == 1
    assert meta["wall_time_s"] >= 0.0
    assert "wrote uncertainty maps" in capsys.readouterr().out
    u = read_volume(out / "u.rcv")
    assert u.shape == (20, 20, 20)
    assert u.channels == 1
    assert read_volume(out / "cov.rcv").channels == 6
    assert read_volume(out / "mean.rcv").channels == 3


def test_estimate_defaults_and_unbiased_divisor(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(
        tmp_path,
        "est.json",
        {
            "perturb": {"count": 6},
            "backend": {"kind": "oracle"},
            "estimate": {"unbiased": True},
        },
    )
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "estimate.json").read_text())
    assert meta["perturb_spec"]["family"] == "translation"
    assert meta["perturb_spec"]["translation_fraction"] == 0.01
    # every unset key keeps PerturbSpec's own default; the seed is the run's (0)
    want = dataclasses.asdict(PerturbSpec(family="translation", shape=(16, 16, 16), seed=0, count=6))
    assert meta["perturb_spec"] == json.loads(json.dumps(want))
    assert meta["divisor"] == "n-1"
    assert meta["unbiased"] is True


def test_estimate_solver_backend_skips_decomposition(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(
        tmp_path,
        "est.json",
        {
            "perturb": {"count": 4, "translation_fraction": 0.01},
            "backend": {"kind": "affine_ssd", "levels": 2, "iters": 2, "step": 0.3},
        },
    )
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "u.rcv").is_file()
    assert not (out / "intrinsic.rcv").exists()
    assert not (out / "jitter.rcv").exists()


@pytest.mark.parametrize(
    "backend, header",
    [
        ({"kind": "affine_ssd", "levels": 2, "iters": 2, "step": 0.3}, "level,iteration,ssd,step"),
        ({"kind": "demons", "iters": 3}, "iteration,ssd"),
    ],
    ids=["affine_ssd", "demons"],
)
def test_estimate_writes_solver_log_for_solver_backend(tmp_path, backend, header):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(tmp_path, "est.json", {"perturb": {"count": 2}, "backend": backend})
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    log = (out / "solver_log.csv").read_text().splitlines()
    assert log[0] == header
    assert len(log) > 1
    assert all(len(row.split(",")) == len(header.split(",")) for row in log)


def test_estimate_with_oracle_backend_writes_no_log(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert not (out / "solver_log.csv").exists()


# ---------------------------------------------------------------------------
# evaluate and the full pipeline


def test_full_pipeline_metrics_and_curves(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair")
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg())
    assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    ev = write_cfg(tmp_path, "ev.json", {"evaluate": {"bins": 10}})
    rc = main(["evaluate", "--config", ev, "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for key in (
        "pearson",
        "spearman",
        "aurc",
        "oracle_aurc",
        "random_aurc",
        "naurc",
        "mask_voxels",
        "bins",
    ):
        assert key in metrics
    assert metrics["mask_voxels"] == 20 * 20 * 20
    assert metrics["bins"] == 10
    assert metrics["aurc"] >= metrics["oracle_aurc"]
    assert (out / "error.rcv").is_file()
    rows = (out / "risk_coverage.csv").read_text().splitlines()
    assert rows[0] == "coverage,risk,bin_mean_uncertainty"
    assert len(rows) == 1 + 20 * 20 * 20
    binned = (out / "risk_coverage_binned.csv").read_text().splitlines()
    assert binned[0] == "coverage,risk,bin_mean_uncertainty"
    assert len(binned) == 1 + 10
    assert "metrics:" in capsys.readouterr().out


def test_pipeline_reruns_are_byte_identical_across_threads(tmp_path):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"run{threads}"
        simulate(tmp_path, out)
        est = write_cfg(tmp_path, "est.json", oracle_est_cfg())
        assert main(["estimate", "--config", est, "--out", str(out), "--threads", threads]) == 0
        ev = write_cfg(tmp_path, "ev.json", {})
        assert main(["evaluate", "--config", ev, "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    for name in ("u.rcv", "cov.rcv", "mean.rcv", "pred.rcv", "error.rcv", "risk_coverage.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert json_without_wall_time(a / "estimate.json") != json_without_wall_time(b / "estimate.json")
    ja, jb = (json_without_wall_time(p / "estimate.json") for p in (a, b))
    ja.pop("threads"), jb.pop("threads")
    assert ja == jb
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_evaluate_reports_undefined_for_degenerate_correlations(tmp_path, capsys):
    # a constant uncertainty map leaves the correlations with no spread
    # to rank against; the report must say so instead of emitting NaN
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    write_volume(out / "u.rcv", Volume3(np.ones((16, 16, 16), dtype=np.float32)))
    ev = write_cfg(tmp_path, "ev.json", {})
    assert main(["evaluate", "--config", ev, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["pearson"] == "undefined"
    assert metrics["spearman"] == "undefined"
    assert "undefined" in capsys.readouterr().out
    # text form must survive a JSON round trip (no bare NaN tokens)
    json.loads((out / "metrics.json").read_text(), parse_constant=lambda _: pytest.fail("NaN"))


# ---------------------------------------------------------------------------
# lemma-check


def test_lemma_check_passes_and_writes_report(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "lemma.json",
        {
            "lemma": {
                "grid": [8, 8, 8],
                "n_mc": 300,
                "checks": [{"kind": "translation"}, {"kind": "affine"}],
                "mse": [{"model": {"mu": [1.0, 0.0, 0.0], "sigma": 0.0}, "draws": 4}],
            }
        },
    )
    out = tmp_path / "lemma"
    rc = main(["lemma-check", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[lemma-check] PASS kind=translation" in captured
    assert "[lemma-check] PASS kind=affine" in captured
    assert "[lemma-check] PASS mse" in captured
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["grid"] == [8, 8, 8]
    assert report["n_mc"] == 300
    assert len(report["checks"]) == 2
    assert all(chk["passed"] for chk in report["checks"])
    assert report["checks"][0]["note"] == "exact (no linearization)"
    assert len(report["mse"]) == 1
    assert report["mse"][0]["passed"] is True
    assert report["mse"][0]["mean_expected"] == pytest.approx(1.0)


def test_lemma_check_failure_exits_two(tmp_path, capsys, monkeypatch):
    real = cli.verify_lemma

    def failing(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), passed=False)

    monkeypatch.setattr(cli, "verify_lemma", failing)
    cfg = write_cfg(
        tmp_path,
        "lemma.json",
        {"lemma": {"grid": [8, 8, 8], "n_mc": 50, "checks": [{"kind": "translation"}]}},
    )
    rc = main(["lemma-check", "--config", cfg, "--out", str(tmp_path / "lemma")])
    assert rc == 2
    assert "[lemma-check] FAIL kind=translation" in capsys.readouterr().out
    report = json.loads((tmp_path / "lemma" / "lemma_report.json").read_text())
    assert report["checks"][0]["passed"] is False


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_invalid_json_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate-pair", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


def test_missing_shape_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"seed": 0})
    rc = main(["simulate-pair", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "shape" in capsys.readouterr().err


def test_unknown_backend_kind_exits_one(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(tmp_path, "est.json", {"backend": {"kind": "elastix"}})
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 1
    assert "unknown backend kind" in capsys.readouterr().err


def test_nonpositive_threads_exits_one(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    rc = main(["estimate", "--config", cfg, "--out", str(out), "--threads", "0"])
    assert rc == 1


@pytest.mark.parametrize("command", ["simulate-pair", "evaluate", "lemma-check"])
def test_threads_flag_rejected_outside_estimate(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "cfg.json", base_sim_cfg())
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_unknown_phi_kind_exits_one(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "lemma.json", {"lemma": {"phi": {"kind": "rigid"}, "checks": []}}
    )
    rc = main(["lemma-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


def test_lemma_check_without_kind_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lemma.json", {"lemma": {"checks": [{"n_mc": 10}]}})
    rc = main(["lemma-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "needs a 'kind'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, names",
    [
        ("lemma-check", {"seed": "x", "lemma": {"grid": [6, 6, 6], "checks": []}}, None),
        ("lemma-check", {"lemma": {"grid": [6, 6], "checks": []}}, None),
        ("lemma-check", {"lemma": {"grid": [6, 6, 6], "checks": [], "mse": [3]}}, None),
        ("lemma-check", {"lemma": {"phi": "translation", "checks": []}}, None),
        (
            "lemma-check",
            {"lemma": {"phi": {"kind": "translation", "ofset": [3, 0, 0]}, "checks": []}},
            "'ofset'",
        ),
        ("lemma-check", {"lemma": {"grid": [6, 6, 6], "checks": ["kind"]}}, None),
        ("lemma-check", {"lemma": {"checks": [{"kind": "translation", "n_mc": "many"}]}}, None),
        ("simulate-pair", {"shape": [8, 8, 8], "phantom": {"seed": "x"}}, None),
        ("simulate-pair", {"shape": [8, 8, 8]}, "shape"),
        ("simulate-pair", {"shape": [16, 16, 16], "phantom": {"kind": "noise"}}, "'noise'"),
        ("simulate-pair", {"shape": [16, 16, 16], "gt": {"cout": 3}}, "'cout'"),
        ("simulate-pair", {"shape": [16, 16, 16], "phantom": {"kind": "blobs", "sed": 2}}, "'sed'"),
        ("estimate", {"perturb": {"cout": 500}, "backend": {"kind": "oracle"}}, "'cout'"),
        ("estimate", {"backend": {"kind": "affine_ssd", "iter": 2}}, "'iter'"),
        ("estimate", {"backend": {"kind": "demons", "sigma": 1.0}}, "'sigma'"),
        ("estimate", {"backend": {"kind": "oracle", "error_modle": {}}}, "'error_modle'"),
        ("estimate", oracle_est_cfg(count=4, estimate={"unbiased": "false"}), "'unbiased'"),
        ("estimate", oracle_est_cfg(count=4, estimate={"unbaised": True}), "'unbaised'"),
        ("evaluate", {"evaluate": {"bin": 5}}, "'bin'"),
        (
            "estimate",
            {"perturb": {"count": 4}, "backend": {"kind": "oracle", "error_model": {"sigam": 0.5}}},
            "'sigam'",
        ),
        ("lemma-check", {"lemma": {"grid": [6, 6, 6], "n_mc": 4, "chekcs": []}}, "'chekcs'"),
        (
            "lemma-check",
            {"lemma": {"grid": [6, 6, 6], "checks": [
                {"kind": "deform", "n_mc": 4, "strenght": 0.3, "model": {"sigam": 0.5}}
            ]}},
            "'strenght'",
        ),
        (
            "lemma-check",
            {"lemma": {"grid": [6, 6, 6], "checks": [
                {"kind": "translation", "n_mc": 4, "model": {"mu": [0.5, 0.0, 0.0], "sigam": 0.5}}
            ]}},
            "'sigam'",
        ),
        (
            "lemma-check",
            {"lemma": {"grid": [6, 6, 6], "checks": [], "mse": [{"drows": 4}]}},
            "'drows'",
        ),
        (
            "lemma-check",
            {"lemma": {"grid": [6, 6, 6], "checks": [], "mse": [
                {"draws": 4, "model": {"sigam": 0.5}}
            ]}},
            "'sigam'",
        ),
        ("simulate-pair", {"sead": 5}, "'sead'"),
    ],
    ids=[
        "seed",
        "grid",
        "mse-entry",
        "phi",
        "phi-key",
        "check-entry",
        "n_mc",
        "phantom-seed",
        "phantom-shape",
        "phantom-kind",
        "gt-key",
        "phantom-key",
        "perturb-key",
        "affine-ssd-key",
        "demons-key",
        "oracle-key",
        "unbiased",
        "estimate-key",
        "evaluate-key",
        "oracle-model-key",
        "lemma-key",
        "check-key",
        "check-model-key",
        "mse-key",
        "mse-model-key",
        "top-level-key",
    ],
)
def test_config_mistakes_exit_one(tmp_path, capsys, command, cfg, names):
    out = tmp_path / "o"
    if command == "estimate":
        simulate(tmp_path, out, base_sim_cfg(shape=[16, 16, 16]))
        capsys.readouterr()
    path = write_cfg(tmp_path, "cfg.json", cfg)
    rc = main([command, "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error")
    assert "Traceback" not in err
    if names is not None:
        assert names in err
    assert not (out / "estimate.json").exists()


def test_affine_phi_without_matrix_exits_one(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "lemma.json", {"lemma": {"phi": {"kind": "affine"}, "checks": []}}
    )
    rc = main(["lemma-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "matrix" in capsys.readouterr().err


def test_non_invertible_perturbation_exits_two(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(
        tmp_path,
        "est.json",
        {
            "perturb": {"family": "deform", "count": 2, "node_max": 60.0, "deform_strength": 1.0},
            "backend": {"kind": "oracle"},
        },
    )
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numeric failure:" in err
    assert "perturbation sample" in err


def test_estimate_without_pair_exits_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert rc == 3
    assert "i/o error:" in capsys.readouterr().err


def test_corrupted_volume_exits_three(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    blob = (out / "target.rcv").read_bytes()
    (out / "target.rcv").write_bytes(blob[:40])
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "i/o error:" in capsys.readouterr().err


def test_corrupt_volume_spacing_exits_three(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    raw = bytearray((out / "target.rcv").read_bytes())
    struct.pack_into("<d", raw, 32, 0.0)  # x spacing
    (out / "target.rcv").write_bytes(bytes(raw))
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err
    assert "target.rcv" in err


@pytest.mark.parametrize(
    "write",
    [
        lambda p, k: write_volume(p, Volume3(np.full((2, 2, 2), float(k)))),
        lambda p, k: cli._write_json(p, {"k": k}),
        lambda p, k: cli._write_csv(p, ("k",), [(k,)]),
    ],
    ids=["rcv", "json", "csv"],
)
def test_artifact_write_failure_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path, 1)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_compressed_nifti_import_exits_three(tmp_path, capsys):
    gz = tmp_path / "head.nii.gz"
    gz.write_bytes(gzip.compress(b"\x00" * 400))
    cfg = write_cfg(tmp_path, "sim.json", base_sim_cfg())
    rc = main(
        [
            "simulate-pair",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "o"),
            "--import-nifti",
            str(gz),
        ]
    )
    assert rc == 3
    assert "compressed NIfTI is not supported" in capsys.readouterr().err
