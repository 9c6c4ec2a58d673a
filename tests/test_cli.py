"""End-to-end tests for the command-line interface.

Every test drives ``regcert.cli.main`` in-process with a JSON config in a
temp directory, then inspects the files it writes and the exit code it
returns.  One smoke test runs the installed module through a real
subprocess.
"""

import csv
import dataclasses
import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regcert.cli as cli
from regcert.cli import main
from regcert.perturb import PerturbSpec
from regcert.uncertainty import MAX_THREADS
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


# What simulate-pair writes, what estimate writes with every backend, and what evaluate writes.
PAIR_FILES = ("source.rcv", "target.rcv", "gt.rcv", "gt.json")
ESTIMATE_MAPS = ("u.rcv", "cov.rcv", "mean.rcv", "pred.rcv", "estimate.json")
EVALUATE_FILES = ("error.rcv", "metrics.json", "risk_coverage_binned.csv")
# What a pair directory holds after an oracle estimate, and after a solver's.
ORACLE_FILES = PAIR_FILES + ESTIMATE_MAPS + ("intrinsic.rcv", "jitter.rcv")
SOLVER_FILES = PAIR_FILES + ESTIMATE_MAPS + ("solver_log.csv",)
ESTIMATE_KEYS = sorted(["backend", "perturb_spec", "n_samples", "n_clamped",
                        "max_inversion_residual", "divisor", "unbiased", "seed", "threads",
                        "wall_time_s"])


def json_without_wall_time(path):
    obj = json.loads(path.read_text())
    obj.pop("wall_time_s", None)
    return obj


@pytest.fixture
def estimated_maps(monkeypatch):
    """The float64 maps of each estimate run in this test, as bytes by name, in run order.

    estimate writes its maps as float32, which rounds away a difference in
    their last bits, such as one from adding the samples in another order.
    """
    runs = []
    real = cli.estimate_uncertainty

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        runs.append({k: v.tobytes() for k, v in report.items() if isinstance(v, np.ndarray)})
        return report

    monkeypatch.setattr(cli, "estimate_uncertainty", recording)
    return runs


# ---------------------------------------------------------------------------
# subprocess smoke


def test_module_help_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "regcert", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate-pair" in proc.stdout
    assert "lemma-check" in proc.stdout


def test_stages_run_without_scipy(tmp_path):
    # The runtime needs numpy only, and every stage is its own process.  The
    # child blocks scipy before the first import and runs each stage with
    # each solver, so the pyramid and the demons smoothing really run.
    sim = write_cfg(tmp_path, "sim.json", base_sim_cfg(shape=[16, 16, 16]))
    ev = write_cfg(tmp_path, "ev.json", {})
    runs = []
    for kind in ("affine_ssd", "demons"):
        est = {"perturb": {"family": "translation", "count": 2},
               "backend": {"kind": kind, "iters": 1}}
        runs.append((write_cfg(tmp_path, f"{kind}.json", est), str(tmp_path / kind)))
    lemma = write_cfg(tmp_path, "lemma.json", {
        "lemma": {"grid": [8, 8, 8], "n_mc": 4, "checks": [{"kind": "translation"}]}})
    child = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from regcert.cli import main\n"
        "sim, ev, lemma, lemma_out = sys.argv[1:5]\n"
        "for est, out in json.loads(sys.argv[5]):\n"
        "    for cmd, cfg in (('simulate-pair', sim), ('estimate', est), ('evaluate', ev)):\n"
        "        assert main([cmd, '--config', cfg, '--out', out]) == 0, (cmd, est)\n"
        "assert main(['lemma-check', '--config', lemma, '--out', lemma_out]) == 0\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items()\n"
        "                        if m.split('.')[0] == 'scipy' and mod is not None)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, sim, ev, lemma, str(tmp_path / "lemma"), json.dumps(runs)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    for _, out in runs:
        assert isinstance(json.loads((Path(out) / "metrics.json").read_text())["spearman"], float)
        assert (Path(out) / "solver_log.csv").is_file()


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
    write_minimal_nifti(nii, data, spacing=(2, 2, 3))
    out = tmp_path / "pair"
    cfg = write_cfg(tmp_path, "sim.json", base_sim_cfg(**oracle_est_cfg(count=4)))
    rc = main(
        ["simulate-pair", "--config", cfg, "--out", str(out), "--import-nifti", str(nii)]
    )
    assert rc == 0
    src = read_volume(out / "source.rcv")
    assert src.shape == (18, 17, 16)
    np.testing.assert_array_equal(src.scalar, data)
    meta = json.loads((out / "gt.json").read_text())
    assert meta["source"] == "nifti-import"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    # Every volume of every stage sits on the source's grid.
    for name in ("source", "target", "gt", "u", "cov", "mean", "pred", "intrinsic", "jitter",
                 "error"):
        vol = read_volume(out / f"{name}.rcv")
        assert vol.shape == (18, 17, 16)
        assert vol.spacing.tolist() == [2.0, 2.0, 3.0], name
        assert vol.origin.tolist() == [0.0, 0.0, 0.0], name


# ---------------------------------------------------------------------------
# estimate


def test_estimate_writes_maps_and_echoes_config(tmp_path, capsys):
    out = simulate(tmp_path, tmp_path / "pair")
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg())
    rc = main(["estimate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    # oracle backends get the analytic covariance split as well
    assert sorted(p.name for p in out.iterdir()) == sorted(ORACLE_FILES)
    meta = json.loads((out / "estimate.json").read_text())
    assert sorted(meta) == ESTIMATE_KEYS
    assert meta["backend"]["kind"] == "oracle"
    assert meta["perturb_spec"]["family"] == "translation"
    assert meta["perturb_spec"]["count"] == 12
    assert meta["n_samples"] == 12
    assert meta["n_clamped"] == 0
    assert meta["max_inversion_residual"] == 0.0
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
    assert sorted(p.name for p in out.iterdir()) == sorted(SOLVER_FILES)
    meta = json.loads((out / "estimate.json").read_text())
    assert sorted(meta) == ESTIMATE_KEYS
    assert meta["max_inversion_residual"] == 0.0


@pytest.mark.parametrize("order", [("oracle", "affine_ssd"), ("affine_ssd", "oracle")],
                         ids=["oracle-then-solver", "solver-then-oracle"])
def test_estimate_leaves_no_file_of_another_backend(tmp_path, order):
    # Each run ends with the file set a fresh directory gets.
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    runs = {"oracle": (oracle_est_cfg(count=4), ORACLE_FILES),
            "affine_ssd": ({"perturb": {"count": 2}, "backend": {"kind": "affine_ssd", "iters": 1}},
                           SOLVER_FILES)}
    for kind in order:
        cfg, files = runs[kind]
        assert main(["estimate", "--config", write_cfg(tmp_path, f"{kind}.json", cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(files), kind


def test_estimate_reports_the_oracle_inversion_residual(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    cfg = write_cfg(tmp_path, "est.json", oracle_est_cfg(perturb={"family": "deform", "count": 3}))
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    residual = json.loads((out / "estimate.json").read_text())["max_inversion_residual"]
    # The CLI's oracle inverts strictly: a residual above 10 * tol would have raised.
    assert 0.0 < residual <= 1e-2


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


def test_estimate_oracle_reads_its_mu_field_volume(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    field = np.zeros((16, 16, 16, 3), dtype=np.float32)
    field[..., 0] = np.linspace(0.0, 1.5, 16)[:, None, None]
    field[..., 2] = -0.25
    write_volume(tmp_path / "mu.rcv", Volume3(field))
    model = {"mu_field_path": str(tmp_path / "mu.rcv"), "sigma": 0.0}
    cfg = oracle_est_cfg(count=4, backend={"kind": "oracle", "error_model": model})
    assert main(["estimate", "--config", write_cfg(tmp_path, "est.json", cfg),
                 "--out", str(out)]) == 0
    for name in ("intrinsic.rcv", "jitter.rcv"):
        assert read_volume(out / name).shape == (16, 16, 16), name
    # With sigma 0 the unperturbed oracle is the ground truth plus the field.
    gap = read_volume(out / "pred.rcv").data - read_volume(out / "gt.rcv").data
    np.testing.assert_allclose(gap, field, atol=1e-5)
    echo = json.loads((out / "estimate.json").read_text())["backend"]["error_model"]
    assert echo["mu_field_path"] == str(tmp_path / "mu.rcv")


def test_oracle_split_is_on_the_target_grid(tmp_path):
    # Perturbations live on the source's shape, the estimate and its split on the target's.
    out = tmp_path / "pair"
    out.mkdir()
    write_volume(out / "source.rcv", Volume3(np.zeros((10, 10, 10), dtype=np.float32)))
    write_volume(out / "target.rcv", Volume3(np.zeros((12, 12, 12), dtype=np.float32)))
    write_volume(out / "gt.rcv", Volume3(np.zeros((12, 12, 12, 3), dtype=np.float32)))
    cfg = oracle_est_cfg(perturb={"family": "deform", "count": 3})
    assert main(["estimate", "--config", write_cfg(tmp_path, "est.json", cfg),
                 "--out", str(out)]) == 0
    for name in ("cov.rcv", "intrinsic.rcv", "jitter.rcv"):
        assert read_volume(out / name).shape == (12, 12, 12), name


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
    assert sorted(p.name for p in out.iterdir()) == sorted(ORACLE_FILES + EVALUATE_FILES)
    binned = (out / "risk_coverage_binned.csv").read_text().splitlines()
    assert binned[0] == "coverage,risk,bin_mean_uncertainty"
    assert len(binned) == 1 + 10
    assert "metrics:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "shape, perturb",
    [([20, 20, 20], {"family": "translation", "count": 12, "translation_fraction": 0.01}),
     # A linear family's split is one row broadcast over the grid; deform draws split every voxel.
     ([16, 16, 16], {"family": "deform", "count": 6}),
     # Off a cube, the oracle's per-shape grid slot is shared by the sample threads.
     ([16, 18, 20], {"family": "affine", "count": 6})],
    ids=["translation", "deform", "affine-box"],
)
def test_pipeline_reruns_are_byte_identical_across_threads(tmp_path, estimated_maps,
                                                          shape, perturb):
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg(perturb=perturb))
    ev = write_cfg(tmp_path, "ev.json", {})
    for threads in ("1", "2", "3"):
        out = simulate(tmp_path, tmp_path / f"run{threads}", base_sim_cfg(shape=shape))
        assert main(["estimate", "--config", est, "--out", str(out), "--threads", threads]) == 0
        assert main(["evaluate", "--config", ev, "--out", str(out)]) == 0
    # The oracle's closed-form split is reduced in the threaded pass too.
    assert sorted(estimated_maps[0]) == ["cov", "intrinsic", "jitter", "mean", "u"]
    assert estimated_maps == [estimated_maps[0]] * 3
    a = tmp_path / "run1"
    ja = json_without_wall_time(a / "estimate.json")
    assert ja.pop("threads") == 1
    for threads in ("2", "3"):
        b = tmp_path / f"run{threads}"
        for name in ("u.rcv", "cov.rcv", "mean.rcv", "pred.rcv", "intrinsic.rcv", "jitter.rcv",
                     "error.rcv", "metrics.json", "risk_coverage_binned.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (threads, name)
        jb = json_without_wall_time(b / "estimate.json")
        assert jb.pop("threads") == int(threads)
        assert ja == jb


def test_deform_demons_estimate_is_byte_identical_across_threads(tmp_path, estimated_maps):
    # Deform perturbations through the tensor-product warp and the demons
    # solver, in 5 draws: one pool chunk, with two workers busy at the end at
    # 3 threads.  Each threaded run is repeated five times, each into a fresh
    # pair, so a fault in a sample thread that shows now and then still fails.
    cfg = base_sim_cfg(shape=[16, 16, 16], perturb={"family": "deform", "count": 5},
                       backend={"kind": "demons", "iters": 2})
    est = write_cfg(tmp_path, "est.json", cfg)

    def run(threads, rerun=0):
        out = simulate(tmp_path, tmp_path / f"run{threads}-{rerun}", cfg)
        assert main(["estimate", "--config", est, "--out", str(out), "--threads", threads]) == 0
        return out

    a = run("1")
    ja = json_without_wall_time(a / "estimate.json")
    assert ja.pop("threads") == 1
    for threads in ("2", "3"):
        for rerun in range(5):
            b = run(threads, rerun)
            assert estimated_maps[-1] == estimated_maps[0], (threads, rerun)
            for name in ("u.rcv", "cov.rcv", "mean.rcv", "pred.rcv", "solver_log.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), (threads, rerun, name)
            jb = json_without_wall_time(b / "estimate.json")
            assert jb.pop("threads") == int(threads)
            assert ja == jb


@pytest.mark.parametrize("count", [0, 2, 3, 7])
def test_write_csv_reads_back_through_csv_reader(tmp_path, count):
    rows = [(i, i / 7.0, f"r{i}") for i in range(count)]
    cli._write_csv(tmp_path / "t.csv", ("a", "b", "c"), iter(rows))
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as f:
        got = list(csv.reader(f))
    assert got == [["a", "b", "c"]] + [[str(v) for v in row] for row in rows]


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


def test_evaluate_scores_the_mask_voxels_only(tmp_path):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    mask = np.zeros((16, 16, 16), dtype=np.float32)
    mask[4:12, 2:10, 5:9] = 1.0
    write_volume(tmp_path / "mask.rcv", Volume3(mask))
    ev = write_cfg(tmp_path, "ev.json", {"evaluate": {"mask_path": str(tmp_path / "mask.rcv")}})
    assert main(["evaluate", "--config", ev, "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["mask_voxels"] == 8 * 8 * 4


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


def test_lemma_check_sweeps_deform_strength_one_row_each(tmp_path):
    model = {"mu": [0.3, 0.0, 0.0], "sigma": 0.2, "seed": 7}
    checks = [{"kind": "deform", "strength": s, "model": model} for s in (0.02, 0.08)]
    cfg = write_cfg(tmp_path, "sweep.json", {"lemma": {"grid": [8, 8, 8], "n_mc": 20,
                                                       "checks": checks}})
    out = tmp_path / "sweep"
    assert main(["lemma-check", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "lemma_report.json").read_text())["checks"]
    assert [(r["kind"], r["strength"], r["n_samples"]) for r in rows] == [
        ("deform", 0.02, 20), ("deform", 0.08, 20)
    ]


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


@pytest.mark.parametrize(
    "text",
    [b"{not json", b'\xff\xfe{"seed": 1}', b"[" * 200_000 + b"]" * 200_000],
    ids=["not-json", "not-utf8", "too-deep"],
)
def test_invalid_json_config_exits_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    rc = main(["simulate-pair", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("where", ["flag", "config"])
def test_threads_above_ceiling_exits_one(tmp_path, capsys, where):
    # No pair is simulated: a missed check would exit 3 reading it, before
    # any sample thread starts.
    too_many = MAX_THREADS + 1
    cfg = oracle_est_cfg(count=4, **({"threads": too_many} if where == "config" else {}))
    argv = ["--threads", str(too_many)] if where == "flag" else []
    out = tmp_path / "empty"
    rc = main(["estimate", "--config", write_cfg(tmp_path, "est.json", cfg),
               "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and "'threads'" in err and str(MAX_THREADS) in err
    assert not out.exists()


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


def lemma_cfg(*checks, n_mc=50, mse=()):
    """An 8^3 lemma config whose first check, translation at n_mc 50, passes."""
    first = {"kind": "translation", "n_mc": 50}
    return {"lemma": {"grid": [8, 8, 8], "n_mc": n_mc, "checks": [first, *checks],
                      "mse": list(mse)}}


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
        ("simulate-pair", {"shape": [16, 16, 16], "phantom": {"seed": [1]}}, "'seed'"),
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
        ("evaluate", {"evaluate": {"bins": 0}}, "'bins'"),
        ("estimate", oracle_est_cfg(count=2.9), "'count'"),
        ("simulate-pair", {"shape": [16, 16, 16.7]}, "'shape'"),
        ("simulate-pair", {"shape": [16, 16, True]}, "'shape'"),
        ("simulate-pair", {"shape": [16, 16, 16], "seed": True}, "'seed'"),
        (
            "lemma-check",
            {"lemma": {"grid": [6, 6, 6], "checks": [
                {"kind": "translation", "n_mc": 4, "model": {"sigma": 0.5, "seed": 7.5}}
            ]}},
            "'seed'",
        ),
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
        # Each value mistake below follows a check that would pass: it must
        # stop the run before that check's Monte Carlo.
        ("lemma-check", lemma_cfg({"kind": "rotation"}), "'kind'"),
        ("lemma-check", lemma_cfg({"kind": "deform", "strength": -1}), "'strength'"),
        ("lemma-check", lemma_cfg({"kind": "affine"}, n_mc=1), "'n_mc'"),
        ("lemma-check", lemma_cfg({"kind": "affine", "seed": -1}), "'seed'"),
        ("lemma-check", lemma_cfg(mse=[{"draws": 1}]), "'draws'"),
        # Backend values the solvers reject are read as config, not hit at sample 0.
        ("estimate", {"backend": {"kind": "affine_ssd", "levels": 0}}, "'levels'"),
        ("estimate", {"backend": {"kind": "affine_ssd", "step": 0}}, "'step'"),
        ("estimate", {"backend": {"kind": "demons", "smooth_sigma": -1}}, "'smooth_sigma'"),
        # ... also where no pair has been simulated yet ("@empty": an empty directory).
        ("estimate@empty", {"backend": {"kind": "affine_ssd", "levels": 0}}, "'levels'"),
        ("estimate@empty", {"estimate": {"unbiased": 1}}, "'unbiased'"),
        # GtSpec checks the magnitudes it shares with PerturbSpec.
        ("simulate-pair", {"shape": [16, 16, 16], "gt": {"seed": -1}}, "'seed'"),
        ("simulate-pair", {"shape": [16, 16, 16], "gt": {"kind": "deform2", "grid_spacing": 1}},
         "'grid_spacing'"),
        ("simulate-pair", {"shape": [16, 16, 16], "gt": {"kind": "affine", "scale_range": [0, 0]}},
         "'scale_range'"),
        # Every seed is checked while the config is read.
        ("simulate-pair", {"shape": [16, 16, 16], "seed": -1}, "'seed'"),
        ("simulate-pair", {"shape": [16, 16, 16], "phantom": {"seed": -1}}, "'seed'"),
        (
            "estimate",
            oracle_est_cfg(count=4, backend={"kind": "oracle", "error_model": {"seed": -1}}),
            "'seed'",
        ),
        ("lemma-check", lemma_cfg({"kind": "affine", "model": {"sigma": 0.5, "seed": -1}}),
         "'seed'"),
        # Every estimate section is read before the pair is opened.
        ("estimate@empty", {"perturb": {"cout": 5}}, "'cout'"),
        ("estimate@empty", {"backend": {"kind": "oracle", "error_model": {"sigam": 0.5}}},
         "'sigam'"),
        # The source sets the perturbation shape.
        ("estimate", oracle_est_cfg(count=4, perturb={"count": 4, "shape": [16, 16, 16]}),
         "'shape'"),
        ("estimate", {"backend": {"kind": ["x"]}}, "unknown backend kind"),
        ("estimate", {"backend": {"kind": {"oracle": 1}}}, "unknown backend kind"),
        # Path keys take strings: open() would take an integer for a file descriptor.
        # No descriptor 10**6 is open; the descriptor test below passes a real one.
        ("evaluate", {"evaluate": {"mask_path": 10**6}}, "'mask_path'"),
        ("evaluate", {"evaluate": {"mask_path": ["mask.rcv"]}}, "'mask_path'"),
        (
            "estimate",
            oracle_est_cfg(count=4, backend={"kind": "oracle",
                                             "error_model": {"mu_field_path": 10**6}}),
            "'mu_field_path'",
        ),
        (
            "estimate",
            oracle_est_cfg(count=4, backend={"kind": "oracle",
                                             "error_model": {"mu_field_path": ["mu.rcv"]}}),
            "'mu_field_path'",
        ),
        # Number keys take JSON numbers only.
        ("estimate", {"backend": {"kind": "affine_ssd", "step": "0.25"}}, "'step'"),
        ("estimate", {"backend": {"kind": "affine_ssd", "step": float("nan")}}, "'step'"),
        ("estimate", {"backend": {"kind": "demons", "smooth_sigma": float("inf")}},
         "'smooth_sigma'"),
        ("estimate", oracle_est_cfg(count=4, sigma=True), "'sigma'"),
        ("estimate", oracle_est_cfg(count=4, sigma="0.5"), "'sigma'"),
        # A sigma whose square overflows is a config value, not a numeric failure.
        ("lemma-check", {"lemma": {"grid": [8, 8, 8], "n_mc": 4, "checks": [
            {"kind": "translation", "model": {"sigma": 1e200}}
        ]}}, "'sigma'"),
        ("estimate@empty", {"backend": {"kind": "oracle", "error_model": {"sigma": 1e200}}},
         "'sigma'"),
        # Each phi kind takes its own keys only.
        ("lemma-check", {"lemma": {"phi": {"kind": "identity", "offset": [1, 0, 0]},
                                   "checks": []}}, "'offset'"),
        ("lemma-check", {"lemma": {"phi": {"kind": "identity", "matrix": np.eye(3).tolist()},
                                   "checks": []}}, "'matrix'"),
        ("lemma-check", {"lemma": {"phi": {"kind": "translation", "matrix": np.eye(3).tolist()},
                                   "checks": []}}, "'matrix'"),
        # Every scale function but "one" reads a linear perturbation: deform draws have none.
        ("estimate", oracle_est_cfg(perturb={"family": "deform", "count": 4}, backend={
            "kind": "oracle", "error_model": {"mu": [0.5, 0.0, 0.0], "mu_scale": "det"}}),
         "'mu_scale'"),
        ("estimate@empty", oracle_est_cfg(perturb={"family": "deform", "count": 4}, backend={
            "kind": "oracle", "error_model": {"sigma": 0.5, "sigma_scale": "mean_diag"}}),
         "'sigma_scale'"),
        ("lemma-check", lemma_cfg({"kind": "deform", "model": {"sigma": 0.5, "sigma_scale": "det"}}),
         "'sigma_scale'"),
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
        "phantom-seed-list",
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
        "bins",
        "count-fraction",
        "shape-fraction",
        "shape-bool",
        "seed-bool",
        "model-seed-fraction",
        "oracle-model-key",
        "lemma-key",
        "check-key",
        "check-model-key",
        "mse-key",
        "mse-model-key",
        "top-level-key",
        "check-kind",
        "check-strength",
        "lemma-n_mc",
        "check-seed",
        "mse-draws",
        "affine-ssd-levels",
        "affine-ssd-step",
        "demons-smooth-sigma",
        "affine-ssd-levels-no-pair",
        "unbiased-no-pair",
        "gt-seed",
        "gt-grid-spacing",
        "gt-scale-range",
        "negative-seed",
        "phantom-negative-seed",
        "oracle-model-negative-seed",
        "check-model-negative-seed",
        "perturb-key-no-pair",
        "oracle-model-key-no-pair",
        "perturb-shape",
        "backend-kind-list",
        "backend-kind-object",
        "mask-path-int",
        "mask-path-list",
        "mu-field-path-int",
        "mu-field-path-list",
        "float-key-string",
        "float-key-nan",
        "float-key-infinity",
        "sigma-bool",
        "sigma-string",
        "sigma-overflow",
        "sigma-overflow-no-pair",
        "identity-phi-offset",
        "identity-phi-matrix",
        "translation-phi-matrix",
        "deform-mu-scale",
        "deform-sigma-scale-no-pair",
        "check-deform-sigma-scale",
    ],
)
def test_config_mistakes_exit_one(tmp_path, capsys, command, cfg, names):
    out = tmp_path / "nd" / "deeper"
    command, _, empty = command.partition("@")
    if command in ("estimate", "evaluate") and not empty:
        simulate(tmp_path, out, base_sim_cfg(shape=[16, 16, 16]))
    if command == "evaluate":
        est = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
        assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = not out.exists()
    path = write_cfg(tmp_path, "cfg.json", cfg)
    rc = main([command, "--config", path, "--out", str(out)])
    printed = capsys.readouterr()
    err = printed.err
    assert rc == 1
    assert err.startswith("config error")
    assert "Traceback" not in err
    if names is not None:
        assert names in err
    # The rejected stage runs nothing and writes nothing.
    assert "[lemma-check]" not in printed.out
    unwritten = ["error.rcv", "metrics.json", "risk_coverage_binned.csv", "lemma_report.json"]
    if command != "evaluate":
        unwritten.append("estimate.json")
    if command == "simulate-pair":
        unwritten.append("source.rcv")
    assert [name for name in unwritten if (out / name).exists()] == []
    # Nor does it create a fresh output directory or its parents.
    if fresh:
        assert not (tmp_path / "nd").exists()


@pytest.mark.parametrize("key", ["mask_path", "mu_field_path"])
def test_integer_path_leaves_the_callers_files_open(tmp_path, capsys, key):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    est = oracle_est_cfg(count=4)
    assert main(["estimate", "--config", write_cfg(tmp_path, "est.json", est),
                 "--out", str(out)]) == 0
    with open(tmp_path / "held.txt", "w", encoding="utf-8") as held:
        if key == "mask_path":
            command, cfg = "evaluate", {"evaluate": {"mask_path": held.fileno()}}
        else:
            model = {"mu_field_path": held.fileno()}
            command, cfg = "estimate", {**est, "backend": {"kind": "oracle", "error_model": model}}
        rc = main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", str(out)])
        os.fstat(held.fileno())
        held.write("still open")
    assert rc == 1
    assert f"{key!r}" in capsys.readouterr().err
    assert (tmp_path / "held.txt").read_text(encoding="utf-8") == "still open"


@pytest.mark.parametrize(
    "key, shape, fill",
    [("mask_path", (16, 16, 16, 3), 1.0), ("mu_field_path", (16, 16, 16, 1), 1.0),
     # A mu_field on another grid than the pair's would be sampled with clamped edges.
     ("mu_field_path", (4, 4, 4, 3), 1.0),
     # A mask that selects no voxel leaves nothing to score.
     ("mask_path", (16, 16, 16, 1), 0.0)],
    ids=["mask_path-3", "mu_field_path-1", "mu_field_path-grid", "mask_path-empty"],
)
def test_config_volume_with_wrong_channels_exits_one(tmp_path, capsys, key, shape, fill):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    est = oracle_est_cfg(count=4)
    assert main(["estimate", "--config", write_cfg(tmp_path, "est.json", est),
                 "--out", str(out)]) == 0
    path = tmp_path / "volume.rcv"
    write_volume(path, Volume3(np.full(shape, fill, dtype=np.float32)))
    if key == "mask_path":
        command, cfg = "evaluate", {"evaluate": {"mask_path": str(path)}}
    else:
        model = {"mu_field_path": str(path)}
        command, cfg = "estimate", {**est, "backend": {"kind": "oracle", "error_model": model}}
    before = (out / "u.rcv").read_bytes()
    rc = main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert (str(path) if key == "mask_path" else "'mu_field_path'") in err
    assert (out / "u.rcv").read_bytes() == before
    assert [name for name in EVALUATE_FILES if (out / name).exists()] == []


@pytest.mark.parametrize("where", ["checks", "mse"])
def test_lemma_mu_field_on_another_grid_exits_one(tmp_path, capsys, where):
    path = tmp_path / "mu.rcv"
    write_volume(path, Volume3(np.zeros((16, 16, 16, 3), dtype=np.float32)))
    model = {"mu_field_path": str(path), "sigma": 0.1}
    lemma = {"grid": [8, 8, 8], "n_mc": 4, "checks": [{"kind": "translation"}]}
    if where == "checks":
        lemma["checks"].append({"kind": "translation", "model": model})
    else:
        lemma["mse"] = [{"model": model, "draws": 2}]
    out = tmp_path / "o"
    rc = main(["lemma-check", "--config", write_cfg(tmp_path, "lemma.json", {"lemma": lemma}),
               "--out", str(out)])
    assert rc == 1
    printed = capsys.readouterr()
    assert printed.err.startswith("config error") and "'mu_field_path'" in printed.err
    # Rejected at config read: no check ran and no directory was made.
    assert "[lemma-check]" not in printed.out and not out.exists()


def test_negative_seed_flag_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", base_sim_cfg())
    out = tmp_path / "o"
    rc = main(["simulate-pair", "--config", cfg, "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_integral_config_values_are_accepted(tmp_path):
    cfg = base_sim_cfg(shape=[16, 16.0, 16], seed=1.0, **oracle_est_cfg(count=4.0))
    out = simulate(tmp_path, tmp_path / "pair", cfg)
    assert read_volume(out / "source.rcv").shape == (16, 16, 16)
    assert main(["estimate", "--config", write_cfg(tmp_path, "est.json", cfg),
                 "--out", str(out)]) == 0
    assert json.loads((out / "estimate.json").read_text())["n_samples"] == 4


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
    "text",
    [
        '{"gt": ',
        '{"gt": {"kind": "affine", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}',
        '[{"gt": {"kind": "translation", "offset": [1.0, 0.0, 0.0]}}]',
    ],
    ids=["truncated", "affine-without-offset", "top-level-list"],
)
def test_malformed_gt_json_exits_three(tmp_path, capsys, text):
    out = simulate(tmp_path, tmp_path / "pair", base_sim_cfg(shape=[16, 16, 16]))
    est = write_cfg(tmp_path, "est.json", oracle_est_cfg(count=4))
    assert main(["estimate", "--config", est, "--out", str(out)]) == 0
    (out / "gt.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    rc = main(["evaluate", "--config", write_cfg(tmp_path, "ev.json", {}), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("i/o error:") and "gt.json" in err
    assert "Traceback" not in err
    assert [name for name in ("metrics.json", "error.rcv") if (out / name).exists()] == []


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
