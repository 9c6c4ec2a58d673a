"""Command-line pipeline: simulate-pair, estimate, evaluate, lemma-check.

One JSON config drives all commands.  A section that builds an object
takes that object's parameters as keys, an unset key keeps its default,
and any other key is a config error.  The output metadata echoes the
specs as built and the backend section as given with its kind and seed,
so runs are self-describing.  Outputs land in a flat directory under
fixed names: simulate-pair writes source.rcv, target.rcv, gt.rcv,
gt.json; estimate writes u.rcv, cov.rcv, mean.rcv, pred.rcv,
estimate.json, solver_log.csv (affine_ssd, demons), intrinsic.rcv and
jitter.rcv (oracle), and removes those of the last three it did not write;
evaluate writes error.rcv, metrics.json, risk_coverage_binned.csv;
lemma-check writes lemma_report.json.  simulate-pair and lemma-check
create the directory once their config has been read, so a config error
leaves none behind.
Exit codes: 0 success, 1 config error, 2 numeric failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import inspect
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .geometry import (
    AffineTransform,
    ConvergenceError,
    DenseTransform,
    Transform,
    TranslationTransform,
    dense,
)
from .metrics import bin_curve, error_map, mse_decomposition_check, pearson, risk_coverage, spearman
from .perturb import GtSpec, PerturbSpec, simulate_gt_with_info
from .register import LINEAR_TAU_SCALES, AffineSsdBackend, DemonsBackend, ErrorModel, OracleBackend
from .uncertainty import MAX_THREADS, SampleError, decompose_cov, estimate_uncertainty, verify_lemma
from .volume import (
    RoiMask,
    Volume3,
    VolumeFormatError,
    make_phantom,
    read_nifti,
    read_volume,
    warp,
    write_atomic,
    write_volume,
)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """The configuration file is missing or inconsistent."""


# One config drives every command, so each command accepts the keys of all.
_TOP_KEYS = ("shape", "seed", "threads", "phantom", "gt", "perturb", "backend", "estimate",
             "evaluate", "lemma")


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    # JSON text is UTF-8, and the decoder recurses once per nesting level.
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    _known_keys(cfg, _TOP_KEYS, "top level")
    return cfg


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _objects(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what}s must be a list, got {value!r}")
    return [_object(v, f"each {what}") for v in value]


def _section(cfg: dict, name: str, keys=None) -> dict:
    """cfg[name] as an object; given keys, any other key is a config error."""
    sec = _object(cfg.get(name, {}), f"config section {name!r}")
    if keys is not None:
        _known_keys(sec, keys, name)
    return sec


def _convert(value, kind):
    """value converted by kind; anything but a finite JSON number, or a fraction for int, raises."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value)) or (kind is int and value != int(value)):
        raise ValueError(f"not {kind.__name__}")
    return kind(value)


def _number(sec: dict, key: str, default, kind=int, low=None, high=None):
    """sec[key] (or the default) as kind, in [low, high] where given; else a config error."""
    value = sec.get(key, default)
    try:
        number = _convert(value, kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}") from exc
    if low is not None and number < low:
        raise ConfigError(f"{key!r} must be >= {low}, got {number!r}")
    if high is not None and number > high:
        raise ConfigError(f"{key!r} must be <= {high}, got {number!r}")
    return number


def _path(sec: dict, key: str):
    """sec[key] as a path string, or None where it is unset or empty."""
    path = sec.get(key)
    # Any other value is a mistake: open() takes an integer for a file descriptor.
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"{key!r} must be a path string, got {path!r}")
    return path or None


def _sanitize(obj):
    """Make a structure JSON-clean; non-finite floats become 'undefined'."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else "undefined"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_json(path, obj) -> None:
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(path, text.encode("utf-8"))


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _shape(shape, key: str) -> tuple[int, int, int]:
    if shape is None:
        raise ConfigError(f"config needs a {key!r} entry [nx, ny, nz]")
    try:
        dims = tuple(_convert(s, int) for s in shape) if isinstance(shape, list) else ()
    except (TypeError, ValueError, OverflowError):
        dims = ()
    if len(dims) != 3 or min(dims) < 1:
        raise ConfigError(f"{key!r} must be a list of 3 positive integers, got {shape!r}")
    return dims


def _known_keys(sec: dict, names, what: str) -> None:
    unknown = [key for key in sec if key not in names]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in config section {what!r}")


def _from_section(build, sec: dict, what: str, keys=None, **fixed):
    """build called with the values of a config section and those the stage fixes.

    The section's keys are build's parameters that the stage does not fix,
    or, given keys, the config keys it maps to parameters.  A key the
    section leaves out keeps build's own default, and a parameter without
    one needs its key.  A parameter with a numeric default takes a finite
    JSON number; one with a float default may also take a list, which build
    checks (a 3x3 sigma).  A key ending in _path takes a path string, and
    its parameter gets that volume's data.  Values build rejects are
    reported with the section.
    """
    params = inspect.signature(build).parameters
    keys = keys or {name: name for name in params if name not in fixed}
    _known_keys(sec, keys, what)
    missing = [key for key, name in keys.items()
               if key not in sec and params[name].default is inspect.Parameter.empty]
    if missing:
        raise ConfigError(f"{what!r} needs a {missing[0]!r}")
    args = dict(fixed)
    for key, value in sec.items():
        default = params[keys[key]].default
        if key.endswith("_path"):
            path = _path(sec, key)
            value = None if path is None else _volume_data(path)
        elif type(default) is int or (type(default) is float and not isinstance(value, list)):
            value = _number(sec, key, None, type(default))
        args[keys[key]] = value
    try:
        return build(**args)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what!r} {sec}: {exc}") from exc


def _of_kind(table: dict, sec: dict, what: str):
    """What table's builder for sec['kind'] makes of the section's other keys."""
    kind = sec["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    return _from_section(table[kind], {k: v for k, v in sec.items() if k != "kind"}, what)


# The keys of an error model and of a lemma check, and the parameters they set.
_MODEL_KEYS = {"mu": "mu", "sigma": "sigma", "mu_field_path": "mu_field", "mu_scale": "mu_scale",
               "sigma_scale": "sigma_scale", "seed": "seed"}
_CHECK_KEYS = {"kind": "family", "strength": "deform_strength", "grid_spacing": "grid_spacing",
               "node_max": "node_max", "n_mc": "count", "seed": "seed"}
_LEMMA_KEYS = ("grid", "n_mc", "phi", "checks", "mse")

_PHIS = {
    "identity": lambda: TranslationTransform((0.0, 0.0, 0.0)),
    "translation": lambda offset=(1.5, -0.75, 0.5): TranslationTransform(offset),
    "affine": lambda matrix, offset=(0.0, 0.0, 0.0): AffineTransform(matrix, offset),
}

# The smallest shape PerturbSpec takes; estimate gives the spec the source's.
_ANY_SHAPE = (2, 2, 2)


def _error_model(sec, seed: int, what: str, family=None) -> ErrorModel:
    """The ErrorModel of a config section for draws of family; its seed defaults to the run's."""
    model = _from_section(ErrorModel, {"seed": seed, **_object(sec, what)}, "error_model",
                          _MODEL_KEYS)
    for key in ("mu_scale", "sigma_scale"):
        if family == "deform" and (name := getattr(model, key)) in LINEAR_TAU_SCALES:
            raise ConfigError(f"{key!r} {name!r} takes linear perturbations only, not 'deform'")
    return model


def _on_grid(model: ErrorModel, shape) -> ErrorModel:
    """model; its mu_field must lie on the grid shape, where the oracle samples it."""
    if model.mu_field is not None and model.mu_field.shape[:3] != shape:
        raise ConfigError(f"'mu_field_path' is on a {model.mu_field.shape[:3]} grid, not {shape}")
    return model


def _backends(out_dir: Path, seed: int, family: str) -> dict:
    """The backend kinds for draws of family; each kind's parameters are the keys of its section."""

    def oracle(error_model={}):
        # The error model is read before the simulated ground truth, whose grid it must share.
        model = _error_model(error_model, seed, "config section 'error_model'", family)
        gt = DenseTransform(_volume_data(out_dir / "gt.rcv", 3))
        return OracleBackend(gt, _on_grid(model, gt.shape))

    return {"affine_ssd": AffineSsdBackend, "demons": DemonsBackend, "oracle": oracle}


def _mse_draws(draws: int = 2000) -> int:
    """The draws of a lemma mse case, checked before any case runs."""
    if draws < 2:
        raise ValueError("need at least 2 draws")
    return draws


def _volume_data(path, channels=None) -> np.ndarray:
    """The float64 data of the volume at path; given channels, another count is a format error."""
    vol = read_volume(path)
    if channels is not None and vol.channels != channels:
        raise VolumeFormatError(f"{path}: expected a {channels}-channel volume, got {vol.channels}")
    return vol.data.astype(np.float64)


def _on_grid_of(ref: Volume3, data: np.ndarray) -> Volume3:
    """data as a float32 volume with ref's spacing and origin."""
    return Volume3(data.astype(np.float32), spacing=ref.spacing, origin=ref.origin)


def _truth_from(out_dir: Path) -> Transform:
    """Reload ground truth, analytic when gt.json says so; a malformed gt.json is an I/O error."""
    meta_path = out_dir / "gt.json"
    if meta_path.exists():
        try:
            with open(meta_path, "r", encoding="utf-8") as f:
                info = json.load(f)["gt"]
            if info["kind"] == "translation":
                return TranslationTransform(info["offset"])
            if info["kind"] == "affine":
                return AffineTransform(info["matrix"], info["offset"])
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            what = f"{type(exc).__name__}: {exc}"
            raise VolumeFormatError(f"{meta_path}: malformed ({what})") from exc
    return DenseTransform(_volume_data(out_dir / "gt.rcv", 3))


def _mask_from(path, shape) -> RoiMask:
    if path is None:
        return RoiMask.full(shape)
    data = _volume_data(path)
    if data.shape != (*shape, 1):
        raise ConfigError(f"mask volume {path} must be 1-channel with shape {tuple(shape)}")
    selected = data[..., 0] > 0.5
    if not selected.any():
        raise ConfigError(f"mask volume {path} selects no voxels")
    return RoiMask(selected)


def cmd_simulate_pair(cfg: dict, out_dir: Path, seed: int, nifti_path=None) -> int:
    if nifti_path is not None:
        source = read_nifti(nifti_path)
        shape = source.shape
    else:
        shape = _shape(cfg.get("shape"), "shape")
        sec = {"seed": seed, **_section(cfg, "phantom")}
        source = _from_section(make_phantom, sec, "phantom", shape=shape)
    gt_sec = {"kind": "translation", "seed": seed, **_section(cfg, "gt")}
    gt_spec = _from_section(GtSpec, gt_sec, "gt")
    out_dir.mkdir(parents=True, exist_ok=True)
    gt, info = simulate_gt_with_info(gt_spec, shape)
    target = warp(source, gt)
    write_volume(out_dir / "source.rcv", source)
    write_volume(out_dir / "target.rcv", target)
    write_volume(out_dir / "gt.rcv", _on_grid_of(source, dense(gt, shape).displacement))
    _write_json(
        out_dir / "gt.json",
        {
            "gt": info,
            "gt_spec": asdict(gt_spec),
            "seed": seed,
            "shape": list(shape),
            "source": "nifti-import" if nifti_path else "phantom",
        },
    )
    print(f"wrote pair to {out_dir}")
    return 0


# What estimate writes for some backends only: the oracle's split, a solver's log.
_BACKEND_OUTPUTS = ("intrinsic.rcv", "jitter.rcv", "solver_log.csv")


def cmd_estimate(cfg: dict, out_dir: Path, seed: int, threads: int) -> int:
    # Every section is read before the pair is opened, so its mistakes are
    # config errors even where the pair is missing.
    unbiased = _section(cfg, "estimate", ("unbiased",)).get("unbiased", False)
    if not isinstance(unbiased, bool):
        raise ConfigError(f"'unbiased' must be true or false, got {unbiased!r}")
    perturb_sec = {"family": "translation", "seed": seed, **_section(cfg, "perturb")}
    spec = _from_section(PerturbSpec, perturb_sec, "perturb", shape=_ANY_SHAPE)
    backend_sec = {"kind": "affine_ssd", **_section(cfg, "backend")}
    backend = _of_kind(_backends(out_dir, seed, spec.family), backend_sec, "backend")
    source = read_volume(out_dir / "source.rcv")
    target = read_volume(out_dir / "target.rcv")
    spec = replace(spec, shape=source.shape)
    # The oracle's closed-form split rides the estimator's pass, on the target's grid.
    oracle = isinstance(backend, OracleBackend)
    reducers = [decompose_cov(backend, replace(spec, shape=target.shape))] if oracle else []
    report = estimate_uncertainty(backend, source, target, spec, unbiased=unbiased,
                                  threads=threads, reducers=reducers)
    pred = backend.register(source, target)
    report.update(pred=dense(pred.transform, target.shape).displacement,
                  backend={**backend_sec, "seed": seed}, perturb_spec=asdict(spec),
                  unbiased=unbiased, seed=seed, threads=threads)
    # Every map is a volume on the target's grid, and the rest is metadata.
    meta, written = {}, []
    for name, value in report.items():
        if isinstance(value, np.ndarray):
            written.append(f"{name}.rcv")
            write_volume(out_dir / written[-1], _on_grid_of(target, value))
        else:
            meta[name] = value
    if pred.log:
        written.append("solver_log.csv")
        _write_csv(out_dir / written[-1], pred.log_header, pred.log)
    _write_json(out_dir / "estimate.json", meta)
    # What an earlier run with another backend wrote would pass for this run's.
    for name in _BACKEND_OUTPUTS:
        if name not in written:
            (out_dir / name).unlink(missing_ok=True)
    print(f"wrote uncertainty maps to {out_dir} (N={spec.count})")
    return 0


def cmd_evaluate(cfg: dict, out_dir: Path, seed: int) -> int:
    sec = _section(cfg, "evaluate", ("bins", "mask_path"))
    bins = _number(sec, "bins", 20, low=1)
    mask_path = _path(sec, "mask_path")
    u_vol = read_volume(out_dir / "u.rcv")
    pred = DenseTransform(_volume_data(out_dir / "pred.rcv", 3))
    truth = _truth_from(out_dir)
    mask = _mask_from(mask_path, u_vol.shape)
    err = error_map(pred, truth, mask)
    curve = risk_coverage(err, u_vol)
    u_masked = u_vol.scalar[mask.mask].astype(np.float64)
    metrics = {
        "pearson": pearson(err.masked, u_masked),
        "spearman": spearman(err.masked, u_masked),
        "aurc": curve.aurc,
        "oracle_aurc": curve.oracle_aurc,
        "random_aurc": curve.random_aurc,
        "naurc": curve.naurc,
        "mask_voxels": curve.n_voxels,
        "bins": bins,
    }
    write_volume(out_dir / "error.rcv", _on_grid_of(u_vol, err.values))
    _write_json(out_dir / "metrics.json", metrics)
    header = ("coverage", "risk", "bin_mean_uncertainty")
    _write_csv(out_dir / "risk_coverage_binned.csv", header,
               ([r[k] for k in header] for r in bin_curve(curve, bins)))
    shown = {k: v for k, v in metrics.items() if k in ("pearson", "spearman", "naurc")}
    print(f"metrics: {_sanitize(shown)}")
    return 0


def cmd_lemma_check(cfg: dict, out_dir: Path, seed: int) -> int:
    sec = _section(cfg, "lemma", _LEMMA_KEYS)
    grid = _shape(sec.get("grid", [16, 16, 16]), "grid")
    n_mc = _number(sec, "n_mc", 2000)
    phi = _of_kind(_PHIS, {"kind": "translation", **_section(sec, "phi")}, "phi")
    checks = sec.get("checks")
    if checks is None:
        checks = [{"kind": "translation"}, {"kind": "affine"}]
    # Every entry is read before any check runs, so a config mistake exits
    # at once instead of after the Monte Carlo ahead of it.
    runs = []
    for chk in _objects(checks, "lemma check"):
        # Perturbation magnitudes a check does not name keep PerturbSpec's defaults.
        entry = {"n_mc": n_mc, "seed": seed, **chk}
        model = entry.pop("model", {"mu": [0.5, 0.0, 0.0], "sigma": 0.5})
        spec = _from_section(PerturbSpec, entry, "lemma check", _CHECK_KEYS, shape=grid)
        model = _error_model(model, seed, "lemma check 'model'", spec.family)
        runs.append((spec, _on_grid(model, grid)))
    cases = []
    for case in _objects(sec.get("mse", []), "lemma mse case"):
        entry = dict(case)
        model = entry.pop("model", {})
        draws = _from_section(_mse_draws, entry, "lemma mse case")
        cases.append((_on_grid(_error_model(model, seed, "mse case 'model'"), grid), draws))
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    all_ok = True
    for spec, model in runs:
        rep = verify_lemma(spec, model, phi)
        reports.append(rep.to_dict())
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"[lemma-check] {status} kind={rep.kind} median_rel_err={rep.median_rel_error:.4f} "
            f"tol={rep.tolerance:.4f} note={rep.note}"
        )
        all_ok = all_ok and rep.passed
    mse_reports = []
    for model, draws in cases:
        rep = mse_decomposition_check(model, draws, grid)
        mse_reports.append(rep.to_dict())
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"[lemma-check] {status} mse mean_emp={rep.mean_empirical:.4f} "
            f"mean_expected={rep.mean_expected:.4f}"
        )
        all_ok = all_ok and rep.passed
    _write_json(
        out_dir / "lemma_report.json",
        {"grid": list(grid), "n_mc": n_mc, "seed": seed, "checks": reports, "mse": mse_reports},
    )
    return 0 if all_ok else 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="regcert",
        description="Registration uncertainty from perturbed re-registrations.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "simulate-pair": "synthesize a source/target pair with known ground truth",
        "estimate": "run the perturbation-based uncertainty estimator",
        "evaluate": "score the uncertainty map against the true error",
        "lemma-check": "verify closed-form covariance identities by Monte Carlo",
    }
    for name, help_text in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="JSON config path")
        q.add_argument("--out", required=True, help="output directory")
        q.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "estimate":
            q.add_argument("--threads", type=int, default=None,
                           help=f"worker cap for sampling, at most {MAX_THREADS}")
        if name == "simulate-pair":
            q.add_argument("--import-nifti", dest="import_nifti", default=None,
                           help="use this NIfTI-1 float32 image as the source")
    return p


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_heap_warm() -> None:
    """Fix glibc's mmap and trim thresholds at 16 and 32 MiB, in one arena; no-op without glibc.

    The dynamic defaults start at 128 KiB, so the estimator's per-draw
    temporaries (from about 100 KB to 5 MiB on a 48^3 volume) are returned
    to the system and faulted in again on every draw.
    Both are set: a trim threshold alone turns the dynamic mmap threshold
    off and maps every such block afresh.
    One arena: glibc gives each sample thread a heap of its own, each with
    its own high-water mark, which the next stage on the main thread cannot
    reuse.  With one, every thread reuses what the others freed.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _keep_heap_warm()
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        # A flag overrides its config value and passes the same check.
        given = {**cfg, **{k: v for k, v in vars(args).items()
                           if k in ("seed", "threads") and v is not None}}
        seed = _number(given, "seed", 0, low=0)
        out_dir = Path(args.out)
        if args.command == "simulate-pair":
            return cmd_simulate_pair(cfg, out_dir, seed, nifti_path=args.import_nifti)
        if args.command == "estimate":
            threads = _number(given, "threads", 1, low=1, high=MAX_THREADS)
            return cmd_estimate(cfg, out_dir, seed, threads)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out_dir, seed)
        return cmd_lemma_check(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (VolumeFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, SampleError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
