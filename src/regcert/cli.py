"""Command-line pipeline: simulate-pair, estimate, evaluate, lemma-check.

One JSON config drives all commands; a section's unset keys keep the
defaults of the object it configures (PerturbSpec, GtSpec, the backends),
an unknown key is a config error, and every resolved value is echoed into
the output metadata, so runs are self-describing.  Outputs land in a flat
directory under fixed names: simulate-pair writes source.rcv, target.rcv,
gt.rcv, gt.json; estimate writes u.rcv, cov.rcv, mean.rcv, pred.rcv,
estimate.json, solver_log.csv (affine_ssd, demons), intrinsic.rcv and
jitter.rcv (oracle); evaluate writes error.rcv, metrics.json,
risk_coverage.csv, risk_coverage_binned.csv; lemma-check writes
lemma_report.json.  Exit codes: 0 success, 1 config error, 2 numeric
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields
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
from .register import AffineSsdBackend, DemonsBackend, ErrorModel, OracleBackend
from .uncertainty import decompose_cov, estimate_uncertainty, verify_lemma
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


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
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


def _number(sec: dict, key: str, default, kind=int):
    """sec[key] (or the default) converted by kind; a bad value is a config error."""
    value = sec.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}") from exc


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
        dims = tuple(int(s) for s in shape) if isinstance(shape, list) else ()
    except (TypeError, ValueError):
        dims = ()
    if len(dims) != 3 or min(dims) < 1:
        raise ConfigError(f"{key!r} must be a list of 3 positive integers, got {shape!r}")
    return dims


def _known_keys(sec: dict, names, what: str) -> None:
    unknown = [key for key in sec if key not in names]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in config section {what!r}")


def _from_section(cls, sec: dict, what: str, **supplied):
    """cls built from a config section over the values the CLI supplies.

    Only the keys the section gives are passed, so every other field keeps
    the class's own default; numeric fields go through _number.
    """
    names = {f.name: f for f in fields(cls)}
    _known_keys(sec, names, what)
    for key, value in sec.items():
        default = names[key].default
        numeric = type(default) in (int, float)
        supplied[key] = _number(sec, key, None, type(default)) if numeric else value
    try:
        return cls(**supplied)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what!r} section: {exc}") from exc


_ERROR_MODEL_KEYS = ("mu", "sigma", "mu_field_path", "mu_scale", "sigma_scale", "seed")
_LEMMA_KEYS = ("grid", "n_mc", "phi", "checks", "mse")
_LEMMA_CHECK_KEYS = ("kind", "model", "strength", "grid_spacing", "node_max", "n_mc", "seed")
_LEMMA_MSE_KEYS = ("model", "draws")


def _build_error_model(sec: dict, seed: int) -> ErrorModel:
    _known_keys(sec, _ERROR_MODEL_KEYS, "error_model")
    try:
        sigma = sec.get("sigma", 0.0)
        if isinstance(sigma, list):
            sigma = np.asarray(sigma, dtype=np.float64)
        kw = {}
        if "mu_field_path" in sec and sec["mu_field_path"]:
            fld = read_volume(sec["mu_field_path"])
            if fld.channels != 3:
                raise ConfigError("mu_field volume must have 3 channels")
            kw["mu_field"] = fld.data.astype(np.float64)
        else:
            kw["mu"] = tuple(sec.get("mu", (0.0, 0.0, 0.0)))
        return ErrorModel(
            sigma=sigma,
            mu_scale=sec.get("mu_scale"),
            sigma_scale=sec.get("sigma_scale"),
            seed=int(sec.get("seed", seed)),
            **kw,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad error model: {exc}") from exc


_SOLVER_BACKENDS = {"affine_ssd": AffineSsdBackend, "demons": DemonsBackend}


def _build_backend(cfg: dict, out_dir: Path, seed: int):
    sec = _section(cfg, "backend")
    kind = sec.get("kind", "affine_ssd")
    params = {k: v for k, v in sec.items() if k != "kind"}
    if kind in _SOLVER_BACKENDS:
        backend = _from_section(_SOLVER_BACKENDS[kind], params, "backend")
    elif kind == "oracle":
        _known_keys(params, ("error_model",), "backend")
        gt_path = out_dir / "gt.rcv"
        if not gt_path.exists():
            raise FileNotFoundError(f"oracle backend needs {gt_path} (run simulate-pair first)")
        model = _build_error_model(_section(sec, "error_model"), seed)
        backend = OracleBackend(_dense_from_file(gt_path), model)
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")
    return backend, {**sec, "kind": kind, "seed": seed}


def _dense_from_file(path) -> DenseTransform:
    vol = read_volume(path)
    if vol.channels != 3:
        raise VolumeFormatError(f"{path}: expected a 3-channel displacement volume")
    return DenseTransform(vol.data.astype(np.float64))


def _dense_to_volume(t: DenseTransform) -> Volume3:
    return Volume3(t.displacement.astype(np.float32))


def _truth_from(out_dir: Path) -> Transform:
    """Reload ground truth, analytic when the metadata allows it."""
    meta_path = out_dir / "gt.json"
    if meta_path.exists():
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
        info = meta.get("gt", {})
        if info.get("kind") == "translation" and "offset" in info:
            return TranslationTransform(info["offset"])
        if info.get("kind") == "affine" and "matrix" in info:
            return AffineTransform(info["matrix"], info["offset"])
    return _dense_from_file(out_dir / "gt.rcv")


def _mask_from(sec: dict, shape) -> RoiMask:
    path = sec.get("mask_path")
    if not path:
        return RoiMask.full(shape)
    vol = read_volume(path)
    if vol.shape != tuple(shape) or vol.channels != 1:
        raise ConfigError(f"mask volume {path} must be 1-channel with shape {tuple(shape)}")
    return RoiMask(vol.scalar > 0.5)


def cmd_simulate_pair(cfg: dict, out_dir: Path, seed: int, nifti_path=None) -> int:
    if nifti_path is not None:
        source = read_nifti(nifti_path)
        shape = source.shape
    else:
        shape = _shape(cfg.get("shape"), "shape")
        sec = _section(cfg, "phantom", ("kind", "seed"))
        phantom_seed = _number(sec, "seed", seed)
        try:
            source = make_phantom(shape, sec.get("kind", "blobs"), seed=phantom_seed)
        except ValueError as exc:
            raise ConfigError(f"bad phantom: {exc}") from exc
    gt_spec = _from_section(GtSpec, _section(cfg, "gt"), "gt", kind="translation", seed=seed)
    gt, info = simulate_gt_with_info(gt_spec, shape)
    target = warp(source, gt)
    write_volume(out_dir / "source.rcv", source)
    write_volume(out_dir / "target.rcv", target)
    write_volume(out_dir / "gt.rcv", _dense_to_volume(dense(gt, shape)))
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


def cmd_estimate(cfg: dict, out_dir: Path, seed: int, threads: int) -> int:
    source = read_volume(out_dir / "source.rcv")
    target = read_volume(out_dir / "target.rcv")
    # The section's own shape, if any, never overrides the volume's.
    perturb_sec = {**_section(cfg, "perturb"), "shape": source.shape}
    spec = _from_section(PerturbSpec, perturb_sec, "perturb", family="translation", seed=seed)
    backend, backend_echo = _build_backend(cfg, out_dir, seed)
    unbiased = _section(cfg, "estimate", ("unbiased",)).get("unbiased", False)
    if not isinstance(unbiased, bool):
        raise ConfigError(f"'unbiased' must be true or false, got {unbiased!r}")
    result = estimate_uncertainty(
        backend, source, target, spec, unbiased=unbiased, threads=threads
    )
    pred = backend.register(source, target)
    write_volume(out_dir / "u.rcv", result.uncertainty)
    write_volume(out_dir / "cov.rcv", Volume3(result.cov.astype(np.float32)))
    write_volume(out_dir / "mean.rcv", _dense_to_volume(result.mean))
    write_volume(out_dir / "pred.rcv", _dense_to_volume(dense(pred.transform, target.shape)))
    if isinstance(backend, OracleBackend):
        dec = decompose_cov(backend, spec, spec.count)
        write_volume(out_dir / "intrinsic.rcv", Volume3(dec.intrinsic.astype(np.float32)))
        write_volume(out_dir / "jitter.rcv", Volume3(dec.jitter.astype(np.float32)))
    if pred.log:
        _write_csv(out_dir / "solver_log.csv", pred.log_header, pred.log)
    _write_json(
        out_dir / "estimate.json",
        {
            "backend": backend_echo,
            "perturb_spec": asdict(spec),
            "n_samples": result.n_samples,
            "divisor": result.divisor,
            "unbiased": unbiased,
            "seed": seed,
            "threads": threads,
            "deform_strength": spec.deform_strength,
            "wall_time_s": result.wall_time_s,
        },
    )
    print(f"wrote uncertainty maps to {out_dir} (N={result.n_samples})")
    return 0


def cmd_evaluate(cfg: dict, out_dir: Path, seed: int) -> int:
    sec = _section(cfg, "evaluate", ("bins", "mask_path"))
    u_vol = read_volume(out_dir / "u.rcv")
    pred = _dense_from_file(out_dir / "pred.rcv")
    truth = _truth_from(out_dir)
    mask = _mask_from(sec, u_vol.shape)
    err = error_map(pred, truth, mask)
    curve = risk_coverage(err, u_vol, mask)
    u_masked = u_vol.scalar[mask.mask].astype(np.float64)
    metrics = {
        "pearson": pearson(err.masked, u_masked),
        "spearman": spearman(err.masked, u_masked),
        "aurc": curve.aurc,
        "oracle_aurc": curve.oracle_aurc,
        "random_aurc": curve.random_aurc,
        "naurc": curve.naurc,
        "mask_voxels": curve.n_voxels,
        "bins": _number(sec, "bins", 20),
    }
    write_volume(out_dir / "error.rcv", Volume3(err.values.astype(np.float32)))
    _write_json(out_dir / "metrics.json", metrics)
    header = ("coverage", "risk", "bin_mean_uncertainty")
    points = zip(curve.coverage, curve.risk, curve.bin_mean_uncertainty)
    _write_csv(out_dir / "risk_coverage.csv", header, ([repr(float(v)) for v in p] for p in points))
    binned = bin_curve(curve, metrics["bins"])
    _write_csv(
        out_dir / "risk_coverage_binned.csv", header, ([repr(r[k]) for k in header] for r in binned)
    )
    shown = {k: v for k, v in metrics.items() if k in ("pearson", "spearman", "naurc")}
    print(f"metrics: {_sanitize(shown)}")
    return 0


def cmd_lemma_check(cfg: dict, out_dir: Path, seed: int) -> int:
    sec = _section(cfg, "lemma", _LEMMA_KEYS)
    grid = _shape(sec.get("grid", [16, 16, 16]), "grid")
    n_mc = _number(sec, "n_mc", 2000)
    phi = _phi_from(sec, grid)
    checks = sec.get("checks")
    if checks is None:
        checks = [{"kind": "translation"}, {"kind": "affine"}]
    # Every entry is read before any check runs, so a config mistake exits
    # at once instead of after the Monte Carlo ahead of it.
    runs = []
    for chk in _objects(checks, "lemma check"):
        _known_keys(chk, _LEMMA_CHECK_KEYS, "lemma check")
        if "kind" not in chk:
            raise ConfigError("each lemma check needs a 'kind'")
        model_sec = chk.get("model", {"mu": [0.5, 0.0, 0.0], "sigma": 0.5})
        model = _build_error_model(_object(model_sec, "lemma check 'model'"), seed)
        kw = {"n_mc": _number(chk, "n_mc", n_mc), "seed": _number(chk, "seed", seed)}
        # Perturbation magnitudes not named here keep verify_lemma's defaults.
        kw.update(
            (key, _number(chk, key, None, kind))
            for key, kind in (("strength", float), ("grid_spacing", int), ("node_max", float))
            if key in chk
        )
        runs.append((chk["kind"], model, kw))
    cases = []
    for case in _objects(sec.get("mse", []), "lemma mse case"):
        _known_keys(case, _LEMMA_MSE_KEYS, "lemma mse case")
        model = _build_error_model(_object(case.get("model", {}), "mse case 'model'"), seed)
        cases.append((model, _number(case, "draws", 2000)))
    reports = []
    all_ok = True
    for kind, model, kw in runs:
        rep = verify_lemma(kind, model, phi, grid, **kw)
        reports.append(rep.to_dict())
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"[lemma-check] {status} kind={rep.kind} median_rel_err={rep.median_rel_error:.4f} "
            f"tol={rep.tolerance:.4f} note={rep.note}"
        )
        all_ok = all_ok and rep.passed
    mse_reports = []
    for model, draws in cases:
        rep = mse_decomposition_check(OracleBackend(phi, model), draws, grid)
        band = 3.0 * rep.chi2_rel_std if math.isfinite(rep.chi2_rel_std) else 0.05
        ok = abs(rep.mean_empirical - rep.mean_expected) <= max(band, 0.05) * max(
            rep.mean_expected, 1e-12
        )
        mse_reports.append({**rep.to_dict(), "passed": ok})
        status = "PASS" if ok else "FAIL"
        print(
            f"[lemma-check] {status} mse mean_emp={rep.mean_empirical:.4f} "
            f"mean_expected={rep.mean_expected:.4f}"
        )
        all_ok = all_ok and ok
    _write_json(
        out_dir / "lemma_report.json",
        {"grid": list(grid), "n_mc": n_mc, "seed": seed, "checks": reports, "mse": mse_reports},
    )
    return 0 if all_ok else 2


def _phi_from(sec: dict, grid) -> Transform:
    phi = _object(sec.get("phi", {"kind": "translation", "offset": [1.5, -0.75, 0.5]}), "'phi'")
    _known_keys(phi, ("kind", "offset", "matrix"), "phi")
    kind = phi.get("kind", "translation")
    if kind == "affine" and "matrix" not in phi:
        raise ConfigError("affine phi needs a 'matrix'")
    try:
        if kind == "identity":
            return TranslationTransform((0.0, 0.0, 0.0))
        if kind == "translation":
            return TranslationTransform(phi.get("offset", [1.5, -0.75, 0.5]))
        if kind == "affine":
            return AffineTransform(phi["matrix"], phi.get("offset", [0.0, 0.0, 0.0]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'phi': {exc}") from exc
    raise ConfigError(f"unknown phi kind {kind!r}")


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
            q.add_argument("--threads", type=int, default=None, help="worker cap for sampling")
        if name == "simulate-pair":
            q.add_argument("--import-nifti", dest="import_nifti", default=None,
                           help="use this NIfTI-1 float32 image as the source")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else _number(cfg, "seed", 0)
        if args.command == "simulate-pair":
            return cmd_simulate_pair(cfg, out_dir, seed, nifti_path=args.import_nifti)
        if args.command == "estimate":
            threads = args.threads if args.threads is not None else _number(cfg, "threads", 1)
            if threads < 1:
                raise ConfigError("threads must be >= 1")
            return cmd_estimate(cfg, out_dir, seed, threads)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out_dir, seed)
        return cmd_lemma_check(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (VolumeFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
