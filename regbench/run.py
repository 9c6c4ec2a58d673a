"""Run one regcert benchmark workload and print its metrics.

    python3 regbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout root is this file's parent directory.  Each
run of the workload is a fresh child process (``child.py``) that imports
``regcert`` from ``src`` and drives ``regcert.cli.main`` through the
workload's stages.  Every run's outputs are checked against pins (at the
acceptance seed) or seed-independent checks (at other seeds).

``--trace 0`` repeats the workload until ``--seconds`` have passed and
prints the end-to-end metrics (medians over runs).  ``--trace 1`` runs the
workload once untraced and once traced, requires their outputs to be
byte-identical, checks which layers ran, and prints the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Only in-process timers are used: no machine-wide tracing, no cache dropping,
no cgroup or other system setting is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
from spans import BACKEND_REGISTER, LAYERS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".regbench_work"
SETUP_SAMPLES = 2  # import-only children per untraced run, besides the workload runs
BUDGET_S = 170.0  # the whole run, children included
ENV_LIMITS = (
    "in-process timers only (time.perf_counter, os.times, getrusage); no machine-wide "
    "tracing, no cache dropping, no cgroup or kernel settings"
)


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    """HEAD of the checkout; None where the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(w: Workload, child_env: dict) -> dict:
    """Where the figures come from; the versions are those the child imported."""
    nproc = _nproc()
    return {
        **child_env,
        "nproc": nproc,
        "blas_threads": w.blas_threads(nproc),
        "threads": w.threads,
        "git_commit": _git_commit(),
        "limits": ENV_LIMITS,
    }


class Runner:
    """Spawns the children of one benchmark run inside one work directory."""

    def __init__(self, w: Workload, seed: int, deadline: float):
        self.w = w
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{w.name}-{os.getpid()}"
        self.config = self.dir / "config.json"
        self.env = dict(os.environ)
        blas = str(w.blas_threads(_nproc()))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = blas
        self.count = 0

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config.write_text(json.dumps(self.w.config(self.seed)))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    def spawn(self, trace: bool = False, stages: bool = True) -> dict:
        """One child; returns its record plus the directory of its outputs."""
        self.count += 1
        run_dir = self.dir / f"run-{self.count}"
        out = run_dir / "out"
        out.mkdir(parents=True)
        job = {"root": str(ROOT), "trace": trace, "stages": None}
        if stages:
            job["stages"] = [
                (name, [cmd, "--config", str(self.config), "--out", str(out)]
                 + (["--threads", str(self.w.threads)] if cmd == "estimate" else []))
                for name, cmd in self.w.stages
            ]
        job_path = run_dir / "job.json"
        log = run_dir / "log.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted before the next child")
        job["spawned_at"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        with open(log, "wb") as f:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(job_path)],
                    stdout=f, stderr=subprocess.STDOUT, env=self.env, cwd=str(ROOT),
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"child exceeded the {BUDGET_S:.0f} s budget") from exc
        record_path = run_dir / "record.json"
        if proc.returncode != 0 or not record_path.exists():
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"child exited with code {proc.returncode}:\n{tail}")
        record = json.loads(record_path.read_text())
        record["out"] = out
        return record


def _outputs(out: Path) -> dict[str, bytes]:
    """Every output file's bytes; estimate.json without its wall-time field."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "estimate.json":
                meta = json.loads(data)
                meta.pop("wall_time_s")
                data = json.dumps(meta, sort_keys=True).encode()
            files[str(path.relative_to(out))] = data
    return files


def check_run(w: Workload, seed: int, record: dict) -> list[tuple[str, bool, str]]:
    checks = [
        (f"{stage} exit code 0", code == 0, f"exit code {code}")
        for stage, code in record["exit_codes"].items()
    ]
    if all(ok for _, ok, _ in checks):
        checks += w.check(record["out"], seed)
    return checks


def _identical(a: dict, b: dict, label: str) -> tuple[str, bool, str]:
    fa, fb = _outputs(a["out"]), _outputs(b["out"])
    differ = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
    return (label, bool(fa) and not differ, f"{len(fa)} files, differing: {differ}")


def untraced(w: Workload, seed: int, seconds: float, runner: Runner):
    start = time.monotonic()
    setup = [runner.spawn(stages=False)["setup_s"] for _ in range(SETUP_SAMPLES)]
    records, checks = [], []
    # Runs of the workload start until ``seconds`` have passed; at least one.
    while not records or time.monotonic() - start < seconds:
        rec = runner.spawn()
        checks += check_run(w, seed, rec)
        if records:
            checks.append(_identical(records[0], rec, f"run {len(records) + 1} == run 1"))
        records.append(rec)
    setup += [r["setup_s"] for r in records]

    core = "estimate" if "estimate" in records[0]["stage_s"] else "lemma"
    med = statistics.median
    metrics = {
        "setup_s": med(setup),
        "wall_s": med(r["wall_s"] for r in records),
        "cpu_s": med(r["cpu_s"] for r in records),
        "draws_per_s": med(w.draws / r["stage_s"][core] for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
    }
    info = {f"stage.{s}_s": med(r["stage_s"][s] for r in records) for s, _ in w.stages}
    info["runs"] = len(records)
    info["setup_samples"] = len(setup)
    return metrics, info, checks, records[0]["env"]


def _tail(values: list) -> tuple[float, float]:
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def layer_metrics(w: Workload, base: dict, traced_rec: dict) -> tuple[dict, dict]:
    trace = traced_rec["trace"]
    stats = trace["stats"]
    values, table = {}, {}
    for layer in LAYERS:
        s = stats[layer.name]
        table[layer.name] = s
        if layer.name in catalog.INTERNAL:
            continue
        values[f"{layer.name}.calls"] = s["calls"]
        for count, _ in layer.counts:
            values[f"{layer.name}.{count}"] = s[count]
        if layer.name in catalog.PER_DRAW:
            values[f"{layer.name}.calls_per_draw"] = s["calls"] / w.draws
        if layer.name in catalog.TIMED:
            values[f"{layer.name}.busy_s"] = s["busy_s"]
            values[f"{layer.name}.self_s"] = s["self_s"]
    samples = [d for name in BACKEND_REGISTER for d in trace["durations"][name]]
    tail, pct = _tail(samples)
    values["register.sample_s.p50"] = statistics.median(samples)
    values["register.sample_s.tail"] = tail
    values["register.sample_s.n"] = len(samples)
    capacity = sum(threads * busy for threads, busy in trace["estimate_threads"])
    values["uncertainty.worker_busy_frac"] = sum(trace["samples"]) / capacity
    values["trace.overhead_frac"] = traced_rec["wall_s"] / base["wall_s"] - 1.0
    table["register.sample_s.tail_percentile"] = pct
    return values, table


def traced(w: Workload, seed: int, runner: Runner):
    base = runner.spawn()
    rec = runner.spawn(trace=True)
    checks = check_run(w, seed, base) + check_run(w, seed, rec)
    checks.append(_identical(base, rec, "traced outputs == untraced outputs"))
    stats = rec["trace"]["stats"]
    for layer in LAYERS:
        calls = stats[layer.name]["calls"]
        if layer.name in w.active:
            checks.append((f"{layer.name} runs", calls > 0, f"calls={calls}"))
        else:
            checks.append((f"{layer.name} bypassed", calls == 0, f"calls={calls}"))
    values, table = layer_metrics(w, base, rec)
    table["binding_sites"] = rec["binding_sites"]
    return values, table, checks, rec["env"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's acceptance seed)")
    p.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    seed = w.acceptance_seed if args.seed is None else args.seed
    if seed < 0:
        p.error("--seed must be >= 0")
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "regcert" / "cli.py").is_file():
        print(f"error: no regcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # kill children on the way out
    try:
        with Runner(w, seed, deadline) as runner:
            if args.trace:
                metrics, info, checks, child_env = traced(w, seed, runner)
            else:
                metrics, info, checks, child_env = untraced(w, seed, args.seconds, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pinned = "pins" if seed == w.acceptance_seed else "no pins: not the acceptance seed"
    print(f"workload {w.name} seed {seed} ({pinned}) trace {args.trace}")
    print(f"environment {json.dumps(environment(w, child_env), sort_keys=True)}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    print(f"info check_fail_frac {failed / len(checks)!r} frac ({failed}/{len(checks)})")
    for name, value in info.items():
        print(f"info {name} {json.dumps(value, sort_keys=True)}")
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
