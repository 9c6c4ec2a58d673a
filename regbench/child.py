"""One run of one workload, in a fresh interpreter.

    python3 regbench/child.py JOB.json

The job names the checkout root, the moment the parent spawned this process
(``time.monotonic``, one clock for all processes), the CLI stages to run and
whether to trace.  The child imports ``regcert.cli`` from the checkout's
``src``, runs the stages in process through ``regcert.cli.main`` and writes
its timings, exit codes and trace next to the job as ``record.json``.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import regcert.cli

    setup_s = time.monotonic() - job["spawned_at"]
    where = Path(regcert.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"regcert imported from {where}, not from {src}", file=sys.stderr)
        return 3
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if job.get("stages") is not None:
        tracer = None
        if job["trace"]:
            import spans

            tracer = spans.Tracer()
            record["binding_sites"] = spans.install(tracer)
        stages = {}
        codes = {}
        wall0 = time.perf_counter()
        cpu0 = _cpu_s()
        for name, argv in job["stages"]:
            t0 = time.perf_counter()
            codes[name] = regcert.cli.main(argv)
            stages[name] = time.perf_counter() - t0
        record.update(
            wall_s=time.perf_counter() - wall0,
            cpu_s=_cpu_s() - cpu0,
            stage_s=stages,
            exit_codes=codes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["trace"] = {
                "stats": tracer.stats,
                "durations": {k: tracer.durations[k] for k in spans.BACKEND_REGISTER},
                "samples": tracer.durations["uncertainty._one_sample"],
                "estimate_threads": tracer.threads,
            }
    Path(job_path).with_name("record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
