#!/usr/bin/env python3
"""Run the full pipeline (simulate -> estimate -> evaluate) from one config.

Convenience driver around the ``regcert`` subcommands: one JSON config, one
output directory, one summary line per stage.  The config holds the keys
of all three stages, for example ``{"shape": [32, 32, 32], "seed": 1,
"perturb": {"family": "translation", "count": 20}, "backend": {"kind":
"affine_ssd"}}`` saved as demo.json:

    python3 scripts/run_pipeline.py --config demo.json --out demo_out
"""

import argparse
import json
import sys
import time
from pathlib import Path

from regcert.cli import main as cli_main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="JSON config shared by all stages")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--import-nifti", default=None, help="use a NIfTI volume as the source")
    args = ap.parse_args(argv)

    common = ["--config", args.config, "--out", args.out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    stages = [["simulate-pair", *common]]
    if args.import_nifti:
        stages[0] += ["--import-nifti", args.import_nifti]
    estimate = ["estimate", *common]
    if args.threads is not None:
        estimate += ["--threads", str(args.threads)]
    stages += [estimate, ["evaluate", *common]]

    t0 = time.perf_counter()
    for stage in stages:
        rc = cli_main(stage)
        if rc != 0:
            print(f"stage {stage[0]} failed with exit code {rc}", file=sys.stderr)
            return rc
    elapsed = time.perf_counter() - t0

    metrics = json.loads((Path(args.out) / "metrics.json").read_text())
    print(f"pipeline finished in {elapsed:.1f}s")
    for key in ("pearson", "spearman", "naurc", "aurc", "oracle_aurc", "random_aurc"):
        print(f"  {key:>12}: {metrics[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
