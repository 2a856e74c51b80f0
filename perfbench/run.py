#!/usr/bin/env python3
"""cipgnav benchmark: one workload run, printed as a JSON line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload survey --seed 0 --seconds 20 --trace 0

Workloads: survey, long-window, file-600s (see perfbench/README.md).  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced pass.  Human-readable lines (metrics,
trajectory digests, failures) come first; the last line of standard output
is the JSON result.  Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("survey", "long-window", "file-600s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cipgnav" / "__init__.py").is_file():
        print(f"error: no cipgnav package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, units = workload.trace(args.seed, args.seconds, workdir), PER_LAYER
    else:
        result, units = workload.run(args.seed, args.seconds, workdir), END_TO_END

    ledger = result.ledger
    missing = [name for name in units if not _is_number(result.metrics.get(name))]
    for name in missing:
        ledger.problems.append(f"metric {name} was not measured")
    for name, unit in units.items():
        value = result.metrics.get(name, float("nan"))
        print(f"{args.workload:>11}  {name:<48} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"{args.workload:>11}  {note}")
    for name, value in result.digests.items():
        print(f"{args.workload:>11}  digest {name:<6} sha256:{value}")
    print(f"{args.workload:>11}  attempted {ledger.attempted} failed {ledger.failed}")
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics = {
        name: {"value": float(result.metrics[name]) if name not in missing else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


if __name__ == "__main__":
    sys.exit(main())
