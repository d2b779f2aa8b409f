"""The repository's benchmark: three identification workloads, measured
end to end and, in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload ds1-identify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, both runs
    python3 perfbench/run.py --smoke                       # brief, every gate

Run from the repository root; the program is imported from ``src/``.
Report lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.
A wrong answer or a lost acknowledged write makes the run exit 1;
README.md has the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import ds1  # noqa: E402
import ds2  # noqa: E402
import reid  # noqa: E402

WORKLOADS = {
    "ds1-identify": ds1.run,
    "ds2-serve": ds2.run,
    "reid-churn": reid.run,
}
SMOKE_SECONDS = 3.0


def run_one(name: str, seed: int, seconds: float, trace: bool, repeats: int):
    steal0, total0 = common.cpu_ticks()
    res = WORKLOADS[name](seed, seconds, trace, repeats)
    steal1, total1 = common.cpu_ticks()
    steal = (steal1 - steal0) / max(1, total1 - total0)
    if trace:
        res.metric("bench.steal_fraction", steal, "ratio", 1)
    else:
        res.note(f"bench.steal_fraction {steal:.4f} of host CPU time")
    res.note(
        f"failed_fraction {res.failed / max(1, res.attempted):.4f} "
        f"({res.failed} of {res.attempted} attempted)"
    )
    label = "traced" if trace else "untraced"
    print(f"== {name} seed={seed} seconds={seconds:g} {label}")
    for line in res.notes:
        print(f"   {line}")
    for metric, (value, unit, samples) in res.metrics.items():
        print(f"   {metric} {value:.6g} {unit} (n={samples})")
    for error in res.errors:
        print(f"   FAILED: {error}")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"every workload, untraced and traced, {SMOKE_SECONDS:g} s "
        "each with one set-up: exercises every correctness gate",
    )
    args = parser.parse_args(argv)

    repeats = common.SETUP_REPEATS
    seconds = args.seconds
    if args.smoke:
        args.workload, seconds, repeats = "all", SMOKE_SECONDS, 1
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]

    attempted = failed = 0
    correct = True
    metrics = {}
    for name, trace in runs:
        res = run_one(name, args.seed, seconds, trace, repeats)
        attempted += res.attempted
        failed += res.failed
        correct = correct and res.correct
        prefix = "" if len(runs) == 1 else f"{name}:{'layer' if trace else 'e2e'}:"
        for metric, (value, unit, _) in res.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
