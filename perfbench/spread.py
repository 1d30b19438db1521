"""Runs the benchmark on several seeds and reports how much each metric spreads.

    python3 perfbench/spread.py --workloads chain_small,render_large,deploy_churn \
        --seeds 1-10 --seconds 40 --out spread.json

Each run is its own ``perfbench/run.py`` process, one after another.  For
every metric it prints the median over the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median: the figure each bound in ``BENCHMARK.json`` is set
against.  ``--out`` also writes every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds, args.trace))
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        summary = {k: spread([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        for name, s in summary.items():
            print(f"{workload:13s} {name:30s} median {s['median']:14.4f}  spread {s['spread']:.3f}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
