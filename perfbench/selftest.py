#!/usr/bin/env python3
"""Self-test of the benchmark's exact counts, across processes.

    python3 perfbench/selftest.py --workload mobility-speed --seed 3

Runs ``run.py`` three times on one seed: once untraced and twice
traced.  Passes when every run is correct, all three print the same
history digest (tracing does not perturb the RNG or the event order),
and both traced runs print identical count metrics.  Within each traced
run, ``run.py`` already compares its traced and untraced passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: ``--seconds`` of each run: the shortest run, the workload's ``min_passes``.
RUN_SECONDS = 1


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    found = {"result": json.loads(lines[-1])}
    for line in lines:
        key, _, value = line.partition(" ")
        if key in ("digest", "counts"):
            found[key] = value
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    runs = [run(args.workload, args.seed, trace) for trace in (0, 1, 1)]
    problems = []
    if not all(r["result"]["correct"] for r in runs):
        problems.append("a run reported correct=false")
    if len({r["digest"] for r in runs}) != 1:
        problems.append("history digests differ between runs")
    counts = [json.loads(r["counts"]) for r in runs[1:]]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"count metrics differ between traced runs: {differ}")
    print(f"{args.workload} seed {args.seed}: digest {runs[0]['digest']}")
    print(f"  {len(counts[0])} count metrics compared")
    for problem in problems:
        print(f"  FAIL {problem}")
    print("PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
