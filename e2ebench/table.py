"""Print the per-experiment "where the time goes" table from traced runs.

    python3 e2ebench/table.py [--seed 42]

Runs `run.py --trace 1` on every workload, then reads each run's span
file and prints one Markdown row per experiment run: its untraced wall
seconds and the TOP spans with the most self time inside it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK  # noqa: E402
from tracing import aggregate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TOP = 3  # spans listed per experiment


def self_times(span_file: Path) -> dict:
    """run id -> [(span name, calls, self seconds)], most self time first."""
    lines = span_file.read_text().splitlines()
    stats = aggregate([json.loads(line)[1:] for line in lines], by_run=True)
    out = {}
    for (run, name), s in sorted(stats.items(), key=lambda kv: -kv[1]["self"]):
        out.setdefault(run, []).append((name, s["calls"], s["self"]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    print("| workload | experiment | s | where the time goes (self time × calls) |")
    print("| --- | --- | ---: | --- |")
    for workload, runs in WORKLOADS.items():
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--trace", "1"]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        tag = f"{workload}-trace1-seed{args.seed}"
        record = json.loads((WORK / "results" / f"{tag}.json").read_text())
        walls = [e["wall_s"] for e in record["experiments"] if e["pass"] == 0]
        per_run = self_times(WORK / "results" / f"{tag}.spans.jsonl")
        for i, (run, wall) in enumerate(zip(runs, walls)):
            top = per_run.get(i, [])[:TOP]
            where = "; ".join(f"`{name}` {s:.2f} s ×{calls}" for name, calls, s in top)
            print(f"| {workload} | {run.label} | {wall:.1f} | {where} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
