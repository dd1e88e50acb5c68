"""End-to-end benchmark of the fracspace verification experiments.

    python3 e2ebench/run.py --workload grid-2d --seed 42 --seconds 20 --trace 0

Closed loop, one client: a fresh worker process imports fracspace and
runs the workload's experiments one after another through
`fracspace.cli.main`, each writing CSV and JSON reports, with BLAS
threads capped at the number of usable cores. Every report is then
checked against computations made apart from the program (checks.py),
and every repeated pass must write byte-identical reports.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 makes one untraced and one traced pass and prints the
per-layer metrics (tracing.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Each
run also writes its full record, with every metric as name, unit and
value, to .bench_build/e2ebench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_build" / "e2ebench"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def measure_setup(env: dict) -> list:
    """Seconds for fresh interpreters to finish `import fracspace`.

    One unmeasured import first writes the bytecode cache, which a user
    pays once per install, not once per call.
    """
    cmd = [sys.executable, "-c", "import fracspace"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def check_passes(workload: str, seed: int, passes: list, out: Path) -> tuple:
    """Count attempted and failed experiment runs over all passes.

    The first pass's reports are checked; a later pass fails a run when
    its exit code is not 0 or its reports differ from the first pass.
    """
    from checks import check_report

    runs = WORKLOADS[workload]
    first = passes[0]["runs"]
    verdicts = []
    for run, rec in zip(runs, first):
        stems = {name.rsplit(".", 1)[0] for name in rec["files"]}
        if rec["code"] != 0:
            verdicts.append([f"exit code {rec['code']}"])
        elif len(stems) != 1 or len(rec["files"]) != 2:
            verdicts.append([f"expected one CSV and one JSON report, got {sorted(rec['files'])}"])
        else:
            stem = out / "pass0" / stems.pop()
            try:
                doc = json.loads(stem.with_suffix(".json").read_text())
                with open(stem.with_suffix(".csv"), newline="") as fh:
                    csv_text = fh.read()
                verdicts.append(check_report(run, seed, doc, csv_text))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                verdicts.append([f"malformed report: {exc!r}"])
    problems = []
    attempted = failed = 0
    for k, p in enumerate(passes):
        for run, rec, base, verdict in zip(runs, p["runs"], first, verdicts):
            attempted += 1
            why = list(verdict)
            if k and rec["code"] != 0:
                why.append(f"exit code {rec['code']}")
            if k and rec["files"] != base["files"]:
                why.append("reports differ from the first pass")
            if why:
                failed += 1
                problems.append({"pass": k, "run": run.label, "problems": why[:5]})
    return attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fracspace" / "__init__.py").is_file():
        print(f"e2ebench: no fracspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        setup = [] if args.trace else measure_setup(env)
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--out={scratch}",
        ]
        if args.trace:
            cmd.append(f"--spans={results / (tag + '.spans.jsonl')}")
        # the CLI's summary lines go to stderr; stdout ends with the result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"e2ebench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads((scratch / "worker.json").read_text())
        attempted, failed, problems = check_passes(
            args.workload, args.seed, record["passes"], scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    walls = [p["wall_s"] for p in record["passes"]]
    if args.trace:
        metrics = record["metrics"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": record["environment"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_wall_s": walls,
        "setup_samples_s": setup,
        "experiments": [
            {"pass": k, "run": r["run"], "code": r["code"], "wall_s": r["wall_s"]}
            for k, p in enumerate(record["passes"])
            for r in p["runs"]
        ],
        "metrics": [{"name": k, "unit": v["unit"], "value": v["value"]} for k, v in metrics.items()],
    }
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    env_rec = record["environment"]
    print(
        f"environment: nproc={env_rec['nproc']} python={env_rec['python']} "
        f"numpy={env_rec['numpy']} scipy={env_rec['scipy']} blas={env_rec['blas_vendor']} "
        f"blas_threads={[b['threads'] for b in env_rec['blas_threads']]} "
        f"backend={env_rec['fracspace_backend']}"
    )
    for item in problems:
        print(f"FAILED pass {item['pass']} {item['run']}: {item['problems']}")
    print(f"passes: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
