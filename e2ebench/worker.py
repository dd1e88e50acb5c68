"""Run the passes of one workload in a fresh interpreter.

Started by run.py, never by hand. It imports fracspace once, then runs
the workload's experiments one after another through
`fracspace.cli.main`, each writing CSV and JSON into a directory per
pass, and writes a JSON record of what it did:

- timed mode: whole passes until --seconds have elapsed (at least two);
  the record holds every pass wall time and the peak resident set;
- traced mode: one untraced pass, then `tracing.install`, then one
  traced pass; the record holds the per-layer metrics and the spans go
  to --spans.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas_threads() -> list:
    """Thread count of every OpenBLAS library loaded in this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def environment() -> dict:
    """What the timings depend on besides the code."""
    import numpy
    import scipy

    import fracspace

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "fracspace_backend": fracspace.BACKEND,
    }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def one_pass(cli, runs, seed, out: Path, tracer=None) -> dict:
    """Run every experiment of the workload once; time the whole pass.

    Report digests are taken after the timed loop; each experiment of a
    workload has its own name, which starts the names of its files.
    """
    record = []
    t_pass = time.perf_counter()
    for i, run in enumerate(runs):
        if tracer is not None:
            tracer.run = i
        t0 = time.perf_counter()
        try:
            code = cli.main(run.argv(seed, str(out)))
        except Exception:  # an experiment crash is a failed operation
            traceback.print_exc()
            code = -1
        record.append({"run": run.label, "code": code, "wall_s": time.perf_counter() - t0})
    wall = time.perf_counter() - t_pass
    files = sorted(out.glob("*")) if out.exists() else []
    for run, rec in zip(runs, record):
        rec["files"] = {
            p.name: _digest(p) for p in files if p.name.startswith(run.experiment + "-")
        }
    return {"wall_s": wall, "runs": record}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for reports and record")
    ap.add_argument("--spans", help="span file of the traced pass")
    args = ap.parse_args()

    from fracspace import cli

    runs = WORKLOADS[args.workload]
    out = Path(args.out)
    doc = {"environment": environment(), "passes": []}
    if args.trace:
        doc["passes"].append(one_pass(cli, runs, args.seed, out / "pass0"))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = one_pass(cli, runs, args.seed, out / "pass1", tracer)
        doc["passes"].append(traced)
        metrics = tracing.layer_metrics(tracer)
        untraced = doc["passes"][0]["wall_s"]
        metrics["trace.overhead.s"] = {"value": traced["wall_s"] - untraced, "unit": "s"}
        metrics["trace.unaccounted.s"] = {
            "value": traced["wall_s"] - tracing.self_total(tracer),
            "unit": "s",
        }
        doc["metrics"] = metrics
        if args.spans:
            tracer.write(args.spans)
    else:
        # two passes at least, so that every run compares repeated reports
        start = time.perf_counter()
        while len(doc["passes"]) < 2 or time.perf_counter() - start < args.seconds:
            k = len(doc["passes"])
            doc["passes"].append(one_pass(cli, runs, args.seed, out / f"pass{k}"))
        # ru_maxrss is in KiB on Linux
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "worker.json").write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
