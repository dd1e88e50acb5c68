"""Command-line entry point.

fracspace <experiment> --config cfg.json [--theta ...] [--size ...]
          [--seed N] [--out DIR] [--format csv|json|both]
fracspace list

Exit codes: 0 all checks passed, 1 a verification cell failed (or a
runtime verification error, or any other exception), 2 unknown
experiment, invalid config or an output directory that cannot be
written. Past argument parsing, every error exit writes one JSON line to
stderr and no traceback.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .errors import FracspaceError, InvalidConfig, UnknownExperiment
from .experiments import DEFAULT_SIZES, EXPERIMENTS, SCIPY_EXPERIMENTS
from .reporting import make_run_config, write_report

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracspace",
        description="Verification experiments for fractional power spaces "
        "and real-interpolation norms.",
    )
    p.add_argument("experiment", help="experiment name, or 'list'")
    p.add_argument("--config", help="JSON config file", default=None)
    p.add_argument("--theta", nargs="+", type=float, default=None)
    p.add_argument("--size", nargs="+", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory", default=None)
    p.add_argument("--format", choices=("csv", "json", "both"), default=None)
    return p


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfig("config root must be a JSON object")
    return doc


def _env_seed() -> int | None:
    raw = os.environ.get("FRACSPACE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidConfig(f"FRACSPACE_SEED must be an integer, got {raw!r}") from exc


def _check_output_dir(path: str) -> None:
    """Refuse, before any experiment runs, an output directory that is
    neither a writable directory nor creatable under one."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise InvalidConfig(
            f"output_dir {path!r} cannot be used: {probe!r} is not a writable directory"
        )


@functools.cache
def _scipy_blas():
    """SciPy's vendored OpenBLAS as (get_num_threads, set_num_threads), or
    None where no loaded library exports `scipy_openblas_set_num_threads`
    (another BLAS, another OS). NumPy vendors its own copy, which exports
    only the `...64_` names. scipy.linalg, which links that library, is
    imported first, so the one scan of the process's mappings finds it
    whenever SciPy vendors it, and serves every later call."""
    import ctypes

    import scipy.linalg  # noqa: F401  (loads SciPy's OpenBLAS before the scan)

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_scipy_blas_thread():
    """Run the block with SciPy's OpenBLAS pool at one thread, then restore
    its previous count. NumPy's pool keeps the environment's count: with
    both pools multithreaded, every switch between a NumPy product and a
    SciPy factorisation runs more busy threads than there are cores."""
    blas = _scipy_blas()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _emit_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.experiment == "list":
        for name, (_, doc) in EXPERIMENTS.items():
            print(f"{name:20s} {doc}")
        return 0
    try:
        doc = _load_config(args.config)
        doc["experiment"] = args.experiment
        if args.size is not None:
            doc["sizes"] = args.size
        elif "sizes" not in doc and args.experiment in DEFAULT_SIZES:
            # a bare `fracspace <name>` runs the documented default sweep
            doc["sizes"] = list(DEFAULT_SIZES[args.experiment])
        if args.theta is not None:
            doc["thetas"] = args.theta
        if args.seed is not None:  # precedence: flag > env > config file
            doc["seed"] = args.seed
        else:
            env = _env_seed()
            if env is not None:
                doc["seed"] = env
        if args.out is not None:
            doc["output_dir"] = args.out
        if args.format is not None:
            doc["format"] = args.format
        config = make_run_config(doc, EXPERIMENTS)
        _check_output_dir(config.output_dir)
        runner, _ = EXPERIMENTS[config.experiment]
        scipy_run = config.experiment in SCIPY_EXPERIMENTS
        with _one_scipy_blas_thread() if scipy_run else contextlib.nullcontext():
            report = runner(config)
        try:
            paths = write_report(report, config)
        except OSError as exc:
            raise InvalidConfig(
                f"cannot write the report to {config.output_dir!r}: {exc}"
            ) from exc
    except (UnknownExperiment, InvalidConfig) as exc:
        _emit_error(exc)
        return 2
    except FracspaceError as exc:
        _emit_error(exc)
        return 1
    except Exception as exc:  # NumPy/SciPy errors, MemoryError: one line, no traceback
        _emit_error(exc)
        return 1
    n_pass = report.summary["n_pass"]
    n_cells = report.summary["n_cells"]
    status = "PASS" if report.passed else "FAIL"
    print(f"{config.experiment}: {status} {n_pass}/{n_cells} checks -> "
          + ", ".join(paths))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
