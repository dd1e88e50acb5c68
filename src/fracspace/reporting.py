"""Verification reports, their cells, run configuration, and deterministic
file output.

A report is a flat list of cells (dicts), each carrying a "pass" bool;
the summary is recomputable from the cells. Every cell is made here, by
`cell` or by one of the pass rules built on it:

- `near_one`: |ratio - 1| <= bound;
- `at_most`: value <= bound (1 + rel), optionally also
  floor (1 - rel) <= value;
- `ladder_drift`: the largest max/min over per-grid series, which passes
  when below its bound, or is only recorded for bound None;
- `recorded`: values written down, not asserted.

A NaN fails every rule: each rule is a comparison that NaN makes false,
a recorded value must be finite, and the ladder reductions go through
NumPy's max/min, which propagate NaN where Python's drop it unless it
comes first. `cell` casts NumPy floats to float (repr(np.float64(x)) is
'np.float64(x)' and would reach the CSV) and the pass flag to bool (an
np.bool_ is no JSON value).

CSV output is RFC-4180 with a header row and one cell per line; JSON
output is sorted-key nested. Identical configs (including seed) must
produce byte-identical files, so floats are serialized via repr and
nothing time- or path-dependent enters the payload.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, SolverFailure

__version__ = "0.1.0"

# config keys that affect the science; output location/format never
# enter the hash so reruns elsewhere keep the same report identity
_HASHED_KEYS = ("experiment", "sizes", "thetas", "seed", "quadrature")

_QUAD_KEYS = ("log_t_min", "log_t_max", "tol", "max_panels")

# |ln t| bound of the quadrature window: e^(2 |ln t|) and the tail
# envelopes e^((2 - 2 theta) ln t) stay far below the float range
_LOG_T_BOUND = 300.0

# smallest quadrature tolerance: below it, successive panel doublings
# differ by rounding alone and only a bitwise tie would stop them
_TOL_MIN = 1e-14

_FORMATS = ("csv", "json", "both")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    sizes: tuple = ()
    thetas: tuple = ()
    seed: int = 42
    quadrature: dict | None = None
    output_dir: str = "."
    format: str = "both"


def _finite_real(value) -> bool:
    """True for an int or float (not bool) that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _array(doc: dict, key: str) -> tuple:
    """doc[key] as a tuple; absent means empty, anything but an array fails."""
    value = doc.get(key, ())
    if not isinstance(value, (list, tuple)):
        raise InvalidConfig(f"{key} must be a JSON array, got {value!r}")
    return tuple(value)


def make_run_config(doc: dict, registry: dict) -> RunConfig:
    """Validate a plain config dict against the experiment registry."""
    unknown = set(doc) - {
        "experiment",
        "sizes",
        "thetas",
        "seed",
        "quadrature",
        "output_dir",
        "format",
    }
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    name = doc.get("experiment")
    if not isinstance(name, str) or name not in registry:
        from .errors import UnknownExperiment

        raise UnknownExperiment(
            f"unknown experiment {name!r}; choices: {sorted(registry)}"
        )
    sizes = _array(doc, "sizes")
    for s in sizes:
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise InvalidConfig(f"sizes must be positive integers, got {s!r}")
    thetas = _array(doc, "thetas")
    for th in thetas:
        # compare before float(): an int beyond the float range overflows it
        if not isinstance(th, (int, float)) or not 0.0 < th < 1.0:
            raise InvalidConfig(f"thetas must lie strictly in (0, 1), got {th!r}")
    thetas = tuple(float(th) for th in thetas)
    seed = doc.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed!r}")
    quad = doc.get("quadrature")
    if quad is not None:
        if not isinstance(quad, dict) or set(quad) - set(_QUAD_KEYS):
            raise InvalidConfig(
                f"quadrature keys must be a subset of {_QUAD_KEYS}, got {quad!r}"
            )
        for key, value in quad.items():
            if not _finite_real(value):
                raise InvalidConfig(
                    f"quadrature {key} must be a finite real number, got {value!r}"
                )
        for key in ("log_t_min", "log_t_max"):
            if key in quad and not abs(quad[key]) <= _LOG_T_BOUND:
                raise InvalidConfig(
                    f"quadrature {key} must lie in [-{_LOG_T_BOUND:g}, {_LOG_T_BOUND:g}],"
                    f" got {quad[key]!r}"
                )
        if "tol" in quad and not quad["tol"] >= _TOL_MIN:
            raise InvalidConfig(
                f"quadrature tol must be at least {_TOL_MIN:g}, got {quad['tol']!r}"
            )
        if "max_panels" in quad and (
            not isinstance(quad["max_panels"], int) or quad["max_panels"] < 2
        ):
            raise InvalidConfig("quadrature max_panels must be an integer >= 2")
        if (
            "log_t_min" in quad
            and "log_t_max" in quad
            and not quad["log_t_min"] < quad["log_t_max"]
        ):
            raise InvalidConfig("quadrature needs log_t_min < log_t_max")
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        raise InvalidConfig(
            f"output_dir must be a non-empty string, got {output_dir!r}"
        )
    fmt = doc.get("format", "both")
    if fmt not in _FORMATS:
        raise InvalidConfig(f"format must be one of {_FORMATS}, got {fmt!r}")
    return RunConfig(
        experiment=name,
        sizes=sizes,
        thetas=thetas,
        seed=seed,
        quadrature=quad,
        output_dir=output_dir,
        format=fmt,
    )


def config_hash(config: RunConfig) -> str:
    """12-hex digest of the science-relevant part of the config."""
    payload = {
        "experiment": config.experiment,
        "sizes": list(config.sizes),
        "thetas": list(config.thetas),
        "seed": config.seed,
        "quadrature": config.quadrature,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VerificationReport:
    experiment: str
    parameters: dict
    cells: list
    summary: dict
    provenance: dict

    @property
    def passed(self) -> bool:
        return all(cell.get("pass", False) for cell in self.cells)


def summarize(cells: list) -> dict:
    """Summary recomputable from the cells (tested as an invariant). A NaN
    ratio is the worst: max compares keys, and a NaN key would be skipped."""
    ratios = [c["ratio"] for c in cells if isinstance(c.get("ratio"), float)]
    worst = None
    if ratios:
        worst = max(ratios, key=lambda r: math.inf if math.isnan(r) else abs(r - 1.0))
    return {
        "n_cells": len(cells),
        "n_pass": sum(1 for c in cells if c.get("pass", False)),
        "worst_ratio": worst,
    }


def cell(ok, **fields) -> dict:
    """One report cell: the fields, with NumPy floats cast to float, and
    "pass" = bool(ok). ok must be a comparison result, never a number:
    bool(nan) is True."""
    for key, value in fields.items():
        if isinstance(value, float) and type(value) is not float:
            fields[key] = float(value)
    fields["pass"] = bool(ok)
    return fields


def near_one(ratio, bound, **fields) -> dict:
    """A cell that passes when |ratio - 1| <= bound."""
    ratio = float(ratio)
    return cell(abs(ratio - 1.0) <= bound, ratio=ratio, bound=bound, **fields)


def at_most(value, bound, *, rel=0.0, floor=None, **fields) -> dict:
    """A cell that passes when value <= bound (1 + rel) and, for a floor,
    floor (1 - rel) <= value. value is recorded as the ratio unless the
    fields name another."""
    value = float(value)
    ok = value <= bound * (1.0 + rel)
    if floor is not None:
        ok = ok and floor * (1.0 - rel) <= value
    fields.setdefault("ratio", value)
    return cell(ok, bound=bound, **fields)


def ladder_drift(*series, bound, **fields) -> dict:
    """A cell for the drift of per-grid values along a ladder: the largest
    max/min over the series. It passes when below bound; for bound None
    it is recorded and passes when finite."""
    ratio = float(np.max([np.max(s) / np.min(s) for s in series]))
    ok = math.isfinite(ratio) if bound is None else ratio < bound
    return cell(ok, ratio=ratio, bound=bound, **fields)


def recorded(**fields) -> dict:
    """A cell that records values without a bound; it passes when every
    float among them is finite."""
    ok = all(math.isfinite(v) for v in fields.values() if isinstance(v, float))
    return cell(ok, **fields)


def make_report(
    experiment: str,
    parameters: dict,
    cells: list,
    seed: int | None = None,
    cfg_hash: str = "",
) -> VerificationReport:
    return VerificationReport(
        experiment=experiment,
        parameters=parameters,
        cells=cells,
        summary=summarize(cells),
        provenance={"seed": seed, "config_hash": cfg_hash, "version": __version__},
    )


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise SolverFailure(f"non-finite value in report cell: {v}")
        return repr(v)
    return str(v)


def report_to_csv(report: VerificationReport) -> str:
    """Flat CSV: header = sorted union of cell keys, one cell per row."""
    keys = sorted({k for cell in report.cells for k in cell})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line ends
    writer.writerow(keys)
    for cell in report.cells:
        writer.writerow([_csv_value(cell.get(k)) for k in keys])
    return buf.getvalue()


def report_to_json(report: VerificationReport) -> str:
    doc = {
        "experiment": report.experiment,
        "parameters": report.parameters,
        "cells": report.cells,
        "summary": report.summary,
        "provenance": report.provenance,
    }
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or inf anywhere in the report
        raise SolverFailure(f"non-finite value in report: {exc}") from exc


def write_report(report: VerificationReport, config: RunConfig) -> list:
    """Write <experiment>-<hash>.{csv,json} per config.format; return paths.

    Every requested format is serialized before any file is opened, so a
    report that cannot be written (a non-finite cell raises SolverFailure
    in either format) leaves no file behind.
    """
    stem = f"{config.experiment}-{report.provenance['config_hash']}"
    texts = []
    if config.format in ("csv", "both"):
        texts.append((".csv", report_to_csv(report)))
    if config.format in ("json", "both"):
        texts.append((".json", report_to_json(report)))
    os.makedirs(config.output_dir, exist_ok=True)
    paths = []
    for suffix, text in texts:
        path = os.path.join(config.output_dir, stem + suffix)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        paths.append(path)
    return paths
