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

`at_most_table` applies at_most's rule to a whole 2D array and keeps the
cells as one `CellTable`: the fields they share, a row and a column field
(t and probe for the pointwise block of the intersection lemma), the
ratio array and the pass array. A report holds dict cells and tables in
cell order (`VerificationReport.blocks`); `report.cells` iterates them
all as dicts, and the summary and the writers read a table's arrays.

A NaN fails every rule: each rule is a comparison that NaN makes false,
a recorded value must be finite, and the ladder reductions go through
NumPy's max/min, which propagate NaN where Python's drop it unless it
comes first. A cell holds Python scalars alone: NumPy scalars are cast
with .item() before a rule reads them (repr(np.float64(x)) is
'np.float64(x)', an np.float32 NaN is no float, an np.bool_ no JSON
value), and a container raises InvalidConfig.

CSV output is RFC-4180 with a header row and one cell per line; JSON
output is sorted-key with indent 2. One writer per format serves dict
cells and tables alike, and writes byte for byte what csv.writer and
json.dumps(sort_keys=True, indent=2) would: the JSON frame goes through
json.dumps, each cell fills a %-template made once per key set, floats
are written with float.__repr__ (a table's ratios once per table) and
strings with json's encode_basestring_ascii or csv.writer's quoting.
Identical configs (including seed) must produce byte-identical files,
so nothing time- or path-dependent enters the payload; a NaN or inf
anywhere raises SolverFailure.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, SolverFailure

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
    import hashlib  # here, not at import: it loads OpenSSL, about 8 ms

    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class CellTable:
    """A rows x cols block of cells that share every field but four: a row
    field, a column field, "ratio" and "pass". Cell (i, j) is

        {**fields, row key: row value i, column key: column value j,
         "ratio": ratio[i, j], "pass": ok[i, j]},

    and the cells run row by row. The summary and the writers read the
    arrays; only iteration builds the dicts. Made by `at_most_table`. (A
    plain class: a dataclass costs about 1.5 ms of `import fracspace`.)
    """

    def __init__(self, fields: dict, rows: tuple, cols: tuple, ratio, ok):
        self.fields = fields
        self.rows = rows  # (field name, tuple of values)
        self.cols = cols
        self.ratio = ratio  # read-only float array, len(rows[1]) x len(cols[1])
        self.ok = ok  # read-only bool array, the same shape

    def __len__(self) -> int:
        return self.ratio.size

    def __iter__(self):
        (row_key, row_values), (col_key, col_values) = self.rows, self.cols
        for r, ratios, oks in zip(row_values, self.ratio.tolist(), self.ok.tolist()):
            for c, ratio, ok in zip(col_values, ratios, oks):
                yield {
                    **self.fields, row_key: r, col_key: c, "ratio": ratio, "pass": ok
                }

    def keys(self) -> set:
        """The field names of every cell, as dict.keys() gives a cell's."""
        return {*self.fields, self.rows[0], self.cols[0], "ratio", "pass"}

    @cached_property
    def _ratio_texts(self) -> list:  # the same in both formats
        return _float_texts(self.ratio)

    def texts(self, scalar) -> dict:
        """The value texts of the four varying fields, one per cell in
        order. Each row and column value is formatted once, by scalar; the
        ratios once per table."""
        (row_key, row_values), (col_key, col_values) = self.rows, self.cols
        row_texts = [scalar(v) for v in row_values]
        return {
            row_key: [text for text in row_texts for _ in col_values],
            col_key: [scalar(v) for v in col_values] * len(row_values),
            "ratio": self._ratio_texts,
            "pass": ["true" if ok else "false" for ok in self.ok.ravel().tolist()],
        }


@dataclass(frozen=True)
class VerificationReport:
    experiment: str
    parameters: dict
    blocks: tuple  # dict cells and CellTables, in cell order
    summary: dict
    provenance: dict

    @property
    def cells(self) -> list:
        """Every cell as a dict, in order."""
        return [
            c for b in self.blocks for c in (b if isinstance(b, CellTable) else (b,))
        ]

    @property
    def passed(self) -> bool:
        return all(
            b.ok.all() if isinstance(b, CellTable) else b.get("pass", False)
            for b in self.blocks
        )


def summarize(blocks) -> dict:
    """Summary recomputable from the cells (tested as an invariant); a
    table is read from its arrays. worst_ratio is the first ratio, in cell
    order, with the largest |ratio - 1|, where a NaN counts as larger than
    any number."""
    n_cells = n_pass = 0
    worst, worst_key = None, -math.inf
    for block in blocks:
        if isinstance(block, CellTable):
            n_cells += block.ratio.size
            n_pass += int(np.count_nonzero(block.ok))
            if not block.ratio.size:
                continue
            keys = np.abs(block.ratio - 1.0)
            keys[np.isnan(keys)] = math.inf
            i = int(np.argmax(keys))  # the first maximum, in cell order
            ratio, key = float(block.ratio.flat[i]), float(keys.flat[i])
        else:
            n_cells += 1
            n_pass += bool(block.get("pass", False))
            ratio = block.get("ratio")
            if not isinstance(ratio, float):
                continue
            key = math.inf if math.isnan(ratio) else abs(ratio - 1.0)
        if key > worst_key:
            worst, worst_key = ratio, key
    return {"n_cells": n_cells, "n_pass": n_pass, "worst_ratio": worst}


def _scalar(key, value):
    """A cell value as a Python scalar: NumPy scalars are cast with
    .item() (repr(np.float64(x)) is 'np.float64(x)', an np.float32 is no
    float, an np.bool_ no bool); anything but a str, int, float, bool or
    None raises, since cells are flat."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is not None and not isinstance(value, (str, int, float)):
        raise InvalidConfig(
            f"report cell field {key!r} must be a str, number, bool or None,"
            f" got {type(value).__name__}"
        )
    return value


def _flat(fields: dict) -> dict:
    return {key: _scalar(key, value) for key, value in fields.items()}


def cell(ok, **fields) -> dict:
    """One report cell: the fields as Python scalars (`_scalar`), and
    "pass" = bool(ok). ok must be a comparison result, never a number:
    bool(nan) is True."""
    fields = _flat(fields)
    fields["pass"] = bool(ok)
    return fields


def near_one(ratio, bound, **fields) -> dict:
    """A cell that passes when |ratio - 1| <= bound."""
    ratio = float(ratio)
    return cell(abs(ratio - 1.0) <= bound, ratio=ratio, bound=bound, **fields)


def _at_most_ok(value, bound, rel, floor):
    """at_most's rule, for a float or elementwise for an array."""
    ok = value <= bound * (1.0 + rel)
    if floor is not None:
        ok = ok & (floor * (1.0 - rel) <= value)
    return ok


def at_most(value, bound, *, rel=0.0, floor=None, **fields) -> dict:
    """A cell that passes when value <= bound (1 + rel) and, for a floor,
    floor (1 - rel) <= value. value is recorded as the ratio unless the
    fields name another."""
    value = float(value)
    fields.setdefault("ratio", value)
    return cell(_at_most_ok(value, bound, rel, floor), bound=bound, **fields)


def at_most_table(values, bound, *, rows, cols, rel=0.0, floor=None, **fields):
    """`at_most` over a 2D array at once: a CellTable whose cell (i, j)
    records values[i, j] as its ratio and passes by at_most's rule. rows
    and cols are (field name, values) pairs, one value per row or column
    of the array; the other fields are shared by every cell."""
    ratio = np.array(values, dtype=float)
    (row_key, row_values), (col_key, col_values) = rows, cols
    if ratio.shape != (len(row_values), len(col_values)):
        raise DimensionMismatch(
            f"cell table values of shape {ratio.shape} for"
            f" {len(row_values)} rows and {len(col_values)} columns"
        )
    ok = _at_most_ok(ratio, bound, rel, floor)
    ratio.setflags(write=False)
    ok.setflags(write=False)
    return CellTable(
        _flat({"bound": bound, **fields}),
        (row_key, tuple(_scalar(row_key, v) for v in row_values)),
        (col_key, tuple(_scalar(col_key, v) for v in col_values)),
        ratio,
        ok,
    )


def ladder_drift(*series, bound, **fields) -> dict:
    """A cell for the drift of per-grid values along a ladder: the largest
    max/min over the series. It passes when below bound; for bound None
    it is recorded and passes when finite."""
    ratio = float(np.max([np.max(s) / np.min(s) for s in series]))
    ok = math.isfinite(ratio) if bound is None else ratio < bound
    return cell(ok, ratio=ratio, bound=bound, **fields)


def recorded(**fields) -> dict:
    """A cell that records values without a bound; it passes when every
    float among them is finite, NumPy scalars included."""
    fields = _flat(fields)
    ok = all(math.isfinite(v) for v in fields.values() if isinstance(v, float))
    return cell(ok, **fields)


def make_report(
    experiment: str,
    parameters: dict,
    cells: list,
    seed: int | None = None,
    cfg_hash: str = "",
) -> VerificationReport:
    """cells holds dict cells and CellTables, in cell order."""
    blocks = tuple(cells)
    return VerificationReport(
        experiment=experiment,
        parameters=parameters,
        blocks=blocks,
        summary=summarize(blocks),
        provenance={"seed": seed, "config_hash": cfg_hash, "version": __version__},
    )


# ---- the writers: one per format, for dict cells and tables alike


def _plain(value) -> str:
    """A bool, int or finite float as both formats write it: JSON's
    true/false, and repr (json.dumps writes int.__repr__ and
    float.__repr__)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise SolverFailure(f"non-finite value in report cell: {value!r}")
    raise InvalidConfig(f"report cell value {value!r} is no str, number, bool or None")


def _float_texts(values: np.ndarray) -> list:
    """float.__repr__ of every entry, in C order; a NaN or inf raises."""
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)].flat[0]
        raise SolverFailure(f"non-finite value in report cell: {bad!r}")
    return list(map(float.__repr__, values.ravel().tolist()))


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "null" if value is None else _plain(value)


def _csv_scalar(value) -> str:
    """A CSV field, quoted where csv.writer quotes it: when it holds a
    comma, a quote or a line break, with quotes doubled."""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return "" if value is None else _plain(value)


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def _json_template(keys, constants: dict) -> str:
    """One cell as json.dumps(indent=2) writes it inside the report: the
    text of a key in constants is written in, every other key is a %s
    slot."""
    if not keys:
        return "    {}"
    items = [
        _literal(encode_basestring_ascii(k) + ": " + constants[k])
        if k in constants
        else _literal(encode_basestring_ascii(k)) + ": %s"
        for k in keys
    ]
    return "    {\n      " + ",\n      ".join(items) + "\n    }"


def _csv_template(keys, constants: dict) -> str:
    """One CSV row over the header keys, slots as in `_json_template`."""
    return ",".join(_literal(constants[k]) if k in constants else "%s" for k in keys)


def _cell_texts(blocks, scalar, template, header=None) -> list:
    """One text per cell, in order: each dict cell fills a template made
    once per key set, each table one template with its constant fields
    written in. The keys are the CSV header, or for JSON (header None)
    each cell's own, sorted."""
    templates, out = {}, []
    for block in blocks:
        if isinstance(block, CellTable):
            keys = header if header is not None else sorted(block.keys())
            texts = block.texts(scalar)
            constants = {k: scalar(block.fields.get(k)) for k in keys if k not in texts}
            filled = template(keys, constants)
            slots = [texts[k] for k in keys if k in texts]
            out += [filled % values for values in zip(*slots)]
        else:
            keys = header if header is not None else tuple(sorted(block))
            if keys not in templates:
                templates[keys] = template(keys, {})
            out.append(templates[keys] % tuple(scalar(block.get(k)) for k in keys))
    return out


def report_to_csv(report: VerificationReport) -> str:
    """Flat CSV: header = sorted union of cell keys, one cell per row, with
    RFC 4180 line ends; byte for byte what csv.writer writes."""
    keys = tuple(sorted({k for block in report.blocks for k in block.keys()}))
    lines = [",".join(map(_csv_scalar, keys))]
    lines += _cell_texts(report.blocks, _csv_scalar, _csv_template, keys)
    if len(keys) == 1:  # csv.writer quotes a row's one field when it is empty
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n"


def report_to_json(report: VerificationReport) -> str:
    """Sorted-key JSON with indent 2, byte for byte what json.dumps writes:
    json.dumps writes the frame, `_cell_texts` the cells."""
    frame = {
        "experiment": report.experiment,
        "parameters": report.parameters,
        "summary": report.summary,
        "provenance": report.provenance,
    }
    try:
        text = json.dumps(frame, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or inf in the frame
        raise SolverFailure(f"non-finite value in report: {exc}") from exc
    cells = _cell_texts(report.blocks, _json_scalar, _json_template)
    # "cells" sorts before every key of the frame
    if not cells:
        return '{\n  "cells": [],' + text[1:] + "\n"
    return '{\n  "cells": [\n' + ",\n".join(cells) + "\n  ]," + text[1:] + "\n"


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
