"""Compare the report files of two fracspace output directories.

    python tools/report_diff.py A B

Pairs the report files (`*.json`, `*.csv`) of A and B by their path
relative to each directory and prints, in Markdown:

- the paired files that are byte-identical, and the files on one side
  only;
- for the other pairs, the largest relative and absolute move of each
  field, per (experiment, lemma, check, field), with the number of cells
  that moved; the fields of a JSON report outside its cells (parameters,
  summary, provenance) count as the check `(frame)`, one field per path;
- every cell whose pass flag changed, every change of cell count and
  every change of a cell's key set.

The relative move of a number is |b - a| / |a| (inf for a = 0 < |b|).
A text or flag that changed is listed with its cell count and no move.
Cells pair by position, as the writers keep their order.

Exit status: 0 when every file pairs and no pass flag, cell count or key
set changed; 1 otherwise; 2 for an input that is not a report
directory, a file that does not parse, or a non-finite number, which
`fracspace.reporting.write_report` never writes. Only the standard
library is imported.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

SUFFIXES = (".json", ".csv")
FRAME = "(frame)"


class ReportError(Exception):
    """A file that is not a finite fracspace report."""


def _reject_constant(name):
    raise ReportError(f"non-finite number {name}")


def _csv_value(text: str):
    """A CSV field as the JSON writer would hold it."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(value, path: str, out: dict) -> dict:
    """Every scalar of a nested dict or list, by dotted path."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def load_report(path: Path) -> tuple[str, list, dict]:
    """(experiment, cells, frame) of a report file. The frame of a JSON
    report, its keys other than "cells", is one cell of check FRAME; a
    CSV report has none."""
    text = path.read_text()
    if path.suffix == ".json":
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
            experiment, cells = doc["experiment"], list(doc["cells"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ReportError(f"{path}: not a JSON report ({exc})") from exc
        frame = {key: value for key, value in doc.items() if key != "cells"}
        frame = {"check": FRAME, **_flatten(frame, "", {})}
    else:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows:
            raise ReportError(f"{path}: empty CSV report")
        experiment = path.stem.rsplit("-", 1)[0]
        cells = [
            {key: _csv_value(field) for key, field in zip(rows[0], row) if field != ""}
            for row in rows[1:]
        ]
        frame = {}
    for cell in [*cells, frame]:
        if not isinstance(cell, dict):
            raise ReportError(f"{path}: a cell is not an object")
        for key, value in cell.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ReportError(f"{path}: non-finite {key} {value!r}")
    return experiment, cells, frame


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Diff:
    """What differs between two sets of reports."""

    def __init__(self, only_a: list, only_b: list):
        self.only_a, self.only_b = only_a, only_b
        self.identical, self.changed = [], []
        self.moves = {}  # (experiment, lemma, check, field) -> [cells, rel, abs]
        self.flips, self.counts, self.key_sets = [], [], []

    @property
    def structural(self) -> bool:
        """A file on one side only, or a changed pass flag, cell count or
        key set."""
        changes = self.flips or self.counts or self.key_sets
        return bool(self.only_a or self.only_b or changes)

    def add_pair(self, name: str, a: Path, b: Path) -> None:
        if a.read_bytes() == b.read_bytes():
            self.identical.append(name)
            return
        self.changed.append(name)
        experiment, cells_a, frame_a = load_report(a)
        _, cells_b, frame_b = load_report(b)
        if len(cells_a) != len(cells_b):
            self.counts.append((name, len(cells_a), len(cells_b)))
            return
        for i, (ca, cb) in enumerate(zip([*cells_a, frame_a], [*cells_b, frame_b])):
            if set(ca) != set(cb):
                gone, new = sorted(set(ca) - set(cb)), sorted(set(cb) - set(ca))
                self.key_sets.append((name, i, gone, new))
            if ca.get("pass") != cb.get("pass"):
                where = (ca.get("lemma"), ca.get("check"))
                self.flips.append((name, i, *where, ca.get("pass"), cb.get("pass")))
            for key in sorted(set(ca) & set(cb) - {"pass"}):
                va, vb = ca[key], cb[key]
                if va == vb and type(va) is type(vb):
                    continue
                entry = self.moves.setdefault(
                    (experiment, str(ca.get("lemma", "")), str(ca.get("check", "")), key),
                    [0, 0.0, 0.0],
                )
                entry[0] += 1
                if _is_number(va) and _is_number(vb):
                    change = abs(vb - va)
                    rel = change / abs(va) if va else math.inf
                    entry[1], entry[2] = max(entry[1], rel), max(entry[2], change)
                else:
                    entry[1] = entry[2] = math.nan  # a text or flag changed

    def markdown(self, a: Path, b: Path) -> str:
        paired = len(self.identical) + len(self.changed)
        lines = [f"## Reports {a} -> {b}", ""]
        lines.append(f"{len(self.identical)} of {paired} paired files are byte-identical.")
        for name in self.identical:
            lines.append(f"- `{name}`")
        for label, names in (("only in A", self.only_a), ("only in B", self.only_b)):
            if names:
                lines += ["", f"Files {label}:"] + [f"- `{name}`" for name in names]
        lines += ["", "### Largest move per field", ""]
        if self.moves:
            lines += [
                "| experiment | lemma | check | field | cells moved | max rel | max abs |",
                "| --- | --- | --- | --- | ---: | ---: | ---: |",
            ]
            for key, (n, rel, change) in sorted(self.moves.items()):
                moved = "changed | -" if math.isnan(rel) else f"{rel:.3g} | {change:.3g}"
                lines.append(f"| {' | '.join(key)} | {n} | {moved} |")
        else:
            lines.append("No field moved.")
        lines += ["", "### Pass flags, cell counts and key sets", ""]
        for name, i, lemma, check, pa, pb in self.flips:
            lines.append(f"- pass flag: `{name}` cell {i} ({lemma}, {check}): {pa} -> {pb}")
        for name, na, nb in self.counts:
            lines.append(f"- cell count: `{name}`: {na} -> {nb}")
        for name, i, gone, new in self.key_sets:
            lines.append(f"- key set: `{name}` cell {i}: without {gone}, with {new}")
        if not (self.flips or self.counts or self.key_sets):
            lines.append("None changed.")
        return "\n".join(lines) + "\n"


def _reports(root: Path) -> dict:
    if not root.is_dir():
        raise ReportError(f"{root} is not a directory")
    return {
        str(path.relative_to(root)): path
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.suffix in SUFFIXES
    }


def compare(a: Path, b: Path) -> Diff:
    reports_a, reports_b = _reports(a), _reports(b)
    diff = Diff(
        sorted(set(reports_a) - set(reports_b)), sorted(set(reports_b) - set(reports_a))
    )
    for name in sorted(set(reports_a) & set(reports_b)):
        diff.add_pair(name, reports_a[name], reports_b[name])
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the reference output directory")
    parser.add_argument("b", type=Path, help="the output directory to compare")
    args = parser.parse_args(argv)
    try:
        diff = compare(args.a, args.b)
    except (ReportError, OSError) as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(diff.markdown(args.a, args.b))
    return 1 if diff.structural else 0


if __name__ == "__main__":
    sys.exit(main())
