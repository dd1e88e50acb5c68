"""The report writers against the standard library's, byte for byte.

`report_to_json` and `report_to_csv` format cells themselves, and read
column tables from their arrays. The oracles below are the routes they
replace: json.dumps(indent=2) over the whole document, and csv.writer
over every cell as a dict.
"""
import csv
import io
import json
import math
import os

import numpy as np
import pytest

from fracspace import (
    EXPERIMENTS,
    DimensionMismatch,
    RunConfig,
    SolverFailure,
    grid_domain,
    make_report,
    report_to_csv,
    report_to_json,
    verify_intersection_lemma,
    write_report,
)
from fracspace import retractions
from fracspace.experiments import _harmonic_setup
from fracspace.reporting import CellTable, at_most_table, summarize


def _oracle_json(rep) -> str:
    doc = {
        "experiment": rep.experiment,
        "parameters": rep.parameters,
        "cells": rep.cells,
        "summary": rep.summary,
        "provenance": rep.provenance,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _oracle_csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _oracle_csv(rep) -> str:
    keys = sorted({k for c in rep.cells for k in c})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(keys)
    for c in rep.cells:
        writer.writerow([_oracle_csv_value(c.get(k)) for k in keys])
    return buf.getvalue()


def _assert_oracle_bytes(rep):
    assert report_to_json(rep) == _oracle_json(rep)
    assert report_to_csv(rep) == _oracle_csv(rep)


_SMALL_SIZES = {
    "lemma41": (32,),
    "reiteration": (32,),
    "criticality": (1024,),
    "weight": (16,),
    "intersection": (4, 4),
    "halft1": (4, 5),
    "stokes-retraction": (4, 5),
    "stokes-equivalence": (4, 5),
    "higher-power": (16,),
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_runner_writes_the_oracle_bytes(name, seed):
    assert set(_SMALL_SIZES) == set(EXPERIMENTS)
    runner, _ = EXPERIMENTS[name]
    rep = runner(RunConfig(experiment=name, sizes=_SMALL_SIZES[name], seed=seed))
    _assert_oracle_bytes(rep)
    # the summary read from the tables is the summary of the dicts
    assert summarize(rep.cells) == rep.summary
    assert rep.passed == all(c["pass"] for c in rep.cells)


# strings that need JSON escapes, CSV quoting, or break a %-template
_STRINGS = [
    "a,b",
    'say "hi"',
    "two\r\nlines",
    "cr\ronly",
    "lf\nonly",
    "50%",
    "%s %d %% %(x)s",
    "θ → ∞, é, 中",
    "ctrl \x00\x01\x08\x1f\x7f\t\\",
    "",
    " padded ",
]


def _table(**fields):
    return at_most_table(
        [[0.5, 1.0 + 1e-12, -0.0], [1e-300, 5e-324, 2.0]],
        1.0,
        rows=("t", [0.25, 1e300]),
        cols=("probe", [0, 1, 2]),
        **fields,
    )


def test_hand_made_cells_write_the_oracle_bytes():
    cells = [{"check": s, "note": s, "pass": True} for s in _STRINGS]
    cells += [
        {"n": 3, "big": 10**30, "neg": -7, "flag": False, "none": None, "pass": False},
        {"ratio": -0.0, "tiny": 1e-300, "sub": 5e-324, "pass": True},
        {"ratio": 1.5, "pass": True},  # keys missing from the other cells
        {"a,b": 1, 'q"k': 2, "%k": "%", "": "", "é": "é", "pass": True},
        {},
        _table(lemma="50% a,b", grid='q"uote\r\n', check="", theta=None),
        {"check": "between tables", "pass": True},
        _table(lemma="%s", grid="é", check="x", theta=0.5, extra="ctrl\x01"),
        at_most_table(
            [[1.0], [0.5]],
            2.0,
            floor=0.75,
            rows=("label", ["a,b", ""]),
            cols=("probe", ["%d"]),
        ),
    ]
    rep = make_report("demo", {"p": "%s,\n", "q": [1, 2.5]}, cells, seed=7, cfg_hash="h")
    _assert_oracle_bytes(rep)
    assert rep.summary == summarize(rep.cells)


@pytest.mark.parametrize(
    "cells",
    [
        [],  # csv.writer writes one empty header row
        [{}],
        [{"x": ""}],  # csv.writer quotes a row's one field when it is empty
        [{"x": "a"}, {"x": ""}, {"y": 1}],
        [{"": ""}],
        [{"x": "", "y": ""}],  # ... and only then
        [{"pass": True}, {"pass": False}],
    ],
)
def test_edge_reports_write_the_oracle_bytes(cells):
    _assert_oracle_bytes(make_report("demo", {}, cells))


def test_a_table_is_its_cells_in_row_major_order():
    table = _table(lemma="L", grid="g", check="c", theta=None)
    assert isinstance(table, CellTable) and len(table) == 6
    cells = list(table)
    assert [(c["t"], c["probe"]) for c in cells] == [
        (t, p) for t in (0.25, 1e300) for p in (0, 1, 2)
    ]
    assert cells[0] == {
        "bound": 1.0,
        "lemma": "L",
        "grid": "g",
        "check": "c",
        "theta": None,
        "t": 0.25,
        "probe": 0,
        "ratio": 0.5,
        "pass": True,
    }
    # at_most's rule, elementwise: 1 + 1e-12 and 2.0 exceed the bound
    assert [c["pass"] for c in cells] == [True, False, True, True, True, False]
    assert all(type(c["ratio"]) is float and type(c["pass"]) is bool for c in cells)
    assert table.keys() == set(cells[0])


def test_a_table_needs_one_value_per_row_and_column():
    with pytest.raises(DimensionMismatch):
        at_most_table(np.ones((2, 3)), 1.0, rows=("t", [1.0]), cols=("probe", [0, 1, 2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_pointwise_ratio_fails_its_cell_alone(monkeypatch, tmp_path, bad):
    setup = _harmonic_setup(grid_domain(2, 5))
    clean, _ = verify_intersection_lemma(*setup, (0.5,), t_points=17)
    real = retractions.k2_batch
    calls = []

    def poisoned(lam, c2, ts):
        out = real(lam, c2, ts)
        if not calls:  # the ambient K^2, at the first t and probe 3
            out[0, 3] = bad
        calls.append(1)
        return out

    monkeypatch.setattr(retractions, "k2_batch", poisoned)
    tables, _ = verify_intersection_lemma(*setup, (0.5,), t_points=17)
    base, rep = make_report("demo", {}, clean), make_report("demo", {}, tables)
    assert base.passed and not rep.passed
    assert rep.summary["n_cells"] == base.summary["n_cells"]
    assert rep.summary["n_pass"] == base.summary["n_pass"] - 1
    assert [i for i, c in enumerate(rep.cells) if not c["pass"]] == [3]
    # the first largest |ratio - 1| is the summary's worst, a NaN the
    # largest of all; an inf ratio is worst by its own size
    worst = rep.summary["worst_ratio"]
    assert math.isnan(worst) if math.isnan(bad) else worst == math.inf
    for fmt in ("csv", "json", "both"):
        out = tmp_path / fmt
        cfg = RunConfig(experiment="demo", output_dir=str(out), format=fmt)
        with pytest.raises(SolverFailure, match="non-finite"):
            write_report(rep, cfg)
        assert not out.exists(), fmt
    assert os.listdir(tmp_path) == []
