"""tools/report_diff.py: byte-identical reruns, a single moved cell, and
the exit status on a changed pass flag or cell count."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from fracspace.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two output directories of the same seeded runs, both formats."""
    dirs = []
    for side in ("a", "b"):
        out = tmp_path_factory.mktemp(side)
        for argv in (["higher-power", "--size", "16"], ["halft1", "--size", "4", "5"]):
            assert main([*argv, "--out", str(out), "--format", "both"]) == 0
        dirs.append(out)
    return dirs


def _copy(src, tmp_path):
    dst = tmp_path / "b"
    shutil.copytree(src, dst)
    return dst


def _edit_json(out, experiment, edit):
    """Rewrite the JSON report of experiment in out after edit(doc), in
    the writer's own layout."""
    (path,) = out.glob(f"{experiment}-*.json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def test_two_runs_of_one_seed_show_no_move(runs, capsys):
    a, b = runs
    assert report_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "4 of 4 paired files are byte-identical." in out
    assert "No field moved." in out and "None changed." in out


def test_a_perturbed_cell_shows_that_move_alone(runs, tmp_path, capsys):
    a, b = runs
    b = _copy(b, tmp_path)

    def nudge(doc):
        cell = next(c for c in doc["cells"] if c["check"] == "interp-ratio")
        cell["ratio"] *= 1.0 + 1e-12

    _edit_json(b, "halft1", nudge)
    diff = report_diff.compare(a, b)
    assert len(diff.identical) == 3 and len(diff.changed) == 1
    ((key, (cells, rel, _)),) = diff.moves.items()
    assert key == ("halft1", "Corollary 5.4", "interp-ratio", "ratio")
    assert cells == 1 and rel == pytest.approx(1e-12, rel=1e-3)
    assert not diff.structural
    assert report_diff.main([str(a), str(b)]) == 0
    assert "| halft1 | Corollary 5.4 | interp-ratio | ratio | 1 |" in capsys.readouterr().out


def test_a_flipped_pass_flag_or_a_lost_cell_exits_1(runs, tmp_path, capsys):
    a, b = runs
    b = _copy(b, tmp_path)

    def flip(doc):
        doc["cells"][0]["pass"] = not doc["cells"][0]["pass"]

    _edit_json(b, "halft1", flip)
    _edit_json(b, "higher-power", lambda doc: doc["cells"].pop())
    assert report_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "- pass flag: `halft1-" in out and "True -> False" in out
    assert "- cell count: `higher-power-" in out


def test_a_non_finite_number_is_refused(runs, tmp_path, capsys):
    a, b = runs
    b = _copy(b, tmp_path)

    def poison(doc):
        doc["cells"][0]["ratio"] = float("nan")

    _edit_json(b, "halft1", poison)
    assert report_diff.main([str(a), str(b)]) == 2
    assert "non-finite number NaN" in capsys.readouterr().err


def test_report_runs_covers_every_experiment():
    # the evidence runner's default-size list is the CLI registry, so a new
    # experiment cannot drop out of the evidence set
    from fracspace.experiments import EXPERIMENTS

    script = (TOOL.parent / "report_runs.sh").read_text()
    (line,) = [s for s in script.splitlines() if s.startswith("EXPERIMENTS=")]
    assert sorted(line.split("=", 1)[1].strip('"').split()) == sorted(EXPERIMENTS)
