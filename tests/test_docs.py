"""README guards: the Quick-start Python block runs and holds its claim,
and the Errors table names exactly the classes of fracspace.errors, each
of which (the base class apart) has a raise site in the package."""
import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "fracspace"


def _section(heading: str) -> str:
    """The README text from `heading` up to the next heading of any level."""
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    end = re.search(r"^#+ ", README[start:], flags=re.MULTILINE)
    return README[start : start + end.start()] if end else README[start:]


def _error_classes() -> set:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_names() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    names.add(node.exc.func.id)
    return names


def test_quick_start_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _section("## Quick start"), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip()  # it prints the ratio
    ratio = namespace["lhs"] / namespace["rhs"]
    assert math.isfinite(ratio) and abs(ratio - 1.0) < 1e-3


def test_error_table_matches_errors_module():
    rows = re.findall(r"^\| `(\w+)` \|", _section("### Errors"), flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == _error_classes()


def test_every_error_class_has_a_raise_site():
    classes = _error_classes() - {"FracspaceError"}
    assert classes - _raised_names() == set()
