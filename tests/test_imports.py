"""Layout rules for the package source: its syntax tree, and what importing
it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monograde"

# expr imports basecoeff and galgebra, so their reprs import the renderer late
DEFERRED = {("basecoeff.py", "BasePoly.__repr__"),
            ("galgebra.py", "GradedElement.__repr__")}


def deferred_imports(path: Path):
    """(name, line) of each import inside a function; a method is named
    Class.method."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend((prefix + child.name, n.lineno) for n in ast.walk(child)
                             if isinstance(n, (ast.Import, ast.ImportFrom)))
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    found = [(name, line) for name, line in deferred_imports(path)
             if (path.name, name) not in DEFERRED]
    assert found == []


def test_reports_render_through_reporting():
    for name in ("morphism.py", "calculus.py"):
        assert "render_element" not in (PACKAGE / name).read_text(encoding="utf-8")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each costs milliseconds of start-up in every command process: the
    # structural results no command runs are compiled only where imported
    left_out = {"dataclasses", "inspect", "argparse", "gettext", "monograde.structure"}
    probe = "import sys, monograde.cli; print(sorted(%r & set(sys.modules)))" % left_out
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
