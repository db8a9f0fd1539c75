"""Every third-party package that bqlab imports, or that the plot script
``bqlab scan`` writes imports, is declared in ``pyproject.toml``: in
``dependencies`` or in an extra.  Imports are parsed, never executed, so
an optional package such as matplotlib need not be installed."""

import ast
import re
import sys
from pathlib import Path

import pytest

import bqlab
from bqlab.harness import _PLOT_TEMPLATE

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PACKAGE = Path(bqlab.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def third_party_imports(tree: ast.AST) -> set:
    """Top-level names of the absolute imports outside the standard library
    and bqlab."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"bqlab"}


def declared() -> set:
    """Distribution names in ``dependencies`` and every extra, normalised."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    reqs = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        reqs.extend(extra)
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in reqs}


def test_every_third_party_import_is_declared():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    trees.append(ast.parse(_PLOT_TEMPLATE.format(csv="threshold.csv", gamma=0.5)))
    imported = set().union(*(third_party_imports(t) for t in trees))
    assert {"numpy", "matplotlib"} <= imported
    missing = sorted(imported - declared())
    assert not missing, f"imported but not declared in {PYPROJECT.name}: {missing}"


def test_an_undeclared_import_is_flagged():
    tree = ast.parse("import os\nimport numpy.linalg\nfrom . import grid\n"
                     "from matplotlib import pyplot\nfrom bqlab.grid import Grid\n")
    assert third_party_imports(tree) == {"numpy", "matplotlib"}
