"""Every name a module of bqlab or a test file imports is used in it (no
linter is required)."""

import ast
from pathlib import Path

import pytest

import bqlab

MODULES = sorted(p for p in Path(bqlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") + sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import (``import a.b`` binds ``a``) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set:
    """Every loaded name, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from x import A, B\ndef f(a: 'A') -> 'list[B]':\n    pass\n")
    assert set(imported_names(tree)) <= used_names(tree)
