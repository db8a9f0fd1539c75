"""Every function of bqlab has a caller outside the tests: a module-level
function or non-dunder method must be referenced from the package itself
(``__init__.py``, which only re-exports, does not count) or from the
benchmark in ``perfbench/``.  API that only tests call belongs in the tests.

The exceptions are the helpers that implement an acceptance criterion and
name it in their docstring.
"""

import ast
from pathlib import Path

import pytest

import bqlab

PACKAGE = Path(bqlab.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = SOURCES + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

# checks of an acceptance criterion, kept in the library on purpose
CRITERION_HELPERS = {
    "alpha_pairing_sum",
    "pairing_bound",
    "discrete_budget_residual",
    "mean_flow_residual",
    "laplace_tilde_t",
}


def defined(tree: ast.Module) -> dict:
    """Module-level functions and non-dunder methods -> qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    out[item] = f"{node.name}.{item.name}"
    return out


def referenced(tree: ast.AST) -> set:
    """Names loaded or read as attributes, and the parts of strings that are
    dotted names (the benchmark names its trace targets in strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def uncalled() -> list:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLERS}
    used = set().union(*(referenced(t) for t in trees.values()))
    return sorted(f"{p.stem}.{qual}" for p in SOURCES
                  for node, qual in defined(trees[p]).items()
                  if node.name not in used and node.name not in CRITERION_HELPERS)


def test_every_function_has_a_caller_outside_the_tests():
    lonely = uncalled()
    assert not lonely, f"functions only tests call; move them to tests/: {lonely}"


@pytest.mark.parametrize("name", sorted(CRITERION_HELPERS))
def test_criterion_helpers_exist_and_name_their_criterion(name):
    docs = [ast.get_docstring(node) or ""
            for p in SOURCES for node in defined(ast.parse(p.read_text()))
            if node.name == name]
    assert docs and all("criterion" in d for d in docs), name


def test_a_function_only_a_test_calls_is_flagged():
    tree = ast.parse("def used():\n    pass\n\nclass C:\n    def lonely(self):\n"
                     "        used()\n\n    def __init__(self):\n        pass\n")
    names = {node.name for node in defined(tree)} - referenced(tree)
    assert names == {"lonely"}
