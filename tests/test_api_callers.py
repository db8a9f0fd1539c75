"""Every function and every field of bqlab has a user outside the tests: a
module-level function or non-dunder method must be referenced, and an
annotated class field read as an attribute, from the package itself or from
the benchmark in ``perfbench/``.  API that only tests use belongs in the
tests.

The exceptions are the helpers that implement an acceptance criterion and
name it in their docstring, and the fields listed with a reason in
``UNREAD_FIELDS_KEPT``.
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

# fields that no code outside the tests reads, kept on purpose
UNREAD_FIELDS_KEPT = {
    "ShearFrame.y_of_Y": "the Newton map y(Y) at which a and b are evaluated; "
                         "test_shear checks it against closed forms",
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


def fields(tree: ast.Module) -> list:
    """Annotated class fields as (class-qualified name, field name)."""
    return [(f"{node.name}.{item.target.id}", item.target.id)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unread_fields(sources: dict, callers: list) -> list:
    """Fields of the ``sources`` trees (module name -> tree) that no tree in
    ``callers`` reads as an attribute; an assignment is not a read."""
    read = {node.attr for tree in callers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{qual}" for module, tree in sources.items()
                  for qual, name in fields(tree)
                  if name not in read and qual not in UNREAD_FIELDS_KEPT)


def test_every_field_has_a_reader_outside_the_tests():
    """The check matches attribute names, not types: a field counts as read
    when any object's attribute of that name is, so a dead field can hide
    behind a namesake (``Trajectory.params`` went unflagged while the
    benchmark read ``.params`` of its own workload objects)."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLERS}
    lonely = unread_fields({p.stem: trees[p] for p in SOURCES}, list(trees.values()))
    assert not lonely, f"fields no code outside the tests reads; delete them: {lonely}"
    defined_fields = {qual for p in SOURCES for qual, _ in fields(trees[p])}
    assert set(UNREAD_FIELDS_KEPT) <= defined_fields, "stale UNREAD_FIELDS_KEPT entry"


def test_a_field_no_code_reads_is_flagged():
    tree = ast.parse("class C:\n    read: int\n    written: int\n    unread: int\n\n"
                     "def f(c):\n    c.written = 1\n    return c.read\n")
    assert unread_fields({"toy": tree}, [tree]) == ["toy.C.unread", "toy.C.written"]
