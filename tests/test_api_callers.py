"""Every function, field and option of bqlab has a user outside the tests: a
module-level function or non-dunder method must be referenced, an annotated
class field read as an attribute, and a parameter or dataclass field with a
default set, from the package itself or from the benchmark in
``perfbench/``.  API that only tests use belongs in the tests.

The exceptions are the helpers that implement an acceptance criterion and
name it in their docstring, the fields listed with a reason in
``UNREAD_FIELDS_KEPT`` and the options listed with a reason in
``TEST_ONLY_OPTIONS_KEPT``.
"""

import ast
import math
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


# options (parameters and dataclass fields with a default) that no code
# outside the tests sets, kept on purpose
TEST_ONLY_OPTIONS_KEPT = {
    "cli.main(argv)": "the console script passes none and reads sys.argv; "
                      "the CLI tests pass their argument lists",
    "harness.scan_threshold(verdict_fn)": "the injected verdict of the scan's "
                                          "self-tests and criterion 9",
    "harness.ThresholdResult.non_monotone": "threshold.json and the benchmark's "
                                            "scan check read it; bisection alone "
                                            "never fills it",
    "io.read_snapshot(grid)": "checks a file against the grid it is read into",
    "shear.couette_plus_sine(validate)": "tests build profiles past the "
                                         "shear-size cap on purpose",
    "shear.invert_laplace_t(tol)": "the solve's tests tighten the stopping "
                                   "rule it is checked against",
    "shear.invert_laplace_t(max_iter)": "the solve's tests force the "
                                        "non-convergence error",
    "oracle.fd_run(dt)": "criterion 7 runs the oracle at a finer dt than the "
                         "spectral run",
    "diagnostics.discrete_budget_residual(dt)": "criterion 5 passes the step "
                                                "of its dt sweep",
}

# methods whose call on an attribute changes the object the attribute holds
_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add", "pop",
             "remove", "clear", "sort"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        deco = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
            return True
    return False


def options(tree: ast.Module) -> list:
    """Parameters and dataclass fields with a default, as (qualified name,
    callee name, keyword, position in a call or None, is a field)."""
    out = []

    def params(fn, qual, offset):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        out.extend((f"{qual}({arg.arg})", fn.name, arg.arg, i - offset, False)
                   for i, arg in enumerate(pos[first:], first))
        out.extend((f"{qual}({arg.arg})", fn.name, arg.arg, None, False)
                   for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                   if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    params(item, f"{node.name}.{item.name}", 0 if static else 1)
            if _is_dataclass(node):
                annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)
                             and isinstance(item.target, ast.Name)]
                out.extend((f"{node.name}.{item.target.id}", node.name, item.target.id,
                            i, True)
                           for i, item in enumerate(annotated) if item.value is not None)
    return out


def settings(trees: list) -> tuple:
    """What the ``trees`` set: per callee name, the (positional count,
    keywords) of each call, a ``*`` argument counting as every position and
    a ``**`` argument as the keyword None; and the attribute names stored
    to or mutated in place (``x.a = ...``, ``x.a[i] = ...``,
    ``x.a.append(...)``)."""
    calls, stored = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                calls.setdefault(name, []).append((n_pos, {k.arg for k in node.keywords}))
                if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Attribute)):
                    stored.add(func.value.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute)):
                stored.add(node.value.attr)
    return calls, stored


def unset_options(sources: dict, callers: list) -> list:
    """Options of the ``sources`` trees (module name -> tree) that no tree in
    ``callers`` sets, by keyword, by position or through ``**``, or, for a
    field, by an attribute store or in-place mutation.  A call is matched by
    the callee's name, as the checks above match names."""
    calls, stored = settings(callers)

    def is_set(callee, keyword, position, is_field):
        return (is_field and keyword in stored) or any(
            keyword in kws or None in kws or (position is not None and position < n_pos)
            for n_pos, kws in calls.get(callee, ()))

    return sorted(f"{module}.{qual}" for module, tree in sources.items()
                  for qual, *how in options(tree)
                  if not is_set(*how) and f"{module}.{qual}" not in TEST_ONLY_OPTIONS_KEPT)


def test_every_option_is_set_outside_the_tests():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLERS}
    lonely = unset_options({p.stem: trees[p] for p in SOURCES}, list(trees.values()))
    assert not lonely, f"options only tests set; delete them: {lonely}"
    defined_options = {f"{p.stem}.{qual}" for p in SOURCES for qual, *_ in options(trees[p])}
    assert set(TEST_ONLY_OPTIONS_KEPT) <= defined_options, "stale TEST_ONLY_OPTIONS_KEPT entry"


def test_an_option_no_code_sets_is_flagged():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n\n"
        "def f(a, b=1, c=2, d=3, *, e=4, g=5):\n    pass\n\n"
        "class K:\n    def m(self, x=0, y=0):\n        pass\n\n"
        "@dataclass\nclass C:\n    req: int\n    kw: int = 0\n    pos: int = 0\n"
        "    stored: int = 0\n    grown: list = field(default_factory=list)\n"
        "    unset: int = 0\n\n"
        "def use(k, opts):\n    f(0, 1, e=2)\n    f(0, *opts)\n    k.m(1)\n"
        "    c = C(0, pos=1)\n    C(0, 1)\n    c.stored = 1\n    c.grown.append(1)\n")
    assert unset_options({"toy": tree}, [tree]) == [
        "toy.C.unset", "toy.K.m(y)", "toy.f(g)"]
    kwargs = ast.parse("def use():\n    f(**{})\n")
    assert unset_options({"toy": tree}, [tree, kwargs]) == ["toy.C.unset", "toy.K.m(y)"]
