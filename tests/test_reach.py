"""Every public routine and constant has a reader in the package, and
every defaulted parameter a call that passes it.

A public top-level function or class of a package module, and a public
UPPER_CASE constant that a top-level assignment binds, must be named by
package code outside its own definition, so that some command can reach
it: a constant that only tests read is test data, and lives in the
tests.  A re-export in `__init__` does not count, and neither does a
test or the benchmark: perfbench/tracer.py wraps functions for its
traced run but calls none of them.  Likewise a parameter with a default
must be passed, by keyword or by position, at some package call outside
its function's definition; one that no call passes has one value in use
and is a constant.  The package modules are parsed, not imported or
executed.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavemap"

# public routines that no command reaches, each with the reason it stays
ALLOWED = {
    "beta_hat_ensemble": "c05's subject and the driver of the benchmark's "
                         "ensemble workload",
}


def _used_names(node, skip=None):
    """Names and attribute names used under node, outside the subtree
    `skip`."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        todo.extend(ast.iter_child_nodes(n))
    return found


def _public_names(node):
    """The public names a top-level statement defines: a function's or
    class's, or the UPPER_CASE names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target]
        names = [n.id for target in targets for n in ast.walk(target)
                 if isinstance(n, ast.Name) and n.id.isupper()]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _unreached():
    """Public top-level functions, classes and UPPER_CASE constants of the
    package modules that no package code outside their definition
    names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "__init__"}
    used = {module: _used_names(tree) for module, tree in trees.items()}
    unreached = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in used.items()
                                  if m != module))
        for node in tree.body:
            for name in _public_names(node):
                if name not in elsewhere and \
                        name not in _used_names(tree, skip=node):
                    unreached.add(name)
    return unreached


@pytest.mark.parametrize("source, names", [
    ("def f():\n    pass\n", ["f"]),
    ("class C:\n    pass\n", ["C"]),
    ("LIMIT = 3\n", ["LIMIT"]),
    ("LIMIT: int = 3\n", ["LIMIT"]),
    ("LO, HI = 1, 2\n", ["LO", "HI"]),
    ("_LIMIT = 3\n", []),
    ("table = {}\n", []),
], ids=["function", "class", "constant", "annotated", "tuple", "private",
        "lower-case"])
def test_public_names_include_constants(source, names):
    assert _public_names(ast.parse(source).body[0]) == names


def test_every_public_routine_is_reached():
    # an allowed routine that gains a caller, or goes, leaves the list
    assert _unreached() == set(ALLOWED)


# defaulted parameters that no package call passes, each with the reason
# it stays a parameter
ALLOWED_PARAMS = {
    ("main", "argv"): "tests and `python -m wavemap.cli` drive it",
    ("beta_hat_ensemble", "n_data"): "c05 and perfbench/driver.py set it",
    ("beta_hat_ensemble", "seed"): "c05 and perfbench/driver.py set it",
}


def _defaulted(fn):
    """(index, name) of fn's defaulted parameters: a positional one with
    its index among the positional parameters, a keyword-only one with
    index None."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None])


def _passes(call, index, name):
    """Whether the call may pass the parameter: by keyword, through
    **kwargs, or by position, *args included."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or \
        any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed():
    """(function, parameter) pairs of package functions whose defaulted
    parameter no package call outside the function's definition passes.
    A call counts when it names the function, bare or as an attribute;
    a method's index skips self."""
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))]
    calls = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Call)]
    unpassed = set()
    for tree in trees:
        methods = {id(f) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            inside = {id(n) for n in ast.walk(fn)}
            mine = [c for c in calls if id(c) not in inside and
                    getattr(c.func, "id", getattr(c.func, "attr", None))
                    == fn.name]
            skip = 1 if id(fn) in methods else 0
            for index, name in _defaulted(fn):
                index = None if index is None else index - skip
                if not any(_passes(c, index, name) for c in mine):
                    unpassed.add((fn.name, name))
    return unpassed


def test_every_defaulted_parameter_is_passed():
    # a parameter that gains a passing call, or goes, leaves the list
    assert _unpassed() == set(ALLOWED_PARAMS)
