"""The leapfrog kernel has one owner.

Every run advances through evolution's stop-step loop `_advance`.  The
flow object and the step loop behind it, `_Flow` and `_leapfrog`, belong
to evolution alone: a module that drives them itself repeats the CFL
check, the flow set-up and the chunking of a run.  Inside evolution,
only `_advance` and `_leapfrog` evaluate `_Flow.accel`, so no full-width
step loop lives beside the one that steps a field's domain of dependence,
and the step code tests no array's `ndim`, so one field and a member
stack take one path through it.
Each package module is parsed, not imported or executed, and the names
it uses are checked.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
KERNEL = {"_Flow", "_leapfrog"}


def _names(path):
    """Every name, attribute and imported name in a module's source."""
    return _names_in(ast.parse(path.read_text()))


def _names_in(tree):
    """Every name, attribute and imported name under an AST node."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_evolution_uses_the_kernel():
    assert KERNEL <= _names(PACKAGE / "evolution.py")
    users = {path.name: sorted(_names(path) & KERNEL)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "evolution"}
    assert "resolution.py" in users
    assert {name: used for name, used in users.items() if used} == {}


def _accel_refs(node):
    return sum(isinstance(n, ast.Attribute) and n.attr == "accel"
               for n in ast.walk(node))


def test_only_the_step_loops_evaluate_accel():
    tree = ast.parse((PACKAGE / "evolution.py").read_text())
    loops = {f.name: _accel_refs(f) for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef)
             and f.name in ("_advance", "_leapfrog")}
    assert sorted(loops) == ["_advance", "_leapfrog"] and all(loops.values())
    assert sum(loops.values()) == _accel_refs(tree)


def test_the_step_code_has_no_branch_by_ndim():
    tree = ast.parse((PACKAGE / "evolution.py").read_text())
    flow = next(c for c in tree.body
                if isinstance(c, ast.ClassDef) and c.name == "_Flow")
    steps = {f.name: f for scope in (tree, flow) for f in scope.body
             if isinstance(f, ast.FunctionDef)
             and f.name in ("_quiet_from", "_leapfrog", "accel")}
    assert sorted(steps) == ["_leapfrog", "_quiet_from", "accel"]
    assert {name: "ndim" for name, f in steps.items()
            if "ndim" in _names_in(f)} == {}
