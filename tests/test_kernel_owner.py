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

from source_index import (ALIAS, ATTRIBUTE, NAME, counts, modules, names,
                          naming)

KERNEL = {"_Flow", "_leapfrog"}
KINDS = (NAME, ATTRIBUTE, ALIAS)


def test_only_evolution_uses_the_kernel():
    assert "resolution" in modules()
    assert naming(KERNEL, *KINDS) == {"evolution": sorted(KERNEL)}


def _accel_refs(node):
    return counts(node, ATTRIBUTE)["accel"]


def test_only_the_step_loops_evaluate_accel():
    tree = modules()["evolution"]
    loops = {f.name: _accel_refs(f) for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef)
             and f.name in ("_advance", "_leapfrog")}
    assert sorted(loops) == ["_advance", "_leapfrog"] and all(loops.values())
    assert sum(loops.values()) == _accel_refs(tree)


def test_the_step_code_has_no_branch_by_ndim():
    tree = modules()["evolution"]
    flow = next(c for c in tree.body
                if isinstance(c, ast.ClassDef) and c.name == "_Flow")
    steps = {f.name: f for scope in (tree, flow) for f in scope.body
             if isinstance(f, ast.FunctionDef)
             and f.name in ("_quiet_from", "_leapfrog", "accel")}
    assert sorted(steps) == ["_leapfrog", "_quiet_from", "accel"]
    assert {name: "ndim" for name, f in steps.items()
            if "ndim" in names(f, *KINDS)} == {}
