"""Every public routine has a caller in the package.

A public top-level function or class of a package module must be named
by package code outside its own definition, so that some command can
reach it.  A re-export in `__init__` does not count, and neither does a
test.  The benchmark's traced run patches the functions that
perfbench/tracer.py lists in TARGETS, which count as named.  The package
modules and the tracer file are parsed, not imported or executed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavemap"
TRACER = ROOT / "perfbench" / "tracer.py"

# public routines that no command reaches, each with the reason it stays
ALLOWED = {
    "kinetic_average": "the brute-force oracle that "
                       "TestSelectTimes::test_records_beat_all_earlier_frames "
                       "checks select_times against",
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


def _traced():
    """(module, function) pairs of the tracer's TARGETS."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {(module, name)
                    for module, names in ast.literal_eval(node.value).items()
                    for name in names}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _unreached():
    """Public top-level functions and classes of the package modules that
    neither package code outside their definition nor TARGETS names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "__init__"}
    used = {module: _used_names(tree) for module, tree in trees.items()}
    traced = _traced()
    unreached = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in used.items()
                                  if m != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_") and \
                    (module, node.name) not in traced and \
                    node.name not in elsewhere and \
                    node.name not in _used_names(tree, skip=node):
                unreached.add(node.name)
    return unreached


def test_every_public_routine_is_reached():
    # an allowed routine that gains a caller, or goes, leaves the list
    assert _unreached() == set(ALLOWED)
