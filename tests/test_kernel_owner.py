"""The leapfrog kernel has one owner.

Every run advances through evolution's stop-step loop `_advance`.  The
flow object and the step loop behind it, `_Flow` and `_leapfrog`, belong
to evolution alone: a module that drives them itself repeats the CFL
check, the flow set-up and the chunking of a run.  Each package module
is parsed, not imported or executed, and the names it uses are checked.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
KERNEL = {"_Flow", "_leapfrog"}


def _names(path):
    """Every name, attribute and imported name in a module's source."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
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
