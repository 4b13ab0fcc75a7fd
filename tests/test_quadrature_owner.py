"""Sampled data has one trapezoid rule.

evolution's `_prefix` is the cumulative trapezoid sum, and diagnostics'
`_interval_integral` reads it between two points, interpolating linearly
at ends that fall between samples.  Every integral of sampled data goes
through that pair: energies and norms over the radial nodes, the time
selection's windows and the S-norm over the frame times.  So no package
module names numpy's `trapezoid` or its old name `trapz`, and none
defines `_window_average`, the second window rule that the time
selection once had.  Each package module is parsed, not imported.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
FORBIDDEN = {"trapezoid", "trapz", "_window_average"}


def _names(source):
    """Every name a source defines, references or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            found.add(node.name)
    return found


def test_the_rule_has_its_owners():
    assert "_prefix" in _names((PACKAGE / "evolution.py").read_text())
    assert {"_prefix", "_interval_integral"} <= \
        _names((PACKAGE / "diagnostics.py").read_text())


def test_no_module_names_a_second_rule():
    found = {path.stem: sorted(_names(path.read_text()) & FORBIDDEN)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: used for name, used in found.items() if used} == {}


@pytest.mark.parametrize("source, name", [
    ("import numpy as np\nv = np.trapezoid(y, x)\n", "trapezoid"),
    ("from numpy import trapezoid\n", "trapezoid"),
    ("from numpy import trapz as rule\n", "trapz"),
    ("def _window_average(times, values, t, s):\n    pass\n",
     "_window_average"),
], ids=["attribute", "import", "aliased-import", "definition"])
def test_the_guard_sees_every_form(source, name):
    assert name in _names(source) & FORBIDDEN
