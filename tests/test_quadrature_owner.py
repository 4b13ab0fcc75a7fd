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

import pytest

from source_index import (ALIAS, AS, ASYNC_DEF, ATTRIBUTE, CLASS, DEF, NAME,
                          modules, names, naming)

FORBIDDEN = {"trapezoid", "trapz", "_window_average"}
# every name a source defines, references or imports
KINDS = (NAME, ATTRIBUTE, ALIAS, AS, DEF, ASYNC_DEF, CLASS)


def test_the_rule_has_its_owners():
    trees = modules()
    assert "_prefix" in names(trees["evolution"], *KINDS)
    assert {"_prefix", "_interval_integral"} <= \
        names(trees["diagnostics"], *KINDS)


def test_no_module_names_a_second_rule():
    assert naming(FORBIDDEN, *KINDS) == {}


@pytest.mark.parametrize("source, name", [
    ("import numpy as np\nv = np.trapezoid(y, x)\n", "trapezoid"),
    ("from numpy import trapezoid\n", "trapezoid"),
    ("from numpy import trapz as rule\n", "trapz"),
    ("def _window_average(times, values, t, s):\n    pass\n",
     "_window_average"),
], ids=["attribute", "import", "aliased-import", "definition"])
def test_the_guard_sees_every_form(source, name):
    assert name in names(source, *KINDS) & FORBIDDEN
