"""The energy densities have one owner.

evolution's `_densities` is the one formula for the kinetic, gradient and
zeroth-order densities, with `RadialField.gradient` (the one d_r psi
stencil, which `_densities` calls on its node range) and `_zeroth_weight`
behind it.  Outside evolution no module calls `gradient()` or names
`_zeroth_weight`, and only diagnostics, which integrates them, reads
`_densities`, `_density_reads` (the nodes of psi a node range's densities
read) and `_prefix`: a windowed norm, such as extraction's misfit,
reaches the densities through diagnostics on a node range rather than
growing a second density formula or a second copy of the stencil's
reach.  Inside evolution, `_densities` is the one function that calls
`gradient()`: every other density, the blow-up record's included, is
read from its rows.  `EnergyEntry.gradient`, the gradient
part of an energy, is data and not a formula, so reading it is allowed.
Each package module is parsed, not imported or executed.
"""

import ast

from source_index import ALIAS, ATTRIBUTE, DEF, NAME, modules, naming

FORMULAS = {"_zeroth_weight"}
INTEGRATION = {"_densities", "_density_reads", "_prefix"}
# every name a module's source defines or references
KINDS = (NAME, ATTRIBUTE, ALIAS, DEF)


def test_evolution_owns_the_density_formulas():
    assert naming(FORMULAS, *KINDS) == {"evolution": sorted(FORMULAS)}
    assert {stem for stem, tree in modules().items()
            if any(_gradient_callers(tree, stem))} == {"evolution"}


def test_only_diagnostics_integrates_the_densities():
    readers = naming(INTEGRATION, *KINDS)
    assert readers.pop("evolution") == sorted(INTEGRATION)
    assert readers == {"diagnostics": sorted(INTEGRATION)}


def _gradient_callers(tree, module, owner=None):
    """(module, function) of each call of an attribute named `gradient`
    under an AST node, the function being the innermost def around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "gradient":
            yield module, owner
        inner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _gradient_callers(node, module, inner)


def test_only_densities_calls_gradient():
    found = {caller for stem, tree in modules().items()
             for caller in _gradient_callers(tree, stem)}
    assert found == {("evolution", "_densities")}
