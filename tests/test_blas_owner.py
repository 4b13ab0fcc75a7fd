"""No result depends on BLAS or LAPACK, and Gauss-Legendre has one rule.

numpy hands `@`, dot, matmul, inner, vdot, tensordot and einsum's
`optimize=` path to BLAS, and linalg, lstsq and polyfit to LAPACK, whose
bits follow the kernel the host picks at run time and, past a length, the
thread count.  So no package module uses any of them: inner products are
einsum's own loop and the blow-up line is centred sums.  geometry's
`_gauss_legendre` is the one code that places and weights Gauss-Legendre
nodes, so only geometry names GL_NODES and GL_WEIGHTS.  Each package
module is parsed, not imported.
"""

import ast

import pytest

from source_index import (ALIAS, AS, ATTRIBUTE, MODULE, NAME, modules,
                          names, naming)

FORBIDDEN = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg",
             "polyfit", "lstsq"}
NODE_TABLES = {"GL_NODES", "GL_WEIGHTS"}
TABLE_KINDS = (NAME, ATTRIBUTE, ALIAS, AS)


def _blas_uses(tree):
    """Every BLAS or LAPACK use under an AST node: `@` and `@=`, a
    forbidden name as an attribute or imported (under any alias, or as a
    module on the import path), and an einsum call given `optimize=`.  A
    bare name is not one: `inner` is a local variable in several
    modules."""
    found = {part for module in names(tree, MODULE)
             for part in module.split(".")}
    found = (found | names(tree, ATTRIBUTE)) & FORBIDDEN
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.add("@")
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "attr",
                            getattr(node.func, "id", None)) == "einsum" \
                and any(k.arg == "optimize" for k in node.keywords):
            found.add("einsum(optimize=)")
    return found


def test_no_module_calls_blas_or_lapack():
    found = {stem: sorted(_blas_uses(tree))
             for stem, tree in modules().items()}
    assert {"statics", "resolution", "evolution"} <= set(found)
    assert {stem: used for stem, used in found.items() if used} == {}


def test_only_geometry_names_the_node_tables():
    assert set(naming(NODE_TABLES, *TABLE_KINDS)) == {"geometry"}
    assert "_gauss_legendre" in names(modules()["statics"], *TABLE_KINDS)


@pytest.mark.parametrize("source, use", [
    ("s = a @ b\n", "@"),
    ("a @= b\n", "@"),
    ("s = np.dot(a, b)\n", "dot"),
    ("s = a.dot(b)\n", "dot"),
    ("s = numpy.matmul(a, b)\n", "matmul"),
    ("s = np.inner(a, b)\n", "inner"),
    ("from numpy import vdot\n", "vdot"),
    ("from numpy import tensordot as contract\n", "tensordot"),
    ("import numpy.linalg\n", "linalg"),
    ("import numpy.linalg as la\n", "linalg"),
    ("from numpy.linalg import solve\n", "linalg"),
    ("from numpy import linalg\n", "linalg"),
    ("x = np.linalg.norm(v)\n", "linalg"),
    ("beta, alpha = np.polyfit(t, y, 1)\n", "polyfit"),
    ("from numpy.linalg import lstsq\n", "lstsq"),
    ("s = np.einsum('i,i', a, b, optimize=True)\n", "einsum(optimize=)"),
    ("from numpy import einsum\ns = einsum('i,i', a, b, optimize='greedy')\n",
     "einsum(optimize=)"),
])
def test_the_guard_sees_every_import_and_call_form(source, use):
    assert use in _blas_uses(ast.parse(source))


def test_the_guard_passes_numpys_own_loops():
    assert not _blas_uses(ast.parse(
        "inner = vset.neighbor(level, side)\n"
        "psi_dot = field.psi_dot\n"
        "s = float(np.einsum('i,i', a, b))\n"
        "t = np.add.reduce(np.multiply(a, b, out=a))\n"
        "r = a * b\n"))


@pytest.mark.parametrize("source", [
    "from .geometry import GL_NODES\n",
    "x = geometry.GL_WEIGHTS\n",
    "w = GL_WEIGHTS[::-1]\n",
])
def test_the_guard_sees_a_node_table(source):
    assert names(source, *TABLE_KINDS) & NODE_TABLES
