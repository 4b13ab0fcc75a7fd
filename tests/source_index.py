"""One parsed index of the package source for the structure tests.

Each source file is parsed once per test session, and one collector
walks a tree once, recording every name in it with its kind and line.
A structure rule reads the kinds it counts.
"""

import ast
import collections
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavemap"

NAME = "name"            # a bare name: x, f and y in `x = f(y)`
ATTRIBUTE = "attribute"  # dot in `np.dot`
ALIAS = "alias"          # linalg in `from numpy import linalg`,
                         # numpy.linalg in `import numpy.linalg`
AS = "as"                # la in `import numpy.linalg as la`
MODULE = "module"        # a module on an import path, a relative one with
                         # its dots: numpy and numpy.linalg (which may be a
                         # submodule) in `from numpy import linalg`
CALL = "call"            # the function called: fork in `os.fork()`, `fork()`
DEF, ASYNC_DEF, CLASS = "def", "async def", "class"   # the name defined
DEFINITIONS = {ast.FunctionDef: DEF, ast.AsyncFunctionDef: ASYNC_DEF,
               ast.ClassDef: CLASS}


@functools.cache
def parse(path):
    """The tree of the source file at `path`, parsed once."""
    return ast.parse(path.read_text(), filename=str(path))


def modules():
    """{stem: tree} of every package module, in file name order."""
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def records(node):
    """(kind, name, line) of each name under an AST node or in a source."""
    if isinstance(node, str):
        node = ast.parse(node)
    found = []
    for n in ast.walk(node):
        line = getattr(n, "lineno", None)
        if isinstance(n, ast.Name):
            found.append((NAME, n.id, line))
        elif isinstance(n, ast.Attribute):
            found.append((ATTRIBUTE, n.attr, line))
        elif isinstance(n, ast.alias):
            found.append((ALIAS, n.name, line))
            if n.asname:
                found.append((AS, n.asname, line))
        elif isinstance(n, ast.Import):
            found += [(MODULE, a.name, line) for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            base = "." * n.level + (n.module or "")
            sep = "" if base.endswith(".") else "."
            found.append((MODULE, base, line))
            found += [(MODULE, base + sep + a.name, line) for a in n.names]
        elif type(n) in DEFINITIONS:
            found.append((DEFINITIONS[type(n)], n.name, line))
        elif isinstance(n, ast.Call) and \
                isinstance(n.func, (ast.Name, ast.Attribute)):
            found.append((CALL, n.func.id if isinstance(n.func, ast.Name)
                          else n.func.attr, line))
    return tuple(found)


def counts(node, *kinds):
    """How often each name of the given kinds occurs under a node."""
    return collections.Counter(name for kind, name, _ in records(node)
                               if kind in kinds)


def names(node, *kinds):
    """The names of the given kinds under an AST node or in a source."""
    return {name for kind, name, _ in records(node) if kind in kinds}


def naming(wanted, *kinds):
    """{stem: sorted names} of the package modules that name any of
    `wanted` as one of the given kinds."""
    found = {stem: sorted(names(tree, *kinds) & wanted)
             for stem, tree in modules().items()}
    return {stem: used for stem, used in found.items() if used}
