"""The INI format has one owner.

Scenario configs, store manifests and stage reports are INI files, and
cli alone reads and writes them: its `_write_ini` is the one writer, so
the layout of a report cannot drift between stages.  No package module
but cli imports `configparser`.  Each package module is parsed, not
imported or executed.
"""

import ast
import pathlib
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"


def _imports_configparser(tree):
    """Whether any import under the AST node names configparser."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "configparser" for name in names):
            return True
    return False


def test_only_cli_imports_configparser():
    assert {path.stem for path in sorted(PACKAGE.glob("*.py"))
            if _imports_configparser(ast.parse(path.read_text()))} == {"cli"}


def test_the_guard_sees_every_import_form():
    for text in ("import configparser",
                 "import configparser as cp",
                 "from configparser import ConfigParser",
                 "import os, configparser",
                 "def f():\n    from configparser import Error"):
        assert _imports_configparser(ast.parse(text)), text
    assert not _imports_configparser(ast.parse(textwrap.dedent("""
        import config
        from .configparser import x
        from ast import parse
    """)))
