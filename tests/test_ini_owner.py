"""The INI format has one owner.

Scenario configs, store manifests and stage reports are INI files, and
cli alone reads and writes them: its `_write_ini` is the one writer, so
the layout of a report cannot drift between stages.  No package module
but cli imports `configparser`.  Each package module is parsed, not
imported or executed.
"""

import textwrap

from source_index import MODULE, modules, names


def _top_modules(tree):
    """The top-level packages of the modules a tree imports; a relative
    import's is ""."""
    return {module.split(".")[0] for module in names(tree, MODULE)}


def test_only_cli_imports_configparser():
    assert {stem for stem, tree in modules().items()
            if "configparser" in _top_modules(tree)} == {"cli"}


def test_the_guard_sees_every_import_form():
    for text in ("import configparser",
                 "import configparser as cp",
                 "from configparser import ConfigParser",
                 "import os, configparser",
                 "def f():\n    from configparser import Error"):
        assert "configparser" in _top_modules(text), text
    assert "configparser" not in _top_modules(textwrap.dedent("""
        import config
        from .configparser import x
        from ast import parse
    """))
