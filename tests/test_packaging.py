"""Every module the tests import is declared by the package.

pyproject.toml lists the runtime dependencies and a `test` extra; a test
file may import the standard library, wavemap, and what those two lists
name.  The test files are parsed, not imported.
"""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")     # standard from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_test_imports_are_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    assert {"pytest", "hypothesis"} <= declared
    for path in sorted((ROOT / "tests").glob("*.py")):
        for module in _imported_modules(path):
            assert module in sys.stdlib_module_names or \
                module == "wavemap" or module in declared, \
                f"{path.name} imports undeclared {module}"
