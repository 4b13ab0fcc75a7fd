"""Every module the tests import is declared by the package.

pyproject.toml lists the runtime dependencies and a `test` extra; a test
file may import the standard library, wavemap, a helper module that sits
beside it in tests/, and what those two lists name.  The test files are
parsed, not imported.
"""

import re
import sys

import pytest

from source_index import MODULE, ROOT, names, parse

tomllib = pytest.importorskip("tomllib")     # standard from Python 3.11


def test_test_imports_are_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    assert {"pytest", "hypothesis"} <= declared
    paths = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in paths}
    for path in paths:
        for module in {module.split(".")[0]
                       for module in names(parse(path), MODULE)
                       if not module.startswith(".")}:
            assert module in sys.stdlib_module_names or \
                module == "wavemap" or module in declared | local, \
                f"{path.name} imports undeclared {module}"
