"""Config text is never run as code.

Custom metrics arrive as expression strings in scenario files, and
exprgrammar parses them into closures.  No package module names the
builtins that run or import source text: eval, exec, compile and
__import__.  Each module is parsed, not imported or executed.  An
attribute of the same name, such as re.compile, is not one of them.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
RUNNERS = {"eval", "exec", "compile", "__import__"}


def _runners(path):
    """The code-running builtins a module's source names."""
    return sorted({node.id for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Name) and node.id in RUNNERS})


def test_no_module_names_a_code_runner():
    found = {path.name: _runners(path) for path in PACKAGE.glob("*.py")}
    assert "exprgrammar.py" in found
    assert {name: used for name, used in found.items() if used} == {}
