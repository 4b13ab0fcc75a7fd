"""Config text is never run as code.

Custom metrics arrive as expression strings in scenario files, and
exprgrammar parses them into closures.  No package module names the
builtins that run or import source text: eval, exec, compile and
__import__.  Each module is parsed, not imported or executed.  An
attribute of the same name, such as re.compile, is not one of them.
"""

import pytest

from source_index import NAME, modules, names, naming

RUNNERS = {"eval", "exec", "compile", "__import__"}


def test_no_module_names_a_code_runner():
    assert "exprgrammar" in modules()
    assert naming(RUNNERS, NAME) == {}


@pytest.mark.parametrize("source, found", [
    ("x = eval(text)\n", ["eval"]),
    ("exec(code, {})\n", ["exec"]),
    ("run = compile\n", ["compile"]),
    ("m = __import__(name)\n", ["__import__"]),
    ("pattern = re.compile(r'\\d+')\n", []),
], ids=["eval", "exec", "compile", "import", "re.compile"])
def test_the_guard_sees_a_bare_runner_only(source, found):
    assert sorted(names(source, NAME) & RUNNERS) == found
