"""The benchmark's traced run patches wavemap functions by name.

perfbench/tracer.py lists them in TARGETS; a refactor that drops or
renames one would fail only the traced benchmark runs, so the names are
checked here.  The tracer file is parsed, not imported or executed.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_function_resolves():
    targets = _targets()
    assert "evolution" in targets
    for module, functions in targets.items():
        mod = importlib.import_module("wavemap." + module)
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    # connectors built are counted from the cache's miss count
    statics = importlib.import_module("wavemap.statics")
    assert statics.build_harmonic_map.cache_info().misses >= 0
