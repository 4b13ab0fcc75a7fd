"""The benchmark's traced run patches wavemap functions by name.

perfbench/tracer.py lists them in TARGETS; a refactor that drops or
renames one would fail only the traced benchmark runs, so the names are
checked here.  So is `test_reach`'s ALLOWED list: a routine it keeps
because the tracer wraps it must still be wrapped.  The tracer and test
files are parsed, not imported or executed.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
REACH = ROOT / "tests" / "test_reach.py"


def _literal(path, name):
    """The literal value assigned to `name` at the top of the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def test_every_traced_function_resolves():
    targets = _literal(TRACER, "TARGETS")
    assert "evolution" in targets
    for module, functions in targets.items():
        mod = importlib.import_module("wavemap." + module)
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    # connectors built are counted from the cache's miss count
    statics = importlib.import_module("wavemap.statics")
    assert statics.build_harmonic_map.cache_info().misses >= 0


def test_routines_kept_for_the_tracer_are_traced():
    # a routine test_reach allows because the tracer wraps it goes with
    # the tracer's target, so dropping the target fails here until the
    # routine is deleted
    traced = {name for names in _literal(TRACER, "TARGETS").values()
              for name in names}
    kept = {name for name, reason in _literal(REACH, "ALLOWED").items()
            if "perfbench/tracer.py" in reason}
    assert kept <= traced, sorted(kept - traced)
