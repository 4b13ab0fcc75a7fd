"""Worker processes have one owner.

Only diagnostics starts processes, for the beta-hat ensemble, and it
imports `multiprocessing` inside the call that forks, not at module level:
the import costs every cold process time, and a one-block ensemble, which
runs in-process, never pays it.  No package module imports
`multiprocessing` or `concurrent.futures` at module level, and no module
but diagnostics imports either.  Each package module is parsed, not
imported; a fresh interpreter checks what the imports leave loaded.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
POOLS = ("multiprocessing", "concurrent.futures")


def _is_pool(name):
    return any(name == p or name.startswith(p + ".") for p in POOLS)


def _pool_imports(tree, in_function=False):
    """(line, in_function) of each import of a pool module under an AST
    node, in_function telling whether a function body holds it."""
    for node in ast.iter_child_nodes(tree):
        inner = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any(_is_pool(name) for name in names):
            yield node.lineno, inner
        yield from _pool_imports(node, inner)


def test_only_diagnostics_imports_a_pool_and_only_inside_a_function():
    found = {path.name: list(_pool_imports(ast.parse(path.read_text())))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, hits in found.items() if hits} == \
        {"diagnostics.py"}
    assert {name: [line for line, inner in hits if not inner]
            for name, hits in found.items()
            if not all(inner for _, inner in hits)} == {}


def test_the_guard_sees_every_import_form():
    tree = ast.parse(textwrap.dedent("""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent import futures
        import multiprocessing.pool as mp_pool
        import concurrent
        if True:
            import multiprocessing
        def f():
            import multiprocessing
        class C:
            from multiprocessing import Pool
    """))
    assert list(_pool_imports(tree)) == [
        (2, False), (3, False), (4, False), (5, False), (8, False),
        (10, True), (12, False)]


LOADED = textwrap.dedent("""
    import sys
    import wavemap.cli
    from wavemap.diagnostics import beta_hat_ensemble
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, find_vanishing_set
    after_import = "multiprocessing" in sys.modules
    root = find_vanishing_set(SPHERE).root_at(0.0)
    beta_hat_ensemble(RadialGrid(128.0, 2048), root, 2.0, n_data=8)
    print(after_import, "multiprocessing" in sys.modules)
""")


def test_imports_and_a_one_block_ensemble_leave_multiprocessing_unloaded():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
