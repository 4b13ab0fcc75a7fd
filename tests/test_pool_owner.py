"""Worker processes have one owner.

Only diagnostics starts processes, for the beta-hat ensemble, and it does
so with `os.fork` and one pipe per worker, not with a process pool: no
package module imports `multiprocessing` or `concurrent.futures`, and no
module but diagnostics names `fork`.  Each package module is parsed, not
imported; a fresh interpreter checks that the imports leave
`multiprocessing` unloaded and that a one-block ensemble, which runs
in-process, forks nothing.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
POOLS = ("multiprocessing", "concurrent.futures")
FORKS = {"fork", "forkpty"}


def _is_pool(name):
    return any(name == p or name.startswith(p + ".") for p in POOLS)


def _pool_imports(tree):
    """Line of each import of a pool module under an AST node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(_is_pool(name) for name in names):
            yield node.lineno


def _fork_names(tree):
    """Line of each name, attribute or import of a fork under an AST
    node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FORKS or \
                isinstance(node, ast.Attribute) and node.attr in FORKS or \
                isinstance(node, ast.alias) and \
                node.name.rpartition(".")[2] in FORKS:
            yield node.lineno


def _found(finder):
    return {path.name for path in sorted(PACKAGE.glob("*.py"))
            if list(finder(ast.parse(path.read_text())))}


def test_no_package_module_imports_a_pool():
    assert _found(_pool_imports) == set()


def test_only_diagnostics_forks():
    assert _found(_fork_names) == {"diagnostics.py"}


def test_the_guards_see_every_form():
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
    assert sorted(_pool_imports(tree)) == [2, 3, 4, 5, 8, 10, 12]
    tree = ast.parse(textwrap.dedent("""
        import os
        os.fork()
        from os import fork
        spawn = os.forkpty
        fork()
        os.forkserver = None
    """))
    assert sorted(_fork_names(tree)) == [3, 4, 5, 6]


LOADED = textwrap.dedent("""
    import os
    import sys
    import wavemap.cli
    from wavemap.diagnostics import beta_hat_ensemble
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, find_vanishing_set
    after_import = "multiprocessing" in sys.modules

    def fork():
        raise AssertionError("a one-block ensemble forked")

    os.fork = fork
    root = find_vanishing_set(SPHERE).root_at(0.0)
    beta_hat_ensemble(RadialGrid(128.0, 2048), root, 2.0, n_data=8)
    print(after_import, "multiprocessing" in sys.modules)
""")


def test_imports_and_a_one_block_ensemble_fork_nothing():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
