"""Worker processes have one owner.

Only diagnostics starts processes, for the beta-hat ensemble, and it does
so with `os.fork` and one pipe per worker, not with a process pool: no
package module imports `multiprocessing` or `concurrent.futures`, and no
module but diagnostics names `fork`.  Each package module is parsed, not
imported; a fresh interpreter checks that the imports leave
`multiprocessing` unloaded and that a one-block ensemble, which runs
in-process, forks nothing.
"""

import os
import subprocess
import sys
import textwrap

from source_index import (ALIAS, ATTRIBUTE, MODULE, NAME, PACKAGE, modules,
                          records)

POOLS = ("multiprocessing", "concurrent.futures")
FORKS = {"fork", "forkpty"}


def _pool(kind, name):
    """Whether a name is an imported pool module."""
    return kind == MODULE and \
        any(name == p or name.startswith(p + ".") for p in POOLS)


def _fork(kind, name):
    """Whether a name is a fork: named, an attribute or imported."""
    return kind in (NAME, ATTRIBUTE) and name in FORKS or \
        kind == ALIAS and name.rpartition(".")[2] in FORKS


def _lines(tree, hit):
    """The lines of the names under an AST node, or in a source, that hit
    (kind, name) holds for."""
    return sorted({line for kind, name, line in records(tree)
                   if hit(kind, name)})


def test_no_package_module_imports_a_pool():
    assert {stem for stem, tree in modules().items()
            if _lines(tree, _pool)} == set()


def test_only_diagnostics_forks():
    assert {stem for stem, tree in modules().items()
            if _lines(tree, _fork)} == {"diagnostics"}


def test_the_guards_see_every_form():
    source = textwrap.dedent("""
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
    """)
    assert _lines(source, _pool) == [2, 3, 4, 5, 8, 10, 12]
    source = textwrap.dedent("""
        import os
        os.fork()
        from os import fork
        spawn = os.forkpty
        fork()
        os.forkserver = None
    """)
    assert _lines(source, _fork) == [3, 4, 5, 6]


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
