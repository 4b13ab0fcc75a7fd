"""Results do not depend on the BLAS library's kernel or thread count.

OpenBLAS picks its kernel when it loads (`OPENBLAS_CORETYPE` overrides
the pick) and spreads long vectors over `OPENBLAS_NUM_THREADS` threads,
and both can move the last bits of a BLAS sum.  The package calls no BLAS
(`test_blas_owner.py`), so a fresh interpreter under the Nehalem kernel on
one thread and one under the default environment give equal bytes for
every connector of the two built-in targets, for a two-bubble chain's
extraction and for every file of a blow-up run's store.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DIGESTS = textwrap.dedent("""
    import contextlib, hashlib, io, pathlib
    import numpy as np
    import wavemap.cli as cli
    from wavemap.data import make_chain
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, YANG_MILLS, find_vanishing_set
    from wavemap.resolution import extract_bubbles
    from wavemap.statics import build_harmonic_map

    def digest(*parts):
        return hashlib.sha256(b"".join(np.asarray(p, dtype=float).tobytes()
                                       for p in parts)).hexdigest()

    for metric in (SPHERE, YANG_MILLS):
        roots = find_vanishing_set(metric).roots
        for ell, d in [(a, +1) for a in roots[:-1]] + \\
                [(b, -1) for b in roots[1:]]:
            qmap = build_harmonic_map(metric, float(ell), d)
            print(metric.id, ell, d, digest(qmap.knots, qmap.coeffs))

    grid = RadialGrid(4.0, 2 ** 15)
    rep = extract_bubbles(make_chain(grid, SPHERE, 0.0,
                                     [(1, 0.4), (1, 0.002)]), SPHERE)
    print("chain", rep.J, digest(rep.scales, rep.misfits, rep.residual.psi,
                                 rep.residual.psi_dot))

    pathlib.Path("blowup.cfg").write_text(
        "[metric]\\ntarget = sphere\\n"
        "[data]\\nfamily = superposition\\nscale = 1\\namplitude = 2.4\\n"
        "center = 1.2\\nwidth = 1\\n"
        "[grid]\\nr_max = 6\\nn_points = 2048\\n"
        "[time]\\nt_final = 4\\nrecord_every = 16\\n"
        "[pipeline]\\nstages = series, bubbles, regular\\n"
        "[output]\\ndir = store\\n")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["simulate", "--config", "blowup.cfg"]) == 0
    assert "blow-up at t+" in out.getvalue()
    for path in sorted(pathlib.Path("store").rglob("*")):
        if path.is_file():
            print(path.relative_to("store"),
                  hashlib.sha256(path.read_bytes()).hexdigest())
""")


def _digests(tmp_path, name, **overrides):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPENBLAS_")}
    env.update(overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cwd = tmp_path / name
    cwd.mkdir()
    proc = subprocess.run([sys.executable, "-c", DIGESTS], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_blas_kernel_and_threads_move_no_bit(tmp_path):
    default = _digests(tmp_path, "default")
    nehalem = _digests(tmp_path, "nehalem", OPENBLAS_CORETYPE="Nehalem",
                       OPENBLAS_NUM_THREADS="1")
    # 16 sphere and 2 yang-mills connectors, the chain, and the store's
    # files, the bubble report's residual store among them
    assert len(default) == 26
    assert [line.split()[0] for line in default[19:]] == [
        "bubbles.report", "bubbles.report.residual/frames.npy",
        "bubbles.report.residual/manifest.cfg", "frames.npy", "manifest.cfg",
        "regular.report", "series.csv"]
    assert {a: b for a, b in zip(default, nehalem) if a != b} == {}
