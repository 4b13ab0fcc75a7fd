"""The package runs on numpy alone, without numpy.polynomial.

With scipy, or numpy.polynomial, blocked from import, the selftest, the
shipped demo (a global run with bubble extraction), analyze, resolve on its
store and on its last frame, and the beta-hat ensemble all complete.  The
check runs in a fresh interpreter, because this test session may have
imported either already.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMO = ROOT / "configs" / "sphere-small-data.cfg"

WITHOUT_MODULE = textwrap.dedent("""
    import contextlib, io, sys
    sys.modules[sys.argv[2]] = None      # any import of it now fails

    import wavemap.cli as cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["selftest"]) == 0
    print(buf.getvalue().splitlines()[-1])

    cfg, out = sys.argv[1], "out/sphere-small-data"
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert cli.main(["analyze", "--traj", out, "--ops",
                     "series,select-times,lightcone,linf,s-norm"]) == 0
    assert cli.main(["resolve", "--traj", out]) == 0
    assert cli.main(["resolve", "--snapshot", out]) == 0

    from wavemap.diagnostics import beta_hat_ensemble
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, find_vanishing_set
    root = find_vanishing_set(SPHERE).root_at(0.0)
    beta_hat_ensemble(RadialGrid(20.0, 128), root, 2.0, n_data=3)
    print("ok")
""")


@pytest.mark.parametrize("blocked", ["scipy", "numpy.polynomial"])
def test_package_runs_with_module_blocked(tmp_path, blocked):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_MODULE, str(DEMO),
                           blocked],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "9 passed, 0 failed"
    assert lines[-1] == "ok"
    out = tmp_path / "out" / "sphere-small-data"
    for name in ("manifest.cfg", "series.csv", "bubbles.report",
                 "scattering.report"):
        assert (out / name).is_file(), name
    assert (out / "bubbles.report.residual" / "frames.npy").is_file()
