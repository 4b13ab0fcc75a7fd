"""The global path runs on numpy alone.

A run that neither builds a connector nor extracts bubbles (a bump evolved
to a scattering state, the analyze ops, resolve on its store and the
beta-hat ensemble) must not import scipy.  Each check runs in a fresh
interpreter, because this test session may have imported scipy already.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

GLOBAL_PATH = textwrap.dedent("""
    import sys

    def assert_no_scipy(step):
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, f"{step} imported {loaded[:3]}"

    import wavemap.cli as cli
    assert_no_scipy("import wavemap.cli")
    cfg, out = sys.argv[1], sys.argv[2]
    cli.load_scenario(cfg)
    assert_no_scipy("load_scenario")
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert_no_scipy("simulate")
    assert cli.main(["analyze", "--traj", out, "--ops",
                     "series,select-times,lightcone,linf,s-norm"]) == 0
    assert_no_scipy("analyze")
    assert cli.main(["resolve", "--traj", out]) == 0
    assert_no_scipy("resolve --traj")

    from wavemap.diagnostics import beta_hat_ensemble
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, find_vanishing_set
    root = find_vanishing_set(SPHERE).root_at(0.0)
    beta_hat_ensemble(RadialGrid(20.0, 128), root, 2.0, n_data=3)
    assert_no_scipy("beta_hat_ensemble")

    from wavemap.statics import build_harmonic_map
    assert abs(build_harmonic_map(SPHERE, 0.0, +1).energy - 4.0) < 1e-6
    assert "scipy" in sys.modules, "a connector was built without scipy"
    print("ok")
""")

CONFIG = """\
[metric]
target = sphere

[data]
family = bump
ell = 0
amplitude = 0.08
center = 10
width = 4

[grid]
r_max = 100
n_points = 512

[time]
t_final = 70
record_every = 16

[pipeline]
stages = series, scattering

[output]
dir = run
"""


def test_global_path_imports_no_scipy(tmp_path):
    (tmp_path / "s.cfg").write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", GLOBAL_PATH, "s.cfg", "run"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "run" / "scattering.report").is_file()
