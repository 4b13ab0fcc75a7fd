"""The demo's numbers under grid refinement.

The README's demo (configs/sphere-small-data.cfg: a sphere bump of
amplitude 0.08, centre 10 and width 4 on r_max = 100, run to t = 70 at
cfl 0.5) is run at n = 1024, 2048 and 4096 nodes, recording every
16 n / 1024 steps, so at about the same times.  The leapfrog scheme is
second order, so the relative energy drift at the last frame falls
fourfold per halving of dr.  The scattering state's defect and worst
match error have converged by n = 2048: the demo's own n = 1024 defect is
38% and its worst match 13% above their n = 4096 values.
"""

import math

import pytest

from wavemap.data import make_bump
from wavemap.diagnostics import energy
from wavemap.evolution import RadialGrid, evolve
from wavemap.geometry import SPHERE
from wavemap.resolution import build_scattering_state

LADDER = (1024, 2048, 4096)


@pytest.fixture(scope="module")
def ladder():
    """{n: (relative energy drift at the last frame, scattering defect,
    worst match error)} of the demo run on n nodes."""
    found = {}
    for n in LADDER:
        seed = make_bump(RadialGrid(100.0, n), SPHERE, 0.0, amplitude=0.08,
                         center=10.0, width=4.0, velocity=0.0)
        traj = evolve(seed, SPHERE, 70.0, record_every=16 * n // 1024,
                      cfl=0.5)
        e0, e1 = (energy(traj.snapshots[k], SPHERE).total for k in (0, -1))
        state = build_scattering_state(traj)
        found[n] = ((e1 - e0) / e0, state.defect, max(state.match_errors))
    return found


def test_energy_drift_is_second_order(ladder):
    drifts = [ladder[n][0] for n in LADDER]
    assert drifts[0] == pytest.approx(1.329e-3, rel=1e-3)
    orders = [math.log2(a / b) for a, b in zip(drifts, drifts[1:])]
    assert orders == pytest.approx([2.0, 2.0], abs=0.05)


def test_scattering_state_has_converged(ladder):
    (_, defect2, match2), (_, defect4, match4) = ladder[2048], ladder[4096]
    assert defect4 == pytest.approx(2.540e-4, rel=1e-3)
    assert match4 == pytest.approx(6.258e-5, rel=1e-3)
    assert defect2 == pytest.approx(defect4, rel=1e-3)
    assert match2 == pytest.approx(match4, rel=5e-3)
    # the demo's n = 1024 figures, as the README quotes them
    _, defect1, match1 = ladder[1024]
    assert defect1 / defect4 == pytest.approx(1.38, abs=0.005)
    assert match1 / match4 == pytest.approx(1.125, abs=0.005)
