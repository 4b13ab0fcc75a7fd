"""Evolution tests: scheme order, conservation, covariance, causality,
blow-up detection, and snapshot persistence.

Reference values are frozen from refined-grid oracle runs; scenarios are
deterministic so the numbers reproduce exactly.
"""

import math

import numpy as np
import pytest

from wavemap.geometry import SPHERE, YANG_MILLS, find_vanishing_set
from wavemap.statics import build_harmonic_map, rescale_Q
from wavemap.evolution import (RadialGrid, RadialField, EvolutionError,
                               evolve, step_nonlinear, step_linear,
                               transform_T, discrete_energy,
                               min_bubble_energy, write_snapshot,
                               read_snapshot, _Flow, _leapfrog)
from wavemap.data import make_bump, make_perturbation
from wavemap.diagnostics import energy, h_norms


ROOT0 = find_vanishing_set(SPHERE).root_at(0.0)
ROOT_PI = find_vanishing_set(SPHERE).root_at(np.pi)


class TestGridAndField:
    def test_nodes_exclude_origin(self):
        grid = RadialGrid(10.0, 5)
        assert grid.dr == 2.0
        np.testing.assert_allclose(grid.r, [2.0, 4.0, 6.0, 8.0, 10.0])

    def test_grid_floor(self):
        with pytest.raises(EvolutionError, match="at least"):
            RadialGrid(10.0, 3)

    def test_gradient_uses_origin_ghost(self):
        grid = RadialGrid(4.0, 400)
        psi = 2.0 * grid.r
        f = RadialField(grid, psi, np.zeros_like(psi), ell0=0.0,
                        ell_inf=8.0, time=0.0)
        g = f.gradient()
        # interior central differences of a linear profile are exact,
        # as is the first node thanks to the ghost at (0, ell0)
        np.testing.assert_allclose(g[:-1], 2.0, atol=1e-12)

    def test_cfl_refusal(self):
        grid = RadialGrid(10.0, 100)
        f = make_perturbation(grid, amplitude=0.1, center=5.0, width=2.0)
        with pytest.raises(EvolutionError, match="CFL"):
            step_linear(f, ROOT0, dt=0.9 * grid.dr)
        with pytest.raises(EvolutionError, match="CFL"):
            evolve(f, ROOT0, 1.0, cfl=0.7)

    @pytest.mark.parametrize("record_every", [0, -4])
    def test_record_every_refusal(self, record_every):
        # a nonpositive cadence would never reach the next recorded step
        grid = RadialGrid(10.0, 100)
        f = make_perturbation(grid, amplitude=0.1, center=5.0, width=2.0)
        with pytest.raises(EvolutionError, match="record_every"):
            evolve(f, ROOT0, 1.0, record_every=record_every)


class TestConstantAndStationary:
    def test_root_constant_is_fixed_point(self):
        grid = RadialGrid(10.0, 256)
        psi0 = np.zeros(grid.n_points)
        f = RadialField(grid, psi0, np.zeros_like(psi0), ell0=0.0,
                        ell_inf=0.0, time=0.0)
        out = f
        for _ in range(20):
            out = step_nonlinear(out, SPHERE, 0.5 * grid.dr)
        np.testing.assert_array_equal(out.psi, psi0)
        np.testing.assert_array_equal(out.psi_dot, 0.0)

    def test_pi_constant_held_to_float_sin_residual(self):
        # float pi is not an exact zero of sin, so the source term is
        # O(1e-16)/r^2 rather than zero; the field must stay pinned at
        # that scale
        grid = RadialGrid(10.0, 256)
        psi = np.full(grid.n_points, np.pi)
        f = RadialField(grid, psi, np.zeros_like(psi), ell0=np.pi,
                        ell_inf=np.pi, time=0.0)
        out = f
        for _ in range(20):
            out = step_nonlinear(out, SPHERE, 0.5 * grid.dr)
        np.testing.assert_allclose(out.psi, psi, atol=1e-12)

    def test_zero_data_linear(self):
        grid = RadialGrid(10.0, 256)
        f = RadialField(grid, np.zeros(grid.n_points),
                        np.zeros(grid.n_points), 0.0, 0.0, 0.0)
        out = step_linear(f, ROOT0, 0.5 * grid.dr)
        np.testing.assert_array_equal(out.psi, 0.0)

    def test_ground_state_stationary_quartering(self):
        # frozen oracle: max deviation 3.372e-5 at n=1000, 8.420e-6 at
        # n=2000 (r_max=20, t=1); ratio is the scheme's O(dr^2)
        qmap = build_harmonic_map(SPHERE, 0.0, +1)
        devs = {}
        for n in (1000, 2000):
            grid = RadialGrid(20.0, n)
            f0 = rescale_Q(qmap, 1.0, grid)
            traj = evolve(f0, SPHERE, 1.0, record_every=10 ** 9,
                          detect_blowup=False)
            devs[n] = float(np.max(np.abs(traj.snapshots[-1].psi - f0.psi)))
        assert devs[2000] < 2e-5
        ratio = devs[1000] / devs[2000]
        assert 3.0 < ratio < 5.5


class TestConservation:
    def test_nonlinear_energy_drift(self):
        grid = RadialGrid(20.0, 2048)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0,
                       width=3.0)
        traj = evolve(f0, SPHERE, 10.0, record_every=256,
                      detect_blowup=False)
        e0 = energy(traj.snapshots[0], SPHERE).total
        drift = max(abs(energy(s, SPHERE).total - e0)
                    for s in traj.snapshots) / e0
        assert drift < 1e-4

    def test_linear_flux_energy_drift(self):
        # the integrator's own conserved functional; cfl 0.25 keeps the
        # Verlet oscillation below 1e-6 at n = 4096
        grid = RadialGrid(12.0, 4096)
        f0 = make_perturbation(grid, amplitude=0.1, center=4.0, width=2.5)
        traj = evolve(f0, ROOT0, 5.0, record_every=512, cfl=0.25,
                      detect_blowup=False)
        e0 = discrete_energy(traj.snapshots[0], ROOT0)
        drift = max(abs(discrete_energy(s, ROOT0) - e0)
                    for s in traj.snapshots) / e0
        assert drift < 1e-6

    def test_linear_h_norm_drift(self):
        grid = RadialGrid(40.0, 2048)
        f0 = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        traj = evolve(f0, ROOT_PI, 10.0, record_every=256,
                      detect_blowup=False)
        n0 = h_norms(traj.snapshots[0], ROOT_PI).h_ell_x_l2
        drift = max(abs(h_norms(s, ROOT_PI).h_ell_x_l2 - n0)
                    for s in traj.snapshots) / n0
        assert drift < 1e-4

    def test_flux_and_trapezoid_energies_agree(self):
        grid = RadialGrid(20.0, 4096)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.2, center=6.0,
                       width=3.0)
        e_flux = discrete_energy(f0, SPHERE)
        e_trap = energy(f0, SPHERE).total
        assert abs(e_flux - e_trap) / e_trap < 1e-4


def _flow_case(label, grid, amplitude=0.3):
    """(data, system, single step) for one of the two flows; the nonlinear
    data hangs from pi so the ghost and the far value are not zero."""
    if label == "nonlinear":
        return (make_bump(grid, SPHERE, np.pi, amplitude=amplitude,
                          center=5.0, width=3.0), SPHERE, step_nonlinear)
    return (make_perturbation(grid, amplitude=amplitude, center=5.0,
                              width=3.0), ROOT_PI, step_linear)


class TestOneKernel:
    @pytest.mark.parametrize("boundary", ["fixed", "absorbing"])
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_evolve_matches_repeated_steps(self, label, boundary):
        grid = RadialGrid(20.0, 256)
        f0, system, step = _flow_case(label, grid)
        traj = evolve(f0, system, 3.0, record_every=8, boundary=boundary,
                      detect_blowup=False)
        f, done = f0, 0
        for frame in traj.snapshots[1:]:
            n = round((frame.time - f0.time) / traj.dt)
            for _ in range(n - done):
                f = step(f, system, traj.dt, boundary=boundary)
            done = n
            np.testing.assert_array_equal(frame.psi, f.psi)
            np.testing.assert_array_equal(frame.psi_dot, f.psi_dot)
        assert done == 77           # ceil(3 / (0.5 * 20 / 256))

    @pytest.mark.parametrize("boundary", ["fixed", "absorbing"])
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_member_stack_matches_single_runs(self, label, boundary):
        # a (3, n) stack through the kernel against three 1-D evolve runs;
        # a boundary that indexes [-1] in place of [..., -1] hits a whole
        # member instead of the last node of each
        grid = RadialGrid(20.0, 256)
        members = [_flow_case(label, grid, amp)[0] for amp in (0.1, 0.2, 0.3)]
        system = _flow_case(label, grid)[1]
        trajs = [evolve(f, system, 3.0, record_every=8, boundary=boundary,
                        detect_blowup=False) for f in members]
        flow = _Flow(system, grid, members[0].ell0)
        psi = np.stack([f.psi for f in members])
        psi_dot = np.stack([f.psi_dot for f in members])
        a, done, dt = flow.accel(psi), 0, trajs[0].dt
        for i, t in enumerate(trajs[0].times[1:], 1):
            n = round(t / dt)
            a = _leapfrog(flow, psi, psi_dot, a, dt, n - done, boundary,
                          members[0].ell_inf)
            done = n
            for k, traj in enumerate(trajs):
                np.testing.assert_array_equal(psi[k], traj.snapshots[i].psi)
                np.testing.assert_array_equal(psi_dot[k],
                                              traj.snapshots[i].psi_dot)
        assert done == 77

    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_frames_do_not_depend_on_record_every(self, label):
        grid = RadialGrid(20.0, 256)
        f0, system, _ = _flow_case(label, grid)
        dense, sparse = (evolve(f0, system, 3.0, record_every=k,
                                detect_blowup=False) for k in (4, 16))
        by_time = {s.time: s for s in dense.snapshots}
        assert len(sparse.snapshots) == 6
        for frame in sparse.snapshots:
            np.testing.assert_array_equal(frame.psi, by_time[frame.time].psi)
            np.testing.assert_array_equal(frame.psi_dot,
                                          by_time[frame.time].psi_dot)


class TestRichardson:
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_order_at_least_1_9(self, label):
        finals = []
        for n in (1024, 2048, 4096):
            grid = RadialGrid(20.0, n)
            if label == "nonlinear":
                f = make_bump(grid, SPHERE, 0.0, amplitude=0.3, center=5.0,
                              width=3.0)
                system = SPHERE
            else:
                f = make_perturbation(grid, amplitude=0.3, center=5.0,
                                      width=2.0)
                system = ROOT0
            traj = evolve(f, system, 2.0, record_every=10 ** 9,
                          detect_blowup=False)
            finals.append(traj.snapshots[-1].psi)
        coarse, mid, fine = finals
        e_c = np.max(np.abs(coarse - fine[3::4]))
        e_m = np.max(np.abs(mid - fine[1::2]))
        assert math.log2(e_c / e_m) >= 1.9


class TestCovarianceAndCausality:
    def test_scaling_covariance_exact_for_power_of_two(self):
        # lam = 2 rescaling is exact in binary floating point, so the two
        # runs must agree bit for bit
        n = 1024
        grid1 = RadialGrid(16.0, n)
        grid2 = RadialGrid(32.0, n)
        f1 = make_bump(grid1, SPHERE, 0.0, amplitude=0.4, center=4.0,
                       width=2.0)
        f2 = make_bump(grid2, SPHERE, 0.0, amplitude=0.4, center=8.0,
                       width=4.0)
        np.testing.assert_array_equal(f1.psi, f2.psi)
        t1 = evolve(f1, SPHERE, 3.0, record_every=10 ** 9,
                    detect_blowup=False)
        t2 = evolve(f2, SPHERE, 6.0, record_every=10 ** 9,
                    detect_blowup=False)
        np.testing.assert_array_equal(t1.snapshots[-1].psi,
                                      t2.snapshots[-1].psi)
        np.testing.assert_array_equal(t1.snapshots[-1].psi_dot,
                                      2.0 * t2.snapshots[-1].psi_dot)

    def test_finite_speed_exact_agreement(self):
        # the stencil moves one node per step, so fields agreeing outside
        # a perturbation stay bitwise equal strictly inside its numerical
        # domain of influence
        grid = RadialGrid(50.0, 1000)
        f1 = make_bump(grid, SPHERE, 0.0, amplitude=0.3, center=10.0,
                       width=5.0)
        psi2 = f1.psi + make_bump(grid, SPHERE, 0.0, amplitude=0.2,
                                  center=35.0, width=4.0).psi
        f2 = RadialField(grid, psi2, np.zeros_like(psi2), 0.0, 0.0, 0.0)
        t = 5.0
        out1 = evolve(f1, SPHERE, t, record_every=10 ** 9,
                      detect_blowup=False).snapshots[-1]
        out2 = evolve(f2, SPHERE, t, record_every=10 ** 9,
                      detect_blowup=False).snapshots[-1]
        # second bump support starts at 31; influence speed is
        # dr/dt = 2, so r < 31 - 2t is untouched
        mask = grid.r < 31.0 - 2.0 * t - 2 * grid.dr
        assert mask.sum() > 100
        np.testing.assert_array_equal(out1.psi[mask], out2.psi[mask])

    def test_linear_support_speed(self):
        grid = RadialGrid(60.0, 1200)
        f0 = make_perturbation(grid, amplitude=0.2, center=10.0, width=5.0)
        t_final = 20.0
        traj = evolve(f0, ROOT0, t_final, record_every=10 ** 9,
                      detect_blowup=False)
        final = traj.snapshots[-1]
        tol = 1e-8 * np.max(np.abs(f0.psi))
        busy = np.abs(final.psi) + np.abs(final.psi_dot) > tol
        edge = grid.r[np.flatnonzero(busy)[-1]]
        # dispersive precursors run slightly ahead of the light cone at
        # this threshold; the measured overshoot is ~4% of t
        assert edge <= 15.0 + t_final * 1.08 + 5 * grid.dr


class TestTransform:
    def test_gaussian_profile(self):
        grid = RadialGrid(8.0, 1024)
        psi = grid.r * np.exp(-grid.r ** 2)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.0, 0.0)
        out = transform_T(f, ROOT0)
        np.testing.assert_allclose(out.values, np.exp(-grid.r ** 2),
                                   rtol=1e-13)
        assert out.weight_exponent == 3.0

    def test_norm_identity_closed_form(self):
        # phi = r e^{-r}, k = 1: both sides of the first-order norm
        # identity equal 3/8 exactly; adaptive quadrature on the closed
        # forms must agree to 1e-10
        from scipy.integrate import quad
        direct = quad(lambda r: ((1 - r) ** 2 * np.exp(-2 * r)
                                 + np.exp(-2 * r)) * r, 0, 40)[0]
        via_t = quad(lambda r: np.exp(-2 * r) * r ** 3, 0, 40)[0]
        assert abs(direct - 0.375) < 1e-10
        assert abs(via_t - 0.375) < 1e-10
        assert abs(direct - via_t) < 1e-10

    def test_norm_identity_on_grid(self):
        grid = RadialGrid(20.0, 8192)
        psi = grid.r * np.exp(-grid.r)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.0, 0.0)
        hl = h_norms(f, ROOT0).h_ell
        out = transform_T(f, ROOT0)
        u = out.values
        du = np.gradient(u, grid.r)
        flat_sq = np.trapezoid(du ** 2 * grid.r ** out.weight_exponent,
                               grid.r)
        assert abs(hl ** 2 - flat_sq) / hl ** 2 < 1e-3

    def test_domain_error_for_slow_vanishing(self):
        grid = RadialGrid(8.0, 1024)
        ym_root = find_vanishing_set(YANG_MILLS).root_at(1.0)
        psi = grid.r * np.exp(-grid.r ** 2)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.0, 0.0)
        with pytest.raises(EvolutionError, match="image domain"):
            transform_T(f, ym_root)

    def test_min_bubble_energy(self):
        assert abs(min_bubble_energy(SPHERE, 0.0) - 4.0) < 1e-9
        assert abs(min_bubble_energy(YANG_MILLS, 1.0) - 8.0 / 3.0) < 1e-9
        assert min_bubble_energy(SPHERE, 0.3) == math.inf


@pytest.fixture(scope="module")
def blowup_traj():
    grid = RadialGrid(6.0, 4096)
    r = grid.r
    psi = 2.0 * np.arctan(r) + 5.0 * r * np.exp(-r ** 2)
    f = RadialField(grid, psi, np.zeros_like(r), ell0=0.0,
                    ell_inf=np.pi, time=0.0)
    return evolve(f, SPHERE, 5.0, record_every=16)


class TestBlowup:
    def test_detection_fires(self, blowup_traj):
        b = blowup_traj.blowup
        assert b is not None
        assert b.reason == "energy-concentration"
        assert b.t_plus > b.last_valid_time
        assert blowup_traj.snapshots[-1].time == pytest.approx(
            b.last_valid_time)

    def test_radius_series_shrinks(self, blowup_traj):
        rhos = [rho for _, rho in blowup_traj.blowup.radius_series]
        assert len(rhos) >= 5
        tail = rhos[-4:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.5 * rhos[0]

    def test_frames_stay_finite(self, blowup_traj):
        for s in blowup_traj.snapshots:
            assert np.all(np.isfinite(s.psi))
            assert np.all(np.isfinite(s.psi_dot))

    def test_mild_data_does_not_trigger(self):
        grid = RadialGrid(40.0, 1024)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=10.0,
                       width=5.0)
        traj = evolve(f0, SPHERE, 5.0, record_every=64)
        assert traj.blowup is None


class TestPersistence:
    def test_snapshot_round_trip_bitexact(self, tmp_path):
        grid = RadialGrid(10.0, 257)
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(grid.n_points)
        psi_dot = rng.standard_normal(grid.n_points)
        f = RadialField(grid, psi, psi_dot, ell0=0.25,
                        ell_inf=-1.75, time=3.0625)
        path = tmp_path / "snap.dat"
        write_snapshot(f, path, metric_id="sphere")
        g, metric_id = read_snapshot(path)
        np.testing.assert_array_equal(g.psi, psi)
        np.testing.assert_array_equal(g.psi_dot, psi_dot)
        assert g.ell0 == 0.25 and g.ell_inf == -1.75 and g.time == 3.0625
        assert g.grid.r_max == grid.r_max
        assert metric_id == "sphere"
        # write -> read -> write is byte-identical
        path2 = tmp_path / "snap2.dat"
        write_snapshot(g, path2, metric_id=metric_id)
        assert path.read_bytes() == path2.read_bytes()

    def test_snapshot_header_validation(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("# not-a-snapshot\n1 2 3\n")
        with pytest.raises(EvolutionError, match="snapshot"):
            read_snapshot(path)


class TestAbsorbingBoundary:
    def test_outgoing_wave_is_mostly_absorbed(self):
        grid = RadialGrid(30.0, 1024)
        f0 = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        n0 = h_norms(f0, ROOT_PI).h_ell_x_l2
        results = {}
        for bc in ("fixed", "absorbing"):
            traj = evolve(f0, ROOT_PI, 45.0, record_every=10 ** 9,
                          boundary=bc, detect_blowup=False)
            results[bc] = h_norms(traj.snapshots[-1], ROOT_PI).h_ell_x_l2
        assert results["fixed"] == pytest.approx(n0, rel=1e-3)
        assert results["absorbing"] < 0.2 * results["fixed"]
