"""Evolution tests: scheme order, conservation, covariance, causality,
blow-up detection, and frame persistence.

Reference values are frozen from refined-grid oracle runs; scenarios are
deterministic so the numbers reproduce exactly.
"""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

from wavemap.geometry import (SPHERE, YANG_MILLS, Metric, Root,
                              find_vanishing_set, make_metric)
from wavemap.statics import build_harmonic_map, rescale_Q
from wavemap.evolution import (BOUNDARIES, RadialGrid, RadialField,
                               EvolutionError, Trajectory,
                               evolve, step_linear, discrete_energy,
                               min_bubble_energy, write_snapshot,
                               read_snapshot, _advance, _Flow, _leapfrog,
                               _concentration_radius, _make_blowup_record,
                               _densities, _density_reads, _prefix, _header)
from wavemap.data import bump_profile, make_bump, make_perturbation
from wavemap.diagnostics import energy, h_norms
from wavemap.cli import load_trajectory, save_trajectory
from wavemap import evolution


ROOT0 = find_vanishing_set(SPHERE).root_at(0.0)
ROOT_PI = find_vanishing_set(SPHERE).root_at(np.pi)


def _step(field, system, dt, boundary="fixed"):
    """One leapfrog step of the flow of `system`; returns a new field."""
    psi, psi_dot = field.psi.copy(), field.psi_dot.copy()
    next(_advance(system, field, psi, psi_dot, dt, [1], boundary))
    return RadialField(field.grid, psi, psi_dot, field.ell0, field.ell_inf,
                       field.time + dt)


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
            step_linear(f, ROOT0, dt=-0.9 * grid.dr)
        with pytest.raises(EvolutionError, match="must be positive"):
            step_linear(f, ROOT0, dt=math.nan)
        with pytest.raises(EvolutionError, match="CFL"):
            evolve(f, ROOT0, 1.0, cfl=0.7)

    @pytest.mark.parametrize("record_every", [0, -4])
    def test_record_every_refusal(self, record_every):
        # a nonpositive cadence would never reach the next recorded step
        grid = RadialGrid(10.0, 100)
        f = make_perturbation(grid, amplitude=0.1, center=5.0, width=2.0)
        with pytest.raises(EvolutionError, match="record_every"):
            evolve(f, ROOT0, 1.0, record_every=record_every)

    @pytest.mark.parametrize("cfl, t_final, match", [
        (-0.5, 1.0, "dt = -0.0390625 must be positive"),
        (0.0, 1.0, "dt = 0 must be positive"),
        (math.nan, 1.0, "dt = nan must be positive"),
        (0.5, 0.0, "t_final must be positive and finite"),
        (0.5, math.nan, "t_final must be positive and finite"),
        (0.5, math.inf, "t_final must be positive and finite"),
    ])
    def test_step_plan_refusals(self, cfl, t_final, match):
        # one EvolutionError before any step: never a backward step, nor
        # a bare ValueError, ZeroDivisionError or OverflowError
        grid = RadialGrid(10.0, 128)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0, width=2.0,
                      velocity=0.0)
        with pytest.raises(EvolutionError, match=match):
            evolve(f, SPHERE, t_final, cfl=cfl)

    def test_unknown_boundary_refused_before_any_step(self):
        grid = RadialGrid(20.0, 256)
        f0, system = _compact_case("sphere-0", grid, -0.4)
        psi, psi_dot = f0.psi.copy(), f0.psi_dot.copy()
        with pytest.raises(EvolutionError, match="unknown boundary 'bogus'"):
            next(_advance(system, f0, psi, psi_dot, 0.5 * grid.dr, [5],
                          "bogus"))
        _assert_same_bits(psi, f0.psi)
        _assert_same_bits(psi_dot, f0.psi_dot)

    @pytest.mark.parametrize("case, match", [
        ("transposed", "C-contiguous float64"),
        ("strided", "C-contiguous float64"),
        ("float32", "C-contiguous float64"),
        ("member-major", r"shape \(3, 256\) are not \(n,\) or \(n, m\)"),
        ("three-axes", r"shape \(256, 2, 1\) are not"),
        ("no-members", r"shape \(256, 0\) are not"),
        ("shapes-differ", r"psi \(256, 3\) and psi_dot \(256, 2\) differ"),
    ])
    def test_layout_the_kernel_cannot_step_in_place_refused(self, case,
                                                            match):
        # a flat view of a non-contiguous array is a copy, so the run
        # would leave the caller's arrays alone; an (m, n) stack would be
        # stepped with its members read as nodes
        grid = RadialGrid(20.0, 256)
        f0, system = _compact_case("linear", grid, -0.4)
        stack = np.stack([f0.psi] * 3, axis=1), np.stack([f0.psi_dot] * 3,
                                                         axis=1)
        psi, psi_dot = {
            "transposed": (stack[0].T.copy().T, stack[1]),
            "strided": (stack[0], np.stack([f0.psi_dot] * 6, axis=1)[:, ::2]),
            "float32": (f0.psi.astype(np.float32), f0.psi_dot.copy()),
            "member-major": (stack[0].T.copy(), stack[1].T.copy()),
            "three-axes": (stack[0][:, :2, None].copy(),
                           stack[1][:, :2, None].copy()),
            "no-members": (np.empty((256, 0)), np.empty((256, 0))),
            "shapes-differ": (stack[0], stack[1][:, :2].copy()),
        }[case]
        before = psi.copy(), psi_dot.copy()
        with pytest.raises(EvolutionError, match=match):
            next(_advance(system, f0, psi, psi_dot, 0.5 * grid.dr, [5]))
        np.testing.assert_array_equal(psi, before[0])
        np.testing.assert_array_equal(psi_dot, before[1])


class TestConstantAndStationary:
    def test_root_constant_is_fixed_point(self):
        grid = RadialGrid(10.0, 256)
        psi0 = np.zeros(grid.n_points)
        f = RadialField(grid, psi0, np.zeros_like(psi0), ell0=0.0,
                        ell_inf=0.0, time=0.0)
        out = f
        for _ in range(20):
            out = _step(out, SPHERE, 0.5 * grid.dr)
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
            out = _step(out, SPHERE, 0.5 * grid.dr)
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
            traj = evolve(f0, SPHERE, 1.0, record_every=10 ** 9)
            devs[n] = float(np.max(np.abs(traj.snapshots[-1].psi - f0.psi)))
        assert devs[2000] < 2e-5
        ratio = devs[1000] / devs[2000]
        assert 3.0 < ratio < 5.5


class TestConservation:
    def test_nonlinear_energy_drift(self):
        grid = RadialGrid(20.0, 2048)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0,
                       width=3.0, velocity=0.0)
        traj = evolve(f0, SPHERE, 10.0, record_every=256)
        e0 = energy(traj.snapshots[0], SPHERE).total
        drift = max(abs(energy(s, SPHERE).total - e0)
                    for s in traj.snapshots) / e0
        assert drift < 1e-4

    def test_linear_flux_energy_drift(self):
        # the integrator's own conserved functional; cfl 0.25 keeps the
        # Verlet oscillation below 1e-6 at n = 4096
        grid = RadialGrid(12.0, 4096)
        f0 = make_perturbation(grid, amplitude=0.1, center=4.0, width=2.5)
        traj = evolve(f0, ROOT0, 5.0, record_every=512, cfl=0.25)
        e0 = discrete_energy(traj.snapshots[0], ROOT0)
        drift = max(abs(discrete_energy(s, ROOT0) - e0)
                    for s in traj.snapshots) / e0
        assert drift < 1e-6

    def test_linear_h_norm_drift(self):
        grid = RadialGrid(40.0, 2048)
        f0 = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        traj = evolve(f0, ROOT_PI, 10.0, record_every=256)
        n0 = h_norms(traj.snapshots[0], ROOT_PI).h_ell_x_l2
        drift = max(abs(h_norms(s, ROOT_PI).h_ell_x_l2 - n0)
                    for s in traj.snapshots) / n0
        assert drift < 1e-4

    def test_flux_and_trapezoid_energies_agree(self):
        grid = RadialGrid(20.0, 4096)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.2, center=6.0,
                       width=3.0, velocity=0.0)
        e_flux = discrete_energy(f0, SPHERE)
        e_trap = energy(f0, SPHERE).total
        assert abs(e_flux - e_trap) / e_trap < 1e-4


def _assert_same_bits(x, y):
    """Equal to the last bit, sign of zero included."""
    np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))


def _moving_perturbation(grid, amplitude, center, width, velocity):
    """make_perturbation's bump set moving: psi_t = velocity * B, whose
    tail is velocity * +0.0."""
    f = make_perturbation(grid, amplitude, center, width)
    f.psi_dot = velocity * bump_profile(grid.r, 1.0, center, width)
    return f


def _compact_case(label, grid, velocity):
    """(data, system) of bump data supported in [3, 7]: outside it psi is
    ell_inf + 0.0 and psi_dot is velocity * +0.0, so -0.0 for a negative
    velocity.  "linear-minus-0" hangs from ell_inf = -0.0 with a tail of
    -0.0, which a forward drift turns into +0.0."""
    if label == "linear":
        return _moving_perturbation(grid, 0.3, 5.0, 2.0, velocity), ROOT0
    if label == "linear-minus-0":
        f = _moving_perturbation(grid, -0.3, 5.0, 2.0, velocity)
        f.ell_inf = -0.0
        return f, ROOT0
    metric, ell = {"sphere-0": (SPHERE, 0.0), "sphere-pi": (SPHERE, np.pi),
                   "yang-mills-1": (YANG_MILLS, 1.0)}[label]
    return make_bump(grid, metric, ell, 0.3, 5.0, 2.0, velocity), metric


def _flow_case(label, grid, amplitude=0.3):
    """(data, system) for one of the two flows; the nonlinear data hangs
    from pi so the ghost and the far value are not zero."""
    if label == "nonlinear":
        return (make_bump(grid, SPHERE, np.pi, amplitude=amplitude,
                          center=5.0, width=3.0, velocity=0.0), SPHERE)
    return (make_perturbation(grid, amplitude=amplitude, center=5.0,
                              width=3.0), ROOT_PI)


class TestOneKernel:
    @pytest.mark.parametrize("boundary", ["fixed", "absorbing"])
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_evolve_matches_repeated_steps(self, label, boundary):
        grid = RadialGrid(20.0, 256)
        f0, system = _flow_case(label, grid)
        traj = evolve(f0, system, 3.0, record_every=8, boundary=boundary)
        f, done = f0, 0
        for frame in traj.snapshots[1:]:
            n = round((frame.time - f0.time) / traj.dt)
            for _ in range(n - done):
                f = _step(f, system, traj.dt, boundary=boundary)
            done = n
            np.testing.assert_array_equal(frame.psi, f.psi)
            np.testing.assert_array_equal(frame.psi_dot, f.psi_dot)
        assert done == 77           # ceil(3 / (0.5 * 20 / 256))

    @pytest.mark.parametrize("boundary", ["fixed", "absorbing"])
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_member_stack_matches_single_runs(self, label, boundary):
        # an (n, 3) node-major stack through the kernel against three 1-D
        # evolve runs; a boundary that indexes the last entry in place of
        # the last node's m entries hits one member only
        grid = RadialGrid(20.0, 256)
        members = [_flow_case(label, grid, amp)[0] for amp in (0.1, 0.2, 0.3)]
        system = _flow_case(label, grid)[1]
        trajs = [evolve(f, system, 3.0, record_every=8, boundary=boundary)
                 for f in members]
        psi = np.stack([f.psi for f in members], axis=1)
        psi_dot = np.stack([f.psi_dot for f in members], axis=1)
        dt = trajs[0].dt
        stops = [round(t / dt) for t in trajs[0].times[1:]]
        for i, n in enumerate(_advance(system, members[0], psi, psi_dot, dt,
                                       stops, boundary), 1):
            for k, traj in enumerate(trajs):
                np.testing.assert_array_equal(psi[:, k],
                                              traj.snapshots[i].psi)
                np.testing.assert_array_equal(psi_dot[:, k],
                                              traj.snapshots[i].psi_dot)
        assert n == 77

    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_backward_run_is_the_flipped_forward_run(self, label):
        # velocity Verlet at -dt against the run at +dt from the flipped
        # velocity: negating a float is exact, so psi agrees bit for bit
        # and psi_dot up to sign; the fixed boundary keeps the run
        # time-reversible, the absorbing one does not
        grid = RadialGrid(20.0, 256)
        f0, system = _flow_case(label, grid)
        f0.psi_dot = bump_profile(grid.r, 0.2, 6.0, 2.0)
        dt = 0.5 * grid.dr
        back = f0.psi.copy(), f0.psi_dot.copy()
        flip = f0.psi.copy(), -f0.psi_dot
        stops = [1, 8, 40]
        for n, _ in zip(_advance(system, f0, *back, -dt, stops),
                        _advance(system, f0, *flip, dt, stops)):
            np.testing.assert_array_equal(back[0], flip[0])
            np.testing.assert_array_equal(back[1], -flip[1])
        assert n == 40
        assert np.max(np.abs(back[0] - f0.psi)) > 1e-3

    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_frames_do_not_depend_on_record_every(self, label):
        grid = RadialGrid(20.0, 256)
        f0, system = _flow_case(label, grid)
        dense, sparse = (evolve(f0, system, 3.0, record_every=k)
                         for k in (4, 16))
        by_time = {s.time: s for s in dense.snapshots}
        assert len(sparse.snapshots) == 6
        for frame in sparse.snapshots:
            np.testing.assert_array_equal(frame.psi, by_time[frame.time].psi)
            np.testing.assert_array_equal(frame.psi_dot,
                                          by_time[frame.time].psi_dot)


    def test_fused_sphere_source_matches_g_g_prime(self):
        # SPHERE's f is sin(2 psi) / 2; the custom metric's is sin * cos
        grid = RadialGrid(20.0, 512)
        custom = make_metric("s", "sin(rho)", "cos(rho)",
                             SPHERE.search_window)
        f0 = RadialField(grid, 1.5 * np.exp(-((grid.r - 5.0) / 1.5) ** 2),
                         np.zeros(grid.n_points), 0.0, 0.0)
        fused, plain = (evolve(f0, m, 10.0) for m in (SPHERE, custom))
        assert fused.blowup is None and plain.blowup is None
        assert len(fused.snapshots) == len(plain.snapshots) == 9
        for a, b in zip(fused.snapshots, plain.snapshots):
            np.testing.assert_allclose(a.psi, b.psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.psi_dot, b.psi_dot, rtol=0,
                                       atol=1e-12)


def _full_width(system, f0, psi, psi_dot, dt, stops, boundary):
    """The oracle of the window: `_advance` on one field, with the window
    shut, so every step runs on every node."""
    flow = _Flow(system, f0.grid, f0.ell0, 1)
    a = flow.accel(psi)
    for done, stop in zip([0, *stops], stops):
        _leapfrog(flow, psi, psi_dot, a, dt, stop - done, boundary,
                  f0.ell_inf, f0.grid.n_points)
        yield stop


def _member(label, grid, j, m):
    """Member j of a stack of m: compact data whose support ends at
    13.9 - 1.2 |j - m // 2|, so member m // 2 is the widest and, for
    m >= 3, neither the first nor the last, and whose amplitude 0.3 and
    velocity 0.4 are negative on odd j.  Adding 0.0 turns the -0.0 a
    negative factor leaves in the tail into +0.0, as make_superposition's
    sums do, so every tail is quiet."""
    f = _moving_perturbation(grid, 0.3 * (-1) ** j,
                             12.4 - 1.2 * abs(j - m // 2), 1.5,
                             0.4 * (-1) ** j)
    return (RadialField(grid, f.psi + 0.0, f.psi_dot + 0.0, 0.0, 0.0),
            ROOT0 if label == "linear" else SPHERE)


class TestWindow:
    """A run steps only the nodes its domain of dependence has reached;
    the same kernel with the window shut, which steps every node, is the
    oracle."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize(
        "label", ["sphere-0", "sphere-pi", "yang-mills-1", "linear",
                  "linear-minus-0"])
    def test_single_field_matches_the_full_width_stack(self, label,
                                                       boundary, sign):
        # the bump ends at node 89 of 256, so in 200 steps the window
        # reaches the last node and the run ends at full width
        grid = RadialGrid(20.0, 256)
        dt = sign * 0.5 * grid.dr
        for velocity in (0.0, -0.4):
            f0, system = _compact_case(label, grid, velocity)
            for every in (1, 7, 128, 10 ** 6):
                stops = [*range(every, 200, every), 200]
                one = f0.psi.copy(), f0.psi_dot.copy()
                full = f0.psi.copy(), f0.psi_dot.copy()
                for n, _ in zip(
                        _advance(system, f0, *one, dt, stops, boundary),
                        _full_width(system, f0, *full, dt, stops, boundary)):
                    _assert_same_bits(one[0], full[0])
                    _assert_same_bits(one[1], full[1])
                assert n == 200

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("label", ["linear", "sphere-0"])
    def test_node_major_stack_matches_full_width_single_runs(
            self, label, m, boundary, sign):
        # the widest member sets the stack's window; its support ends at
        # node 177 of 256, so the window reaches the last node in 200 steps
        grid = RadialGrid(20.0, 256)
        dt = sign * 0.5 * grid.dr
        members = [_member(label, grid, j, m)[0] for j in range(m)]
        system = _member(label, grid, 0, m)[1]
        for every in (1, 7, 10 ** 6):
            stops = [*range(every, 200, every), 200]
            stack = (np.stack([f.psi for f in members], axis=1),
                     np.stack([f.psi_dot for f in members], axis=1))
            singles = [(f.psi.copy(), f.psi_dot.copy()) for f in members]
            runs = [_full_width(system, f, *one, dt, stops, boundary)
                    for f, one in zip(members, singles)]
            for n, *_ in zip(
                    _advance(system, members[0], *stack, dt, stops,
                             boundary), *runs):
                for j, one in enumerate(singles):
                    _assert_same_bits(stack[0][:, j], one[0])
                    _assert_same_bits(stack[1][:, j], one[1])
            assert n == 200

    @pytest.mark.parametrize("label, engaged", [
        ("sphere-0", True), ("yang-mills-1", True), ("sphere-pi", False)])
    def test_window_engages_where_the_source_vanishes(self, label, engaged):
        # 512 steps from a bump ending at node 358 of 2048: the window
        # spans at most 871 nodes.  0.5 sin(2 pi) = -1.2e-16 keeps every
        # node of a field hanging from pi moving
        grid = RadialGrid(40.0, 2048)
        f0, metric = _compact_case(label, grid, 0.0)
        widths = []

        def source(psi):
            widths.append(psi.shape[-1])
            return metric.f(psi)

        evolve(f0, dataclasses.replace(metric, source=source), 5.0)
        evaluated, full = sum(widths), grid.n_points * len(widths)
        assert len(widths) == 513            # the first accel and 512 steps
        if engaged:
            assert evaluated < 0.5 * full
        else:
            assert evaluated == full

    def test_window_engages_for_a_node_major_stack(self):
        # 8 members whose widest support, member 4's, ends at r = 13.9,
        # node index 711 of 2048: step k runs on 713 + k nodes of 8
        # entries each.  By the second stop the absorbing rule has written
        # -0.0 to the last node's psi_dot, which must not count as loud
        grid = RadialGrid(40.0, 2048)
        members = [_member("sphere-0", grid, j, 8)[0] for j in range(8)]
        widths = []

        def source(psi):
            widths.append(psi.size)
            return SPHERE.f(psi)

        psi = np.stack([f.psi for f in members], axis=1)
        psi_dot = np.stack([f.psi_dot for f in members], axis=1)
        for _ in _advance(dataclasses.replace(SPHERE, source=source),
                          members[0], psi, psi_dot, 0.5 * grid.dr,
                          [256, 512], "absorbing"):
            pass
        assert len(widths) == 513            # the first accel and 512 steps
        assert widths[1] == 8 * 714 and widths[-1] == 8 * 1225
        assert sum(widths) < 0.5 * 8 * grid.n_points * len(widths)

    def test_negative_zero_tails_window_after_the_first_step(self):
        # psi = -0.3 shape and psi_t = -0.4 shape carry -0.0 outside the
        # support, which counts as loud; the first forward step turns it
        # into +0.0, so a single-stop run windows from its second step on.
        # One field ends its support at node 358 of 2048, the stack's
        # widest member, member 4, at node 711; odd members are negative
        grid = RadialGrid(40.0, 2048)
        dt = 0.5 * grid.dr
        stack = [_moving_perturbation(grid, 0.3 * (-1) ** j,
                                      12.4 - 1.2 * abs(j - 4), 1.5,
                                      0.4 * (-1) ** j) for j in range(8)]
        for members in ([_moving_perturbation(grid, -0.3, 5.0, 2.0, 0.0)],
                        [_moving_perturbation(grid, 0.3, 5.0, 2.0, -0.4)],
                        stack):
            widths = []

            def source(psi):
                widths.append(psi.size)
                return SPHERE.f(psi)

            psi = np.stack([f.psi for f in members], axis=1)
            psi_dot = np.stack([f.psi_dot for f in members], axis=1)
            next(_advance(dataclasses.replace(SPHERE, source=source),
                          members[0], psi, psi_dot, dt, [512]))
            for j, f in enumerate(members):
                one = f.psi.copy(), f.psi_dot.copy()
                next(_full_width(SPHERE, f, *one, dt, [512], "fixed"))
                _assert_same_bits(psi[:, j], one[0])
                _assert_same_bits(psi_dot[:, j], one[1])
            full = len(members) * grid.n_points
            assert len(widths) == 513         # the first accel and 512 steps
            assert widths[1] == full and widths[2] < full
            assert sum(widths) < 0.6 * full * len(widths)


def _old_densities(field, system):
    """The density pass as it was first written, one temporary per
    operation: the oracle of the in-place pass."""
    r, dr, psi = field.grid.r, field.grid.dr, field.psi
    grad = np.empty_like(psi)
    grad[0] = (psi[1] - field.ell0) / (2 * dr)
    grad[1:-1] = (psi[2:] - psi[:-2]) / (2 * dr)
    grad[-1] = (psi[-1] - psi[-2]) / dr
    weight = np.asarray(system.g(psi)) ** 2 if isinstance(system, Metric) \
        else system.slope ** 2 * psi ** 2
    ghost = lambda arr: np.concatenate([[0.0], arr])
    return (ghost(r), ghost(field.psi_dot ** 2 * r), ghost(grad ** 2 * r),
            ghost(weight / r))


def _old_prefix(x, y):
    return np.concatenate(
        [[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


class TestDensityPass:
    """The energy densities and their prefixes are computed in place, in
    one block, and on node ranges; every node keeps the bits of the
    pass that allocates a temporary per operation.  The linear flow runs
    at a root of slope 1.7, so its weight g'(l)^2 is no exact 1."""

    ROOT = Root(0.0, 1.7, math.inf)

    @staticmethod
    def _fields(n):
        # a sphere bump on a wave that reaches the last node, with signed
        # zeros in between, and three members of a node-major stack, read
        # as strided columns
        grid = RadialGrid(20.0, n)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.6, center=6.0,
                      width=2.5, velocity=-0.3)
        psi = f.psi + 0.01 * np.sin(grid.r)
        psi_dot = f.psi_dot + 0.02 * np.cos(grid.r)
        psi[n // 2:3 * n // 4:2], psi_dot[n // 2:3 * n // 4:3] = -0.0, -0.0
        yield RadialField(grid, psi, psi_dot, f.ell0, f.ell_inf)
        stack = np.stack([psi, 0.5 * psi, -psi], axis=1)
        dots = np.stack([psi_dot, -psi_dot, 0.25 * psi_dot], axis=1)
        for k in range(3):
            yield RadialField(grid, stack[:, k], dots[:, k], f.ell0,
                              f.ell_inf)

    @pytest.mark.parametrize("n", [1024, 2 ** 15])
    @pytest.mark.parametrize("system", [SPHERE, YANG_MILLS, ROOT],
                             ids=["sphere", "yang-mills", "root"])
    def test_full_pass_keeps_the_old_bits(self, n, system):
        for f in self._fields(n):
            assert f.psi.strides[0] in (8, 24)
            x, dens = _densities(f, system)
            old_x, *old = _old_densities(f, system)
            _assert_same_bits(x, old_x)
            reused = np.empty(len(x))
            for d, d_old in zip(dens, old):
                _assert_same_bits(d, d_old)
                p = _prefix(x, d)
                _assert_same_bits(p, _old_prefix(old_x, d_old))
                _assert_same_bits(_prefix(x, d, out=reused), p)

    def test_prefix_keeps_a_leading_negative_zero(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([-0.0, -0.0, 1.0, -5.0])
        _assert_same_bits(_prefix(x, y), _old_prefix(x, y))
        assert math.copysign(1.0, _prefix(x, y)[1]) == -1.0

    @pytest.mark.parametrize("n", [1024, 2 ** 15])
    @pytest.mark.parametrize("system", [SPHERE, ROOT],
                             ids=["sphere", "root"])
    def test_a_node_range_is_the_slice_of_the_full_pass(self, n, system):
        ranges = [(0, n), (0, 1), (0, 2), (0, 9), (1, 2), (1, 9), (5, 6),
                  (17, n // 2), (n // 3, n - 1), (n - 2, n), (n - 1, n)]
        for f in self._fields(n):
            full_x, full = _densities(f, system)
            for i0, i1 in ranges:
                x, dens = _densities(f, system, i0, i1)
                # the ghost leads only a range from the origin
                lo = 0 if i0 == 0 else i0 + 1
                _assert_same_bits(x, full_x[lo:i1 + 1])
                for d, d_full in zip(dens, full):
                    _assert_same_bits(d, d_full[lo:i1 + 1])
                # psi outside the nodes the range reads does not reach it
                k0, k1 = _density_reads(n, i0, i1)
                psi = np.full(n, np.nan)
                psi[k0:k1] = f.psi[k0:k1]
                _, blind = _densities(dataclasses.replace(f, psi=psi),
                                      system, i0, i1)
                _assert_same_bits(blind, dens)


class TestRichardson:
    @pytest.mark.parametrize("label", ["nonlinear", "linear"])
    def test_order_at_least_1_9(self, label):
        finals = []
        for n in (1024, 2048, 4096):
            grid = RadialGrid(20.0, n)
            if label == "nonlinear":
                f = make_bump(grid, SPHERE, 0.0, amplitude=0.3, center=5.0,
                              width=3.0, velocity=0.0)
                system = SPHERE
            else:
                f = make_perturbation(grid, amplitude=0.3, center=5.0,
                                      width=2.0)
                system = ROOT0
            traj = evolve(f, system, 2.0, record_every=10 ** 9)
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
                       width=2.0, velocity=0.0)
        f2 = make_bump(grid2, SPHERE, 0.0, amplitude=0.4, center=8.0,
                       width=4.0, velocity=0.0)
        np.testing.assert_array_equal(f1.psi, f2.psi)
        t1 = evolve(f1, SPHERE, 3.0, record_every=10 ** 9)
        t2 = evolve(f2, SPHERE, 6.0, record_every=10 ** 9)
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
                       width=5.0, velocity=0.0)
        psi2 = f1.psi + make_bump(grid, SPHERE, 0.0, amplitude=0.2,
                                  center=35.0, width=4.0, velocity=0.0).psi
        f2 = RadialField(grid, psi2, np.zeros_like(psi2), 0.0, 0.0, 0.0)
        t = 5.0
        out1 = evolve(f1, SPHERE, t, record_every=10 ** 9).snapshots[-1]
        out2 = evolve(f2, SPHERE, t, record_every=10 ** 9).snapshots[-1]
        # second bump support starts at 31; influence speed is
        # dr/dt = 2, so r < 31 - 2t is untouched
        mask = grid.r < 31.0 - 2.0 * t - 2 * grid.dr
        assert mask.sum() > 100
        np.testing.assert_array_equal(out1.psi[mask], out2.psi[mask])

    def test_linear_support_speed(self):
        grid = RadialGrid(60.0, 1200)
        f0 = make_perturbation(grid, amplitude=0.2, center=10.0, width=5.0)
        t_final = 20.0
        traj = evolve(f0, ROOT0, t_final, record_every=10 ** 9)
        final = traj.snapshots[-1]
        tol = 1e-8 * np.max(np.abs(f0.psi))
        busy = np.abs(final.psi) + np.abs(final.psi_dot) > tol
        edge = grid.r[np.flatnonzero(busy)[-1]]
        # dispersive precursors run slightly ahead of the light cone at
        # this threshold; the measured overshoot is ~4% of t
        assert edge <= 15.0 + t_final * 1.08 + 5 * grid.dr


def _c10_data():
    """The steep degree-1 data of acceptance criterion c10."""
    grid = RadialGrid(6.0, 4096)
    r = grid.r
    psi = 2.0 * np.arctan(r) + 5.0 * r * np.exp(-r ** 2)
    return RadialField(grid, psi, np.zeros_like(r), ell0=0.0,
                       ell_inf=np.pi, time=0.0)


@pytest.fixture(scope="module")
def blowup_traj():
    return evolve(_c10_data(), SPHERE, 5.0, record_every=16)


class TestBlowup:
    def test_min_bubble_energy(self):
        assert abs(min_bubble_energy(SPHERE, 0.0) - 4.0) < 1e-9
        assert abs(min_bubble_energy(YANG_MILLS, 1.0) - 8.0 / 3.0) < 1e-9
        assert min_bubble_energy(SPHERE, 0.3) == math.inf

    @pytest.mark.parametrize("series", [
        [(0.5, 0.2)],                               # one radius: no fit
        [(0.5, 0.2), (0.6, 0.2), (0.7, 0.2)],      # flat: no root ahead
    ], ids=["one-radius", "flat"])
    def test_fallback_t_plus_is_a_float(self, series):
        # with no usable fit, t_plus is the frame time plus the last radius
        grid = RadialGrid(6.0, 256)
        frame = make_bump(grid, SPHERE, 0.0, amplitude=0.3, center=3.0,
                          width=1.5, velocity=0.0)
        frame.time = 0.7
        _, x, dens = _concentration_radius(frame, SPHERE, math.inf)
        rec = _make_blowup_record(frame, x, dens, series)
        assert type(rec.t_plus) is float
        assert rec.t_plus == 0.7 + 0.2
        assert type(rec.concentration_radius) is float

    @pytest.mark.parametrize("record_every", [1, 4, 16])
    def test_concentration_radius_is_the_pointwise_density_peak(
            self, record_every):
        # oracle: the argmax of psi_t^2 + psi_r^2 + g(psi)^2 / r^2 formed
        # node by node at the detection frame, the last one stored
        traj = evolve(_c10_data(), SPHERE, 5.0, record_every=record_every)
        frame = traj.snapshots[-1]
        assert frame.time == traj.blowup.last_valid_time
        r = frame.grid.r
        dens = (frame.psi_dot ** 2 + frame.gradient() ** 2
                + np.sin(frame.psi) ** 2 / r ** 2)
        assert traj.blowup.concentration_radius == \
            float(r[int(np.argmax(dens))])

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

    def test_nan_truncates_at_the_first_stop(self, tmp_path):
        grid = RadialGrid(20.0, 256)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0,
                       width=2.0, velocity=0.0)
        f0.psi[100] = np.nan
        traj = evolve(f0, SPHERE, 2.0, record_every=4)
        b = traj.blowup
        assert b.reason == "nan" and math.isnan(b.concentration_radius)
        assert len(traj.snapshots) == 1
        assert (b.t_plus, b.last_valid_time) == (4 * traj.dt, 0.0)
        # the store keeps the record
        save_trajectory(traj, str(tmp_path / "run"))
        stored = load_trajectory(str(tmp_path / "run"))
        stored.snapshots.close()
        back = stored.blowup
        assert (back.t_plus, back.last_valid_time, back.reason,
                back.radius_series) == (b.t_plus, 0.0, "nan", [])
        assert math.isnan(back.concentration_radius)

    def test_mild_data_does_not_trigger(self):
        grid = RadialGrid(40.0, 1024)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=10.0,
                       width=5.0, velocity=0.0)
        traj = evolve(f0, SPHERE, 5.0, record_every=64)
        assert traj.blowup is None


def _random_fields(grid, times):
    rng = np.random.default_rng(7)
    return [RadialField(grid, rng.standard_normal(grid.n_points),
                        rng.standard_normal(grid.n_points), ell0=0.25,
                        ell_inf=-1.75, time=t) for t in times]


class TestPersistence:
    def test_snapshot_round_trip_bitexact(self, tmp_path):
        grid = RadialGrid(7.0, 1500)
        times = [0.0, 3.0625]
        fields = _random_fields(grid, times)
        path = tmp_path / "frames.npy"
        with write_snapshot(fields, path) as frames:
            frames.commit()
        # the streamed file is np.save of the stacked frames, byte for byte
        buf = io.BytesIO()
        np.save(buf, np.stack([(f.psi, f.psi_dot) for f in fields]))
        assert path.read_bytes() == buf.getvalue()
        with read_snapshot(path, grid, 0.25, -1.75, times) as back:
            assert len(back) == 2
            for f, g in zip(fields, back):
                np.testing.assert_array_equal(g.psi, f.psi)
                np.testing.assert_array_equal(g.psi_dot, f.psi_dot)
                assert (g.grid, g.ell0, g.ell_inf, g.time) == \
                    (grid, 0.25, -1.75, f.time)

    def test_snapshot_header_validation(self, tmp_path):
        # the .npy header must give float64 frames of the expected shape
        grid = RadialGrid(10.0, 64)
        stack = np.stack([(f.psi, f.psi_dot)
                          for f in _random_fields(grid, [0.0, 1.0])])
        path = tmp_path / "frames.npy"
        for bad, shape in [(stack.astype(np.float32), "(2, 2, 64)"),
                           (stack[:1], "(1, 2, 64)"),
                           (stack[:, :, 1:], "(2, 2, 63)")]:
            np.save(path, bad)
            with pytest.raises(EvolutionError, match=re.escape(
                    f"{path}: holds {bad.dtype} {shape}, manifest.cfg says "
                    f"float64 (2, 2, 64)")):
                read_snapshot(path, grid, 0.0, 0.0, [0.0, 1.0])
        path.write_text("# not frames\n1 2 3\n")
        with pytest.raises(EvolutionError, match="unreadable"):
            read_snapshot(path, grid, 0.0, 0.0, [0.0, 1.0])


    def test_header_length_does_not_depend_on_the_frame_count(self):
        # a streamed store leaves room for the header of 0 frames before
        # the count is known, so the header must keep its length
        counts = [0] + [c for d in range(1, 14)
                        for c in (10 ** (d - 1), 10 ** d - 1)]
        assert len({len(_header(c, 8192)) for c in counts}) == 1

    def test_the_header_is_written_at_commit(self, tmp_path):
        grid = RadialGrid(7.0, 300)
        fields = _random_fields(grid, [0.0, 0.5, 1.0])
        path = tmp_path / "frames.npy"
        with write_snapshot(fields[:1], path) as frames:
            for f in fields[1:]:
                frames.append(f)
            # the frames read back through the file being written
            np.testing.assert_array_equal(frames[-1].psi, fields[-1].psi)
            np.testing.assert_array_equal(frames[0].psi_dot,
                                          fields[0].psi_dot)
            assert not path.exists()
            frames.commit()
            assert frames[1].time == 0.5
        buf = io.BytesIO()
        np.save(buf, np.stack([(f.psi, f.psi_dot) for f in fields]))
        assert path.read_bytes() == buf.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.npy"]

    def test_an_uncommitted_store_leaves_no_file(self, tmp_path):
        grid = RadialGrid(7.0, 300)
        path = tmp_path / "frames.npy"
        with pytest.raises(EvolutionError, match="a frame on .* after 2 on"):
            with write_snapshot(_random_fields(grid, [0.0, 1.0]),
                                path) as frames:
                frames.append(_random_fields(RadialGrid(7.0, 301), [2.0])[0])
        assert list(tmp_path.iterdir()) == []

    def test_a_header_that_outgrows_its_room_is_refused(self, tmp_path,
                                                        monkeypatch):
        header = evolution._header
        monkeypatch.setattr(evolution, "_header", lambda n_frames, n_points:
                            header(n_frames, n_points) + b" " * 64 * n_frames)
        path = tmp_path / "frames.npy"
        with pytest.raises(EvolutionError, match=re.escape(
                f"{path}: the header of 2 frames takes ")):
            with write_snapshot(_random_fields(RadialGrid(7.0, 300),
                                               [0.0, 1.0]), path) as frames:
                frames.commit()
        assert list(tmp_path.iterdir()) == []

    def test_frames_are_read_one_at_a_time(self, tmp_path):
        grid = RadialGrid(7.0, 300)
        times = [0.0, 1.0, 2.0, 3.0]
        fields = _random_fields(grid, times)
        path = tmp_path / "frames.npy"
        with write_snapshot(fields, path) as frames:
            frames.commit()
        back = read_snapshot(path, grid, 0.25, -1.75, times)
        assert back.times == times
        assert [g.time for g in reversed(back)] == times[::-1]
        for k in (-4, -1, 0, 3, np.int64(2)):
            np.testing.assert_array_equal(back[k].psi, fields[k].psi)
        for k in (4, -5):
            with pytest.raises(IndexError):
                back[k]
        # each frame has arrays of its own
        assert back[0].psi.base is not back[1].psi.base
        # the times come from the manifest's list: no frame is read
        back.close()
        assert Trajectory(back, 0.1, "s", 0.5, SPHERE).times.tolist() == times


class TestAbsorbingBoundary:
    def test_outgoing_wave_is_mostly_absorbed(self):
        grid = RadialGrid(30.0, 1024)
        f0 = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        n0 = h_norms(f0, ROOT_PI).h_ell_x_l2
        results = {}
        for bc in ("fixed", "absorbing"):
            traj = evolve(f0, ROOT_PI, 45.0, record_every=10 ** 9,
                          boundary=bc)
            results[bc] = h_norms(traj.snapshots[-1], ROOT_PI).h_ell_x_l2
        assert results["fixed"] == pytest.approx(n0, rel=1e-3)
        assert results["absorbing"] < 0.2 * results["fixed"]
