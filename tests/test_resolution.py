"""Resolution tests: extraction thresholds, bubble decomposition, residual
norms, the H extension lemma, scattering-state and regular-part
constructions, and the energy bookkeeping that ties them together.

Planted fields with known scales serve as oracles; reference numbers are
frozen from refined-grid runs and every scenario is deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavemap.geometry import (SPHERE, YANG_MILLS, Root, find_vanishing_set,
                              make_metric)
from wavemap.statics import build_harmonic_map, eval_Q, rescale_Q
from wavemap.evolution import (RadialGrid, RadialField, Trajectory,
                               BlowupRecord, evolve)
from wavemap.data import make_bump, make_perturbation, make_chain, bump_profile
from wavemap.diagnostics import (DiagnosticsError, energy, h_norms,
                                 support_radius, select_times, window_misfit,
                                 window_nodes)
from wavemap import resolution
from wavemap.resolution import (ResolutionError, compute_delta0,
                                extract_bubbles, residual_norms, extend_H,
                                build_scattering_state, extract_regular_part,
                                SEPARATION_FLOOR, MISFIT_FRACTION,
                                SETTLE_GRID)
from wavemap.rng import XorShift64Star
from wavemap.cli import load_trajectory, save_trajectory

VSET = find_vanishing_set(SPHERE)
ROOT0 = VSET.root_at(0.0)
ROOT_PI = VSET.root_at(np.pi)
# sin with a kink off the roots, at rho = 1
KINK = make_metric("kink", "sin(rho) * (1 + 0.5 * pow(pow(rho - 1, 2), 0.5))",
                   "cos(rho) * (1 + 0.5 * pow(pow(rho - 1, 2), 0.5))"
                   " + 0.5 * sin(rho) * (rho - 1) / pow(pow(rho - 1, 2), 0.5)",
                   (-7.0, 7.0))


# ---------------------------------------------------------------------------
# shared scenarios

@pytest.fixture(scope="module")
def planted_report():
    # one bubble at scale 1e-2, hanging 0 -> pi, settled at the outer limit
    grid = RadialGrid(5.0, 2 ** 16)
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    field = rescale_Q(qmap, 1e-2, grid)
    return extract_bubbles(field, SPHERE)


@pytest.fixture(scope="module")
def chain_report():
    # two well-separated scales descending from ell = 0
    grid = RadialGrid(2.0, 2 ** 17)
    scales = [1e-1, 1e-4]
    field = make_chain(grid, SPHERE, 0.0, [(-1, lam) for lam in scales])
    return extract_bubbles(field, SPHERE), scales


@pytest.fixture(scope="module")
def linear_scatter_traj():
    grid = RadialGrid(200.0, 2048)
    seed = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
    return evolve(seed, ROOT0, 90.0, record_every=32)


@pytest.fixture(scope="module")
def nonlinear_scatter_traj():
    grid = RadialGrid(200.0, 2048)
    seed = make_bump(grid, SPHERE, 0.0, amplitude=0.05, center=15.0,
                     width=5.0, velocity=0.0)
    return evolve(seed, SPHERE, 90.0, record_every=32)


@pytest.fixture(scope="module")
def blowup_traj():
    # steep degree-1 data on the sphere concentrates in finite time
    grid = RadialGrid(6.0, 4096)
    r = grid.r
    psi = 2.0 * np.arctan(r) + 5.0 * r * np.exp(-r ** 2)
    f = RadialField(grid, psi, np.zeros_like(r), ell0=0.0, ell_inf=np.pi,
                    time=0.0)
    return evolve(f, SPHERE, 5.0, record_every=16)


def _surrogate_blowup_traj(values=None, bump_amp=0.3):
    """Constructed frames shrinking like (T - t)^2 toward T = 1.

    With values=None each frame is a concentrating bubble plus a fixed
    exterior bump; passing a constant array makes the cone trace exact.
    """
    grid = RadialGrid(10.0, 1024)
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    frames = []
    for t in np.linspace(0.0, 0.96, 25):
        if values is None:
            lam = (1.0 - t) ** 2
            psi = (eval_Q(qmap, grid.r / lam)
                   + bump_profile(grid.r, bump_amp, 3.0, 1.5))
        else:
            psi = np.full(grid.n_points, values)
        frames.append(RadialField(grid, psi, np.zeros(grid.n_points),
                                  ell0=0.0 if values is None else values,
                                  ell_inf=np.pi if values is None else values,
                                  time=float(t)))
    blow = BlowupRecord(t_plus=1.0, concentration_radius=0.01,
                        last_valid_time=0.96, reason="energy-concentration",
                        radius_series=[])
    return Trajectory(frames, 0.002, "synthetic", 0.5, SPHERE, blow)


# ---------------------------------------------------------------------------
# thresholds

class TestThresholds:
    def test_sphere_values(self):
        d0, e0 = compute_delta0(SPHERE)
        assert d0 == pytest.approx(0.5, rel=1e-12)
        assert e0 == pytest.approx(4.0 - math.sqrt(15.0), rel=1e-9)

    def test_yang_mills_values(self):
        d0, e0 = compute_delta0(YANG_MILLS)
        assert d0 == pytest.approx(0.5, rel=1e-12)
        assert e0 == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-9)

    @pytest.mark.parametrize("metric", [SPHERE, YANG_MILLS],
                             ids=["sphere", "yang-mills"])
    def test_delta0_is_exact(self, metric):
        # the peak of |g| is 1 at g' = 0 for both; half of it is exact
        assert compute_delta0(metric)[0] == 0.5

    def test_sphere_eps0_closed_form(self):
        # sin(2 arctan r) = 2r / (1 + r^2) = 1/4 at r = 4 - sqrt(15)
        e0 = compute_delta0(SPHERE)[1]
        assert abs(e0 - (4.0 - math.sqrt(15.0))) < 1e-12

    def test_single_root_has_no_pair(self):
        line = make_metric("line", "rho", "1", (-5.0, 5.0))
        with pytest.raises(ResolutionError, match="adjacent-root pair"):
            compute_delta0(line)

    def test_yang_mills_eps0_closed_form(self):
        # 4 r^2 / (1 + r^2)^2 = 1/4 at r = 2 - sqrt(3)
        e0 = compute_delta0(YANG_MILLS)[1]
        assert abs(e0 - (2.0 - math.sqrt(3.0))) < 1e-12

    @pytest.mark.parametrize("metric, ell, m, closed", [
        (SPHERE, 0.0, math.pi, (2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0))),
        (SPHERE, math.pi, 0.0, (2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0))),
        (YANG_MILLS, -1.0, 1.0, (math.sqrt(2.0) - 1.0, math.sqrt(2.0) + 1.0)),
        (YANG_MILLS, 1.0, -1.0, (math.sqrt(2.0) - 1.0, math.sqrt(2.0) + 1.0))],
        ids=["sphere-up", "sphere-down", "yang-mills-up", "yang-mills-down"])
    def test_crossing_radii_at_delta0_closed_forms(self, metric, ell, m,
                                                   closed):
        # |g(Q)| = 1/2 where 2r / (1 + r^2) = 1/2 on the sphere and
        # 2r / (1 + r^2) = 1/sqrt(2) for Yang-Mills
        vset = find_vanishing_set(metric)
        rho = resolution._crossing_radii(metric, vset.root_at(ell).value,
                                         vset.root_at(m).value, 0.5)
        assert abs(rho[0] - closed[0]) < 1e-12
        assert abs(rho[1] - closed[1]) < 1e-12

    @pytest.mark.parametrize("metric", [SPHERE, YANG_MILLS, KINK],
                             ids=["sphere", "yang-mills", "kink"])
    def test_crossing_radii_sit_on_the_connector_level(self, metric):
        # the quadrature's radii against the built connector, in both
        # directions, at both thresholds; the kink sits between roots
        delta0 = compute_delta0(metric)[0]
        roots = find_vanishing_set(metric).roots
        for lo, hi in zip(roots[:-1], roots[1:]):
            for ell, direction in ((lo, +1), (hi, -1)):
                qmap = build_harmonic_map(metric, float(ell), direction)
                for level in (delta0, 0.5 * delta0):
                    for rho in resolution._crossing_radii(
                            metric, qmap.ell, qmap.m, level):
                        g_q = float(metric.g(eval_Q(qmap, rho)))
                        assert abs(abs(g_q) - level) < 1e-9


class TestNoConnectorBuilt:
    """The thresholds, and the extraction of a field with no transition,
    need no connector: `build_harmonic_map`, whose cache counts every
    call, is not called."""

    @pytest.fixture
    def calls(self):
        compute_delta0.cache_clear()
        resolution._crossing_radii.cache_clear()
        before = build_harmonic_map.cache_info()
        return lambda: (build_harmonic_map.cache_info().hits - before.hits,
                        build_harmonic_map.cache_info().misses
                        - before.misses)

    @pytest.mark.parametrize("metric", [SPHERE, YANG_MILLS],
                             ids=["sphere", "yang-mills"])
    def test_thresholds(self, calls, metric):
        compute_delta0(metric)
        assert calls() == (0, 0)

    def test_extraction_of_a_field_with_no_bubble(self, calls):
        grid = RadialGrid(10.0, 1024)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0,
                      width=2.0, velocity=0.0)
        rep = extract_bubbles(f, SPHERE)
        assert rep.J == 0 and rep.notes == []
        assert calls() == (0, 0)


# ---------------------------------------------------------------------------
# bubble extraction

class TestExtraction:
    def test_constant_root_field_is_empty(self):
        grid = RadialGrid(10.0, 1024)
        psi = np.full(grid.n_points, np.pi)
        f = RadialField(grid, psi, np.zeros_like(psi), np.pi, np.pi, 0.0)
        rep = extract_bubbles(f, SPHERE)
        assert rep.J == 0
        assert rep.scales == []
        assert rep.ledger.e_total < 1e-20

    def test_planted_single_bubble(self, planted_report):
        rep = planted_report
        assert rep.J == 1
        assert rep.scales[0] == pytest.approx(1e-2, rel=1e-6)
        assert rep.bubbles[0].ell == pytest.approx(0.0, abs=1e-12)
        assert rep.bubbles[0].m == pytest.approx(np.pi, rel=1e-12)
        assert rep.outer_root == pytest.approx(np.pi, rel=1e-12)
        assert rep.ledger.e_total == pytest.approx(4.0, rel=1e-4)
        assert rep.defect_fraction < 1e-4
        assert rep.notes == []

    def test_planted_residual_is_tiny(self, planted_report):
        rn = residual_norms(planted_report)
        assert rn.h_x_l2 < 1e-6
        assert rn.sup < 1e-6
        assert rn.window_norms[0] < 1e-6

    def test_two_bubble_chain(self, chain_report):
        rep, true_scales = chain_report
        assert rep.J == 2
        assert rep.scales[0] == pytest.approx(1e-1, rel=5e-3)
        assert rep.scales[1] == pytest.approx(1e-4, rel=1e-3)
        # chaining: endpoints meet at consecutive roots, outermost first
        pairs = [(b.ell, b.m) for b in rep.bubbles]
        assert pairs[0][0] == pytest.approx(-np.pi) and \
            pairs[0][1] == pytest.approx(0.0, abs=1e-12)
        assert pairs[1][0] == pytest.approx(-2 * np.pi) and \
            pairs[1][1] == pytest.approx(-np.pi)
        assert rep.outer_root == pytest.approx(0.0, abs=1e-12)
        assert rep.defect_fraction < 5e-3
        assert rep.residual.ell_inf == pytest.approx(-2 * np.pi)

    def test_extraction_is_idempotent(self, chain_report):
        rep, _ = chain_report
        again = extract_bubbles(rep.residual, SPHERE)
        assert again.J == 0
        assert again.scales == []

    def test_rescaling_equivariance(self, chain_report):
        rep, _ = chain_report
        grid = RadialGrid(2.0, 2 ** 17)
        field = make_chain(grid, SPHERE, 0.0, [(-1, 1e-1), (-1, 1e-4)])
        doubled = RadialField(RadialGrid(4.0, 2 ** 17), field.psi.copy(),
                              np.zeros_like(field.psi), field.ell0,
                              field.ell_inf, 0.0)
        rep2 = extract_bubbles(doubled, SPHERE)
        assert rep2.J == rep.J == 2
        for a, b in zip(rep2.scales, rep.scales):
            assert a / b == pytest.approx(2.0, abs=1e-8)

    def test_close_scales_stop_with_note(self):
        # ratio 0.1 leaves the inner transition inside the outer fit
        # window; extraction must refuse rather than subtract a bad fit
        grid = RadialGrid(2.0, 2 ** 15)
        field = make_chain(grid, SPHERE, 0.0, [(-1, 1e-1), (-1, 1e-2)])
        rep = extract_bubbles(field, SPHERE)
        assert rep.J == 0
        assert any("unresolved structure" in n for n in rep.notes)
        rn = residual_norms(rep)
        assert rn.h_x_l2 > 1.0

    @pytest.mark.parametrize("inner, note", [
        (0.06, "under-resolved scale 0.0595 < 4 dr = 0.07812"),
        (0.01, "under-resolved scale near 0.005233: fewer than 8 nodes in "
               "the fit window"),
    ])
    def test_scale_below_the_grid_stops_with_note(self, inner, note):
        # dr = 0.0195: the outer bubble is fitted (the inner one's tail
        # bends its scale by up to 6%), the inner one is refused
        grid = RadialGrid(20.0, 1024)
        field = make_chain(grid, SPHERE, 0.0, [(1, 2.0), (1, inner)])
        rep = extract_bubbles(field, SPHERE)
        assert rep.J == 1 and rep.scales[0] == pytest.approx(2.0, rel=0.1)
        assert rep.notes == [note]

    def test_transition_past_the_last_root_stops_with_note(self):
        # Yang-Mills has roots -1 and 1 only: a rise above 1 has no
        # connector to an adjacent root
        grid = RadialGrid(20.0, 1024)
        psi = 1.0 + 0.9 * np.exp(-(grid.r - 10.0) ** 2)
        f = RadialField(grid, psi, np.zeros_like(psi), 1.0, 1.0, 0.0)
        rep = extract_bubbles(f, YANG_MILLS)
        assert rep.J == 0
        assert rep.notes == ["unresolved structure at r = 11.1719: no "
                             "adjacent root on the approach side"]

    def test_non_harmonic_profile_rejected(self):
        grid = RadialGrid(10.0, 4096)
        psi = np.pi * np.tanh(2.0 * grid.r)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, np.pi, 0.0)
        rep = extract_bubbles(f, SPHERE)
        assert rep.J == 0
        assert any("unresolved structure" in n for n in rep.notes)
        assert any("misfit" in n for n in rep.notes)

    def test_unsettled_outer_limit_errors(self):
        grid = RadialGrid(10.0, 1024)
        psi = 0.5 * np.pi * grid.r / grid.r_max
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.5 * np.pi, 0.0)
        with pytest.raises(ResolutionError, match="delta0"):
            extract_bubbles(f, SPHERE)

    def test_non_root_origin_errors(self):
        grid = RadialGrid(10.0, 1024)
        psi = np.full(grid.n_points, 0.3)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.3, 0.3, 0.0)
        with pytest.raises(ResolutionError, match="not a root"):
            extract_bubbles(f, SPHERE)

    def test_constants_are_pinned(self):
        assert SEPARATION_FLOOR == 0.2
        assert MISFIT_FRACTION == 0.10


def _gauss_newton_fit(qmap, r, psi, u0):
    """Plain Gauss-Newton on every node of the window, with the fit's
    stop: the first step below 1e-12 restarts it on the nearest multiple
    of SETTLE_GRID, the next one ends it.  The oracle of the secant fit."""
    u_lo, u_hi = u0 - math.log(2.0), u0 + math.log(2.0)
    u, restarted = u0, False
    for _ in range(100):
        q = eval_Q(qmap, r * math.exp(-u))
        jac = qmap.sign * np.asarray(qmap.metric.g(q), dtype=float)
        u_next = min(max(u - float(jac @ (psi - q)) / float(jac @ jac),
                         u_lo), u_hi)
        if abs(u_next - u) < 1e-12:
            if restarted:
                return u_next
            restarted = True
            u_next = min(max(round(u_next / SETTLE_GRID) * SETTLE_GRID,
                             u_lo), u_hi)
        u = u_next
    return u


WINDOW_CHAINS = {
    # outer scales whose fit windows hold thousands of nodes, inner ones
    # whose windows hold a few hundred
    "sphere-one": (SPHERE, 0.0, [(1, 0.15)]),
    "sphere-two": (SPHERE, 0.0, [(-1, 0.3), (-1, 0.3 * 0.006)]),
    "yang-mills-one": (YANG_MILLS, 1.0, [(-1, 0.2)]),
    "yang-mills-two": (YANG_MILLS, 1.0, [(-1, 0.4), (1, 0.4 * 0.008)]),
}


@pytest.fixture(scope="module", params=sorted(WINDOW_CHAINS))
def window_chain(request):
    metric, ell, steps = WINDOW_CHAINS[request.param]
    field = make_chain(RadialGrid(4.0, 2 ** 15), metric, ell, steps)
    return field, metric, len(steps)


class TestWindowedExtraction:
    """Each extraction step reads only the nodes its answer depends on:
    the scan stops at scan_hi, and the scale fit and the misfit read the
    fit window, the fit all of it on every step."""

    def test_scan_reads_only_nodes_below_scan_hi(self, window_chain):
        field, metric, planted = window_chain
        calls = []

        def g(psi):
            calls.append(psi)
            return metric.g(psi)

        rep = extract_bubbles(field, dataclasses.replace(metric, g=g))
        assert rep.J == planted
        # the scan evaluates g on prefixes of the working copy, which
        # becomes the residual; the ledger's energy of the residual reads
        # all of it last
        *scans, ledger = [len(x) for x in calls if isinstance(x, np.ndarray)
                          and x.base is rep.residual.psi]
        r = field.grid.r
        assert len(scans) == rep.J + 1 and scans[0] == ledger == len(r)
        scan_hi = field.grid.r_max
        for qmap, lam, width in zip(rep.bubbles, rep.scales, scans[1:]):
            rho_lo = resolution._crossing_radii(
                qmap.metric, qmap.ell, qmap.m, 0.5 * rep.delta0)[0]
            scan_hi = min(scan_hi, 0.9 * rho_lo * lam)
            assert width == np.searchsorted(r, scan_hi, "right") < len(r)
            assert r[width - 1] <= scan_hi

    def test_windowed_misfit_matches_the_full_grid_norm(self, window_chain,
                                                        monkeypatch):
        field, metric, planted = window_chain
        windows = []

        def recording(grid, psi, q, r1, r2):
            windows.append((r1, r2))
            return window_misfit(grid, psi, q, r1, r2)

        monkeypatch.setattr(resolution, "window_misfit", recording)
        rep = extract_bubbles(field, metric)
        assert rep.J == len(windows) == planted
        # the full-grid misfit of each bubble, against the field with the
        # bubbles outside it subtracted the way extraction subtracts them
        r, work = field.grid.r, field.psi.copy()
        for qmap, lam, (r1, r2), misfit_sq in zip(
                rep.bubbles, rep.scales, windows, rep.misfits):
            q_lam = eval_Q(qmap, r / lam)
            diff = RadialField(field.grid, work - q_lam, np.zeros_like(r),
                               0.0, 0.0)
            full = h_norms(diff, ROOT0, r1, r2).h ** 2
            assert misfit_sq == pytest.approx(full, rel=1e-9, abs=0.0)
            q_lam -= qmap.ell
            work -= q_lam
        np.testing.assert_array_equal(work, rep.residual.psi)

    def test_every_fit_step_evaluates_the_whole_window(self, window_chain,
                                                       monkeypatch):
        field, metric, planted = window_chain
        fit, width, sizes = resolution._fit_log_scale, [None], []

        def fitting(qmap, r, psi, u0):
            width[0] = len(r)
            try:
                return fit(qmap, r, psi, u0)
            finally:
                width[0] = None

        def evaluating(qmap, x):
            if width[0] is not None:
                sizes.append((width[0], len(x)))
            return eval_Q(qmap, x)

        monkeypatch.setattr(resolution, "_fit_log_scale", fitting)
        monkeypatch.setattr(resolution, "eval_Q", evaluating)
        assert extract_bubbles(field, metric).J == planted
        # the outer window holds thousands of nodes
        assert sizes[0][0] > 2048
        assert all(w == n for w, n in sizes)

    def test_fit_matches_the_gauss_newton_oracle(self, window_chain,
                                                 monkeypatch):
        field, metric, planted = window_chain
        rep = extract_bubbles(field, metric)
        monkeypatch.setattr(resolution, "_fit_log_scale", _gauss_newton_fit)
        oracle = extract_bubbles(field, metric)
        assert rep.J == oracle.J == planted
        assert rep.scales == oracle.scales
        assert rep.residual.psi.tobytes() == oracle.residual.psi.tobytes()

    def test_small_windows_keep_the_single_stage_bits(self, monkeypatch):
        # a coarse grid, 2048 nodes over [0, 20]: the inner fit window
        # holds under a hundred nodes
        field = make_chain(RadialGrid(20.0, 2048), SPHERE, 0.0,
                           [(-1, 4.0), (-1, 0.08)])
        rep = extract_bubbles(field, SPHERE)
        monkeypatch.setattr(resolution, "_fit_log_scale", _gauss_newton_fit)
        oracle = extract_bubbles(field, SPHERE)
        assert rep.J == 2 and rep.scales == oracle.scales
        np.testing.assert_array_equal(rep.residual.psi, oracle.residual.psi)


class TestWorkingSet:
    """An extraction holds only the full-grid arrays it still reads.  Its
    peak is the ledger's energy of the residual: the residual's two
    arrays, the last fitted bubble, the (3, n + 1) density block, its
    prefix and g(psi), eight arrays of 8 n bytes."""

    @pytest.mark.parametrize("scales", [[0.45, 0.003], [0.3]],
                             ids=["two-bubble", "one-bubble"])
    def test_peak_is_eight_full_grid_arrays(self, scales, traced_peak):
        grid = RadialGrid(4.0, 2 ** 15)
        field = make_chain(grid, SPHERE, 0.0, [(-1, lam) for lam in scales])
        # the warm-up builds the connectors and the grid's radii
        assert extract_bubbles(field, SPHERE).J == len(scales)
        peak, rep = traced_peak(grid.n_points,
                                lambda: extract_bubbles(field, SPHERE))
        assert rep.J == len(scales)
        assert peak <= 8.1


class TestScatteringWorkingSet:
    """The scattering stage holds no spent frame: t*'s frame goes once the
    defect is measured, and each matched frame is read inside its match,
    so a linear run holds the data, the state it steps from and its
    kernel's arrays alone."""

    def test_peak_on_a_stored_global_run(self, tmp_path, traced_peak):
        # the benchmark's global-8k seed-7 bump on 2048 nodes: 91 frames,
        # t* = 69.53, one frame matched forward of it and four backward;
        # a stage that held its spent frames peaked at 19.6 arrays of n,
        # this one at 13.4-13.7, as the interpreter's own objects vary
        grid = RadialGrid(100.0, 2048)
        f0 = make_bump(grid, SPHERE, 0.0, 0.06723497683673278,
                       8.505304423271346, 3.54996954145678, 0.0)
        save_trajectory(evolve(f0, SPHERE, 70.0, record_every=32),
                        str(tmp_path))
        traj = load_trajectory(str(tmp_path))
        try:
            # the warm-up caches the frame times and the grid's radii
            first = build_scattering_state(traj)
            peak, state = traced_peak(grid.n_points,
                                      lambda: build_scattering_state(traj))
        finally:
            traj.snapshots.close()
        assert state.match_errors == first.match_errors
        assert len(state.match_times) == 6
        assert peak <= 14.0


SPHERE_UP = (SPHERE, 0.0, 4.0 - math.sqrt(15.0),
             lambda x: 2.0 * np.arctan(x))
YANG_MILLS_UP = (YANG_MILLS, -1.0, 2.0 - math.sqrt(3.0),
                 lambda x: (x * x - 1.0) / (x * x + 1.0))


class TestFitStop:
    """The fit returns one double whatever its start: near the fixed point
    rounding maps neighbouring doubles onto each other, and a stop that
    returned wherever the path ended moved the last bit (the windows hold
    1575 to 21918 nodes; 0.1363 is sweep seed 1, chain 34)."""

    @pytest.mark.parametrize("connector, lam", [
        *((SPHERE_UP, lam) for lam in (0.27469911741053926,
                                       0.22160007946468377,
                                       0.01973981683858466,
                                       0.13632701812832096)),
        (YANG_MILLS_UP, 0.2)],
        ids=["sphere-0.2747", "sphere-0.2216", "sphere-0.0197",
             "sphere-0.1363", "yang-mills-0.2"])
    def test_planted_scale_is_independent_of_the_start(self, connector,
                                                       lam):
        # the closed-form connector from ell at scale lam, fit on the
        # window extraction would give it: [0.8 eps0 lam, 1.25 lam / eps0]
        metric, ell, eps0, profile = connector
        r = RadialGrid(4.0, 2 ** 15).r
        qmap = build_harmonic_map(metric, ell, +1)
        psi = profile(r / lam)
        j0, j1 = window_nodes(r, 0.8 * lam * eps0, 1.25 * lam / eps0)
        fits = {resolution._fit_log_scale(qmap, r[j0:j1], psi[j0:j1],
                                          math.log(lam) + d)
                for d in np.linspace(-0.5, 0.5, 21)}
        assert len(fits) == 1
        assert math.exp(fits.pop()) == pytest.approx(lam, rel=1e-9)


class TestResidualNorms:
    def test_radiation_on_top_of_bubble(self):
        # bubble at 1e-2 plus a bump at unit scale: the fit must ignore
        # the radiation and the residual must reproduce it exactly
        grid = RadialGrid(5.0, 2 ** 16)
        qmap = build_harmonic_map(SPHERE, 0.0, +1)
        base = rescale_Q(qmap, 1e-2, grid)
        bump = 0.05 * bump_profile(grid.r, 1.0, 2.5, 1.0)
        f = RadialField(grid, base.psi + bump, np.zeros_like(bump),
                        0.0, np.pi, 0.0)
        rep = extract_bubbles(f, SPHERE)
        assert rep.J == 1
        assert rep.scales[0] == pytest.approx(1e-2, rel=1e-6)
        rn = residual_norms(rep)
        bump_field = RadialField(grid, bump, np.zeros_like(bump),
                                 0.0, 0.0, 0.0)
        oracle = h_norms(bump_field, ROOT0).h_x_l2
        assert rn.h_x_l2 == pytest.approx(oracle, rel=1e-6)
        assert rn.sup == pytest.approx(0.05, abs=1e-6)
        # the bubble-scale window [eps0 lam, lam / eps0] misses the bump
        assert rn.window_norms[0] < 1e-6


# ---------------------------------------------------------------------------
# extension lemma

class TestExtension:
    def test_constant_closed_form(self):
        # constant c on [1, 2]: both ramps contribute in closed form and
        # the whole extension has H norm sqrt(6 ln 2) c
        grid = RadialGrid(10.0, 8192)
        c = 0.7
        f = RadialField(grid, np.full(grid.n_points, c),
                        np.zeros(grid.n_points), 0.0, 0.0, 0.0)
        rep = extend_H(f, 1.0, 2.0)
        assert rep.h_extension == pytest.approx(
            math.sqrt(6.0 * math.log(2.0)) * c, rel=1e-3)
        assert rep.h_interior == pytest.approx(
            c * math.sqrt(math.log(2.0)), rel=1e-3)
        assert rep.sup_interior == pytest.approx(c, rel=1e-12)
        assert rep.bound == rep.h_interior + 3.0 * rep.sup_interior
        assert rep.slack > 0.0

    def test_ramp_constants_against_quadrature(self):
        # closed-form H contributions of the affine extension ramps, for a
        # unit boundary value: gradient term on either ramp, zeroth-order
        # terms on [r1/2, r1] and [r2, 2r2]; their totals stay below the
        # 9 sup^2 of the proof bound (3 sup), which is what makes the
        # extension inequality safe
        ramp_gradient = 1.5
        ramp_zeroth_inner = math.log(2.0) - 0.5
        ramp_zeroth_outer = 4.0 * math.log(2.0) - 2.5
        # inner ramp u = 2x - 1 on [1/2, 1], outer ramp u = 2 - x on [1, 2]
        grad_in = quad(lambda x: 4.0 * x, 0.5, 1.0)[0]
        grad_out = quad(lambda x: x, 1.0, 2.0)[0]
        zer_in = quad(lambda x: (2.0 * x - 1.0) ** 2 / x, 0.5, 1.0)[0]
        zer_out = quad(lambda x: (2.0 - x) ** 2 / x, 1.0, 2.0)[0]
        assert abs(grad_in - ramp_gradient) < 1e-10
        assert abs(grad_out - ramp_gradient) < 1e-10
        assert abs(zer_in - ramp_zeroth_inner) < 1e-10
        assert abs(zer_out - ramp_zeroth_outer) < 1e-10
        # ramps alone cost 5 ln 2 sup^2, well under the 9 sup^2 budget
        # that the 3 sup term of the bound allows
        total = 2.0 * ramp_gradient + zer_in + zer_out
        assert total == pytest.approx(5.0 * math.log(2.0), rel=1e-10)
        assert total < 9.0

    def test_bound_holds_on_seeded_sweep(self):
        rng = XorShift64Star(2026)
        grid = RadialGrid(20.0, 2048)
        r = grid.r
        worst = math.inf
        for _ in range(1000):
            r1 = 0.4 + 1.2 * rng.uniform()
            r2 = r1 * (2.0 + 3.0 * rng.uniform())
            a = -1.0 + 2.0 * rng.uniform()
            b = -1.0 + 2.0 * rng.uniform()
            k = 0.5 + 3.0 * rng.uniform()
            f = RadialField(grid, a * np.sin(k * r) + b,
                            np.zeros_like(r), 0.0, 0.0, 0.0)
            rep = extend_H(f, r1, r2)
            worst = min(worst, rep.slack)
        assert worst >= 0.0

    def test_zero_field(self):
        grid = RadialGrid(10.0, 1024)
        f = RadialField(grid, np.zeros(grid.n_points),
                        np.zeros(grid.n_points), 0.0, 0.0, 0.0)
        rep = extend_H(f, 1.0, 2.0)
        assert rep.h_extension == 0.0
        assert rep.bound == 0.0
        assert rep.slack == 0.0

    def test_extension_vanishes_outside_double_interval(self):
        grid = RadialGrid(10.0, 2048)
        f = RadialField(grid, np.cos(grid.r), np.ones(grid.n_points),
                        0.0, 0.0, 0.0)
        rep = extend_H(f, 1.0, 2.0)
        psi = rep.field.psi
        r = grid.r
        assert np.all(psi[r <= 0.5] == 0.0)
        assert np.all(psi[r >= 4.0] == 0.0)
        inside = (r >= 1.0) & (r <= 2.0)
        np.testing.assert_allclose(psi[inside], np.cos(r[inside]))
        # velocity extends by zero
        assert np.all(rep.field.psi_dot[~inside] == 0.0)
        assert np.all(rep.field.psi_dot[inside] == 1.0)

    def test_ramps_must_fit_the_grid(self):
        grid = RadialGrid(10.0, 1024)
        f = RadialField(grid, np.ones(grid.n_points),
                        np.zeros(grid.n_points), 0.0, 0.0, 0.0)
        with pytest.raises(ResolutionError, match="fall off the grid"):
            extend_H(f, grid.dr, 2.0)          # inner ramp below dr
        with pytest.raises(ResolutionError, match="fall off the grid"):
            extend_H(f, 1.0, 6.0)              # outer ramp beyond r_max
        with pytest.raises(ResolutionError, match="r1 < r2"):
            extend_H(f, 2.0, 1.0)


# ---------------------------------------------------------------------------
# scattering states

class TestScatteringState:
    def test_linear_round_trip_within_budget(self, linear_scatter_traj):
        state = build_scattering_state(linear_scatter_traj)
        support = support_radius(linear_scatter_traj.snapshots[0])
        assert all(t >= 4.0 * support for t in state.selected.times)
        assert state.t_star == state.selected.times[-1]
        assert state.alpha_rule == "t/2"
        i_star = state.match_times.index(state.t_star)
        assert state.match_errors[i_star] == 0.0
        budget = 3.0 * state.defect
        assert all(e <= budget for e in state.match_errors)

    def test_back_evolution_steps_through_step_linear(self, monkeypatch,
                                                      linear_scatter_traj):
        # one call per matched frame other than t*, each resuming from the
        # last state, so the steps of each direction add up to its
        # farthest frame's offset from t*
        calls, real = [], resolution.step_linear

        def spy(field, ell, dt, n_steps):
            calls.append((dt, n_steps))
            return real(field, ell, dt, n_steps)

        monkeypatch.setattr(resolution, "step_linear", spy)
        traj = linear_scatter_traj
        state = build_scattering_state(traj)
        assert len(calls) == len(state.match_times) - 1
        for sign in (1, -1):
            far = max(sign * (t - state.t_star) for t in state.match_times)
            assert far > 0
            assert sum(n for dt, n in calls if dt == sign * traj.dt) == \
                round(far / traj.dt)
        assert all(n >= 1 for _, n in calls)

    def test_construction_is_linear_in_the_data(self):
        # doubling the seed doubles the defect and every match error
        # exactly: all operations scale by powers of two bit-for-bit
        states = []
        for amp in (0.1, 0.2):
            grid = RadialGrid(100.0, 1024)
            seed = make_perturbation(grid, amplitude=amp, center=10.0,
                                     width=4.0)
            traj = evolve(seed, ROOT0, 60.0, record_every=16)
            states.append(build_scattering_state(traj))
        a, b = states
        assert b.t_star == a.t_star
        assert b.defect == 2.0 * a.defect
        assert b.match_times == a.match_times
        for ea, eb in zip(a.match_errors, b.match_errors):
            assert eb == pytest.approx(2.0 * ea, rel=1e-12, abs=1e-300)

    def test_nonlinear_small_amplitude_matches(self, nonlinear_scatter_traj):
        state = build_scattering_state(nonlinear_scatter_traj)
        scale = h_norms(state.phi_L, ROOT0).h_ell_x_l2
        final_rel = state.match_errors[-1] / scale
        assert final_rel < 5e-2
        assert final_rel < 5e-3              # measured 9e-4
        assert state.t_star > 0.75 * nonlinear_scatter_traj.times[-1]

    def test_stationary_bubble_is_pre_asymptotic(self):
        # Q never settles inside any cone: its support is the whole grid
        grid = RadialGrid(20.0, 512)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = evolve(q, SPHERE, 12.0, record_every=32)
        with pytest.raises(DiagnosticsError, match="pre-asymptotic"):
            build_scattering_state(traj)

    def test_blowup_trajectory_rejected(self):
        traj = _surrogate_blowup_traj()
        with pytest.raises(ResolutionError, match="global trajectory"):
            build_scattering_state(traj)

    def test_frame_off_the_step_lattice_rejected(self, linear_scatter_traj):
        # the last frame, matched forward from t*, moved 0.3 dt later
        traj = linear_scatter_traj
        frames = list(traj.snapshots)
        last = frames[-1]
        frames[-1] = RadialField(last.grid, last.psi, last.psi_dot,
                                 last.ell0, last.ell_inf,
                                 last.time + 0.3 * traj.dt)
        with pytest.raises(ResolutionError, match="frame offset "
                           r"0\.9912109375 is not a step multiple of "
                           r"dt = 0\.048828125"):
            build_scattering_state(dataclasses.replace(traj,
                                                       snapshots=frames))

    def test_mismatched_root_rejected(self, nonlinear_scatter_traj,
                                      monkeypatch):
        # the run shifted by 0.5 everywhere: its far value 0.5 is not a
        # root of sin, which is refused before the selection reads frames
        frames = [RadialField(s.grid, s.psi + 0.5, s.psi_dot, s.ell0 + 0.5,
                              s.ell_inf + 0.5, s.time)
                  for s in nonlinear_scatter_traj.snapshots]
        traj = dataclasses.replace(nonlinear_scatter_traj, snapshots=frames)

        def no_selection(traj):
            raise AssertionError("select_times ran")

        monkeypatch.setattr(resolution, "select_times", no_selection)
        with pytest.raises(ResolutionError,
                           match="far value 0.5 is not a root of g; the "
                                 "nearest root is 0"):
            build_scattering_state(traj)


# ---------------------------------------------------------------------------
# regular part at a blow-up

class TestRegularPart:
    def test_surrogate_settles_on_pi(self):
        reg = extract_regular_part(_surrogate_blowup_traj())
        assert reg.ell_star.value == pytest.approx(np.pi, abs=1e-12)
        assert reg.settle_gap < 0.5
        norms = reg.interior_norms
        assert len(norms) >= 5
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.2 * norms[0]
        assert list(reg.interior_times) == sorted(reg.interior_times)

    def test_exact_root_trace_gives_zero_norms(self):
        reg = extract_regular_part(_surrogate_blowup_traj(values=np.pi))
        assert reg.ell_star.value == pytest.approx(np.pi, abs=1e-12)
        assert reg.settle_gap == 0.0
        assert max(reg.interior_norms) < 1e-12

    def test_wandering_trace_errors(self):
        with pytest.raises(ResolutionError, match="undetermined ell"):
            extract_regular_part(_surrogate_blowup_traj(values=1.2))

    def test_global_trajectory_rejected(self, linear_scatter_traj):
        with pytest.raises(ResolutionError, match="blow-up record"):
            extract_regular_part(linear_scatter_traj)

    def test_linear_flow_rejected(self):
        traj = dataclasses.replace(_surrogate_blowup_traj(values=np.pi),
                                   system=ROOT0)
        with pytest.raises(ResolutionError, match="nonlinear flow only"):
            extract_regular_part(traj)

    @pytest.mark.parametrize("radii, message", [
        # T+ - t = 0.5, 0.4, 0.3: three frames for five settle frames
        (lambda dr: [0.5, 0.4, 0.3],
         "only 3 frames sample the backward cone; need 5"),
        # five frames, each 6 to 2 dr inside the cone: none keeps 8 dr
        (lambda dr: [k * dr for k in range(6, 1, -1)],
         "no stored frame keeps the cone radius above 8 grid cells"),
    ], ids=["three-cone-frames", "cone-below-margin"])
    def test_too_few_cone_frames_rejected(self, radii, message):
        # T+ = 1 and every frame sits on the root pi
        traj = _surrogate_blowup_traj(values=np.pi)
        first = traj.snapshots[0]
        frames = [dataclasses.replace(first, time=1.0 - rho)
                  for rho in radii(first.grid.dr)]
        blow = dataclasses.replace(traj.blowup,
                                   last_valid_time=frames[-1].time)
        with pytest.raises(ResolutionError, match=message):
            extract_regular_part(dataclasses.replace(traj, snapshots=frames,
                                                     blowup=blow))

    def test_evolved_blowup_settles_on_a_root(self, blowup_traj):
        assert blowup_traj.blowup is not None
        reg = extract_regular_part(blowup_traj)
        roots = list(find_vanishing_set(SPHERE).roots)
        assert min(abs(reg.ell_star.value - v) for v in roots) < 1e-12
        assert reg.ell_star.value == pytest.approx(np.pi)
        norms = reg.interior_norms
        assert all(b <= 1.02 * a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.25 * norms[0]


# ---------------------------------------------------------------------------
# energy bookkeeping

class TestLedger:
    def test_planted_bubble_budget(self, planted_report):
        rep = planted_report
        assert rep.J == rep.j_max == 1
        led = rep.ledger
        assert led.defect == led.e_total - led.e_bubbles - led.e_residual
        assert rep.defect_fraction < 1e-4

    def test_chain_budget(self, chain_report):
        rep = chain_report[0]
        assert rep.J == rep.j_max == 2
        assert rep.defect_fraction < 5e-3

    def test_scattering_state_radiation(self, linear_scatter_traj):
        # with no bubble, the energy is the linear state's Hl x L^2 norm^2
        state = build_scattering_state(linear_scatter_traj)
        rep = extract_bubbles(linear_scatter_traj.snapshots[-1], SPHERE)
        assert rep.J == 0 <= rep.j_max
        e_total = rep.ledger.e_total
        e_rad = h_norms(state.phi_L, ROOT0).h_ell_x_l2 ** 2
        assert abs(e_total - e_rad) / e_total < 5e-3
