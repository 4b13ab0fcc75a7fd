"""Diagnostics tests: energy ledger, weighted norms, self-similar /
averaged-kinetic / light-cone measures, exterior-energy ratios, and the
scattering norm.

Scenario constants are frozen from reference runs; everything here is
deterministic.
"""

import csv
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

import wavemap.diagnostics as diagnostics
from wavemap.geometry import SPHERE, YANG_MILLS, Root, find_vanishing_set
from wavemap.statics import build_harmonic_map, rescale_Q
from wavemap.evolution import RadialGrid, RadialField, Trajectory, evolve
from wavemap.data import (bump_profile, make_bump, make_perturbation,
                          make_superposition)
from wavemap.diagnostics import (BLOCK_NODES, DiagnosticsError,
                                 _inner_kinetic, _interval_integral, energy,
                                 h_norms, select_times, lightcone_concentration,
                                 exterior_energy_ratio, beta_hat_ensemble,
                                 s_norm, linf_outside_cone, write_series,
                                 SERIES_COLUMNS, far_root, perturbation,
                                 support_radius)
from wavemap.rng import XorShift64Star

ROOT0 = find_vanishing_set(SPHERE).root_at(0.0)
ROOT_PI = find_vanishing_set(SPHERE).root_at(np.pi)
YM_ROOT1 = find_vanishing_set(YANG_MILLS).root_at(1.0)


def _static_traj(field, times, system=SPHERE, dt=0.5):
    frames = [RadialField(field.grid, field.psi, field.psi_dot,
                          field.ell0, field.ell_inf, t) for t in times]
    return Trajectory(snapshots=frames, dt=dt, scheme="synthetic", cfl=0.5,
                      system=system, blowup=None)


class TestEnergy:
    def test_constant_root_field_vanishes(self):
        grid = RadialGrid(10.0, 512)
        psi = np.full(grid.n_points, np.pi)
        f = RadialField(grid, psi, np.zeros_like(psi), np.pi, np.pi, 0.0)
        e = energy(f, SPHERE)
        assert e.kinetic == 0.0
        assert e.gradient == 0.0
        assert e.potential < 1e-28

    def test_ground_state_energy_large_domain(self):
        grid = RadialGrid(1000.0, 2 ** 15)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        assert abs(energy(q, SPHERE).total - 4.0) < 1e-3

    def test_rescaled_energy_scale_invariant(self):
        grid = RadialGrid(200.0, 2 ** 15)
        qmap = build_harmonic_map(SPHERE, 0.0, +1)
        es = [energy(rescale_Q(qmap, lam, grid), SPHERE).total
              for lam in (0.5, 1.0, 2.0)]
        assert max(es) - min(es) < 5e-4

    def test_additivity_at_node_cuts(self):
        grid = RadialGrid(30.0, 777)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.4, center=10.0,
                      width=6.0, velocity=0.2)
        r_a, r_b = float(grid.r[100]), float(grid.r[500])
        whole = energy(f, SPHERE, 0.0, grid.r_max)
        parts = [energy(f, SPHERE, a, b) for a, b in
                 ((0.0, r_a), (r_a, r_b), (r_b, grid.r_max))]
        for attr in ("kinetic", "gradient", "potential"):
            total = sum(getattr(p, attr) for p in parts)
            assert total == pytest.approx(getattr(whole, attr), rel=1e-13)

    def test_interval_clipped_with_warning(self):
        grid = RadialGrid(10.0, 128)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.2, center=4.0,
                      width=2.0, velocity=0.0)
        with pytest.warns(RuntimeWarning, match="clipped"):
            e = energy(f, SPHERE, 0.0, 50.0)
        assert e.total == pytest.approx(energy(f, SPHERE).total)

    def test_empty_interval_rejected(self):
        grid = RadialGrid(10.0, 128)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.2, center=4.0,
                      width=2.0, velocity=0.0)
        with pytest.raises(DiagnosticsError, match="empty"):
            energy(f, SPHERE, 5.0, 3.0)


class TestHNorms:
    def test_zero_field(self):
        grid = RadialGrid(10.0, 128)
        f = RadialField(grid, np.zeros(128), np.zeros(128), 0.0, 0.0, 0.0)
        n = h_norms(f, ROOT0)
        assert n.h == n.h_ell == n.l2 == n.h_x_l2 == n.h_ell_x_l2 == 0.0

    def test_closed_form_oracle(self):
        # phi = r e^{-r}: ||phi||_{Hl}^2 = 3/8 for slope 1 (computed by
        # hand from the transform identity; both continuum sides agree)
        grid = RadialGrid(30.0, 2 ** 14)
        psi = grid.r * np.exp(-grid.r)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.0, 0.0)
        n = h_norms(f, ROOT0)
        assert n.h_ell ** 2 == pytest.approx(0.375, rel=1e-4)
        assert n.h == pytest.approx(n.h_ell)   # slope 1: same weight

    def test_h_vs_hl_weight_ordering(self):
        grid = RadialGrid(10.0, 1024)
        psi = grid.r ** 2 * np.exp(-grid.r ** 2)
        f = RadialField(grid, psi, np.zeros_like(psi), 0.0, 0.0, 0.0)
        n = h_norms(f, YM_ROOT1)   # slope magnitude 2
        assert n.h <= n.h_ell <= 2.0 * n.h + 1e-15

    def test_product_norm_pythagorean(self):
        grid = RadialGrid(10.0, 512)
        f = make_bump(grid, SPHERE, 0.0, amplitude=0.3, center=4.0,
                      width=2.0, velocity=0.7)
        n = h_norms(f, ROOT0)
        assert n.h_x_l2 ** 2 == pytest.approx(n.h ** 2 + n.l2 ** 2,
                                              rel=1e-12)


def _selfsim_column(traj, path):
    """series.csv's E_selfsim per frame, keyed by frame time."""
    write_series(traj, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {float(row["t"]): float(row["E_selfsim"]) for row in rows}


class TestSelfSimilar:
    def test_static_bubble_closed_form(self, tmp_path):
        # E(Q; t/2, t) = 2(G(Q(t)) - G(Q(t/2))) with G(Q(r)) = 2r^2/(1+r^2)
        grid = RadialGrid(60.0, 2 ** 15)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = _static_traj(q, [5.0, 10.0, 20.0, 40.0])
        series = _selfsim_column(traj, tmp_path / "series.csv")
        assert len(series) == 4
        gq = lambda r: 2.0 * r ** 2 / (1.0 + r ** 2)
        for t, val in series.items():
            exact = 2.0 * (gq(t) - gq(0.5 * t))
            assert val == pytest.approx(exact, rel=1e-5)
        vals = list(series.values())
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_empty_regions_read_nan(self, tmp_path):
        # the annulus [t/2, min(t, r_max)] is empty at t = 0 and once
        # t/2 passes r_max = 60
        grid = RadialGrid(60.0, 1024)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = _static_traj(q, [0.0, 1.0, 50.0, 130.0])
        series = _selfsim_column(traj, tmp_path / "series.csv")
        assert [t for t, v in series.items() if math.isnan(v)] == \
            [0.0, 130.0]


def _kinetic_values(traj):
    """The kinetic energy inside the inner cone at each frame."""
    t_plus = traj.blowup.t_plus if traj.blowup is not None else None
    return np.array([_inner_kinetic(s, t_plus) for s in traj.snapshots])


def kinetic_average(traj, t, s):
    """(1/s) int_{t-s}^{t+s} (kinetic energy inside the inner cone) dt',
    read by `select_times`' rule: the frames' piecewise-linear
    interpolant, integrated through one prefix sum over the frame times
    (here from the first frame; `select_times` starts at the earliest
    frame its windows reach).

    The inner radius is t'/2 on a global trajectory and T+ - t' on one
    with a blow-up record; `select_times` takes its sup over dyadic s.
    """
    times, values = traj.times, _kinetic_values(traj)
    return _interval_integral(times, values,
                              diagnostics._prefix(times, values),
                              t - s, t + s) / s


class TestKineticAverage:
    def test_stationary_is_zero(self):
        grid = RadialGrid(40.0, 512)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = _static_traj(q, list(np.arange(0.0, 22.0, 2.0)))
        assert kinetic_average(traj, 10.0, 4.0) == 0.0

    @pytest.mark.parametrize("t, s", [(20.0, 1.0), (22.0, 0.5)],
                             ids=["around-a-frame", "between-frames"])
    def test_narrow_window_reads_the_linear_interpolant(self, t, s):
        # s below the 4.0 frame spacing: the window integrates the linear
        # interpolant of the frame values, not the nearest frame's value
        grid = RadialGrid(40.0, 256)
        f = make_perturbation(grid, amplitude=0.2, center=10.0, width=5.0)
        f.psi_dot = bump_profile(grid.r, 1.0, 10.0, 5.0)
        traj = _static_traj(f, list(np.arange(0.0, 44.0, 4.0)),
                            system=ROOT0)
        times, values = traj.times, _kinetic_values(traj)
        # the inner cone grows with t, so the frames at 16, 20 and 24
        # differ
        assert np.all(np.diff(values[4:7]) > 0)
        ends = [t - s, t, t + s]
        v = np.interp(ends, times, values)
        exact = 0.5 * ((v[0] + v[1]) * s + (v[1] + v[2]) * s) / s
        assert kinetic_average(traj, t, s) == pytest.approx(exact,
                                                           rel=1e-13)
        nearest = values[np.argmin(np.abs(times - t))]
        assert kinetic_average(traj, t, s) != pytest.approx(2.0 * nearest)


def _burst_trajectory():
    grid = RadialGrid(20.0, 256)
    prof = grid.r * np.exp(-grid.r)
    times = np.arange(0.0, 102.0, 2.0)
    frames = []
    for t in times:
        c = math.exp(-t / 30.0) + 5.0 * math.exp(-((t - 50.0) / 6.0) ** 2)
        frames.append(RadialField(grid, np.zeros_like(prof), c * prof,
                                  0.0, 0.0, float(t)))
    return Trajectory(snapshots=frames, dt=0.5, scheme="synthetic",
                      cfl=0.5, system=ROOT0, blowup=None)


def _concave_trajectory():
    """Frames at t = 0, 2, ..., 100 whose velocity squared falls as the
    concave 1 - (t/120)^2, at a step of 0.25: the windows halve down to
    half-width 1, below the frame spacing, and the narrowest, which holds
    one frame, gives each frame's sup.  The profile peaks at r = 0.2, so
    the inner cone holds nearly all of it from the first frame on."""
    grid = RadialGrid(20.0, 1024)
    prof = 5.0 * grid.r * np.exp(-5.0 * grid.r)
    frames = [RadialField(grid, np.zeros_like(prof),
                          math.sqrt(1.0 - (t / 120.0) ** 2) * prof,
                          0.0, 0.0, float(t))
              for t in np.arange(0.0, 102.0, 2.0)]
    return Trajectory(snapshots=frames, dt=0.25, scheme="synthetic",
                      cfl=0.5, system=ROOT0, blowup=None)


def _shell_trajectory(outer):
    """Frames at t = 0, 2, ..., 100 with psi = 0 and psi_t = exp(-t/30)
    on the nodes 15 <= r <= outer, 0 elsewhere: frame 0's support, and
    with it the asymptotic window, ends at the last of those nodes."""
    grid = RadialGrid(40.0, 512)
    shell = ((grid.r >= 15.0) & (grid.r <= outer)).astype(float)
    frames = [RadialField(grid, np.zeros_like(shell),
                          math.exp(-t / 30.0) * shell, 0.0, 0.0, float(t))
              for t in np.arange(0.0, 102.0, 2.0)]
    return Trajectory(snapshots=frames, dt=0.5, scheme="synthetic",
                      cfl=0.5, system=ROOT0, blowup=None)


class TestSelectTimes:
    def test_stationary_returns_latest_frames(self):
        # a field at rest supported in r < 3, so the window opens by t = 12
        grid = RadialGrid(40.0, 512)
        f = make_perturbation(grid, amplitude=0.1, center=2.0, width=1.0)
        times = list(np.arange(0.0, 42.0, 2.0))
        traj = _static_traj(f, times, dt=0.5)
        sel = select_times(traj)
        assert sel.values[-4:] == [0.0, 0.0, 0.0, 0.0]
        # the final frame never qualifies (its window has zero width)
        assert sel.times[-4:] == times[-5:-1]

    def test_needs_ten_frames(self):
        grid = RadialGrid(40.0, 512)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = _static_traj(q, [0.0, 2.0, 4.0])
        with pytest.raises(DiagnosticsError, match="10"):
            select_times(traj)

    def test_burst_window_avoided(self):
        traj = _burst_trajectory()
        sel = select_times(traj)
        assert len(sel.times) == 5
        assert all(t2 > t1 for t1, t2 in zip(sel.times, sel.times[1:]))
        assert all(v2 <= v1 for v1, v2 in zip(sel.values, sel.values[1:]))
        assert all(not (40.0 <= t <= 62.0) for t in sel.times)

    @pytest.mark.parametrize("make", [_burst_trajectory,
                                      _concave_trajectory],
                             ids=["burst", "narrow-window-sup"])
    def test_records_beat_all_earlier_frames(self, make):
        # brute-force oracle: each selected value is <= the criterion of
        # every earlier frame (that is what a running record means)
        traj = make()
        sel = select_times(traj)
        times = traj.times
        values = _kinetic_values(traj)
        floor = 4.0 * traj.dt

        def average(t, s):
            # np.trapezoid over the frames strictly inside [t - s, t + s]
            # and the interpolated values at its ends
            a, b = t - s, t + s
            ts = np.concatenate([[a], times[(times > a) & (times < b)], [b]])
            return np.trapezoid(np.interp(ts, times, values), ts) / s

        def criterion(t):
            s = min(0.5 * t, t - times[0], times[-1] - t)
            best = None
            while s >= floor:
                v = average(t, s)
                best = v if best is None else max(best, v)
                s *= 0.5
            return best

        # the last three records
        for t_sel, v_sel in zip(sel.times[-3:], sel.values[-3:]):
            assert v_sel == pytest.approx(criterion(t_sel), rel=1e-12)
            earlier = [criterion(t) for t in times[1:] if t < t_sel]
            assert all(v_sel <= e * (1 + 1e-12) for e in earlier
                       if e is not None)

    def test_one_prefix_sum_per_frame(self, monkeypatch):
        # the inner kinetic energy integrates its kinetic row alone: one
        # radial prefix sum per frame read; the windows read one more,
        # over the frame times.  Frame 0's support reaches r_max = 20, so
        # the candidates start at t = 80 and their windows at t = 40: the
        # frames before t = 40 are not read
        traj = _burst_trajectory()
        real, calls = diagnostics._prefix, []

        def counted(x, *args, **kwargs):
            calls.append(x)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "_prefix", counted)
        select_times(traj)
        read = traj.times[traj.times >= 40.0]
        over_times = [x for x in calls if np.array_equal(x, read)]
        assert len(over_times) == 1
        assert len(calls) - len(over_times) == len(read)

    def test_late_windows_carry_no_early_rounding(self):
        # an inner kinetic energy up to 8e12 before the first window
        # opens, at t = 10, and at most 6.4 after it: each selected value
        # is the np.trapezoid average over the same frames to 1e-13,
        # which a prefix sum from t = 0 misses by about 2e-3 relative
        grid = RadialGrid(40.0, 512)
        shell = (grid.r <= 5.0).astype(float)
        frames = [RadialField(grid, np.zeros_like(shell),
                              (1e6 if t < 10.0 else math.exp(-t / 30.0))
                              * shell, 0.0, 0.0, float(t))
                  for t in np.arange(0.0, 102.0, 2.0)]
        traj = Trajectory(snapshots=frames, dt=0.5, scheme="synthetic",
                          cfl=0.5, system=ROOT0, blowup=None)
        assert 4.0 * support_radius(frames[0]) == 20.0
        times, values = traj.times, _kinetic_values(traj)
        assert values[:5].max() > 1e11 * values[5:].max()

        def criterion(t):
            s, best = min(0.5 * t, times[-1] - t), -math.inf
            while s >= 4.0 * traj.dt:
                a, b = t - s, t + s
                ts = np.concatenate([[a], times[(times > a) & (times < b)],
                                     [b]])
                best = max(best, np.trapezoid(np.interp(ts, times, values),
                                              ts) / s)
                s *= 0.5
            return best

        sel = select_times(traj)
        assert sel.times[-1] == 98.0
        for t, v in zip(sel.times, sel.values):
            assert v == pytest.approx(criterion(t), rel=1e-13)

    @pytest.mark.parametrize("t0", [0.0, 37.3, 1000.1, 12345.678])
    def test_windows_stay_inside_the_frames(self, t0):
        # the widest window reaches the first or last frame time exactly,
        # so no window is clipped, and clipping would warn
        burst = _burst_trajectory()
        frames = [RadialField(f.grid, f.psi, f.psi_dot, f.ell0, f.ell_inf,
                              f.time + t0) for f in burst.snapshots]
        traj = Trajectory(snapshots=frames, dt=burst.dt, scheme="synthetic",
                          cfl=burst.cfl, system=ROOT0, blowup=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = select_times(traj)
        assert sel.times and set(sel.times) <= set(traj.times)

    def test_amplitude_rescale_keeps_times(self):
        # doubling psi_t multiplies every window value by exactly 4, so
        # the record structure (and hence the times) is bit-identical
        traj = _burst_trajectory()
        scaled_frames = [RadialField(s.grid, s.psi, 2.0 * s.psi_dot,
                                     s.ell0, s.ell_inf, s.time)
                         for s in traj.snapshots]
        scaled = Trajectory(snapshots=scaled_frames, dt=traj.dt,
                            scheme=traj.scheme, cfl=traj.cfl,
                            system=traj.system, blowup=None)
        a = select_times(traj)
        b = select_times(scaled)
        assert a.times == b.times
        for va, vb in zip(a.values, b.values):
            assert vb == 4.0 * va

    def test_window_restricts_candidates(self):
        # records restart inside the window, so the early quiet stretch,
        # before the velocity enters the inner cone, cannot freeze the
        # selection
        traj = _shell_trajectory(17.5)
        assert 4.0 * support_radius(traj.snapshots[0]) == 70.0
        assert not _kinetic_values(traj)[traj.times < 30.0].any()
        sel = select_times(traj)
        assert all(t >= 70.0 for t in sel.times)
        assert sel.values == sorted(sel.values, reverse=True)

    def test_window_without_a_candidate_errors(self):
        # the window opens at 4 x 24.766 = 99.06: only the last frame,
        # which admits no dyadic window, lies in it
        traj = _shell_trajectory(24.8)
        with pytest.raises(DiagnosticsError, match="no frame admits"):
            select_times(traj)


@pytest.fixture(scope="module")
def linear_run():
    grid = RadialGrid(300.0, 4096)
    p = make_perturbation(grid, amplitude=0.1, center=20.0, width=10.0)
    return evolve(p, ROOT0, 150.0, record_every=1024)


class TestLightcone:
    def test_shell_concentration(self, linear_run):
        rows = lightcone_concentration(linear_run, 50.0)
        full = h_norms(linear_run.snapshots[-1], ROOT0).h_x_l2
        last = rows[-1]
        assert not last.boundary_tainted
        assert last.outside < 0.05 * full

    def test_equipartition(self, linear_run):
        rows = lightcone_concentration(linear_run, 50.0)
        last = rows[-1]
        assert abs(last.hl_fraction - 0.5) < 0.02
        assert abs(last.kin_fraction - 0.5) < 0.02
        assert last.hl_fraction + last.kin_fraction == pytest.approx(1.0)

    def test_t0_row_matches_direct_norm(self, linear_run):
        rows = lightcone_concentration(linear_run, 50.0)
        first = linear_run.snapshots[0]
        direct = h_norms(first, ROOT0, 50.0, first.grid.r_max).h_x_l2
        assert rows[0].outside == pytest.approx(direct, rel=1e-12)

    def test_boundary_taint_flag(self, linear_run):
        rows = lightcone_concentration(linear_run, 160.0)
        assert rows[-1].boundary_tainted     # t + A beyond the grid
        assert not rows[0].boundary_tainted

    def test_nonlinear_uses_the_far_root(self):
        # a yang-mills run hanging from 1, whose slope 2 weights the Hl
        # fraction: the rows measure about the root far_root derives
        grid = RadialGrid(40.0, 256)
        f = make_bump(grid, YANG_MILLS, 1.0, amplitude=0.1, center=10.0,
                      width=5.0, velocity=0.3)
        traj = evolve(f, YANG_MILLS, 4.0, record_every=64)
        assert far_root(traj) == YM_ROOT1
        rows = lightcone_concentration(traj, 5.0)
        assert len(rows) == len(traj.snapshots)
        for row, snap in zip(rows, traj.snapshots):
            n = h_norms(perturbation(snap, snap.ell_inf), YM_ROOT1)
            assert row.hl_fraction == n.h_ell ** 2 / n.h_ell_x_l2 ** 2
            assert row.kin_fraction == n.l2 ** 2 / n.h_ell_x_l2 ** 2


class TestExteriorEnergy:
    def test_t0_ratio_is_one(self):
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        rep = exterior_energy_ratio([p], ROOT0, 0.0)[0]
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.flagged == ""

    def test_time_symmetry_precondition(self):
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        p.psi_dot = bump_profile(grid.r, 0.3, 15.0, 5.0)
        with pytest.raises(DiagnosticsError, match="time-symmetric"):
            exterior_energy_ratio([p], ROOT0, 5.0)

    def test_even_slope_flagged(self):
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        rep = exterior_energy_ratio([p], YM_ROOT1, 5.0)[0]
        assert "outside hypothesis" in rep.flagged
        assert rep.ratio > 0.0

    def test_positive_retention(self):
        grid = RadialGrid(60.0, 1024)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        rep = exterior_energy_ratio([p], ROOT0, 10.0)[0]
        assert 0.0 < rep.ratio <= 1.0 + 1e-12
        assert rep.flagged == ""

    @pytest.mark.parametrize("column", ["psi", "psi_dot"])
    def test_non_finite_data_refused(self, column):
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        getattr(p, column)[100] = np.nan
        for t in (0.0, 5.0):
            with pytest.raises(DiagnosticsError,
                               match="member 0: initial data is not finite"):
                exterior_energy_ratio([p], ROOT0, t)

    def test_non_finite_run_names_the_member(self):
        # finite data under so steep a slope that the flow overflows: an
        # error naming the member, not a report from the frame at t = 0
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
        steep = Root(0.0, 1e154, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError,
                               match="member 0: the linear flow is not "
                                     "finite"):
                exterior_energy_ratio([p], steep, 5.0)
            with pytest.raises(DiagnosticsError, match="member 7: "):
                exterior_energy_ratio([p, p], steep, 5.0, first=7)

    @pytest.mark.parametrize("amplitude, norm", [(0.0, "0"), (1e306, "inf")])
    def test_degenerate_initial_norm_refused(self, amplitude, norm):
        # a zero norm leaves the ratio undefined and an overflowing one
        # makes it nan; both are refused before the flow runs
        grid = RadialGrid(60.0, 512)
        p = make_perturbation(grid, amplitude=amplitude, center=15.0,
                              width=5.0)
        with np.errstate(over="ignore"):
            with pytest.raises(DiagnosticsError,
                               match=f"member 0: initial norm squared "
                                     f"{norm} is not in \\(0, inf\\)"):
                exterior_energy_ratio([p], ROOT0, 5.0)

    def test_ensemble_blocks_match_single_runs(self):
        # 11 members at n = 2048 make one full block and one short block
        grid = RadialGrid(128.0, 2048)
        _, ratios = beta_hat_ensemble(grid, ROOT0, 2.0, n_data=11)
        rng = XorShift64Star(20260819)
        single = [exterior_energy_ratio([make_superposition(grid, rng)],
                                        ROOT0, 2.0)[0].ratio
                  for _ in range(11)]
        assert ratios.tobytes() == np.array(single).tobytes()

    def test_ensemble_deterministic(self):
        grid = RadialGrid(128.0, 512)
        b1, r1 = beta_hat_ensemble(grid, ROOT0, 10.0, n_data=5, seed=99)
        b2, r2 = beta_hat_ensemble(grid, ROOT0, 10.0, n_data=5, seed=99)
        assert b1 == b2
        np.testing.assert_array_equal(r1, r2)
        assert b1 > 0.0
        assert b1 == np.min(r1)


def _serial_ratios(grid, ell, t, n_data, seed=20260819):
    """The ensemble's ratios run one member at a time in this process: the
    oracle of the worker pool."""
    rng = XorShift64Star(seed)
    return np.array([exterior_energy_ratio([make_superposition(grid, rng)],
                                           ell, t)[0].ratio
                     for _ in range(n_data)])


def _no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


DEAD_WORKER = textwrap.dedent("""
    import os
    import wavemap.diagnostics as diagnostics
    from wavemap.evolution import RadialGrid
    from wavemap.geometry import SPHERE, find_vanishing_set
    os.sched_getaffinity = lambda pid: {0, 1, 2}
    real = diagnostics.exterior_energy_ratio

    def reports(members, ell, t, first=0):
        if first == 8:
            os._exit(3)
        return real(members, ell, t, first)

    diagnostics.exterior_energy_ratio = reports
    root = find_vanishing_set(SPHERE).root_at(0.0)
    try:
        diagnostics.beta_hat_ensemble(RadialGrid(128.0, 2048), root, 4.0,
                                      n_data=40)
    except diagnostics.DiagnosticsError as exc:
        print("raised:", exc)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
""")


class TestEnsemblePool:
    """beta_hat_ensemble steps its blocks in forked workers.  The worker
    tests give the process three CPUs, so the workers run on any host, and
    count the processes forked."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        fork, children = os.fork, []

        def counted():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return children

    @pytest.mark.parametrize("blocks, extra", [
        (0, 1), (1, -1), (1, 0), (1, 1), (3, 1)])
    @pytest.mark.parametrize("grid", [RadialGrid(128.0, 2048),
                                      RadialGrid(97.3, 1531)],
                             ids=["2048", "1531"])
    def test_ratios_are_those_of_one_process(self, forks, grid, blocks,
                                             extra):
        block = max(1, BLOCK_NODES // grid.n_points)
        n_data = blocks * block + extra
        beta, ratios = beta_hat_ensemble(grid, ROOT0, 4.0, n_data=n_data)
        oracle = _serial_ratios(grid, ROOT0, 4.0, n_data)
        assert ratios.tobytes() == oracle.tobytes()
        assert beta == np.min(oracle)
        # one block runs in this process and forks nothing
        n_blocks = -(-n_data // block)
        assert len(forks) == (min(3, n_blocks) if n_blocks > 1 else 0)
        _no_child_left()

    def test_a_failing_run_raises_its_error_and_reaps_the_workers(self,
                                                                  forks):
        steep = Root(0.0, 1e154, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError,
                               match="member 0: the linear flow is not "
                                     "finite"):
                beta_hat_ensemble(RadialGrid(128.0, 2048), steep, 4.0,
                                  n_data=30)
        assert len(forks) == 3
        _no_child_left()

    def test_every_forked_worker_is_waited_for(self, forks, monkeypatch):
        waitpid, waited = os.waitpid, []

        def counted(pid, options):
            waited.append(pid)
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", counted)
        grid = RadialGrid(128.0, 2048)
        ratios = beta_hat_ensemble(grid, ROOT0, 4.0, n_data=30)[1]
        assert ratios.tobytes() == _serial_ratios(grid, ROOT0, 4.0,
                                                  30).tobytes()
        assert waited == forks
        steep = Root(0.0, 1e154, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError, match="member 0"):
                beta_hat_ensemble(grid, steep, 4.0, n_data=30)
        assert len(forks) == 6
        assert waited == forks
        _no_child_left()

    def test_the_first_failing_block_in_draw_order_is_raised(self, forks,
                                                             monkeypatch):
        # the block from member 8 fails 0.5 s after the one from member 16;
        # the workers inherit the patched module at the fork
        real = diagnostics.exterior_energy_ratio

        def reports(members, ell, t, first=0):
            if first == 8:
                time.sleep(0.5)
            if first in (8, 16):
                raise DiagnosticsError(f"block from member {first}")
            return real(members, ell, t, first)

        monkeypatch.setattr(diagnostics, "exterior_energy_ratio", reports)
        with pytest.raises(DiagnosticsError, match="block from member 8"):
            beta_hat_ensemble(RadialGrid(128.0, 2048), ROOT0, 4.0,
                              n_data=40)
        assert len(forks) == 3
        _no_child_left()

    def test_a_dead_worker_raises_an_error(self):
        # the worker stepping the block from member 8 exits mid-block; a
        # fresh interpreter in its own session runs the call, so a hang is
        # cut at the timeout with every process it started
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(diagnostics.__file__)),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", DEAD_WORKER],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("beta_hat_ensemble hung on a dead worker")
        assert proc.returncode == 0, err
        assert out.splitlines() == [
            "raised: an ensemble worker ended without a result (exit "
            "code 3)", "no child left"]

    def test_a_failed_fork_propagates_and_the_first_worker_is_reaped(
            self, forks, monkeypatch):
        counted = os.fork

        def second_fails():
            if forks:
                raise OSError("fork refused")
            return counted()

        monkeypatch.setattr(os, "fork", second_fails)
        with pytest.raises(OSError, match="fork refused"):
            beta_hat_ensemble(RadialGrid(128.0, 2048), ROOT0, 4.0,
                              n_data=30)
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize("n_data, t, message", [
        (0, 2.0, "n_data = 0 must be at least 1"),
        (-2, 2.0, "n_data = -2 must be at least 1"),
        (3, -1.0, "t = -1 must be finite and nonnegative"),
        (3, math.inf, "t = inf must be finite and nonnegative"),
        (3, math.nan, "t = nan must be finite and nonnegative")])
    def test_bad_arguments_are_refused_before_any_work(self, monkeypatch,
                                                       n_data, t, message):
        def work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(diagnostics, "make_superposition", work)
        monkeypatch.setattr(os, "fork", work)
        with pytest.raises(DiagnosticsError, match=re.escape(message)):
            beta_hat_ensemble(RadialGrid(128.0, 2048), ROOT0, t,
                              n_data=n_data)


class TestSNorm:
    def test_constant_root_trajectory(self):
        grid = RadialGrid(20.0, 256)
        psi = np.full(256, np.pi)
        f = RadialField(grid, psi, np.zeros(256), np.pi, np.pi, 0.0)
        traj = _static_traj(f, [0.0, 1.0, 2.0])
        assert s_norm(traj) == 0.0

    def test_scaling_invariance_exact(self):
        n = 512
        grid1, grid2 = RadialGrid(20.0, n), RadialGrid(40.0, n)
        prof = grid1.r * np.exp(-grid1.r)
        times1 = [1.0, 2.0, 3.0, 4.0]
        frames1 = [RadialField(grid1, (1.0 + 0.25 * t) * prof,
                               np.zeros(n), 0.0, 0.0, t) for t in times1]
        frames2 = [RadialField(grid2, (1.0 + 0.25 * t) * prof,
                               np.zeros(n), 0.0, 0.0, 2.0 * t)
                   for t in times1]
        t1 = Trajectory(frames1, 0.1, "synthetic", 0.5, ROOT0, None)
        t2 = Trajectory(frames2, 0.2, "synthetic", 0.5, ROOT0, None)
        s1 = s_norm(t1)
        s2 = s_norm(t2)
        assert s1 == pytest.approx(s2, rel=1e-13)

    def test_exponent_rules(self):
        grid = RadialGrid(20.0, 128)
        f = RadialField(grid, np.zeros(128), np.zeros(128), 0.0, 0.0, 0.0)
        # the linear flow about a root of slope 3 has no exponent
        traj = _static_traj(f, [0.0, 1.0], system=Root(0.0, 3.0, math.inf))
        with pytest.raises(DiagnosticsError, match="exponent"):
            s_norm(traj)

    def test_interpolation_ratio_amplitude_invariant(self):
        # sup |phi| <= C ||phi(0)||^theta S^(1-theta): the ratio is exactly
        # invariant under amplitude scaling because the flow is linear
        grid = RadialGrid(60.0, 512)
        theta = 3.0 / (4.0 + 6.0 / 1.0)
        ratios = []
        for amp in (0.1, 0.2):
            p = make_perturbation(grid, amplitude=amp, center=15.0,
                                  width=5.0)
            traj = evolve(p, ROOT0, 20.0, record_every=128)
            sup = max(float(np.max(np.abs(s.psi))) for s in traj.snapshots)
            norm0 = h_norms(traj.snapshots[0], ROOT0).h_ell_x_l2
            s_val = s_norm(traj)
            ratios.append(sup / (norm0 ** theta * s_val ** (1 - theta)))
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)


class TestLinfOutsideCone:
    def test_constant_is_zero(self):
        grid = RadialGrid(20.0, 128)
        psi = np.full(128, np.pi)
        f = RadialField(grid, psi, np.zeros(128), np.pi, np.pi, 0.0)
        traj = _static_traj(f, [0.0, 5.0, 10.0])
        rows = linf_outside_cone(traj, 0.5)
        assert all(v == 0.0 for _, v in rows)

    def test_static_bubble_tail(self):
        grid = RadialGrid(100.0, 2 ** 14)
        q = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
        traj = _static_traj(q, [20.0, 40.0, 80.0])
        rows = linf_outside_cone(traj, 0.5)
        for t, val in rows:
            edge = grid.r[grid.r >= 0.5 * t][0]
            expected = np.pi - 2.0 * np.arctan(edge)
            assert val == pytest.approx(expected, rel=1e-7)

    def test_linear_run_decay(self):
        grid = RadialGrid(380.0, 2048)
        p = make_perturbation(grid, amplitude=0.2, center=10.0, width=5.0)
        traj = evolve(p, ROOT0, 300.0, record_every=512)
        rows = linf_outside_cone(traj, 0.5)
        vals = [v for _, v in rows]
        assert all(b <= a * 1.001 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]


class TestExteriorMonotonicity:
    def test_energy_outside_expanding_cone(self):
        grid = RadialGrid(40.0, 2048)
        f0 = make_bump(grid, SPHERE, 0.0, amplitude=0.4, center=10.0,
                       width=4.0, velocity=0.2)
        traj = evolve(f0, SPHERE, 8.0, record_every=256)
        a = 12.0
        e0 = energy(traj.snapshots[0], SPHERE, a, grid.r_max).total
        for snap in traj.snapshots[1:]:
            e_t = energy(snap, SPHERE, a + snap.time, grid.r_max).total
            assert e_t <= e0 + 1e-6


class TestSeriesOutput:
    def test_series_csv(self, tmp_path):
        grid = RadialGrid(40.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        traj = evolve(p, ROOT_PI, 5.0, record_every=64)
        path = tmp_path / "series.csv"
        write_series(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 1 + len(traj.snapshots)
        row = dict(zip(SERIES_COLUMNS, map(float, lines[-1].split(","))))
        last = traj.snapshots[-1]
        assert row["t"] == last.time
        assert row["E_total"] == pytest.approx(
            energy(last, ROOT_PI).total, rel=1e-15)
        assert row["E_kin"] + row["E_grad"] + row["E_pot"] == \
            pytest.approx(row["E_total"], rel=1e-12)
        assert 0.0 <= row["Hl_fraction"] <= 1.0
        first = dict(zip(SERIES_COLUMNS, map(float, lines[1].split(","))))
        assert first["E_drift"] == 0.0
        # coarse 512-node grid: leapfrog drift stays at the scheme scale
        assert abs(row["E_drift"]) < 2e-3
        # determinism: rewriting gives identical bytes
        path2 = tmp_path / "series2.csv"
        write_series(traj, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_support_radius(self):
        grid = RadialGrid(40.0, 512)
        p = make_perturbation(grid, amplitude=0.1, center=10.0, width=5.0)
        assert 14.0 <= support_radius(p) <= 15.5
        zero = RadialField(grid, np.zeros(512), np.zeros(512), 0.0, 0.0,
                           0.0)
        assert support_radius(zero) == 0.0
