"""Energies, weighted norms, and trajectory diagnostics.

Conventions (all integrals carry the r dr measure unless stated):

    E(phi; r1, r2)   = int (|phi_t|^2 + |d_r phi|^2 + g(phi)^2/r^2) r dr
    ||phi||_H^2      = int (|d_r phi|^2 + phi^2/r^2) r dr
    ||phi||_{Hl}^2   = int (|d_r phi|^2 + g'(l)^2 phi^2/r^2) r dr
    H x L^2          adds ||phi_t||_{L^2}^2

Quadrature is trapezoid on the solver nodes with a ghost node at r = 0
carrying zero density (admissible fields have vanishing density there).
Interval energies are evaluated from one prefix array per field, so
adjacent intervals add up exactly at node-aligned cuts.  That prefix sum,
evolution's `_prefix`, read between two points by `_interval_integral`,
is the one trapezoid rule: integrals over frame times use it too.

The linearized flow at a root conserves Hl x L^2, splits it equally
between the kinetic and Hl parts as t grows (equipartition), and pushes
it into thin light-cone shells; the ops here measure all three, plus the
kinetic-average time selection and the exterior-energy lower-bound
estimate beta_hat.
"""

import itertools
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import FMT, Root, find_vanishing_set
from .evolution import (CFL_DEFAULT, RadialField, _advance, _densities,
                        _density_reads, _prefix, _step_plan)
from .data import make_superposition
from .rng import XorShift64Star

UNIT_ROOT = Root(0.0, 1.0, math.inf)     # g'(l) = 1: the plain H norm
SELECTED_TIMES = 5       # select_times returns the last this many records

# beta_hat_ensemble evolves its members in node-major stacks of about this
# many entries (128 KB per float64 array), so the kernel's temporaries stay
# in cache, and a worker process steps one stack at a time.  The ensemble
# of RadialGrid(128, 2048) at root 0 to t = 20, 100 members, on 2 forked
# workers took 0.40-0.66 s at 2^12, 0.32-0.37 s at 2^13, 0.30-0.41 s at
# 2^14, 0.30-0.43 s at 2^15, 0.38-0.50 s at 2^16, 0.48-0.58 s at 2^17 and
# 0.81-0.97 s at 2^18 (one stack, so one process), six runs each on
# 2 vCPUs.  2^13 to 2^15 are level within this host's drift, and 2^14
# takes half the memory per stack of 2^15
BLOCK_NODES = 2 ** 14


class DiagnosticsError(ValueError):
    pass


@dataclass
class EnergyEntry:
    kinetic: float
    gradient: float
    potential: float

    @property
    def total(self):
        return self.kinetic + self.gradient + self.potential


@dataclass
class HNorms:
    h: float         # ||psi||_H
    h_ell: float     # ||psi||_{Hl}
    l2: float        # ||psi_t||_{L^2}
    h_x_l2: float
    h_ell_x_l2: float


@dataclass
class TimeSelection:
    times: list
    values: list     # criterion values, nonincreasing along times


def _interval_integral(x, y, prefix, a, b):
    """Integral of the piecewise-linear density y over [a, b] subset grid."""
    if a > b:
        raise DiagnosticsError(f"empty interval [{a}, {b}]")
    lo, hi = x[0], x[-1]
    if a < lo - 1e-15 or b > hi * (1 + 1e-12):
        warnings.warn(f"interval [{a:.6g}, {b:.6g}] clipped to the grid "
                      f"[{lo:.6g}, {hi:.6g}]", RuntimeWarning, stacklevel=3)
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return 0.0
    ia = int(np.searchsorted(x, a, side="left"))
    ib = int(np.searchsorted(x, b, side="right")) - 1
    if ia > ib:
        ya = np.interp(a, x, y)
        yb = np.interp(b, x, y)
        return 0.5 * (ya + yb) * (b - a)
    out = float(prefix[ib] - prefix[ia])
    if a < x[ia]:
        ya = np.interp(a, x, y)
        out += 0.5 * (ya + y[ia]) * (x[ia] - a)
    if b > x[ib]:
        yb = np.interp(b, x, y)
        out += 0.5 * (y[ib] + yb) * (b - x[ib])
    return out


def _energies(field, system, intervals, i0=0, i1=None):
    """EnergyEntries of the field over each [r1, r2] of `intervals`, all
    read from one density pass over the nodes i0 <= i < i1 (default:
    every node) and its prefixes."""
    x, dens = _densities(field, system, i0, i1)
    prefix = np.empty(len(x))
    parts = []
    for d in dens:
        _prefix(x, d, out=prefix)
        parts.append([_interval_integral(x, d, prefix, r1, r2)
                      for r1, r2 in intervals])
    return [EnergyEntry(*part) for part in zip(*parts)]


def energy(field, system, r1=0.0, r2=None):
    """Energy of the field over [r1, r2] as an EnergyEntry."""
    r2 = field.grid.r_max if r2 is None else r2
    return _energies(field, system, [(r1, r2)])[0]


def window_nodes(r, r1, r2):
    """[j0, j1): the nodes with r1 <= r <= r2."""
    return (int(np.searchsorted(r, r1, "left")),
            int(np.searchsorted(r, r2, "right")))


def window_misfit(grid, psi, q, r1, r2):
    """The squared H norm of psi - q over [r1, r2] from the densities of
    the nodes in [r1, r2] and one node either side alone.  psi - q is
    written only on the nodes [k0, k1) those densities read, into scratch
    left unset elsewhere, against a read-only zero velocity, so a call
    touches the window's memory alone.  Its prefix sums start at the
    window, so it agrees with `h_norms(...).h ** 2` up to their rounding."""
    n = grid.n_points
    j0, j1 = window_nodes(grid.r, r1, r2)
    i0, i1 = max(j0 - 1, 0), min(j1 + 1, n)
    k0, k1 = _density_reads(n, i0, i1)
    diff = np.empty(n)
    np.subtract(psi[k0:k1], q[k0:k1], out=diff[k0:k1])
    e = _energies(RadialField(grid, diff, np.broadcast_to(0.0, n), 0.0, 0.0),
                  UNIT_ROOT, [(r1, r2)], i0, i1)[0]
    return e.gradient + e.potential


def _h_norms(e, ell):
    """HNorms from an energy under UNIT_ROOT, whose zeroth-order term is
    psi^2 / r."""
    h_sq = e.gradient + e.potential
    hl_sq = e.gradient + ell.slope ** 2 * e.potential
    return HNorms(h=math.sqrt(h_sq), h_ell=math.sqrt(hl_sq),
                  l2=math.sqrt(e.kinetic), h_x_l2=math.sqrt(h_sq + e.kinetic),
                  h_ell_x_l2=math.sqrt(hl_sq + e.kinetic))


def h_norms(field, ell, r1=0.0, r2=None):
    """H, Hl, L^2 and product norms of (psi, psi_t) over [r1, r2].

    The H and Hl zeroth-order terms use the raw psi, so callers pass
    perturbation fields (psi - l subtracted where applicable).
    """
    return _h_norms(energy(field, UNIT_ROOT, r1, r2), ell)


def _annulus(snap, t_plus):
    """[(r_in, r_out)] of the self-similar annulus at one frame, or []
    where the frame has none: t/2 <= r <= t on a global trajectory,
    (T+ - t)/2 <= r <= T+ - t before a blow-up at T+."""
    t = snap.time
    r_in, r_out = (0.5 * t, t) if t_plus is None else \
        (0.5 * (t_plus - t), t_plus - t)
    r_out = min(r_out, snap.grid.r_max)
    return [(r_in, r_out)] if 0 <= r_in < r_out else []


def _inner_kinetic(snap, t_plus=None):
    """Kinetic energy inside r <= t/2 (global) or r <= T+ - t (blow-up),
    from the densities of the nodes up to the first at or past the cut."""
    cut = 0.5 * snap.time if t_plus is None else t_plus - snap.time
    if cut <= 0:
        return 0.0
    r = snap.grid.r
    i1 = min(int(np.searchsorted(r, cut)) + 1, len(r))
    # the kinetic row is the same under every system
    x, (kin,) = _densities(snap, UNIT_ROOT, 0, i1, rows=(0,))
    return _interval_integral(x, kin, _prefix(x, kin), 0.0, min(cut, r[-1]))


def select_times(traj):
    """Times where the kinetic average is smallest over dyadic windows.

    For each frame t the criterion is the sup over dyadic s in
    {s_max, s_max/2, ...} down to 4 dt of the windowed kinetic average,
    with s_max = t/2 (global) or min(t/2, T+ - t) (blow-up), shrunk so
    the window stays inside the stored frames.  Every window, one
    narrower than the frame spacing included, integrates the frames'
    piecewise-linear interpolant through one prefix sum over the frame
    times.  That sum starts at the frame at or before the earliest time a
    candidate's window reaches, t_min/2 on a global run (s <= t/2), so a
    late window carries no rounding of the frames before it, and those
    frames are not read.  The selection keeps the running minima along
    increasing time (later frames win ties), so times increase, values
    are nonincreasing, and burst windows are avoided; the last
    SELECTED_TIMES records are returned.

    The candidates are the asymptotic window: every frame after a blow-up,
    else those at t >= 4 x the first frame's support radius, before which
    the inner cone r <= t/2 can be vacuously quiet; a global trajectory
    that ends earlier is pre-asymptotic.
    """
    if len(traj.snapshots) < 10:
        raise DiagnosticsError("need at least 10 stored frames")
    t_plus = traj.blowup.t_plus if traj.blowup is not None else None
    times = traj.times
    t_min = -math.inf if t_plus is not None else \
        4.0 * support_radius(traj.snapshots[0])
    if times[-1] < t_min:
        raise DiagnosticsError(
            f"pre-asymptotic: latest stored time {times[-1]:.6g} is below "
            f"4 x the data support radius {t_min / 4.0:.6g}")
    k0 = max(int(np.searchsorted(times, 0.5 * t_min, "right")) - 1, 0)
    times = times[k0:]
    values = np.array([_inner_kinetic(traj.snapshots[k], t_plus)
                       for k in range(k0, len(traj.snapshots))])
    prefix = _prefix(times, values)
    floor = 4.0 * traj.dt
    records = []
    running = math.inf
    for t in times[1:]:
        if t < t_min:
            continue
        s = 0.5 * t if t_plus is None else min(0.5 * t, t_plus - t)
        s = min(s, t - times[0], times[-1] - t)
        averages = []
        while s >= floor:
            averages.append(_interval_integral(times, values, prefix,
                                               t - s, t + s) / s)
            s *= 0.5
        if averages and max(averages) <= running:
            running = max(averages)
            records.append((float(t), running))
    if not records:
        raise DiagnosticsError(
            "no frame admits a dyadic window above 4 dt; run longer "
            "or record more often")
    chosen = records[-SELECTED_TIMES:]
    return TimeSelection(times=[t for t, _ in chosen],
                         values=[v for _, v in chosen])


def support_radius(field):
    """Outermost node where the field differs from its far value by more
    than 1e-12 of the largest difference."""
    dev = np.abs(field.psi - field.ell_inf) + np.abs(field.psi_dot)
    scale = float(np.max(dev))
    if scale == 0.0:
        return 0.0
    i = _outermost(dev > 1e-12 * scale)
    return float(field.grid.r[i]) if i >= 0 else 0.0


def _outermost(mask):
    """Index of the last True of a boolean array, or -1 where none is,
    from argmax over the reversed mask: no index array is built."""
    if not mask.any():
        return -1
    return len(mask) - 1 - int(np.argmax(mask[::-1]))


@dataclass
class ConcentrationRow:
    t: float
    outside: float        # H x L^2 norm on |r - t| >= A
    hl_fraction: float
    kin_fraction: float
    boundary_tainted: bool


def perturbation(field, base):
    """The field psi - base, velocity shared, boundary values shifted by
    base: about its own far value, a field that vanishes at infinity."""
    return RadialField(field.grid, field.psi - base, field.psi_dot,
                       ell0=field.ell0 - base, ell_inf=field.ell_inf - base,
                       time=field.time)


def _fractions(norms):
    """(Hl, kinetic) shares of the squared Hl x L^2 norm of HNorms, which
    equipartition drives to 1/2 each; nan where that norm is 0."""
    total = norms.h_ell_x_l2 ** 2
    if total > 0:
        return norms.h_ell ** 2 / total, norms.l2 ** 2 / total
    return math.nan, math.nan


def lightcone_concentration(traj, A):
    """Per frame: the H x L^2 norm of psi - ell_inf outside the shell
    |r - t| < A, plus the equipartition fractions of the conserved
    Hl x L^2 norm (`_fractions`), with l the trajectory's `far_root`.

    Rows are flagged boundary-tainted once the run can feel the outer
    boundary (t beyond r_max minus the data support radius).
    """
    ell = far_root(traj)
    first = traj.snapshots[0]
    r_max = first.grid.r_max
    taint_time = r_max - support_radius(first)
    rows = []
    for snap in traj.snapshots:
        t = snap.time
        # the full norm, then the parts inside and outside the shell
        intervals = [(0.0, r_max)]
        if t - A > 0:
            intervals.append((0.0, min(t - A, snap.grid.r[-1])))
        if t + A < r_max:
            intervals.append((t + A, r_max))
        full, *off = (_h_norms(e, ell) for e in _energies(
            perturbation(snap, snap.ell_inf), UNIT_ROOT, intervals))
        out_sq = sum(n.h_x_l2 ** 2 for n in off)
        rows.append(ConcentrationRow(
            t, math.sqrt(out_sq), *_fractions(full),
            boundary_tainted=bool(t + A >= r_max or t >= taint_time)))
    return rows


@dataclass
class ExteriorReport:
    ratio: float          # ||phi(t)||^2_{HxL2(r>=t)} / ||phi(0)||^2_{HxL2}
    t: float
    flagged: str          # "" or the hypothesis violation note


def exterior_energy_ratio(fields0, ell, t, first=0):
    """Exterior-energy retention of the linear flow for time-symmetric
    data, one ExteriorReport per member of the list fields0.

    The members share one grid and far value.  They are evolved from
    (phi0, 0) to time t as one node-major (n, m) stack, member k column k,
    at the default CFL number with a fixed outer boundary, and each
    reports the squared fraction of its initial H x L^2 norm remaining at
    r >= t.  Even slopes run but are flagged: the lower bound is only
    claimed for odd g'(l).  Non-finite data, data whose initial norm is
    zero or overflows, or a run that does not stay finite, raises
    DiagnosticsError naming the member by its index counted from `first`.
    """
    norms0 = []
    for k, f in enumerate(fields0, first):
        if not (np.all(np.isfinite(f.psi)) and np.all(np.isfinite(f.psi_dot))):
            raise DiagnosticsError(f"member {k}: initial data is not finite")
        if np.max(np.abs(f.psi_dot)) > 0:
            raise DiagnosticsError(
                "exterior-energy bound needs time-symmetric data (psi_t = 0)")
        norms0.append(h_norms(f, ell).h_x_l2 ** 2)
        if not 0 < norms0[-1] < math.inf:
            raise DiagnosticsError(f"member {k}: initial norm squared "
                                   f"{norms0[-1]:g} is not in (0, inf)")
    grid = fields0[0].grid
    r_max = grid.r_max
    hypothesis = ""
    if round(abs(ell.slope)) % 2 == 0:
        hypothesis = f"outside hypothesis: g'(l) = {ell.slope} is even"
    if t == 0:
        finals = fields0
    else:
        dt, n_steps = _step_plan(grid, t, CFL_DEFAULT)
        psi = np.stack([f.psi for f in fields0], axis=1)
        psi_dot = np.stack([f.psi_dot for f in fields0], axis=1)
        next(_advance(ell, fields0[0], psi, psi_dot, dt, [n_steps]))
        finite = (np.isfinite(psi).all(axis=0)
                  & np.isfinite(psi_dot).all(axis=0))
        if not finite.all():
            raise DiagnosticsError(
                f"member {first + int(np.argmin(finite))}: the linear flow "
                f"is not finite at t = {t:g}")
        finals = [RadialField(grid, p, pd, f.ell0, f.ell_inf,
                              f.time + n_steps * dt)
                  for f, p, pd in zip(fields0, psi.T, psi_dot.T)]
    reports = []
    for field0, final, norm0_sq in zip(fields0, finals, norms0):
        flagged = hypothesis
        if support_radius(field0) + t > r_max:
            flagged = (flagged + "; " if flagged else "") + "boundary-tainted"
        ext = h_norms(final, ell, min(abs(t), r_max), r_max)
        reports.append(ExteriorReport(ratio=ext.h_x_l2 ** 2 / norm0_sq,
                                      t=final.time, flagged=flagged))
    return reports


def _workers(n_tasks):
    """How many processes share n_tasks: one per CPU this process may run
    on, at most one per task.  One, so nothing is forked, where the
    platform cannot fork or another thread runs: a fork copies that
    thread's locks but not the thread.  Each worker holds one task's
    memory at a time, and the process that forks them holds none."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _outcomes(blocks, ell, t, k, workers):
    """[(first, ratios or error)] of the blocks b = k (mod workers), each
    drawn after every earlier block, up to and including the first that
    fails; errors name members counted from the block's first."""
    outcomes = []
    for first, members in itertools.islice(blocks, k, None, workers):
        try:
            outcomes.append((first, [rep.ratio for rep in
                                     exterior_energy_ratio(members, ell, t,
                                                           first)]))
        except Exception as exc:
            outcomes.append((first, exc))
            break
    return outcomes


def _forked_outcomes(blocks, ell, t, workers):
    """The `_outcomes` of each of `workers` forked processes, which iterate
    their copies of the unstarted generator `blocks` and pickle their
    outcomes back through one pipe each.  Every pipe is read to its end
    and every worker waited for, killed first if this process fails; a
    worker that exits with a nonzero code, which it does unless its whole
    result was written, raises DiagnosticsError."""
    pipes, pids = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        pipe.write(pickle.dumps(
                            _outcomes(blocks, ell, t, k, workers)))
                        pipe.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    outcomes = []
    for payload, code in zip(payloads, codes):
        if code:
            raise DiagnosticsError(f"an ensemble worker ended without a "
                                   f"result (exit code {code})")
        outcomes += pickle.loads(payload)
    return outcomes


def beta_hat_ensemble(grid, ell, t, n_data=100, seed=20260819):
    """Empirical exterior-energy lower bound over a seeded ensemble of
    make_superposition data.

    Returns (beta_hat, ratios): beta_hat = min over the ensemble of the
    squared exterior ratio.  Purely empirical; no claim beyond the sample.
    n_data < 1, or a t that is negative or not finite, raises
    DiagnosticsError before any member is drawn.

    Members are drawn in seed order in blocks of BLOCK_NODES // n_points
    (at least one), and each block is evolved as one stack.  The blocks
    run in forked worker processes, one per CPU in the process's affinity
    mask and at most one per block; with one worker, or where the
    platform cannot fork or another thread runs, they run in this
    process.  Worker k replays the seeded draws and steps the blocks
    b = k (mod workers), so each worker holds one block at a time and
    this process holds none.  Each member is elementwise its own run, so
    the ratios are bit for bit those of one process, and an error is the
    first failing block's in draw order.
    """
    if not n_data >= 1:
        raise DiagnosticsError(f"n_data = {n_data} must be at least 1")
    if not 0 <= t < math.inf:
        raise DiagnosticsError(f"t = {t:g} must be finite and nonnegative")
    rng = XorShift64Star(seed)
    block = max(1, BLOCK_NODES // grid.n_points)
    firsts = range(0, n_data, block)
    blocks = ((first, [make_superposition(grid, rng)
                       for _ in range(min(block, n_data - first))])
              for first in firsts)
    workers = _workers(len(firsts))
    outcomes = _outcomes(blocks, ell, t, 0, 1) if workers == 1 else \
        _forked_outcomes(blocks, ell, t, workers)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, result in outcomes:
        if isinstance(result, Exception):
            raise result
    ratios = np.concatenate([result for _, result in outcomes])
    return float(np.min(ratios)), ratios


def s_norm(traj):
    """Scattering norm: (int int |psi - far|^{2 + 3/k} dr dt / r^2)^{1/p}
    over the stored frames.

    k = |g'(l)|, l the `far_root`, must be 1 or 2; p = 2 + 3/k.  The far
    value subtracted per frame is the field's own ell_inf (the root the
    field hangs from; 0 for linear perturbation fields).
    """
    ell = far_root(traj)
    k = round(abs(ell.slope))
    if abs(abs(ell.slope) - k) > 1e-9 or k not in (1, 2):
        raise DiagnosticsError(
            f"exponent undefined: g'(l) = {ell.slope} not in {{1, 2}} "
            "after the sign convention")
    p = 2.0 + 3.0 / k
    if len(traj.snapshots) < 2:
        raise DiagnosticsError("need at least two frames")
    frame_vals = np.empty(len(traj.snapshots))
    for i, snap in enumerate(traj.snapshots):
        dens = np.abs(snap.psi - snap.ell_inf) ** p / snap.grid.r ** 2
        # the integrand vanishes at the origin for fields decaying to the
        # root there; the ghost node closes the trapezoid
        frame_vals[i] = _prefix(snap.grid.r_ghost,
                                np.concatenate([[0.0], dens]))[-1]
    return float(_prefix(traj.times, frame_vals)[-1]) ** (1.0 / p)


def _linf_outside(snap, lam):
    """sup_{r >= lam * t} |psi - ell_inf| of one frame, 0 where no node
    lies past lam * t."""
    mask = snap.grid.r >= lam * snap.time
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(snap.psi[mask] - snap.ell_inf)))


def linf_outside_cone(traj, lam):
    """Per frame: sup_{r >= lam * t} |psi - ell_inf| (decays on scattering
    trajectories)."""
    return [(snap.time, _linf_outside(snap, lam)) for snap in traj.snapshots]


SERIES_COLUMNS = ["t", "E_total", "E_kin", "E_grad", "E_pot", "E_drift",
                  "E_selfsim", "sup_out_cone", "Hl_fraction", "kin_fraction"]


def far_root(traj):
    """The root a trajectory's fields tend to as r -> inf: its system for a
    linear flow about a root, else the root of g nearest the first frame's
    ell_inf."""
    if isinstance(traj.system, Root):
        return traj.system
    return find_vanishing_set(traj.system).nearest(traj.snapshots[0].ell_inf)


def write_series(traj, path):
    """series.csv for a trajectory directory: one row per frame.  E_selfsim
    is the energy in the frame's self-similar annulus (`_annulus`), nan
    where it has none, and sup_out_cone is linf_outside_cone at
    lam = 1/2."""
    ell = far_root(traj)
    t_plus = traj.blowup.t_plus if traj.blowup is not None else None
    e0 = None
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for snap in traj.snapshots:
            t = snap.time
            e, *selfsim = _energies(snap, traj.system, [
                (0.0, snap.grid.r_max), *_annulus(snap, t_plus)])
            if e0 is None:
                e0 = e.total
            drift = (e.total - e0) / e0 if e0 > 0 else 0.0
            n = h_norms(perturbation(snap, snap.ell_inf), ell)
            row = (t, e.total, e.kinetic, e.gradient, e.potential, drift,
                   selfsim[0].total if selfsim else math.nan,
                   _linf_outside(snap, 0.5), *_fractions(n))
            fh.write(",".join(FMT % v for v in row) + "\n")
