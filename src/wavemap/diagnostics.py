"""Energies, weighted norms, and trajectory diagnostics.

Conventions (all integrals carry the r dr measure unless stated):

    E(phi; r1, r2)   = int (|phi_t|^2 + |d_r phi|^2 + g(phi)^2/r^2) r dr
    ||phi||_H^2      = int (|d_r phi|^2 + phi^2/r^2) r dr
    ||phi||_{Hl}^2   = int (|d_r phi|^2 + g'(l)^2 phi^2/r^2) r dr
    H x L^2          adds ||phi_t||_{L^2}^2

Quadrature is trapezoid on the solver nodes with a ghost node at r = 0
carrying zero density (admissible fields have vanishing density there).
Interval energies are evaluated from one prefix array per field, so
adjacent intervals add up exactly at node-aligned cuts.

The linearized flow at a root conserves Hl x L^2, splits it equally
between the kinetic and Hl parts as t grows (equipartition), and pushes
it into thin light-cone shells; the ops here measure all three, plus the
kinetic-average time selection and the exterior-energy lower-bound
estimate beta_hat.
"""

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import Metric, Root, eval_G, find_vanishing_set
from .evolution import (RadialField, _densities, _prefix, _Flow, _leapfrog,
                        _step_plan)
from .data import make_superposition
from .rng import XorShift64Star

SUP_H_PROOF_CONSTANT = math.sqrt(4.0 / math.log(1.25))

# beta_hat_ensemble evolves its members in stacks of about this many nodes
# (128 KB per float64 array), so the kernel's temporaries stay in cache: one
# (100, 2048) stack runs slower than 100 single members
BLOCK_NODES = 2 ** 14


class DiagnosticsError(ValueError):
    pass


@dataclass
class EnergyEntry:
    r1: float
    r2: float
    kinetic: float
    gradient: float
    potential: float

    @property
    def total(self):
        return self.kinetic + self.gradient + self.potential


@dataclass
class EnergyLedger:
    """Interval energy bookkeeping with splits; adjacent entries add."""
    entries: list = dataclass_field(default_factory=list)

    @property
    def total(self):
        return sum(e.total for e in self.entries)

    def add(self, entry):
        self.entries.append(entry)
        return entry

    def combined(self):
        return EnergyEntry(
            r1=min(e.r1 for e in self.entries),
            r2=max(e.r2 for e in self.entries),
            kinetic=sum(e.kinetic for e in self.entries),
            gradient=sum(e.gradient for e in self.entries),
            potential=sum(e.potential for e in self.entries))


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
    dyadic_floor: float


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


def energy(field, system, r1=0.0, r2=None, include_kinetic=True):
    """Energy of the field over [r1, r2] as an EnergyEntry."""
    if r2 is None:
        r2 = field.grid.r_max
    x, kin, gr, pot = _densities(field, system)
    parts = []
    for dens in (kin, gr, pot):
        parts.append(_interval_integral(x, dens, _prefix(x, dens), r1, r2))
    if not include_kinetic:
        parts[0] = 0.0
    return EnergyEntry(r1=r1, r2=r2, kinetic=parts[0], gradient=parts[1],
                       potential=parts[2])


def h_norms(field, ell, r1=0.0, r2=None):
    """H, Hl, L^2 and product norms of (psi, psi_t) over [r1, r2].

    The H and Hl zeroth-order terms use the raw psi, so callers pass
    perturbation fields (psi - l subtracted where applicable).
    """
    if r2 is None:
        r2 = field.grid.r_max
    r = field.grid.r
    grad = field.gradient()
    ghost = lambda arr: np.concatenate([[0.0], arr])
    x = ghost(r)
    pieces = {}
    for name, dens in (("grad", grad ** 2 * r),
                       ("zero", field.psi ** 2 / r),
                       ("kin", field.psi_dot ** 2 * r)):
        d = ghost(dens)
        pieces[name] = _interval_integral(x, d, _prefix(x, d), r1, r2)
    slope_sq = ell.slope ** 2
    h_sq = pieces["grad"] + pieces["zero"]
    hl_sq = pieces["grad"] + slope_sq * pieces["zero"]
    l2_sq = pieces["kin"]
    return HNorms(h=math.sqrt(h_sq), h_ell=math.sqrt(hl_sq),
                  l2=math.sqrt(l2_sq), h_x_l2=math.sqrt(h_sq + l2_sq),
                  h_ell_x_l2=math.sqrt(hl_sq + l2_sq))


def pointwise_energy_bound(field, metric, r1, r2):
    """The static-energy lower bound 2|G(psi(r2)) - G(psi(r1))| <= E.

    Returns (lhs, rhs, ok); the energy on the right drops the kinetic
    term (the bound controls the static part only).
    """
    if not 0 < r1 < r2 <= field.grid.r_max:
        raise DiagnosticsError(f"need 0 < r1 < r2 <= r_max, got [{r1}, {r2}]")
    psi1 = float(np.interp(r1, field.grid.r, field.psi))
    psi2 = float(np.interp(r2, field.grid.r, field.psi))
    lhs = 2.0 * abs(eval_G(metric, psi2) - eval_G(metric, psi1))
    rhs = energy(field, metric, r1, r2, include_kinetic=False).total
    return lhs, rhs, lhs <= rhs * (1 + 1e-9) + 1e-12


def energy_h_equivalence(metric, ell, delta=None, n_samples=4096):
    """Sampled equivalence constants between E and the H norm near a root.

    For fields with sup |psi - l| <= delta the potential density g(psi)^2
    compares to (psi - l)^2 through the sampled bounds of |g(l+x)/x| on
    0 < |x| <= delta, giving

        (1/C) ||psi - l||_{HxL2}^2 <= E <= C ||psi - l||_{HxL2}^2.

    Returns (delta, C).  Default delta is half the distance to the nearest
    distinct root, so g does not vanish inside the band.
    """
    if delta is None:
        if not math.isfinite(ell.gap):
            raise DiagnosticsError(
                "lone root: pass delta explicitly, no neighbor sets a scale")
        delta = 0.5 * ell.gap
    x = np.linspace(-delta, delta, n_samples)
    x = x[x != 0.0]
    ratio = np.abs(np.asarray(metric.g(ell.value + x)) / x)
    m, big = float(np.min(ratio)), float(np.max(ratio))
    if m <= 0:
        raise DiagnosticsError(
            f"g vanishes inside the band |psi - l| <= {delta:.6g}; "
            "shrink delta")
    return delta, max(big ** 2, 1.0 / m ** 2, 1.0)


def sup_norm_vs_H(field, r1, r2):
    """sup |psi| on [r1, r2] against the H norm there; needs r2 >= 2 r1.

    Returns (sup, h, ratio, proof_constant); the proof bounds the ratio by
    sqrt(4 / ln(5/4)) whenever the interval spans at least one doubling.
    """
    if r2 < 2 * r1:
        raise DiagnosticsError(
            f"interval [{r1}, {r2}] spans less than one doubling")
    r = field.grid.r
    mask = (r >= r1) & (r <= r2)
    if not np.any(mask):
        raise DiagnosticsError("no nodes inside the interval")
    sup = float(np.max(np.abs(field.psi[mask])))
    h = h_norms(field, Root(0.0, 1.0, math.inf), r1, r2).h
    ratio = sup / h if h > 0 else math.inf if sup > 0 else 0.0
    return sup, h, ratio, SUP_H_PROOF_CONSTANT


def self_similar_energy(traj, lam, A=0.0):
    """Energy in the self-similar annulus per frame.

    Global flow: E(psi(t); lam*t, t - A) for frames with t - A > lam*t.
    After blow-up detection: E(psi(t); lam*(T+ - t), T+ - t) on frames
    before T+.  Returns a list of (t, value) pairs.
    """
    if traj.system is None:
        raise DiagnosticsError("trajectory has no attached system")
    out = []
    t_plus = traj.blowup.t_plus if traj.blowup is not None else None
    for snap in traj.snapshots:
        t = snap.time
        if t_plus is None:
            r_in, r_out = lam * t, t - A
        else:
            theta = t_plus - t
            if theta <= 0:
                continue
            r_in, r_out = lam * theta, theta
        if not 0 <= r_in < r_out:
            continue
        r_out = min(r_out, snap.grid.r_max)
        if r_in >= r_out:
            continue
        out.append((t, energy(snap, traj.system, r_in, r_out).total))
    return out


def _inner_kinetic(snap, t_plus=None):
    """Kinetic energy inside r <= t/2 (global) or r <= T+ - t (blow-up)."""
    r = snap.grid.r
    cut = 0.5 * snap.time if t_plus is None else t_plus - snap.time
    if cut <= 0:
        return 0.0
    dens = snap.psi_dot ** 2 * r
    x = np.concatenate([[0.0], r])
    d = np.concatenate([[0.0], dens])
    return _interval_integral(x, d, _prefix(x, d), 0.0, min(cut, r[-1]))


def _resolve_t_plus(traj, inner_radius_rule):
    """None for the t'/2 rule, T+ for the blow-up rule."""
    if inner_radius_rule == "auto":
        inner_radius_rule = "T+-t" if traj.blowup is not None else "t/2"
    if inner_radius_rule == "t/2":
        return None
    if inner_radius_rule == "T+-t":
        if traj.blowup is None:
            raise DiagnosticsError(
                "blow-up inner-radius rule on a trajectory with no "
                "blow-up record")
        return traj.blowup.t_plus
    raise DiagnosticsError(f"unknown inner radius rule {inner_radius_rule!r}")


def _kinetic_series(traj, t_plus):
    return np.array([_inner_kinetic(sn, t_plus) for sn in traj.snapshots])


def _window_average(times, values, t, s):
    a, b = t - s, t + s
    if a < times[0] - 1e-12 or b > times[-1] + 1e-12:
        raise DiagnosticsError(
            f"window [{a:.6g}, {b:.6g}] exceeds the stored trajectory "
            f"[{times[0]:.6g}, {times[-1]:.6g}]")
    inside = (times >= a) & (times <= b)
    if np.count_nonzero(inside) < 2:
        # degenerate window below the frame spacing: single-frame
        # rectangle rule, (1/s) * 2s * K(nearest)
        k = int(np.argmin(np.abs(times - t)))
        return 2.0 * float(values[k])
    ts = times[inside]
    vs = values[inside]
    if ts[0] > a:
        ts = np.concatenate([[a], ts])
        vs = np.concatenate([[np.interp(a, times, values)], vs])
    if ts[-1] < b:
        ts = np.concatenate([ts, [b]])
        vs = np.concatenate([vs, [np.interp(b, times, values)]])
    return float(np.trapezoid(vs, ts)) / s


def kinetic_average(traj, t, s, inner_radius_rule="auto"):
    """(1/s) int_{t-s}^{t+s} (kinetic energy inside the inner cone) dt'.

    The inner radius is t'/2 ("t/2" rule, global trajectories) or
    T+ - t' ("T+-t" rule after blow-up detection); "auto" picks by the
    trajectory's blow-up record.  Frame values are trapezoid-interpolated;
    windows below the frame spacing fall back to a single-frame rectangle.
    """
    if s <= 0:
        raise DiagnosticsError("window s must be positive")
    t_plus = _resolve_t_plus(traj, inner_radius_rule)
    return _window_average(traj.times, _kinetic_series(traj, t_plus), t, s)


def select_times(traj, count=5, t_min=None):
    """Times where the kinetic average is smallest over dyadic windows.

    For each frame t the criterion is the sup over dyadic s in
    {s_max, s_max/2, ...} down to 4 dt of the windowed kinetic average,
    with s_max = t/2 (global) or T+ - t (blow-up), shrunk so the window
    stays inside the stored frames.  The selection keeps the running
    minima along increasing time (later frames win ties), so times
    increase, values are nonincreasing, and burst windows are avoided;
    the last `count` records are returned.

    t_min restricts the candidates to frames with t >= t_min.  Early
    frames can have a vacuously quiet inner cone (data supported away
    from the origin has not reached r <= t/2 yet), and an asymptotic
    construction must not record them.
    """
    if len(traj.snapshots) < 10:
        raise DiagnosticsError("need at least 10 stored frames")
    t_plus = traj.blowup.t_plus if traj.blowup is not None else None
    times = traj.times
    values = _kinetic_series(traj, t_plus)
    floor = 4.0 * traj.dt
    candidates = []
    for t in times[1:]:
        if t_min is not None and t < t_min:
            continue
        s_max = 0.5 * t if t_plus is None else min(0.5 * t, t_plus - t)
        s_max = min(s_max, t - times[0], times[-1] - t)
        s = s_max
        sup_value = None
        while s >= floor:
            v = _window_average(times, values, t, s)
            sup_value = v if sup_value is None else max(sup_value, v)
            s *= 0.5
        if sup_value is not None:
            candidates.append((float(t), sup_value))
    if not candidates:
        raise DiagnosticsError(
            "no frame admits a dyadic window above 4 dt; run longer "
            "or record more often")
    records = []
    running = math.inf
    for t, v in candidates:
        if v <= running:
            records.append((t, v))
            running = v
    chosen = records[-count:]
    return TimeSelection(times=[t for t, _ in chosen],
                         values=[v for _, v in chosen], dyadic_floor=floor)


def support_radius(field, rel_tol=1e-12):
    """Outermost node where the field differs from its far value."""
    dev = np.abs(field.psi - field.ell_inf) + np.abs(field.psi_dot)
    scale = float(np.max(dev))
    if scale == 0.0:
        return 0.0
    idx = np.flatnonzero(dev > rel_tol * scale)
    return float(field.grid.r[idx[-1]]) if len(idx) else 0.0


@dataclass
class ConcentrationRow:
    t: float
    outside: float        # H x L^2 norm on |r - t| >= A
    hl_fraction: float
    kin_fraction: float
    boundary_tainted: bool


def lightcone_concentration(traj, A, ell=None):
    """Per frame: the H x L^2 norm outside the shell |r - t| < A, plus the
    equipartition fractions of the conserved Hl x L^2 norm.

    Rows are flagged boundary-tainted once the run can feel the outer
    boundary (t beyond r_max minus the data support radius).
    """
    if ell is None:
        if isinstance(traj.system, Root):
            ell = traj.system
        else:
            raise DiagnosticsError("pass the root for nonlinear trajectories")
    r_max = traj.snapshots[0].grid.r_max
    taint_time = r_max - support_radius(traj.snapshots[0])
    rows = []
    for snap in traj.snapshots:
        t = snap.time
        inner = h_norms(snap, ell, 0.0, max(t - A, 0.0)) \
            if t - A > 0 else None
        outer = h_norms(snap, ell, min(t + A, r_max), r_max) \
            if t + A < r_max else None
        out_sq = (inner.h_x_l2 ** 2 if inner else 0.0) + \
                 (outer.h_x_l2 ** 2 if outer else 0.0)
        full = h_norms(snap, ell)
        total_sq = full.h_ell_x_l2 ** 2
        rows.append(ConcentrationRow(
            t=t, outside=math.sqrt(out_sq),
            hl_fraction=full.h_ell ** 2 / total_sq if total_sq > 0 else 0.0,
            kin_fraction=full.l2 ** 2 / total_sq if total_sq > 0 else 0.0,
            boundary_tainted=bool(t + A >= r_max or t >= taint_time)))
    return rows


@dataclass
class ExteriorReport:
    ratio: float          # ||phi(t)||^2_{HxL2(r>=t)} / ||phi(0)||^2_{HxL2}
    t: float
    flagged: str          # "" or the hypothesis violation note
    initial_norm_sq: float
    exterior_norm_sq: float


def exterior_energy_ratio(field0, ell, t, cfl=0.5, boundary="fixed"):
    """Exterior-energy retention of the linear flow for time-symmetric data.

    Evolves (phi0, 0) to time t and reports the squared fraction of the
    initial H x L^2 norm remaining at r >= t.  Even slopes run but are
    flagged: the lower bound is only claimed for odd g'(l).  Non-finite
    data, or a run that does not stay finite, raises DiagnosticsError.
    """
    return _exterior_reports([field0], ell, t, cfl, boundary)[0]


def _exterior_reports(fields0, ell, t, cfl, boundary, first=0):
    """ExteriorReports of members sharing one grid and far value, evolved
    as one (m, n) stack through the leapfrog kernel.  Errors name a member
    by its index counted from `first`."""
    for k, f in enumerate(fields0, first):
        if not (np.all(np.isfinite(f.psi)) and np.all(np.isfinite(f.psi_dot))):
            raise DiagnosticsError(f"member {k}: initial data is not finite")
        if np.max(np.abs(f.psi_dot)) > 0:
            raise DiagnosticsError(
                "exterior-energy bound needs time-symmetric data (psi_t = 0)")
    grid = fields0[0].grid
    r_max = grid.r_max
    hypothesis = ""
    if round(abs(ell.slope)) % 2 == 0:
        hypothesis = f"outside hypothesis: g'(l) = {ell.slope} is even"
    if t == 0:
        finals = fields0
    else:
        dt, n_steps = _step_plan(grid, t, cfl)
        flow = _Flow(ell, grid, fields0[0].ell0)
        psi = np.stack([f.psi for f in fields0])
        psi_dot = np.stack([f.psi_dot for f in fields0])
        _leapfrog(flow, psi, psi_dot, flow.accel(psi), dt, n_steps,
                  boundary, fields0[0].ell_inf)
        finite = (np.isfinite(psi).all(axis=-1)
                  & np.isfinite(psi_dot).all(axis=-1))
        if not finite.all():
            raise DiagnosticsError(
                f"member {first + int(np.argmin(finite))}: the linear flow "
                f"is not finite at t = {t:g}")
        finals = [RadialField(grid, p, pd, f.ell0, f.ell_inf,
                              f.time + n_steps * dt)
                  for f, p, pd in zip(fields0, psi, psi_dot)]
    reports = []
    for field0, final in zip(fields0, finals):
        flagged = hypothesis
        if support_radius(field0) + t > r_max:
            flagged = (flagged + "; " if flagged else "") + "boundary-tainted"
        norms0 = h_norms(field0, ell)
        ext = h_norms(final, ell, min(abs(t), r_max), r_max)
        reports.append(ExteriorReport(
            ratio=ext.h_x_l2 ** 2 / norms0.h_x_l2 ** 2, t=final.time,
            flagged=flagged, initial_norm_sq=norms0.h_x_l2 ** 2,
            exterior_norm_sq=ext.h_x_l2 ** 2))
    return reports


def beta_hat_ensemble(grid, ell, t, n_data=100, seed=20260819, n_bumps=2,
                      cfl=0.5):
    """Empirical exterior-energy lower bound over a seeded data ensemble.

    Returns (beta_hat, ratios): beta_hat = min over the ensemble of the
    squared exterior ratio.  Purely empirical; no claim beyond the sample.
    Members are drawn and evolved in blocks of BLOCK_NODES // n_points
    (at least one), so memory stays proportional to one block.
    """
    rng = XorShift64Star(seed)
    block = max(1, BLOCK_NODES // grid.n_points)
    ratios = np.empty(n_data)
    for first in range(0, n_data, block):
        members = [make_superposition(grid, rng, n_bumps=n_bumps)
                   for _ in range(min(block, n_data - first))]
        reports = _exterior_reports(members, ell, t, cfl, "fixed", first)
        ratios[first:first + len(members)] = [rep.ratio for rep in reports]
    return float(np.min(ratios)), ratios


def s_norm(traj, ell, t_interval=None):
    """Scattering norm: (int int |psi - far|^{2 + 3/k} dr dt / r^2)^{1/p}.

    k = |g'(l)| must be 1 or 2; the exponent is p = 2 + 3/k.  The far value
    subtracted per frame is the field's own ell_inf (the root the field
    hangs from; 0 for linear perturbation fields).
    """
    k = round(abs(ell.slope))
    if abs(abs(ell.slope) - k) > 1e-9 or k not in (1, 2):
        raise DiagnosticsError(
            f"exponent undefined: g'(l) = {ell.slope} not in {{1, 2}} "
            "after the sign convention")
    p = 2.0 + 3.0 / k
    times = traj.times
    if t_interval is None:
        t_interval = (times[0], times[-1])
    a, b = t_interval
    frame_vals = []
    frame_ts = []
    for snap in traj.snapshots:
        if snap.time < a - 1e-12 or snap.time > b + 1e-12:
            continue
        r = snap.grid.r
        dens = np.abs(snap.psi - snap.ell_inf) ** p / r ** 2
        # the integrand vanishes at the origin for fields decaying to the
        # root there; the ghost node closes the trapezoid
        x = np.concatenate([[0.0], r])
        d = np.concatenate([[0.0], dens])
        frame_vals.append(float(np.trapezoid(d, x)))
        frame_ts.append(snap.time)
    if len(frame_ts) < 2:
        raise DiagnosticsError("need at least two frames inside the interval")
    return float(np.trapezoid(frame_vals, frame_ts)) ** (1.0 / p)


def linf_outside_cone(traj, lam):
    """Per frame: sup_{r >= lam * t} |psi - ell_inf| (decays on scattering
    trajectories)."""
    rows = []
    for snap in traj.snapshots:
        r = snap.grid.r
        mask = r >= lam * snap.time
        if not np.any(mask):
            rows.append((snap.time, 0.0))
            continue
        rows.append((snap.time,
                     float(np.max(np.abs(snap.psi[mask] - snap.ell_inf)))))
    return rows


SERIES_COLUMNS = ["t", "E_total", "E_kin", "E_grad", "E_pot", "E_drift",
                  "E_selfsim", "sup_out_cone", "Hl_fraction", "kin_fraction"]


def write_series(traj, path, selfsim_lambda=0.5, selfsim_A=0.0,
                 cone_lambda=0.5, ell=None):
    """series.csv for a trajectory directory: one row per frame."""
    if ell is None and isinstance(traj.system, Root):
        ell = traj.system
    if ell is None and isinstance(traj.system, Metric):
        vset = find_vanishing_set(traj.system)
        ref = traj.snapshots[0].ell_inf
        ell = vset.nearest(ref)
    selfsim = dict(self_similar_energy(traj, selfsim_lambda, selfsim_A)) \
        if traj.system is not None else {}
    cone = dict(linf_outside_cone(traj, cone_lambda))
    fmt = "%.17g"
    e0 = None
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for snap in traj.snapshots:
            t = snap.time
            if traj.system is not None:
                e = energy(snap, traj.system)
                if e0 is None:
                    e0 = e.total
                drift = (e.total - e0) / e0 if e0 > 0 else 0.0
                e_vals = (e.total, e.kinetic, e.gradient, e.potential,
                          drift)
            else:
                e_vals = (math.nan,) * 5
            if ell is not None:
                pert = snap if snap.ell_inf == 0.0 else RadialField(
                    snap.grid, snap.psi - snap.ell_inf, snap.psi_dot,
                    ell0=snap.ell0 - snap.ell_inf, ell_inf=0.0, time=t)
                n = h_norms(pert, ell)
                tot = n.h_ell_x_l2 ** 2
                fracs = (n.h_ell ** 2 / tot if tot > 0 else math.nan,
                         n.l2 ** 2 / tot if tot > 0 else math.nan)
            else:
                fracs = (math.nan, math.nan)
            row = (t, *e_vals, selfsim.get(t, math.nan),
                   cone.get(t, math.nan), *fracs)
            fh.write(",".join(fmt % v for v in row) + "\n")
