"""Soliton-resolution machinery.

Decomposes a finite-energy field into harmonic-map bubbles at separated
scales plus a residual, keeps the energy ledger of that split with its
bound on J, and builds the two asymptotic comparison objects: a
scattering state (linear flow matching the solution outside a cut cone at
late times) and a regular part (a wave map matching the solution outside
the backward light cone of a blow-up point).

Thresholds.  delta0 is half the smallest peak of |g| between adjacent
roots: a field value with |g(psi)| >= delta0 is "in transition" between
roots, below it the field is parked near some root.  eps0 marks how far
a normalized connector's transition zone extends: outside the radii
where |g(Q)| crosses delta0/2 the connector sits within delta0/2 of its
endpoints.  These radii are quadratures of 1/|g|, not read off a built
connector.  Extraction scans inward for the outermost transition
crossing, reads the scale off the normalized profile, refines it by
one-dimensional least squares in log-scale, subtracts, and repeats.

Windows.  Each extraction step reads only the nodes its answer depends
on.  The scan reads the nodes up to scan_hi, the outer edge of the
previous bubble's flat zone; the fit and its misfit read the fit window
[w_lo, w_hi], the misfit through the densities of the window's nodes and
one node either side (`diagnostics.window_misfit`).  A window of at least
2 COARSE_FIT_NODES nodes is first fit on a subsample of about
COARSE_FIT_NODES of its nodes, and only the last Gauss-Newton steps run
on all of them.  Only the energy ledger and the subtraction of a fitted
bubble read every node.

All routines are pure functions over immutable inputs; reports for
different fields can be computed in parallel with no shared state.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .geometry import (ROOT_TOL, Metric, QuadratureError, Root, bisect,
                       find_vanishing_set, integrate)
from .statics import HarmonicMap, build_harmonic_map, eval_Q
from .evolution import (RadialField, evolve, min_bubble_energy, _advance,
                        _step_plan)
from .diagnostics import (UNIT_ROOT, TimeSelection, energy, far_root,
                          h_norms, perturbation, select_times, window_misfit,
                          window_nodes)

SEPARATION_FLOOR = 0.2      # accept bubble j+1 only if lambda ratio <= this
MISFIT_FRACTION = 0.10      # windowed H misfit^2 <= this fraction of E(Q)
MIN_SCALE_NODES = 4         # scales below 4 dr are unresolved
MIN_FIT_NODES = 8
COARSE_FIT_NODES = 1024     # windows of 2x this many nodes: subsample first
SETTLE_GRID = 2.0 ** -30    # log-scale grid Gauss-Newton restarts on
SETTLE_FRAMES = 5           # last cone-trace frames that must settle on ell*
MARGIN_NODES = 8            # the regular part's fill keeps rho_c >= 8 dr

# closed-form H contributions of the affine extension ramps, for a unit
# boundary value: gradient term on either ramp, zeroth-order terms on
# [r1/2, r1] and [r2, 2r2]; their totals stay below the 9 sup^2 of the
# proof bound (3 sup), which is what makes the extension inequality safe
EXTENSION_RAMP_GRADIENT = 1.5
EXTENSION_RAMP_ZEROTH_INNER = math.log(2.0) - 0.5
EXTENSION_RAMP_ZEROTH_OUTER = 4.0 * math.log(2.0) - 2.5


class ResolutionError(ValueError):
    pass


@lru_cache(maxsize=64)
def compute_delta0(metric):
    """Transition thresholds (delta0, eps0) for a metric.

    delta0 = half the smallest sup of |g| over intervals between adjacent
    roots inside the metric's search window.  eps0 is the smallest of the
    normalized connectors' tail radii at which |g(Q)| falls to delta0/2,
    folded to (0, 1) so that the transition zone of a scale-lambda bubble
    sits inside [eps0*lambda, lambda/eps0], from `_crossing_radii`: no
    connector is built.  Memoized per metric: it is immutable and so is
    the result.
    """
    roots = find_vanishing_set(metric).roots
    if len(roots) < 2:
        lo, hi = metric.search_window
        raise ResolutionError(
            f"no adjacent-root pair inside [{lo:.6g}, {hi:.6g}]")
    pairs = [(float(lo), float(hi)) for lo, hi in zip(roots[:-1], roots[1:])]
    delta0 = 0.5 * min(abs(float(metric.g(_peak(metric, lo, hi))))
                       for lo, hi in pairs)
    eps0 = 1.0
    for lo, hi in pairs:
        rho_lo, rho_hi = _crossing_radii(metric, lo, hi, 0.5 * delta0)
        eps0 = min(eps0, rho_lo, 1.0 / rho_hi)
    return delta0, eps0


def _peak(metric, lo, hi):
    """Where |g| peaks between the adjacent roots lo < hi: the sign change
    of g' beside the largest of 4095 samples."""
    x = np.linspace(lo, hi, 4097)[1:-1]
    k = int(np.argmax(np.abs(np.asarray(metric.g(x)))))
    a, b = bisect(lambda t: float(metric.g_prime(t)), x[max(k - 1, 0)],
                  x[min(k + 1, len(x) - 1)], ROOT_TOL)
    return 0.5 * (a + b)


@lru_cache(maxsize=256)
def _crossing_radii(metric, ell, m, level):
    """Radii (inner, outer) where |g(Q)| = `level` < its peak on the
    connector Q from the root ell (r = 0) to the adjacent root m, with
    Q(1) = mid = (ell + m)/2, without building Q.  Along Q, r Q' = sign g(Q)
    has the sign of m - ell, so Q reaches q at log r = sign(m - ell)
    int_mid^q dy / |g(y)|.  The two q are bisected to the last bit on
    either side of the peak.  Memoized per (metric, ell, m, level)."""
    a, b = min(ell, m), max(ell, m)
    peak = _peak(metric, a, b)
    f = lambda q: abs(float(metric.g(q))) - level
    mid = 0.5 * (ell + m)
    radii = []
    for q in (0.5 * sum(bisect(f, a, peak, 0.0)),
              0.5 * sum(bisect(f, peak, b, 0.0))):
        value, abserr = integrate(lambda y: 1.0 / np.abs(metric.g(y)),
                                  min(q, mid), max(q, mid), [], 1e-14, 1e-15)
        if not abserr <= 1e-13:
            raise QuadratureError(f"radius at |g| = {level:.6g} between "
                                  f"{a:.6g} and {b:.6g} did not converge",
                                  abserr)
        radii.append(math.exp(math.copysign(value, (q - mid) * (m - ell))))
    return tuple(radii[::1 if ell < m else -1])


def _gauss_newton(qmap, r, psi, u, u_lo, u_hi, tol):
    """Gauss-Newton on the log-scale u of Q(r e^{-u}) against psi, with
    the exact Jacobian d/du Q(r e^{-u}) = -sign g(Q), kept inside
    [u_lo, u_hi] and stopped once a step is below tol.  Near the fixed
    point rounding maps neighbouring doubles onto each other, so the first
    such step restarts the iteration from the nearest multiple of
    SETTLE_GRID, which every path near the fixed point shares: the double
    returned does not depend on the path."""
    restarted = False
    for _ in range(100):
        q = eval_Q(qmap, r * math.exp(-u))
        jac = qmap.sign * np.asarray(qmap.metric.g(q), dtype=float)
        res = np.subtract(psi, q, out=q)
        u_next = min(max(u - float(jac @ res) / float(jac @ jac), u_lo),
                     u_hi)
        if abs(u_next - u) < tol:
            if restarted:
                return u_next
            restarted = True
            u_next = min(max(round(u_next / SETTLE_GRID) * SETTLE_GRID,
                             u_lo), u_hi)
        u = u_next
    return u


def _fit_log_scale(qmap, r, psi, u0):
    """Least-squares log-scale u of Q(r e^{-u}) against psi, kept inside
    u0 +- log 2 and stopped once a step is below 1e-12.

    A window of at least 2 COARSE_FIT_NODES nodes is first fit, to steps
    below 1e-9, on every k-th node, about COARSE_FIT_NODES of them, where
    most iterations run.  Smaller windows are fit on every node from u0,
    as they always were."""
    u_lo, u_hi = u0 - math.log(2.0), u0 + math.log(2.0)
    u = u0
    if len(r) >= 2 * COARSE_FIT_NODES:
        k = len(r) // COARSE_FIT_NODES
        u = _gauss_newton(qmap, r[::k], psi[::k], u, u_lo, u_hi, 1e-9)
    return _gauss_newton(qmap, r, psi, u, u_lo, u_hi, 1e-12)


@dataclass
class ExtractionLedger:
    e_total: float       # energy of the input on [0, R]
    e_bubbles: float     # sum of the connectors' exact energies
    e_residual: float    # energy of the residual field on [0, R]
    defect: float        # e_total - e_bubbles - e_residual (cross terms)


@dataclass
class BubbleReport:
    J: int
    scales: list
    bubbles: list               # HarmonicMap, outermost first
    residual: RadialField
    ledger: ExtractionLedger
    metric: Metric
    delta0: float
    eps0: float
    outer_root: float           # Q_1(inf), the field's root at R
    outer_limit: float          # r_max: extraction covers the whole grid
    misfits: list               # windowed H^2 misfit per accepted bubble
    notes: list = dataclass_field(default_factory=list)

    @property
    def defect_fraction(self):
        if self.ledger.e_total <= 0:
            return 0.0
        return abs(self.ledger.defect) / self.ledger.e_total

    @property
    def j_max(self):
        """The energy's bound on J: floor(e_total / the least bubble energy
        at the origin root + 5% slack for the bubble tails that truncation
        shaves), 0 where no bubble attaches and that energy is inf."""
        e_min = min_bubble_energy(self.metric, self.residual.ell0)
        return math.floor(self.ledger.e_total / e_min + 0.05)


def extract_bubbles(field, metric):
    """Decompose a field into chained bubbles at separated scales.

    Scans inward from r_max for the outermost node where
    |g(psi)| reaches delta0, identifies the connector from the adjacent
    roots and the approach side, reads the scale off the normalized
    profile's own delta0 crossing, refines it by least squares in
    log-scale over the transition window, and subtracts the bubble
    anchored at its inner root so everything outside collapses onto the
    next root.  Repeats strictly inside the accepted bubble's flat zone,
    scanning only the nodes at or below its edge scan_hi.  The misfit,
    the H^2 norm of the field minus the fitted bubble over the fit window,
    is integrated from the window's nodes alone, so it agrees with the
    full-grid `h_norms` up to the rounding of the prefix sums below w_lo.

    Extraction stops (with a note) rather than guessing: an unmatched
    transition is left in the residual as "unresolved structure", a scale
    under 4 dr reports "under-resolved scale", and a scale ratio above
    SEPARATION_FLOOR reports "separation floor".
    """
    grid = field.grid
    r = grid.r
    R = grid.r_max
    vset = find_vanishing_set(metric)
    delta0, eps0 = compute_delta0(metric)

    origin_root = vset.nearest(field.ell0)
    if abs(field.ell0 - origin_root.value) > 1e-6:
        raise ResolutionError(
            f"origin value {field.ell0:.6g} is not a root of g")
    psi_R = float(field.psi[-1])
    if abs(float(metric.g(psi_R))) >= delta0:
        raise ResolutionError(
            f"|g(psi(R))| = {abs(float(metric.g(psi_R))):.4g} >= delta0 = "
            f"{delta0:.4g}: field not settled at the outer limit")
    outer_root = vset.nearest(psi_R)

    work = field.psi.copy()
    current = outer_root
    scan_hi = R
    bubbles, scales, misfits, notes = [], [], [], []
    while True:
        top = int(np.searchsorted(r, scan_hi, "right"))
        g_work = np.abs(np.asarray(metric.g(work[:top])))
        idx = np.flatnonzero(g_work >= delta0)
        if len(idx) == 0:
            break
        i_star = int(idx[-1])
        r_star = float(r[i_star])
        side = +1 if work[i_star] > current.value else -1
        inner = vset.neighbor(current.value, side)
        if inner is None:
            notes.append(f"unresolved structure at r = {r_star:.6g}: "
                         "no adjacent root on the approach side")
            break
        pair = (metric, inner.value, current.value)
        lam_guess = r_star / _crossing_radii(*pair, delta0)[1]
        rho_lo, rho_hi = _crossing_radii(*pair, 0.5 * delta0)
        w_lo = 0.8 * lam_guess * rho_lo
        w_hi = min(1.25 * lam_guess * rho_hi, scan_hi)
        j0, j1 = window_nodes(r, w_lo, w_hi)
        if j1 - j0 < MIN_FIT_NODES:
            notes.append(f"under-resolved scale near {lam_guess:.4g}: "
                         f"fewer than {MIN_FIT_NODES} nodes in the fit "
                         "window")
            break
        qmap = build_harmonic_map(
            metric, inner.value, +1 if current.value > inner.value else -1)
        lam = math.exp(_fit_log_scale(qmap, r[j0:j1], work[j0:j1],
                                      math.log(lam_guess)))
        if lam < MIN_SCALE_NODES * grid.dr:
            notes.append(f"under-resolved scale {lam:.4g} < "
                         f"{MIN_SCALE_NODES} dr = "
                         f"{MIN_SCALE_NODES * grid.dr:.4g}")
            break
        if scales and lam / scales[-1] > SEPARATION_FLOOR:
            notes.append(f"separation floor: {lam:.4g} / {scales[-1]:.4g} "
                         f"> {SEPARATION_FLOOR}")
            break
        q_lam = eval_Q(qmap, r / lam)
        misfit_sq = window_misfit(grid, work, q_lam, w_lo, w_hi)
        if misfit_sq > MISFIT_FRACTION * qmap.energy:
            notes.append(f"unresolved structure at r = {r_star:.6g}: "
                         f"misfit^2 {misfit_sq:.4g} above "
                         f"{MISFIT_FRACTION:.2f} E(Q) = "
                         f"{MISFIT_FRACTION * qmap.energy:.4g}")
            break
        # anchor at the inner root: values inside the bubble stay put and
        # everything outside collapses onto the next root inward
        q_lam -= qmap.ell
        work -= q_lam
        bubbles.append(qmap)
        scales.append(lam)
        misfits.append(misfit_sq)
        current = vset.root_at(qmap.ell)
        scan_hi = min(scan_hi, 0.9 * rho_lo * lam)

    residual = RadialField(grid, work, field.psi_dot.copy(),
                           ell0=field.ell0, ell_inf=current.value,
                           time=field.time)
    e_total = energy(field, metric, 0.0, R).total
    e_bub = float(sum(q.energy for q in bubbles))
    e_res = energy(residual, metric, 0.0, R).total
    ledger = ExtractionLedger(e_total=e_total, e_bubbles=e_bub,
                              e_residual=e_res,
                              defect=e_total - e_bub - e_res)
    # grid truncation shaves the outermost bubble's tail off e_total, so
    # the energy comparison carries a small tolerance
    if e_bub > e_total * 1.005 + 1e-12:
        notes.append(f"bubble energies {e_bub:.6g} exceed the field "
                     f"energy {e_total:.6g}")
    return BubbleReport(J=len(bubbles), scales=scales, bubbles=bubbles,
                        residual=residual, ledger=ledger, metric=metric,
                        delta0=delta0, eps0=eps0,
                        outer_root=outer_root.value, outer_limit=R,
                        misfits=misfits, notes=notes)


@dataclass
class ResidualNorms:
    h_x_l2: float          # H x L^2 of (b - ell) on [0, R]
    sup: float             # sup |b - ell| on (0, R]
    window_norms: list     # H x L^2 on [eps0 lam_j, lam_j / eps0] per scale


def residual_norms(report):
    """Norms of the residual about its ell_inf: no energy at bubble scales."""
    b = report.residual
    pert = perturbation(b, b.ell_inf)
    full = h_norms(pert, UNIT_ROOT, 0.0, report.outer_limit).h_x_l2
    mask = b.grid.r <= report.outer_limit
    sup = float(np.max(np.abs(pert.psi[mask]))) if np.any(mask) else 0.0
    windows = []
    for lam in report.scales:
        w_lo = report.eps0 * lam
        w_hi = min(lam / report.eps0, report.outer_limit)
        windows.append(h_norms(pert, UNIT_ROOT, w_lo, w_hi).h_x_l2)
    return ResidualNorms(h_x_l2=full, sup=sup, window_norms=windows)


@dataclass
class ExtensionReport:
    field: RadialField
    h_extension: float      # measured H norm of the extension
    h_interior: float       # H norm of the input on [r1, r2]
    sup_interior: float
    bound: float            # h_interior + 3 sup_interior
    slack: float            # bound - h_extension, always >= 0


def extend_H(field, r1, r2):
    """Extend a field given on [r1, r2] to the whole line in H.

    Affine ramps reconnect to 0 on [r1/2, r1] and [r2, 2r2]; outside the
    ramps the extension is exactly 0, and the velocity extends by zero.
    The measured H norm verifiably satisfies

        ||psi||_H <= ||phi||_{H([r1, r2])} + 3 ||phi||_{L^inf([r1, r2])},

    because each ramp contributes 3/2 sup^2 in gradient and under
    9/2 sup^2 in zeroth order (closed forms above).
    """
    grid = field.grid
    r = grid.r
    if not 0 < r1 < r2 <= grid.r_max:
        raise ResolutionError(f"need 0 < r1 < r2 <= r_max, got [{r1}, {r2}]")
    if r1 / 2 < grid.dr or 2 * r2 > grid.r_max:
        raise ResolutionError(
            f"extension ramps [{r1 / 2:.4g}, {r1:.4g}] and [{r2:.4g}, "
            f"{2 * r2:.4g}] fall off the grid")
    c1 = float(np.interp(r1, r, field.psi))
    c2 = float(np.interp(r2, r, field.psi))
    u = np.where(r < r1, c1 * (2.0 * r / r1 - 1.0),
                 np.where(r <= r2, field.psi, c2 * (2.0 - r / r2)))
    u[r <= 0.5 * r1] = 0.0
    u[r >= 2.0 * r2] = 0.0
    inside = (r >= r1) & (r <= r2)
    dot = np.where(inside, field.psi_dot, 0.0)
    ext = RadialField(grid, u, dot, ell0=0.0, ell_inf=0.0, time=field.time)
    h_ext = h_norms(ext, UNIT_ROOT).h
    h_int = h_norms(ext, UNIT_ROOT, r1, r2).h
    sup_int = float(np.max(np.abs(u[inside]))) if np.any(inside) else 0.0
    bound = h_int + 3.0 * sup_int
    return ExtensionReport(field=ext, h_extension=h_ext, h_interior=h_int,
                           sup_interior=sup_int, bound=bound,
                           slack=bound - h_ext)


def _linear_states_at(phi, ell, offsets, dt):
    """Linear-flow states at time offsets (multiples of dt) that grow in
    the direction of dt, advanced in one run from phi with a fixed outer
    boundary and yielded one at a time; a negative dt runs the flow
    backward."""
    stops = []
    for off in offsets:
        n = int(round(off / dt))
        if abs(off - n * dt) > 1e-9 * max(1.0, abs(off)):
            raise ResolutionError(
                f"frame offset {off:.12g} is not a step multiple of "
                f"dt = {dt:.12g}")
        stops.append(n)
    psi, psi_dot = phi.psi.copy(), phi.psi_dot.copy()
    for n in _advance(ell, phi, psi, psi_dot, dt, stops):
        yield RadialField(phi.grid, psi.copy(), psi_dot.copy(), phi.ell0,
                          phi.ell_inf, phi.time + n * dt)


@dataclass
class ScatteringState:
    phi_L: RadialField      # perturbation-space linear data at t_star
    ell: Root
    t_star: float
    alpha_rule: str         # cut radius: "t/2"
    match_times: list
    match_errors: list      # H x L^2 of psi - ell - phi_L on r >= t/2
    defect: float           # construction defect at t_star (whole line)
    selected: TimeSelection


def build_scattering_state(traj):
    """Linear state matching the solution outside the cone r >= t/2, about
    the trajectory's `far_root` ell.

    At the latest time t* that select_times picks, the solution is cut at
    r = t*/2 and extended inward by the affine profile
    2 (psi(t*, t*/2) - ell) r / t*, the velocity by zero; subtracting
    (ell, 0) gives linear data phi_L.  The linear flow of phi_L, run
    forward from t* and backward from t* at -dt, is then compared against
    every stored frame from the first selected time on, on r >= t/2, each
    frame read as its state is reached.  A stored far value that is not a
    root of g raises ResolutionError.
    """
    if traj.blowup is not None:
        raise ResolutionError(
            "scattering state needs a global trajectory, this one has a "
            "blow-up record")
    ell = far_root(traj)
    sel = select_times(traj)
    t_star = sel.times[-1]
    times = traj.times
    snap = traj.snapshots[int(np.searchsorted(times, t_star))]
    grid = snap.grid
    r = grid.r
    base = snap.ell_inf
    if isinstance(traj.system, Metric) and abs(ell.value - base) > 1e-9:
        raise ResolutionError(
            f"far value {base:.6g} is not a root of g; the nearest root "
            f"is {ell.value:.6g}")
    cut = 0.5 * t_star
    psi_cut = float(np.interp(cut, r, snap.psi))
    phi0 = np.where(r >= cut, snap.psi - base,
                    (2.0 * (psi_cut - base) / t_star) * r)
    phi1 = np.where(r >= cut, snap.psi_dot, 0.0)
    phi = RadialField(grid, phi0, phi1, 0.0, 0.0, time=t_star)
    defect = _match_error(snap, phi, 0.0)

    # the frames after t*, run forward, and those of the window before it,
    # run backward from t*, as frame indices found from the times
    later = np.flatnonzero(times > t_star + 1e-12)
    earlier = np.flatnonzero((times >= sel.times[0] - 1e-12)
                             & (times < t_star - 1e-12))[::-1]
    matches = [(t_star, 0.0)]
    for ks, dt in ((later, traj.dt), (earlier, -traj.dt)):
        states = _linear_states_at(phi, ell, times[ks] - t_star, dt)
        for k, L in zip(ks, states):
            s = traj.snapshots[k]
            matches.append((s.time,
                            _match_error(s, L, 0.5 * s.time)))
    matches.sort(key=lambda p: p[0])
    return ScatteringState(phi_L=phi, ell=ell, t_star=t_star,
                           alpha_rule="t/2",
                           match_times=[t for t, _ in matches],
                           match_errors=[e for _, e in matches],
                           defect=defect, selected=sel)


def _match_error(snap, lin, r1):
    """H x L^2 norm of psi - ell_inf - lin on [r1, r_max]."""
    diff = RadialField(snap.grid, (snap.psi - snap.ell_inf) - lin.psi,
                       snap.psi_dot - lin.psi_dot, 0.0, 0.0, snap.time)
    return h_norms(diff, UNIT_ROOT, r1, snap.grid.r_max).h_x_l2


@dataclass
class RegularPart:
    ell_star: Root
    interior_times: list
    interior_norms: list    # H x L^2 of phi - ell_star on [0, T+ - t]
    trace: list             # (t, psi(t, T+ - t)) along stored frames
    settle_gap: float


def extract_regular_part(traj):
    """Wave map matching a blow-up solution outside the backward cone.

    Samples the solution along r = T+ - t, snaps the settled trace to the
    nearest root ell*, replaces the cone interior at the latest safe
    frame by the affine fill (ell* at the origin, matching at the cone)
    with zero velocity, and evolves the filled field toward T+.  The
    interior norm over the shrinking interval [0, T+ - t] decays when the
    filled field is genuinely regular at the blow-up point.
    """
    if traj.blowup is None:
        raise ResolutionError("regular part needs a blow-up record")
    if not isinstance(traj.system, Metric):
        raise ResolutionError("regular part is defined for the nonlinear "
                              "flow only")
    metric = traj.system
    vset = find_vanishing_set(metric)
    t_plus = traj.blowup.t_plus
    grid = traj.snapshots[0].grid
    r = grid.r
    trace = []
    for snap in traj.snapshots:
        rho = t_plus - snap.time
        if grid.dr <= rho <= grid.r_max:
            trace.append((snap.time, float(np.interp(rho, r, snap.psi))))
    if len(trace) < SETTLE_FRAMES:
        raise ResolutionError(
            f"only {len(trace)} frames sample the backward cone; need "
            f"{SETTLE_FRAMES}")
    tail = np.array([v for _, v in trace[-SETTLE_FRAMES:]])
    root = vset.nearest(float(np.median(tail)))
    tol = 0.25 * (root.gap if math.isfinite(root.gap) else 1.0)
    settle_gap = float(np.max(np.abs(tail - root.value)))
    if settle_gap > tol:
        raise ResolutionError(
            f"undetermined ell: cone trace wanders {settle_gap:.4g} from "
            f"the nearest root {root.value:.6g} (tolerance {tol:.4g})")

    # the last frame whose cone radius is safe, found from the times
    radii = t_plus - traj.times
    safe = np.flatnonzero((MARGIN_NODES * grid.dr <= radii)
                          & (radii <= grid.r_max))
    if not len(safe):
        raise ResolutionError("no stored frame keeps the cone radius above "
                              f"{MARGIN_NODES} grid cells")
    last = traj.snapshots[safe[-1]]
    rho_c = t_plus - last.time
    val = float(np.interp(rho_c, r, last.psi))
    fill = root.value + (val - root.value) * (r / rho_c)
    phi_psi = np.where(r >= rho_c, last.psi, fill)
    phi_dot = np.where(r >= rho_c, last.psi_dot, 0.0)
    phi = RadialField(grid, phi_psi, phi_dot, ell0=root.value,
                      ell_inf=last.ell_inf, time=last.time)

    horizon = 0.95 * rho_c
    steps = _step_plan(grid, horizon, traj.cfl)[1]
    run = evolve(phi, metric, horizon, record_every=max(1, steps // 8),
                 cfl=traj.cfl)
    times, norms = [], []
    for snap in run.snapshots:
        rho = t_plus - snap.time
        if rho <= grid.dr:
            continue
        times.append(snap.time)
        norms.append(h_norms(perturbation(snap, root.value), root, 0.0,
                             min(rho, grid.r_max)).h_x_l2)
    return RegularPart(ell_star=root, interior_times=times,
                       interior_norms=norms, trace=trace,
                       settle_gap=settle_gap)
