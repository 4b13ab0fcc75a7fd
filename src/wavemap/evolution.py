"""Radial flows on (0, r_max]: the wave-map equation and its linearization.

Nonlinear flow (f = g g'):

    psi_tt = psi_rr + psi_r / r - f(psi) / r^2

Linearized flow at a root l of g:

    phi_tt = phi_rr + phi_r / r - g'(l)^2 phi / r^2

Both run through one kernel: a flow object, built once per (system,
grid), holds the coefficients of the flux-form second-order radial
Laplacian, the origin ghost and the zeroth-order source, and one explicit
leapfrog (velocity Verlet) loop advances (psi, psi_t).  The node axis is
the last axis, so the kernel also advances a stack of members of shape
(m, n) on one grid in one run; the arithmetic is elementwise, so each
member evolves bit for bit as it would alone.  Nodes sit at
r_i = i dr, i = 1..n; the origin enters only through the regularized ghost
value (psi(0) = ell0, phi(0) = 0), and the outer boundary is fixed by
default (an approximate absorbing variant is available).  The time step
obeys dt <= 0.5 dr; steps refusing the CFL bound raise instead of running.
The energy densities shared with the diagnostics live here too.

Blow-up is watched through the Struwe-style concentration criterion: the
smallest radius rho with E(psi(t); 0, rho) at least one bubble energy.  If
that radius shrinks to a few grid spacings (or the state goes NaN), the
trajectory is truncated and a blow-up record is attached.

Snapshot file format (text, 17 significant digits):

    # wavemap-snapshot v1
    # metric <id>
    # ell0 <value> ell_inf <value>
    # t <time>
    <r> <psi> <psi_dot>     one row per node
"""

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .geometry import GeometryError, Metric, Root, eval_G, find_vanishing_set

CFL_DEFAULT = 0.5
BOUNDARIES = ("fixed", "absorbing")
FMT = "%.17g"


class EvolutionError(ValueError):
    pass


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_i = i dr, i = 1..n_points, so r_n = r_max."""
    r_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 4:
            raise EvolutionError("grid needs at least 4 nodes")
        if self.r_max <= 0:
            raise EvolutionError("r_max must be positive")

    @property
    def dr(self):
        return self.r_max / self.n_points

    @cached_property
    def r(self):
        return np.arange(1, self.n_points + 1) * self.dr


@dataclass
class RadialField:
    """State (psi, psi_t) on a grid at one time.

    ell0 and ell_inf are the boundary values the field hangs from: roots of
    g for nonlinear fields, 0 for perturbation fields of the linear flow.
    """
    grid: RadialGrid
    psi: np.ndarray
    psi_dot: np.ndarray
    ell0: float
    ell_inf: float
    time: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=float)
        self.psi_dot = np.asarray(self.psi_dot, dtype=float)
        if self.psi.shape != (self.grid.n_points,) or \
                self.psi_dot.shape != (self.grid.n_points,):
            raise EvolutionError("field arrays must match the grid")

    def copy(self):
        return RadialField(self.grid, self.psi.copy(), self.psi_dot.copy(),
                           self.ell0, self.ell_inf, self.time)

    def gradient(self):
        """d_r psi on nodes: central differences with the origin ghost,
        one-sided at the outer boundary."""
        dr = self.grid.dr
        out = np.empty_like(self.psi)
        out[0] = (self.psi[1] - self.ell0) / (2 * dr)
        out[1:-1] = (self.psi[2:] - self.psi[:-2]) / (2 * dr)
        out[-1] = (self.psi[-1] - self.psi[-2]) / dr
        return out


@dataclass
class BlowupRecord:
    t_plus: float                 # estimated blow-up time
    concentration_radius: float   # argmax of local energy density at detection
    last_valid_time: float
    reason: str                   # "energy-concentration" or "nan"
    radius_series: list           # (t, rho) pairs from the Struwe criterion


@dataclass
class Trajectory:
    snapshots: list
    dt: float
    scheme: str
    cfl: float
    system: Union[Metric, Root, None] = None
    blowup: Optional[BlowupRecord] = None
    meta: dict = dataclass_field(default_factory=dict)

    @property
    def times(self):
        return np.array([s.time for s in self.snapshots])

    def frame_at(self, t):
        k = int(np.argmin(np.abs(self.times - t)))
        return self.snapshots[k]


def _check_cfl(grid, dt):
    if dt > CFL_DEFAULT * grid.dr * (1 + 1e-12):
        raise EvolutionError(
            f"CFL violation: dt = {dt:.6g} exceeds 0.5 dr = "
            f"{0.5 * grid.dr:.6g}")


def _step_plan(grid, t_final, cfl):
    """(dt, n_steps) of a run to t_final at CFL number cfl: the last step
    ends at or just past t_final."""
    dt = cfl * grid.dr
    _check_cfl(grid, dt)
    if t_final <= 0:
        raise EvolutionError("t_final must be positive")
    return dt, max(1, int(math.ceil(t_final / dt - 1e-9)))


class _Flow:
    """One radial flow on one grid, with its coefficients computed once.

    A Metric gives the wave-map flow, whose ghost psi(0) is ell0; a Root
    gives the linearization at that root, whose ghost is 0.
    """

    def __init__(self, system, grid, ell0):
        r, dr = grid.r, grid.dr
        self.grid = grid
        self.face = r - 0.5 * dr                  # r_{i-1/2}
        self.lap_den = r[:-1] * dr * dr
        self.r_sq = r ** 2
        if isinstance(system, Metric):
            self.ghost, self.source = ell0, system.f
            self.scheme = f"leapfrog-nonlinear:{system.id}"
        elif isinstance(system, Root):
            slope_sq = system.slope ** 2
            self.ghost, self.source = 0.0, lambda phi: slope_sq * phi
            self.scheme = f"leapfrog-linear:ell={system.value:.12g}"
        else:
            raise EvolutionError(
                f"system must be a Metric or Root, got {system!r}")

    def accel(self, psi, a=None, flux=None):
        """Flux-form radial Laplacian minus the zeroth-order source.

        L psi_i = (r_{i+1/2}(psi_{i+1}-psi_i) - r_{i-1/2}(psi_i-psi_{i-1}))
                  / (r_i dr^2), ghost = psi(0).
        The last node's acceleration is set by the boundary handler, not
        here.  The quotients stay divisions, not products with stored
        reciprocals: those change last bits, and stored trajectories are
        reproduced byte for byte.  `a` and `flux` (shaped like psi) are
        filled when given, else allocated; `a` is returned.
        """
        if a is None:
            a, flux = np.empty_like(psi), np.empty_like(psi)
        np.subtract(psi[..., :1], self.ghost, out=flux[..., :1])
        np.subtract(psi[..., 1:], psi[..., :-1], out=flux[..., 1:])
        flux *= self.face
        inner = a[..., :-1]
        np.subtract(flux[..., 1:], flux[..., :-1], out=inner)
        inner /= self.lap_den
        inner -= (self.source(psi) / self.r_sq)[..., :-1]
        a[..., -1] = 0.0
        return a


def _apply_boundary(psi, psi_dot, grid, boundary, ell_inf):
    if boundary == "fixed":
        psi_dot[..., -1] = 0.0
    elif boundary == "absorbing":
        # approximate outgoing condition psi_t = -psi_r - (psi - ell_inf)/(2r)
        psi_dot[..., -1] = (-(psi[..., -1] - psi[..., -2]) / grid.dr
                            - (psi[..., -1] - ell_inf) / (2 * grid.r[-1]))
    else:
        raise EvolutionError(f"unknown boundary {boundary!r}")


def _leapfrog(flow, psi, psi_dot, a, dt, n_steps, boundary, ell_inf):
    """Advance (psi, psi_dot) in place by n_steps velocity-Verlet steps.

    The arrays are one field, shape (n,), or a stack of m members on the
    flow's grid, shape (m, n).  `a` is the acceleration at the current
    psi; it is updated in place to the acceleration at the final psi and
    returned, so consecutive calls continue one run.  The flux and the
    kick and drift products live in two work arrays allocated once per
    call.
    """
    grid = flow.grid
    half = 0.5 * dt
    flux, work = np.empty_like(psi), np.empty_like(psi)
    for _ in range(n_steps):
        psi_dot += np.multiply(a, half, out=work)
        _apply_boundary(psi, psi_dot, grid, boundary, ell_inf)
        psi += np.multiply(psi_dot, dt, out=work)
        flow.accel(psi, a, flux)
        psi_dot += np.multiply(a, half, out=work)
        _apply_boundary(psi, psi_dot, grid, boundary, ell_inf)
    return a


def _step(field, system, dt, boundary):
    _check_cfl(field.grid, abs(dt))
    flow = _Flow(system, field.grid, field.ell0)
    psi, psi_dot = field.psi.copy(), field.psi_dot.copy()
    _leapfrog(flow, psi, psi_dot, flow.accel(psi), dt, 1, boundary,
              field.ell_inf)
    return RadialField(field.grid, psi, psi_dot, field.ell0, field.ell_inf,
                       field.time + dt)


def step_nonlinear(field, metric, dt, boundary="fixed"):
    """One leapfrog step of the wave-map flow; returns a new field."""
    return _step(field, metric, dt, boundary)


def step_linear(field, ell, dt, boundary="fixed"):
    """One leapfrog step of the linearized flow at the root `ell`."""
    return _step(field, ell, dt, boundary)


@dataclass
class TransformedField:
    """phi / r^k with the weight exponent of the flat norm it lives in."""
    grid: RadialGrid
    values: np.ndarray
    weight_exponent: float    # 1 + 2|g'(l)|: norm is int |d_r .|^2 r^w dr
    slope: float


def transform_T(field, ell):
    """T phi = phi / r^{|g'(l)|}, mapping the linear flow at l to a free
    radial wave in 2 + 2|g'(l)| space dimensions.

    |g'(l)| is used (the sign convention psi -> -psi absorbs negative
    slopes).  Fields must vanish like r^{|g'(l)|} at the origin to lie in
    the image domain; a diverging transformed profile is rejected.
    """
    k = abs(ell.slope)
    k_int = round(k)
    if abs(k - k_int) > 1e-9 or k_int < 1:
        raise EvolutionError(
            f"transform needs a positive integer slope, got g'(l) = {ell.slope}")
    r = field.grid.r
    vals = field.psi / r ** k_int
    head = np.abs(vals[:8])
    tail_scale = np.median(head[4:]) + 1e-300
    if head[0] > 4.0 * tail_scale and head[0] > 1e-12:
        raise EvolutionError(
            "field not in the image domain of T: profile diverges at the "
            f"origin after dividing by r^{k_int}")
    return TransformedField(field.grid, vals, 1.0 + 2.0 * k_int, float(k))


def discrete_energy(field, system):
    """The flux-form energy the leapfrog integrator actually conserves.

    Gradient terms live on half nodes (matching the discrete Laplacian's
    summation-by-parts structure), kinetic and zeroth-order terms on
    nodes, with the r = 0 ghost carrying ell0:

        sum_i r_i dr psidot_i^2
          + sum_links r_{i+1/2} (psi_{i+1} - psi_i)^2 / dr
          + sum_i g(psi_i)^2 / r_i dr          (nonlinear)
            resp. g'(l)^2 psi_i^2 / r_i dr     (linear).

    Drift of this quantity isolates time-integration error from
    quadrature mismatch; it agrees with the trapezoid energy to O(dr^2).
    """
    grid = field.grid
    r, dr = grid.r, grid.dr
    psi_ext = np.concatenate([[field.ell0], field.psi])
    jumps = np.diff(psi_ext)
    r_half = np.concatenate([[0.5 * dr], 0.5 * (r[1:] + r[:-1])])
    kinetic = float(np.sum(r * dr * field.psi_dot ** 2))
    gradient = float(np.sum(r_half * jumps ** 2 / dr))
    zeroth = float(np.sum(_zeroth_weight(system, field.psi) / r * dr))
    return kinetic + gradient + zeroth


def min_bubble_energy(metric, ell0):
    """Least connector energy attachable at the root ell0 (inf if none)."""
    vset = find_vanishing_set(metric)
    try:
        root = vset.root_at(ell0)
    except GeometryError:
        return math.inf
    energies = []
    for side in (+1, -1):
        nb = vset.neighbor(root.value, side)
        if nb is not None:
            energies.append(2 * abs(eval_G(metric, nb.value)
                                    - eval_G(metric, root.value)))
    return min(energies) if energies else math.inf


def _zeroth_weight(system, psi):
    """The zeroth-order energy density numerator: g(psi)^2 for the
    nonlinear flow, g'(l)^2 psi^2 for the linear flow at l."""
    if isinstance(system, Metric):
        return np.asarray(system.g(psi)) ** 2
    if isinstance(system, Root):
        return system.slope ** 2 * psi ** 2
    raise EvolutionError(f"system must be a Metric or Root, got {system!r}")


def _densities(field, system):
    """(r_ext, kin, grad, pot) densities (already times r) with the ghost."""
    r = field.grid.r
    grad = field.gradient()
    kin = field.psi_dot ** 2 * r
    gr = grad ** 2 * r
    pot = _zeroth_weight(system, field.psi) / r
    ghost = lambda arr: np.concatenate([[0.0], arr])
    return ghost(r), ghost(kin), ghost(gr), ghost(pot)


def _prefix(x, y):
    """Cumulative trapezoid of y over x, starting at 0."""
    return np.concatenate(
        [[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def _concentration_radius(field, metric, e_crit):
    """Smallest node radius enclosing energy e_crit, or None."""
    r_ext, kin, grad, pot = _densities(field, metric)
    prefix = _prefix(r_ext, kin + grad + pot)
    idx = np.searchsorted(prefix, e_crit)
    if idx >= len(prefix):
        return None
    return float(r_ext[idx])


def evolve(field, system, t_final, record_every=64, cfl=CFL_DEFAULT,
           boundary="fixed", detect_blowup=True, blowup_floor_nodes=24):
    """Advance a field to t_final, recording frames every `record_every`
    steps (the initial and final states are always frames).

    `system` selects the flow: a Metric runs the nonlinear wave-map
    equation, a Root the linearization at that root.  On numerical blow-up
    the trajectory is truncated at the last recorded frame and a
    BlowupRecord is attached.  Detection fires when the radius enclosing
    one bubble energy shrinks over consecutive frames down to
    blowup_floor_nodes grid cells; under-resolved focusing bounces at
    10-20 cells, so the floor sits above that.
    """
    grid = field.grid
    dt, n_steps = _step_plan(grid, t_final, cfl)
    if record_every < 1:
        raise EvolutionError("record_every must be at least 1")

    flow = _Flow(system, grid, field.ell0)
    e_crit = min_bubble_energy(system, field.ell0) \
        if isinstance(system, Metric) else math.inf
    watch = detect_blowup and math.isfinite(e_crit)

    psi = field.psi.copy()
    psi_dot = field.psi_dot.copy()
    snapshots = [field.copy()]
    blowup = None
    radius_series = []
    floor = blowup_floor_nodes * grid.dr

    a = flow.accel(psi)
    step = 0
    while step < n_steps:
        # advance to the next recorded step: a multiple of record_every,
        # or the last step
        chunk = min(record_every - step % record_every, n_steps - step)
        a = _leapfrog(flow, psi, psi_dot, a, dt, chunk, boundary,
                      field.ell_inf)
        step += chunk
        t = field.time + step * dt

        if not np.all(np.isfinite(psi)) or not np.all(np.isfinite(psi_dot)):
            last = snapshots[-1]
            blowup = BlowupRecord(
                t_plus=t, concentration_radius=float("nan"),
                last_valid_time=last.time, reason="nan",
                radius_series=radius_series)
            break
        frame = RadialField(grid, psi.copy(), psi_dot.copy(),
                            field.ell0, field.ell_inf, t)
        snapshots.append(frame)
        if watch:
            rho = _concentration_radius(frame, system, e_crit)
            if rho is not None:
                radius_series.append((t, rho))
                if rho <= floor and _shrinking(radius_series):
                    blowup = _make_blowup_record(
                        frame, system, radius_series)
                    break

    return Trajectory(snapshots=snapshots, dt=dt, scheme=flow.scheme,
                      cfl=cfl, system=system, blowup=blowup,
                      meta={"boundary": boundary,
                            "record_every": record_every})


def _shrinking(series, window=3):
    if len(series) < window:
        return False
    rhos = [rho for _, rho in series[-window:]]
    return all(b <= a for a, b in zip(rhos, rhos[1:]))


def _make_blowup_record(frame, metric, radius_series):
    r = frame.grid.r
    grad = frame.gradient()
    dens = (frame.psi_dot ** 2 + grad ** 2
            + _zeroth_weight(metric, frame.psi) / r ** 2)
    r_peak = float(r[int(np.argmax(dens))])
    ts = np.array([t for t, _ in radius_series[-5:]])
    rhos = np.array([rho for _, rho in radius_series[-5:]])
    t_plus = frame.time + rhos[-1]
    if len(ts) >= 2:
        beta, alpha = np.polyfit(ts, rhos, 1)
        if beta < -1e-12:
            t_fit = -alpha / beta
            if frame.time < t_fit < frame.time + 2 * rhos[-1] + 10 * frame.grid.dr:
                t_plus = float(t_fit)
    return BlowupRecord(t_plus=t_plus, concentration_radius=r_peak,
                        last_valid_time=frame.time,
                        reason="energy-concentration",
                        radius_series=radius_series)


# ---------------------------------------------------------------------------
# snapshot I/O

def write_snapshot(field, path, metric_id):
    with open(path, "w") as fh:
        fh.write("# wavemap-snapshot v1\n")
        fh.write(f"# metric {metric_id}\n")
        fh.write(f"# ell0 {FMT % field.ell0} ell_inf {FMT % field.ell_inf}\n")
        fh.write(f"# t {FMT % field.time}\n")
        for r, p, pd in zip(field.grid.r, field.psi, field.psi_dot):
            fh.write(f"{FMT % r} {FMT % p} {FMT % pd}\n")


def read_snapshot(path):
    """Returns (RadialField, metric_id).

    Raises EvolutionError unless the file holds the four header lines and
    then rows of three numbers (r psi psi_dot) on at least 4 uniform nodes.
    """
    with open(path, errors="replace") as fh:
        header = fh.readline().strip()
        if header != "# wavemap-snapshot v1":
            raise EvolutionError(f"{path}: not a wavemap snapshot (v1)")
        head = [fh.readline().split() for _ in range(3)]
        try:
            metric_id = head[0][2]
            ell0, ell_inf = float(head[1][2]), float(head[1][4])
            t = float(head[2][2])
        except (IndexError, ValueError):
            raise EvolutionError(f"{path}: truncated or malformed header")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # an empty body: refused below
            try:
                rows = np.loadtxt(fh, ndmin=2)
            except ValueError as e:
                raise EvolutionError(f"{path}: {e}")
    if rows.shape[1] != 3 or len(rows) < 4:
        raise EvolutionError(f"{path}: expected rows of three numbers "
                             f"(r psi psi_dot) on at least 4 nodes")
    r, psi, psi_dot = rows[:, 0], rows[:, 1], rows[:, 2]
    dr = r[0]
    if np.max(np.abs(np.diff(r) - dr)) > 1e-9 * dr:
        raise EvolutionError(f"{path}: nodes are not uniform")
    grid = RadialGrid(r_max=float(r[-1]), n_points=len(r))
    return RadialField(grid, psi, psi_dot, ell0, ell_inf, t), metric_id
