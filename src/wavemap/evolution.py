"""Radial flows on (0, r_max]: the wave-map equation and its linearization.

Nonlinear flow (f = g g'):

    psi_tt = psi_rr + psi_r / r - f(psi) / r^2

The source is `Metric.f`: built-in targets evaluate an equal, cheaper form
of g g' (sin(2 psi) / 2 on the sphere), custom targets g g' itself.

Linearized flow at a root l of g:

    phi_tt = phi_rr + phi_r / r - g'(l)^2 phi / r^2

Both run through one kernel: a flow object, built once per (system,
grid, members), holds the coefficients of the flux-form second-order
radial Laplacian, the origin ghost and the zeroth-order source, and one
explicit leapfrog (velocity Verlet) loop advances (psi, psi_t).  Every run
goes through one stop-step loop, `_advance`, whose step dt may be negative
to run the flow backward.  The node axis is the first axis: one field has
shape (n,), a stack of m members on one grid shape (n, m) in C order, and
the kernel steps both as flat buffers with a node stride of m (m = 1 for
one field), every coefficient repeated m times.  The arithmetic is
elementwise, so each member evolves bit for bit as it would alone.  Nodes
sit at r_i = i dr, i = 1..n; the origin enters only through the
regularized ghost value (psi(0) = ell0, phi(0) = 0), and the outer
boundary is fixed by default (an approximate absorbing variant is
available).  The time step obeys 0 < |dt| <= 0.5 dr; a step outside
that bound raises instead of running.  The energy densities shared with
the diagnostics live here too.

Waves move at finite speed, and the stencil reaches one node further per
step.  So at each stop, and after its first step, a run finds the tail
of bitwise quiet nodes, where psi holds the bits of ell_inf and psi_t and
the acceleration those of +0.0 in every member, and its next steps touch
only the prefix its domain of dependence can have reached; the tail keeps
the bits a full-width step gives it.  A stack's window is that of its
widest member.  A quiet acceleration needs a source that vanishes
exactly at ell_inf: the sphere at 0, yang-mills at +-1 and every linear
flow, not the sphere at pi (0.5 sin(2 pi) = -1.2e-16), whose runs step
every node.

Blow-up is watched through the Struwe-style concentration criterion: the
smallest radius rho with E(psi(t); 0, rho) at least one bubble energy.  If
that radius shrinks to a few grid spacings (or the state goes NaN), the
trajectory is truncated and a blow-up record is attached.

Frames are stored by `write_snapshot` and read by `read_snapshot` as one
standard .npy file of float64 (frames, 2, n_points), rows psi and psi_dot.
Both give a `FrameFile`, which reads frame k by offset when asked, so a
store of any length is walked, and written by a run, one frame at a time.
A store's header is written once, when it is committed, for the frames
it holds, so only `evolve` decides how many frames a run records.
"""

import io
import itertools
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .geometry import GeometryError, Metric, Root, eval_G, find_vanishing_set

CFL_DEFAULT = 0.5
BOUNDARIES = ("fixed", "absorbing")
BLOWUP_FLOOR_NODES = 24   # above the 10-20 cells where focusing bounces


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
        if not 0 < self.r_max < math.inf:
            raise EvolutionError("r_max must be positive and finite")

    @property
    def dr(self):
        return self.r_max / self.n_points

    @cached_property
    def r(self):
        """The nodes: a view of r_ghost past its ghost, so a grid holds
        its radii once."""
        return self.r_ghost[1:]

    @cached_property
    def r_ghost(self):
        """0 followed by the nodes: the radii of the energy densities,
        whose quadrature closes at the origin ghost."""
        return np.arange(self.n_points + 1) * self.dr


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

    def gradient(self, i0=0, i1=None, out=None):
        """d_r psi on the nodes i0 <= i < i1 (default: every node), written
        into `out` when given: central differences, with psi(0) = ell0 at
        the origin and one-sided at the last node.  A node at either end
        of the range reads its neighbour outside it (`_density_reads`), so
        each node has the bits of the full pass."""
        psi, n, dr = self.psi, self.grid.n_points, self.grid.dr
        i1 = n if i1 is None else i1
        out = np.empty(i1 - i0) if out is None else out
        lo, hi = max(i0, 1), min(i1, n - 1)       # central differences
        central = out[lo - i0:hi - i0]
        np.subtract(psi[lo + 1:hi + 1], psi[lo - 1:hi - 1], out=central)
        central /= 2 * dr
        if i0 == 0:
            out[0] = (psi[1] - self.ell0) / (2 * dr)
        if i1 == n:
            out[-1] = (psi[-1] - psi[-2]) / dr
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
    snapshots: Sequence     # of RadialField: a list, or a store's FrameFile
    dt: float
    scheme: str
    cfl: float
    system: Union[Metric, Root]
    blowup: Optional[BlowupRecord] = None

    @property
    def times(self):
        """The frame times; a store's come from its manifest, so no frame
        is read."""
        frames = self.snapshots
        return np.array(frames.times if isinstance(frames, FrameFile)
                        else [s.time for s in frames])


def _check_cfl(grid, dt):
    """Refuse a step size outside (0, 0.5 dr], NaN included."""
    if not dt > 0:
        raise EvolutionError(f"time step dt = {dt:.6g} must be positive")
    if not dt <= CFL_DEFAULT * grid.dr * (1 + 1e-12):
        raise EvolutionError(
            f"CFL violation: dt = {dt:.6g} exceeds 0.5 dr = "
            f"{0.5 * grid.dr:.6g}")


def _step_plan(grid, t_final, cfl):
    """(dt, n_steps) of a run to t_final at CFL number cfl: the last step
    ends at or just past t_final.  A count above sys.maxsize, which no
    index can hold, raises EvolutionError."""
    dt = cfl * grid.dr
    _check_cfl(grid, dt)
    if not 0 < t_final < math.inf:
        raise EvolutionError("t_final must be positive and finite")
    steps = t_final / dt - 1e-9
    if not steps <= sys.maxsize:
        raise EvolutionError(
            f"t_final = {t_final:.6g} takes {steps:.3g} steps of dt = "
            f"{dt:.6g}, more than the {sys.maxsize} a run can count")
    return dt, max(1, int(math.ceil(steps)))


class _Flow:
    """One radial flow on one grid for stacks of m members, with its
    coefficients computed once, each repeated m times to match the flat
    node-major layout.

    A Metric gives the wave-map flow, whose ghost psi(0) is ell0; a Root
    gives the linearization at that root, whose ghost is 0.
    """

    def __init__(self, system, grid, ell0, m):
        r, dr = grid.r, grid.dr
        self.grid, self.m = grid, m
        self.face = np.repeat(r - 0.5 * dr, m)    # r_{i-1/2}
        self.lap_den = np.repeat(r[:-1] * dr * dr, m)
        self.r_sq = np.repeat(r ** 2, m)
        if isinstance(system, Metric):
            self.ghost, self.f = ell0, system.f
        elif isinstance(system, Root):
            slope_sq = system.slope ** 2
            self.ghost = 0.0
            self.f = lambda phi, out: np.multiply(slope_sq, phi, out=out)
        else:
            raise EvolutionError(
                f"system must be a Metric or Root, got {system!r}")

    def accel(self, psi, a=None, flux=None):
        """Flux-form radial Laplacian minus the zeroth-order source.

        L psi_i = (r_{i+1/2}(psi_{i+1}-psi_i) - r_{i-1/2}(psi_i-psi_{i-1}))
                  / (r_i dr^2), ghost = psi(0).
        psi is flat and node-major: entry i m + j is node i of member j.
        The last node's acceleration is set by the boundary handler, not
        here.  The quotients stay divisions, not products with stored
        reciprocals: those change last bits, and stored trajectories are
        reproduced byte for byte.  `a` and `flux` (shaped like psi) are
        filled when given, else allocated; `a` is returned.  The spent
        flux holds the source over r^2, so a call given both allocates
        nothing.  psi may be a prefix of the grid's nodes, whose last node
        then takes the 0.
        """
        if a is None:
            a, flux = np.empty_like(psi), np.empty_like(psi)
        m, w = self.m, psi.size
        np.subtract(psi[:m], self.ghost, out=flux[:m])
        np.subtract(psi[m:], psi[:-m], out=flux[m:])
        flux *= self.face[:w]
        inner = a[:-m]
        np.subtract(flux[m:], flux[:-m], out=inner)
        inner /= self.lap_den[:w - m]
        inner -= np.divide(self.f(psi, out=flux), self.r_sq[:w], out=flux)[:-m]
        a[-m:] = 0.0
        return a

    def apply_boundary(self, psi, psi_dot, kind, ell_inf):
        """Set the last node's psi_dot of every member of the flat
        node-major psi, psi_dot by the boundary rule `kind`."""
        m, grid = self.m, self.grid
        if kind == "fixed":
            psi_dot[-m:] = 0.0
        else:
            # approximate outgoing condition
            # psi_t = -psi_r - (psi - ell_inf) / (2r)
            psi_dot[-m:] = (-(psi[-m:] - psi[-2 * m:-m]) / grid.dr
                            - (psi[-m:] - ell_inf) / (2 * grid.r[-1]))


def _quiet_from(psi, psi_dot, a, ell_inf, m):
    """The first node q from which every member of the flat node-major
    psi, psi_dot, a is bitwise quiet: psi holds the bits of ell_inf + 0.0
    (a drift turns -0.0 into +0.0), psi_dot and a those of +0.0.  The last
    node's psi_dot, which the boundary rule rewrites before it is read,
    does not count.  q is the node after the widest member's last loud
    entry, ceil(q_flat / m)."""
    loud = psi.view(np.int64) ^ np.float64(ell_inf + 0.0).view(np.int64)
    loud |= a.view(np.int64)
    loud[:-m] |= psi_dot[:-m].view(np.int64)
    loud = loud[::-1] != 0
    last = int(loud.argmax())
    return -((last - loud.size) // m) if loud[last] else 0


def _leapfrog(flow, psi, psi_dot, a, dt, n_steps, boundary, ell_inf, quiet):
    """Advance (psi, psi_dot) in place by n_steps velocity-Verlet steps.

    The arrays are flat and node-major, flow.m members per node (one
    field for m = 1).  `a` is the acceleration at the current psi; it is
    updated in place to the acceleration at the final psi, so consecutive
    calls continue one run.  A step allocates nothing: the drift product
    and the flux share one work array, as p += v dt has used the product
    before `accel` writes the flux, and the half kick acc dt/2 has the
    other.  It is formed once per step, after the new acceleration, and
    serves the second kick of that step and the first of the next.

    Nodes quiet.. start bitwise quiet (`_quiet_from`), and step k changes
    only nodes below quiet + k, so it runs on the prefix of the first
    quiet + k + 1 nodes, entries [0, (quiet + k + 1) m), whose last node
    is quiet and takes the acceleration 0.  The boundary rule runs on the
    grid's last node.  The half kick of the widest prefix the call reaches
    is formed when it starts; past a step's prefix, `a` keeps its bits, so
    that step's half kick there does too.
    """
    m, size = flow.m, psi.size
    half = 0.5 * dt
    whole = psi, psi_dot, a, np.empty_like(psi), np.empty_like(psi)
    reach = (quiet + n_steps + 1) * m
    np.multiply(a[:reach], half, out=whole[-1][:reach])
    for k in range(1, n_steps + 1):
        w = (quiet + k + 1) * m
        p, v, acc, work, kick = \
            whole if w >= size else [x[:w] for x in whole]
        v += kick
        flow.apply_boundary(psi, psi_dot, boundary, ell_inf)
        p += np.multiply(v, dt, out=work)
        flow.accel(p, acc, work)
        v += np.multiply(acc, half, out=kick)
        flow.apply_boundary(psi, psi_dot, boundary, ell_inf)


def _advance(system, field, psi, psi_dot, dt, stops, boundary="fixed"):
    """Run the flow of `system` in place on psi, psi_dot by steps of dt,
    yielding each count of the increasing `stops` once that many are done.
    The arrays are one field, shape (n,), or m members node-major, shape
    (n, m), on field's grid, ell0 and ell_inf, float64 and C-contiguous,
    which the kernel steps through flat views.  Arrays of differing
    shapes, of a shape that is not (n,) or (n, m), or not C-contiguous
    float64 raise EvolutionError before a step.  A member-major (m, n)
    stack is refused when m != n; a square one cannot be told apart by
    its shape and must already be node-major.  The caller leaves the
    arrays as they are between stops."""
    if boundary not in BOUNDARIES:
        raise EvolutionError(f"unknown boundary {boundary!r}")
    _check_cfl(field.grid, abs(dt))
    n = field.grid.n_points
    if psi.shape != psi_dot.shape:
        raise EvolutionError(f"psi {psi.shape} and psi_dot "
                             f"{psi_dot.shape} differ in shape")
    if psi.ndim > 2 or psi.shape[:1] != (n,) or psi.size == 0:
        raise EvolutionError(f"arrays of shape {psi.shape} are not (n,) or "
                             f"(n, m) on a grid of {n} nodes")
    if not all(x.dtype == np.float64 and x.flags.c_contiguous
               for x in (psi, psi_dot)):
        raise EvolutionError("psi and psi_dot must be C-contiguous float64 "
                             "arrays to be stepped in place")
    m = psi.size // n
    psi, psi_dot = psi.reshape(-1), psi_dot.reshape(-1)
    flow = _Flow(system, field.grid, field.ell0, m)
    a = flow.accel(psi)
    done = 0
    for stop in stops:
        while done < stop:
            quiet = _quiet_from(psi, psi_dot, a, field.ell_inf, m)
            # a forward first step turns the -0.0 data may carry in their
            # tail into +0.0, so the quiet tail is found again after it
            chunk = 1 if done == 0 else stop - done
            _leapfrog(flow, psi, psi_dot, a, dt, chunk, boundary,
                      field.ell_inf, quiet)
            done += chunk
        yield stop


def step_linear(field, ell, dt, n_steps):
    """The field n_steps leapfrog steps of dt later under the linearized
    flow at the root `ell` (fixed outer boundary; a negative dt runs it
    backward), as a new field.  n_steps < 1 raises EvolutionError."""
    if not n_steps >= 1:
        raise EvolutionError(f"n_steps = {n_steps} must be at least 1")
    psi, psi_dot = field.psi.copy(), field.psi_dot.copy()
    next(_advance(ell, field, psi, psi_dot, dt, [n_steps]))
    return RadialField(field.grid, psi, psi_dot, field.ell0, field.ell_inf,
                       field.time + n_steps * dt)


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


def _zeroth_weight(system, psi, out=None):
    """The zeroth-order energy density numerator: g(psi)^2 for the
    nonlinear flow, g'(l)^2 psi^2 for the linear flow at l; written into
    `out` when given."""
    if isinstance(system, Metric):
        return np.square(np.asarray(system.g(psi)), out=out)
    if isinstance(system, Root):
        out = np.square(psi, out=out)
        out *= system.slope ** 2
        return out
    raise EvolutionError(f"system must be a Metric or Root, got {system!r}")


def _densities(field, system, i0=0, i1=None, rows=(0, 1, 2)):
    """(x, dens): the kinetic (row 0), gradient (1) and zeroth-order (2)
    energy densities, each already times r, of the nodes i0 <= i < i1
    (default: every node) as the rows of one (len(rows), len(x)) block, at
    the radii x.  `rows` names the rows built, in the order given; a row
    left out is not computed.

    A range from the origin (i0 = 0) leads with the ghost r = 0, where
    every density is 0; a range further out has no ghost.  d_r psi is
    `RadialField.gradient` on the range, so each node's densities have the
    bits the full pass gives them, whichever rows are built."""
    grid = field.grid
    i1 = grid.n_points if i1 is None else i1
    ghost = int(i0 == 0)
    x = grid.r_ghost[i0 + 1 - ghost:i1 + 1]
    r = x[ghost:]
    dens = np.empty((len(rows), len(x)))
    dens[:, :ghost] = 0.0
    for row, out in zip(rows, dens[:, ghost:]):
        if row == 0:
            np.square(field.psi_dot[i0:i1], out=out)
            out *= r
        elif row == 1:
            field.gradient(i0, i1, out=out)
            np.square(out, out=out)
            out *= r
        else:
            _zeroth_weight(system, field.psi[i0:i1], out=out)
            out /= r
    return x, dens


def _density_reads(n, i0, i1):
    """[k0, k1): the nodes whose psi the densities of the nodes
    i0 <= i < i1 read, on a grid of n nodes; d_r psi reads each node's
    neighbours."""
    return max(i0 - 1, 0), min(i1 + 1, n)


def _prefix(x, y, out=None):
    """Cumulative trapezoid of y over x, starting at 0, written into `out`
    when given."""
    out = np.empty(len(y)) if out is None else out
    out[0] = 0.0
    seg = out[1:]
    np.add(y[1:], y[:-1], out=seg)
    seg *= 0.5
    seg *= np.diff(x)
    np.cumsum(seg, out=seg)
    return out


def _concentration_radius(field, metric, e_crit):
    """(rho, x, dens): the smallest node radius enclosing energy e_crit,
    or None, and the summed density block times r at the radii x.  The
    energy prefix is written into the spent gradient row."""
    x, (dens, grad, pot) = _densities(field, metric)
    dens += grad
    dens += pot
    prefix = _prefix(x, dens, out=grad)
    idx = np.searchsorted(prefix, e_crit)
    return (float(x[idx]) if idx < len(prefix) else None), x, dens


def evolve(field, system, t_final, record_every=64, cfl=CFL_DEFAULT,
           boundary="fixed", sink=None):
    """Advance a field to t_final, recording frames every `record_every`
    steps (the initial and final states are always frames).

    `system` selects the flow: a Metric runs the nonlinear wave-map
    equation, a Root the linearization at that root.  Each frame is
    appended to `sink` as the run makes it, a new list by default (a
    FrameFile from write_snapshot streams them into a store), and the
    sink is the trajectory's snapshots.  On numerical blow-up the
    trajectory is truncated at the last recorded frame and a BlowupRecord
    is attached.  Detection fires when the radius enclosing one bubble
    energy shrinks over consecutive frames down to BLOWUP_FLOOR_NODES grid
    cells.
    """
    grid = field.grid
    dt, n_steps = _step_plan(grid, t_final, cfl)
    if record_every < 1:
        raise EvolutionError("record_every must be at least 1")
    stops = itertools.chain(range(record_every, n_steps, record_every),
                            [n_steps])

    e_crit = min_bubble_energy(system, field.ell0) \
        if isinstance(system, Metric) else math.inf

    psi = field.psi.copy()
    psi_dot = field.psi_dot.copy()
    snapshots = [] if sink is None else sink
    snapshots.append(field.copy())
    blowup = None
    radius_series = []
    floor = BLOWUP_FLOOR_NODES * grid.dr

    for step in _advance(system, field, psi, psi_dot, dt, stops, boundary):
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
        if math.isfinite(e_crit):
            rho, x, dens = _concentration_radius(frame, system, e_crit)
            if rho is not None:
                radius_series.append((t, rho))
                if rho <= floor and _shrinking(radius_series):
                    blowup = _make_blowup_record(frame, x, dens,
                                                 radius_series)
                    break
            del x, dens
        del frame   # held across the next steps, these grew peak RSS

    # _advance has refused any system that is not a Metric or a Root
    scheme = f"leapfrog-nonlinear:{system.id}" \
        if isinstance(system, Metric) \
        else f"leapfrog-linear:ell={system.value:.12g}"
    return Trajectory(snapshots=snapshots, dt=dt, scheme=scheme,
                      cfl=cfl, system=system, blowup=blowup)


def _shrinking(series):
    """Whether the last three concentration radii do not grow."""
    rhos = [rho for _, rho in series[-3:]]
    return len(rhos) == 3 and all(b <= a for a, b in zip(rhos, rhos[1:]))


def _make_blowup_record(frame, x, dens, radius_series):
    """The record of a blow-up detected at frame, whose energy density
    times r, past the origin ghost, is dens[1:] at the nodes x[1:]."""
    r_peak = float(x[1 + int(np.argmax(dens[1:] / x[1:]))])
    ts = np.array([t for t, _ in radius_series[-5:]])
    rhos = np.array([rho for _, rho in radius_series[-5:]])
    t_plus = float(frame.time + rhos[-1])
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
# frame I/O

def _header(n_frames, n_points):
    """The .npy header of float64 (n_frames, 2, n_points), as np.save
    writes it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
        "fortran_order": False,
        "shape": (n_frames, 2, n_points)})
    return buf.getvalue()


class FrameFile(Sequence):
    """The frames of one store file: float64 (frames, 2, n_points), rows
    psi and psi_dot, after an .npy header of `offset` bytes.

    Frame k is read by offset through the one open file when it is asked
    for, into arrays of its own, so the store is walked holding one frame.
    A FrameFile that write_snapshot opens takes frames by `append` as a
    run makes them, into a part file beside its path, after room for the
    header; `commit` writes the header for the frames stored and moves the
    part file there, and `close` removes a part file that was not
    committed.
    """

    def __init__(self, fh, grid, ell0, ell_inf, times, offset, path):
        """A store read through fh, or, given the `path` to commit to, one
        written through fh, its part file."""
        self._fh, self.grid, self.ell0, self.ell_inf = fh, grid, ell0, ell_inf
        self.times, self._offset, self._path = list(times), offset, path
        self._part = fh.name if path is not None else None

    def __len__(self):
        return len(self.times)

    def _at(self, k):
        """The offset of frame k."""
        return self._offset + k * 16 * self.grid.n_points

    def __getitem__(self, k):
        k = range(len(self))[k]
        frame = np.empty((2, self.grid.n_points))
        self._fh.seek(self._at(k))
        if self._fh.readinto(frame) != frame.nbytes:
            raise EvolutionError(f"{self._fh.name}: frame {k} is cut short")
        return RadialField(self.grid, frame[0], frame[1], self.ell0,
                           self.ell_inf, self.times[k])

    def append(self, field):
        """Write field after the last frame; the first fixes the grid and
        the boundary values and leaves room for the header."""
        if self._part is None:
            raise EvolutionError(f"{self._fh.name}: opened for reading")
        if not self.times:
            self.grid, self.ell0, self.ell_inf = \
                field.grid, field.ell0, field.ell_inf
            self._offset = len(_header(0, self.grid.n_points))
        elif field.grid != self.grid:
            raise EvolutionError(f"{self._path}: a frame on {field.grid} "
                                 f"after {len(self)} on {self.grid}")
        self._fh.seek(self._at(len(self)))
        self._fh.write(np.ascontiguousarray(field.psi))
        self._fh.write(np.ascontiguousarray(field.psi_dot))
        self.times.append(field.time)

    def commit(self):
        """Write the header for the frames stored into the room left for
        it, then move the part file to the store's path.  The header
        length does not depend on the count (numpy pads the growth axis),
        and a numpy that gives another length is refused rather than the
        file broken.  The file stays open for reading."""
        if not self.times:
            raise EvolutionError(f"{self._path}: no frame to store")
        header = _header(len(self), self.grid.n_points)
        if len(header) != self._offset:
            raise EvolutionError(
                f"{self._path}: the header of {len(self)} frames takes "
                f"{len(header)} bytes, not the {self._offset} left for it")
        self._fh.seek(0)
        self._fh.write(header)
        self._fh.flush()
        os.replace(self._part, self._path)
        self._part = None

    def close(self):
        self._fh.close()
        if self._part is not None:
            os.remove(self._part)
            self._part = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_snapshot(fields, path):
    """A FrameFile that writes frames on one grid to path as float64
    (frames, 2, n_points), with fields appended: a run appends the rest as
    it makes them, then `commit` gives path the bytes np.save gives their
    stack.  The caller closes it; closed before `commit`, it leaves no
    file.
    """
    part = os.fspath(path) + ".part"
    try:
        fh = open(part, "w+b")
    except OSError as e:
        raise EvolutionError(f"{part}: cannot write the frames: {e.strerror}")
    frames = FrameFile(fh, None, None, None, (), 0, os.fspath(path))
    try:
        for field in fields:
            frames.append(field)
    except BaseException:
        frames.close()
        raise
    return frames


def read_snapshot(path, grid, ell0, ell_inf, times):
    """The fields write_snapshot stored at path, one per time in `times`,
    as a FrameFile that reads each when asked.

    Raises EvolutionError, before any frame is read, unless path holds an
    .npy header of C-ordered float64 frames of the shape the times and
    grid give, followed by exactly their bytes.
    """
    shape = (len(times), 2, grid.n_points)
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise EvolutionError(f"{path}: unreadable: {e}")
    try:
        version = np.lib.format.read_magic(fh)
        found, fortran_order, dtype = \
            np.lib.format.read_array_header_1_0(fh) if version == (1, 0) \
            else np.lib.format.read_array_header_2_0(fh)
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    except (OSError, ValueError, EOFError) as e:
        fh.close()
        raise EvolutionError(f"{path}: unreadable: {e}")
    why = None
    if dtype.hasobject:
        why = "unreadable: Object arrays cannot be loaded when " \
              "allow_pickle=False"
    elif dtype != np.dtype(float) or found != shape:
        why = f"holds {dtype} {found}, manifest.cfg says float64 {shape}"
    elif fortran_order:
        why = "unreadable: frames stored in Fortran order"
    elif size != offset + 8 * math.prod(shape):
        why = (f"unreadable: {size} bytes, where its header of {offset} "
               f"and frames {shape} take {offset + 8 * math.prod(shape)}")
    if why:
        fh.close()
        raise EvolutionError(f"{path}: {why}")
    return FrameFile(fh, grid, ell0, ell_inf, times, offset, None)
