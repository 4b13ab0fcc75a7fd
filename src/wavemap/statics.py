"""Harmonic-map connectors between consecutive roots of g.

Radial harmonic maps solve r Q'(r) = +-g(Q), which in s = log r is the
autonomous flow dQ/ds = +-g(Q).  A finite-energy connector joins two
consecutive roots l = Q(0) and m = Q(inf) monotonically, approaches them
like powers r^{+-|g'(endpoint)|}, and carries energy

    E(Q) = 2 |G(m) - G(l)|.

Profiles are built once from the normalization Q(r=1) = (l+m)/2 by one
adaptive DOP853 solve in s per direction.  Events on each solve locate the
stitch point (|Q - endpoint| = 1e-6, where the tail model takes over) and
the end of the sampled range (|Q - endpoint| = 1e-10), and stop a solve
that runs away from its endpoint.  The dense output is sampled on a uniform
s-grid (plus the s=0 anchor so the normalization is exact) and interpolated
by a cubic Hermite spline whose nodal derivatives are the ODE right-hand
side itself.  Beyond the sampled range the stored power-law tails take
over.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .geometry import GeometryError, Metric, eval_G, find_vanishing_set

SOLVER_RTOL = 1e-13    # DOP853 tolerances of the connector solve
SOLVER_ATOL = 1e-15
ENDPOINT_TOL = 1e-10   # integration stops this close to the target root
STITCH_TOL = 1e-6      # eval switches to the tail model this close
N_SAMPLES = 4096


class StaticsError(GeometryError):
    pass


@dataclass
class HarmonicMap:
    """A connector Q with Q(0) = ell, Q(inf) = m, normalized Q(1) = (ell+m)/2."""
    metric: Metric
    ell: float             # endpoint at r = 0
    m: float               # endpoint at r = inf
    sign: int              # branch of r Q' = sign * g(Q)
    energy: float          # 2 |G(m) - G(ell)|
    profile: CubicHermiteSpline
    s_lo: float
    s_hi: float
    stitch_lo: float       # s below which the inner tail model is used
    stitch_hi: float
    c_lo: float            # Q - ell ~ c_lo * r^{k_lo} as r -> 0
    c_hi: float            # Q - m  ~ c_hi * r^{-k_hi} as r -> inf
    k_lo: float            # |g'(ell)|
    k_hi: float            # |g'(m)|

    def __call__(self, r):
        return eval_Q(self, r)


def _solve_branch(metric, sign, q0, target, s_limit):
    """Integrate dQ/ds = sign*g(Q) from (s=0, q0) toward the root `target`.

    One adaptive DOP853 solve over [0, s_limit] (s_limit may be negative)
    with three events: |Q - target| falling through STITCH_TOL (the stitch
    point), falling through ENDPOINT_TOL (terminal: the end of the sampled
    range), and rising past 2 |q0 - target| + 1 (terminal: running away on
    the wrong branch or toward a bad root).  Returns (dense solution, s at
    the endpoint event, stitch_s, q_at_stitch).  Raises StaticsError,
    reporting the achieved endpoint gap, unless the endpoint event fires.
    """
    gap0 = abs(q0 - target)

    def stitch(s, q):
        return abs(q[0] - target) - STITCH_TOL

    def endpoint(s, q):
        return abs(q[0] - target) - ENDPOINT_TOL

    def runaway(s, q):
        return abs(q[0] - target) - (2.0 * gap0 + 1.0)

    stitch.direction = endpoint.direction = -1.0
    endpoint.terminal = runaway.terminal = True
    runaway.direction = 1.0
    sol = solve_ivp(lambda s, q: sign * metric.g(q), (0.0, s_limit), [q0],
                    method="DOP853", rtol=SOLVER_RTOL, atol=SOLVER_ATOL,
                    dense_output=True, events=(stitch, endpoint, runaway))
    if len(sol.t_events[1]) == 0:
        raise StaticsError(
            f"harmonic map integration stagnated toward {target}: "
            f"endpoint gap {abs(sol.y[0, -1] - target):.3e} after "
            f"|s| = {abs(sol.t[-1]):.1f}")
    return (sol.sol, float(sol.t_events[1][0]), float(sol.t_events[0][0]),
            float(sol.y_events[0][0][0]))


@lru_cache(maxsize=64)
def build_harmonic_map(metric, ell, direction):
    """Construct the connector starting at the root `ell` (value at r = 0)
    and joining the adjacent root above it (direction=+1) or below (-1).

    Raises StaticsError when no adjacent root exists inside the metric's
    search window, or when the ODE integration stagnates.
    """
    vset = find_vanishing_set(metric)
    root_l = vset.root_at(ell)
    root_m = vset.neighbor(root_l.value, +1 if direction > 0 else -1)
    if root_m is None:
        raise StaticsError(
            f"target endpoint outside search window: no root of g "
            f"{'above' if direction > 0 else 'below'} ell = "
            f"{root_l.value:g}")
    lo, hi = root_l.value, root_m.value

    mid = 0.5 * (lo + hi)
    sigma_g = 1.0 if metric.g(mid) > 0 else -1.0
    # monotone from lo at r=0 to hi at r=inf: dQ/ds must carry the sign of hi-lo
    sign = int(sigma_g if hi > lo else -sigma_g)

    k_lo = abs(float(metric.g_prime(lo)))
    k_hi = abs(float(metric.g_prime(hi)))
    s_max = max(80.0, 80.0 / min(k_lo, k_hi, 1.0))

    dense_hi, s_hi, st_hi, q_st_hi = _solve_branch(metric, sign, mid, hi,
                                                   s_max)
    dense_lo, s_lo, st_lo, q_st_lo = _solve_branch(metric, sign, mid, lo,
                                                   -s_max)

    # uniform s-samples over the integrated range, with an exact s=0 anchor
    # so that profile(r=1) is the midpoint by construction
    s_grid = np.linspace(s_lo, s_hi, N_SAMPLES)
    s_neg = s_grid[s_grid < 0.0]
    s_pos = s_grid[s_grid > 0.0]
    s_all = np.concatenate([s_neg, [0.0], s_pos])
    q_all = np.concatenate([dense_lo(s_neg)[0], [mid], dense_hi(s_pos)[0]])
    dq_all = sign * np.asarray(metric.g(q_all), dtype=float)
    profile = CubicHermiteSpline(s_all, q_all, dq_all)

    c_lo = (q_st_lo - lo) * math.exp(-k_lo * st_lo)
    c_hi = (q_st_hi - hi) * math.exp(k_hi * st_hi)
    energy = 2.0 * abs(eval_G(metric, hi) - eval_G(metric, lo))

    return HarmonicMap(metric=metric, ell=lo, m=hi, sign=sign, energy=energy,
                       profile=profile, s_lo=s_lo, s_hi=s_hi,
                       stitch_lo=st_lo, stitch_hi=st_hi,
                       c_lo=c_lo, c_hi=c_hi, k_lo=k_lo, k_hi=k_hi)


def eval_Q(qmap, r):
    """Q(r) for scalar or array r >= 0, tails included.

    Q(0) = ell and Q(inf) = m are honored exactly; in between the spline
    covers log r in [s_lo, s_hi] and the power tails take over beyond the
    stitch radii (|Q - endpoint| < 1e-6).
    """
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    out = np.empty_like(r)
    zero = r == 0.0
    inf = np.isinf(r)
    pos = ~zero & ~inf
    out[zero] = qmap.ell
    out[inf] = qmap.m
    if np.any(pos):
        s = np.log(r[pos])
        vals = np.empty_like(s)
        lo_tail = s < qmap.stitch_lo
        hi_tail = s > qmap.stitch_hi
        mid = ~lo_tail & ~hi_tail
        if np.any(mid):
            vals[mid] = qmap.profile(s[mid])
        if np.any(lo_tail):
            vals[lo_tail] = qmap.ell + qmap.c_lo * np.exp(qmap.k_lo * s[lo_tail])
        if np.any(hi_tail):
            vals[hi_tail] = qmap.m + qmap.c_hi * np.exp(-qmap.k_hi * s[hi_tail])
        out[pos] = vals
    return float(out[0]) if scalar else out


def rescale_Q(qmap, lam, grid):
    """Sample the bubble (Q(r/lam), 0) on a radial grid as a RadialField.

    Warns when lam is below four grid spacings: the transition region of
    the bubble is then unresolved by the grid.
    """
    from .evolution import RadialField  # deferred: statics stays grid-free
    if lam <= 0:
        raise ValueError("scale must be positive")
    if lam < 4.0 * grid.dr:
        warnings.warn(f"under-resolved bubble: scale {lam:.3e} < 4 dr "
                      f"= {4 * grid.dr:.3e}", RuntimeWarning, stacklevel=2)
    psi = eval_Q(qmap, grid.r / lam)
    return RadialField(grid, psi, np.zeros_like(psi), ell0=qmap.ell,
                       ell_inf=qmap.m, time=0.0)
