"""Harmonic-map connectors between consecutive roots of g.

Radial harmonic maps solve r Q'(r) = +-g(Q), which in s = log r is the
autonomous flow dQ/ds = +-g(Q).  A finite-energy connector joins two
consecutive roots l = Q(0) and m = Q(inf) monotonically, approaches them
like powers r^{+-|g'(endpoint)|}, and carries energy

    E(Q) = 2 |G(m) - G(l)|.

The flow is separable, so its solution is a quadrature: from the
normalization Q(r=1) = (l+m)/2, s(q) = int dy / (+-g(y)).  Each branch
toward a root `target` is parametrized by u = log(|mid - target| /
|q - target|), in which q(u) is explicit and ds/du = (target - q) /
(+-g(q)) is smooth and bounded up to the root.  A uniform u-grid from the
midpoint to the stitch point (|Q - target| = 1e-6, where the tail model
takes over) is integrated interval by interval with the Gauss-Legendre
rule of `geometry`, which makes the Hermite data (s_i, q_i, +-g(q_i))
exact to rounding.  Between the stitch points Q is the cubic Hermite
interpolant of that data; beyond them the stored power-law tails take
over.  Everything here runs on numpy.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (GL_NODES, GL_WEIGHTS, GeometryError, Metric, eval_G,
                       find_vanishing_set)

STITCH_TOL = 1e-6      # eval switches to the tail model this close
N_SAMPLES = 4096       # u-intervals per branch
BLOCK_ROWS = 256       # u-intervals per block of a branch's quadrature


class StaticsError(GeometryError):
    pass


@dataclass(eq=False)
class HarmonicMap:
    """A connector Q with Q(0) = ell, Q(inf) = m, normalized Q(1) = (ell+m)/2.

    Compared and hashed by identity: `build_harmonic_map` memoizes, so one
    connector is one object, and per-connector results can be cached.
    """
    metric: Metric
    ell: float             # endpoint at r = 0
    m: float               # endpoint at r = inf
    sign: int              # branch of r Q' = sign * g(Q)
    energy: float          # 2 |G(m) - G(ell)|
    knots: np.ndarray      # s = log r of the Hermite data, stitch_lo..stitch_hi
    coeffs: np.ndarray     # rows c0..c3 of the cubic on [knots[i], knots[i+1]]
                           # in powers of s - knots[i]
    stitch_lo: float       # s below which the inner tail model is used
    stitch_hi: float
    c_lo: float            # Q - ell ~ c_lo * r^{k_lo} as r -> 0
    c_hi: float            # Q - m  ~ c_hi * r^{-k_hi} as r -> inf
    k_lo: float            # |g'(ell)|
    k_hi: float            # |g'(m)|


def _branch(metric, sign, mid, target):
    """(s_i, q_i) from the midpoint (s = 0) to the stitch point near
    `target`, on N_SAMPLES uniform intervals in u.

    The Gauss-Legendre nodes are formed and summed BLOCK_ROWS intervals at
    a time, so a branch holds (BLOCK_ROWS, 24) tables rather than
    (N_SAMPLES, 24) ones; each interval's ds is the product of its
    half-width and its row's `@ GL_WEIGHTS` either way, and one cumsum
    over all of them gives s, so the knots keep their bits."""
    u = np.linspace(0.0, math.log(abs(mid - target) / STITCH_TOL),
                    N_SAMPLES + 1)
    half = 0.5 * np.diff(u)
    ds = np.empty(N_SAMPLES)
    for b in range(0, N_SAMPLES, BLOCK_ROWS):
        rows = slice(b, b + BLOCK_ROWS)
        h = half[rows]
        u_gl = (u[rows] + h)[:, None] + h[:, None] * GL_NODES
        q_gl = target + (mid - target) * np.exp(-u_gl)
        dsdu = (target - q_gl) / (sign * np.asarray(metric.g(q_gl),
                                                    dtype=float))
        np.multiply(h, dsdu @ GL_WEIGHTS, out=ds[rows])
    s = np.concatenate(([0.0], np.cumsum(ds)))
    q = np.concatenate(([mid], target + (mid - target) * np.exp(-u[1:])))
    return s, q


def _hermite_coeffs(s, q, dq):
    """Rows c0..c3 of the per-interval cubic Hermite interpolant of values
    q and slopes dq at the knots s, in powers of s - s_i."""
    h = np.diff(s)
    secant = np.diff(q) / h
    return np.array((q[:-1], dq[:-1],
                     (3.0 * secant - 2.0 * dq[:-1] - dq[1:]) / h,
                     (dq[:-1] + dq[1:] - 2.0 * secant) / h ** 2))


@lru_cache(maxsize=64)
def build_harmonic_map(metric, ell, direction):
    """Construct the connector starting at the root `ell` (value at r = 0)
    and joining the adjacent root above it (direction=+1) or below (-1).

    Raises StaticsError when no adjacent root exists inside the metric's
    search window.
    """
    vset = find_vanishing_set(metric)
    root_l = vset.root_at(ell)
    root_m = vset.neighbor(root_l.value, direction)
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
    s_hi, q_hi = _branch(metric, sign, mid, hi)
    s_lo, q_lo = _branch(metric, sign, mid, lo)
    s_all = np.concatenate((s_lo[:0:-1], s_hi))
    q_all = np.concatenate((q_lo[:0:-1], q_hi))
    dq_all = sign * np.asarray(metric.g(q_all), dtype=float)

    st_lo, st_hi = float(s_lo[-1]), float(s_hi[-1])
    c_lo = (q_lo[-1] - lo) * math.exp(-k_lo * st_lo)
    c_hi = (q_hi[-1] - hi) * math.exp(k_hi * st_hi)
    energy = 2.0 * abs(eval_G(metric, hi) - eval_G(metric, lo))

    return HarmonicMap(metric=metric, ell=lo, m=hi, sign=sign, energy=energy,
                       knots=s_all,
                       coeffs=_hermite_coeffs(s_all, q_all, dq_all),
                       stitch_lo=st_lo, stitch_hi=st_hi,
                       c_lo=float(c_lo), c_hi=float(c_hi),
                       k_lo=k_lo, k_hi=k_hi)


def eval_Q(qmap, r):
    """Q(r) for scalar or array r >= 0, tails included.

    Between the stitch radii (|Q - endpoint| = 1e-6) the Hermite cubics
    cover s = log r; beyond them the power tails take over, and at s = -inf
    and +inf these give Q(0) = ell and Q(inf) = m exactly.
    """
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    with np.errstate(divide="ignore"):
        s = np.log(r)
    lo_tail, hi_tail = s < qmap.stitch_lo, s > qmap.stitch_hi
    tails = (qmap.ell + qmap.c_lo * np.exp(qmap.k_lo * s[lo_tail]),
             qmap.m + qmap.c_hi * np.exp(-qmap.k_hi * s[hi_tail]))
    sc = np.clip(s, qmap.stitch_lo, qmap.stitch_hi, out=s)
    n = len(qmap.knots)
    # interval index: interp's search beats searchsorted; a NaN clips to 0
    i = np.interp(sc, qmap.knots, np.arange(n)).astype(np.intp)
    np.clip(i, 0, n - 2, out=i)
    # Horner in place: the products and sums of ((c3 t + c2) t + c1) t + c0;
    # i is in range, so take need not check it
    t, c = sc, np.empty_like(sc)
    t -= qmap.knots.take(i, out=c, mode="clip")
    c0, c1, c2, c3 = qmap.coeffs
    out = c3.take(i, mode="clip")
    for coeff in (c2, c1, c0):
        out *= t
        out += coeff.take(i, out=c, mode="clip")
    out[lo_tail], out[hi_tail] = tails
    return float(out[0]) if scalar else out


def rescale_Q(qmap, lam, grid):
    """Sample the bubble (Q(r/lam), 0) on a radial grid as a RadialField.

    Warns when lam is below four grid spacings: the transition region of
    the bubble is then unresolved by the grid.
    """
    from .evolution import RadialField  # deferred: statics stays grid-free
    if not lam > 0:                             # NaN is no scale either
        raise ValueError("scale must be positive")
    if lam < 4.0 * grid.dr:
        warnings.warn(f"under-resolved bubble: scale {lam:.3e} < 4 dr "
                      f"= {4 * grid.dr:.3e}", RuntimeWarning, stacklevel=2)
    psi = eval_Q(qmap, grid.r / lam)
    return RadialField(grid, psi, np.zeros_like(psi), ell0=qmap.ell,
                       ell_inf=qmap.m, time=0.0)
