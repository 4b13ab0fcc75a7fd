"""Target geometry for corotational maps into a surface of revolution.

The target carries the metric ds^2 = d rho^2 + g(rho)^2 d theta^2.  All the
structure the rest of the code needs is the factor g, its derivative g',
the antiderivative G(x) = int_0^x |g|, and the vanishing set

    V = {l : g(l) = 0},

whose elements label the possible endpoint values of finite-energy maps.
Working assumptions on g, checked on the search window by
`check_assumptions`:

    (A1)  G(x) -> +-inf as x -> +-inf       (checked heuristically)
    (A2)  V is discrete with simple roots
    (A3)  g'(l) in {-1, +1} for all l in V
    (A3') g'(l) in {-2, -1, +1, +2}

A custom target is checked when a config or a stored manifest is read
(`cli.read_metric`): one that fails (A2) or (A3') is refused before any
work.  (A1) decides nothing there; it only shows in the report.

Built-in targets: "sphere" (g = sin rho) and "yang-mills" (g = 1 - rho^2,
the equivariant Yang-Mills reduction).  Custom targets come from expression
strings, see `exprgrammar`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .exprgrammar import parse_expression

FMT = "%.17g"    # every float written as text: round-trips a float64
ROOT_TOL = 1e-12
SLOPE_TOL = 1e-9
# The 24-point Gauss-Legendre rule on [-1, 1], as the float64 values that
# numpy.polynomial.legendre.leggauss(24) returns: its positive nodes and
# their weights, mirrored as leggauss mirrors them, so the nodes ascend,
# pair up as exact negatives and share their weights.  A literal table
# spares every process the import of numpy.polynomial
_GL_HALF_NODES = np.array((
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213))
_GL_HALF_WEIGHTS = np.array((
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869))
GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
PANELS_PER_PIECE = 4    # Gauss-Legendre panels between adjacent breakpoints
MAX_BISECTIONS = 200    # panels split before the quadrature gives up


class GeometryError(ValueError):
    pass


class QuadratureError(GeometryError):
    def __init__(self, message, achieved_tol):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


@dataclass(frozen=True)
class Metric:
    """The factor g of a surface of revolution, with derivative and window.

    `search_window` bounds where roots of g are looked for; fields of maps
    into this target are expected to take values inside it.  `keys` are
    the config's [metric] (key, value) pairs the metric is built from.
    `source`, set by the built-ins only (no config key or `make_metric`
    sets it), evaluates an equal, cheaper form of g g' for `f` as
    source(psi, out): into `out`, or a new array where it is None.
    """
    id: str
    g: Callable
    g_prime: Callable
    search_window: tuple
    keys: tuple = ()
    source: Callable = None

    def f(self, psi, out=None):
        """Nonlinearity of the wave-map flow: f = g * g', by `source`
        where the metric has one, written into `out` when given."""
        if self.source is not None:
            return self.source(psi, out)
        return np.multiply(self.g(psi), self.g_prime(psi), out=out)

    def __repr__(self):
        return f"Metric({self.id!r}, window={self.search_window})"


@dataclass(frozen=True)
class Root:
    """One element l of V with its slope g'(l) and gap to the next root."""
    value: float
    slope: float
    gap: float


@dataclass
class VanishingSet:
    """Sorted roots of g in a window, with slopes and nearest-neighbor gaps."""
    roots: np.ndarray
    slopes: np.ndarray
    gaps: np.ndarray

    def __len__(self):
        return len(self.roots)

    def root_at(self, value):
        """The Root record whose value is within 1e-6 of `value`."""
        root = self.nearest(value)
        if not abs(root.value - value) <= 1e-6:     # NaN is no root
            raise GeometryError(
                f"{value} is not a root of g (nearest: {root.value})")
        return root

    def nearest(self, value):
        """Nearest root record to an arbitrary value (no tolerance check)."""
        if len(self.roots) == 0:
            raise GeometryError("vanishing set is empty")
        k = int(np.argmin(np.abs(self.roots - value)))
        return Root(float(self.roots[k]), float(self.slopes[k]),
                    float(self.gaps[k]))

    def neighbor(self, value, side):
        """Adjacent root strictly above (side=+1) or below (side=-1) `value`.

        Returns None when no neighbor exists inside the window.
        """
        if side > 0:
            above = self.roots[self.roots > value + ROOT_TOL]
            if len(above) == 0:
                return None
            return self.root_at(above[0])
        below = self.roots[self.roots < value - ROOT_TOL]
        if len(below) == 0:
            return None
        return self.root_at(below[-1])


@dataclass
class AssumptionReport:
    a1: bool
    a2: bool
    a3: bool
    a3_prime: bool
    g_growth: tuple          # (|G| at window ends) backing the A1 heuristic
    min_separation: float    # min gap between consecutive roots (A2)
    roots: np.ndarray        # the roots l of g in the window
    slopes: np.ndarray       # g'(l) values backing A3 / A3'

    def __str__(self):
        flags = [("A1", self.a1), ("A2", self.a2), ("A3", self.a3),
                 ("A3'", self.a3_prime)]
        return "  ".join(f"{n}:{'ok' if ok else 'FAIL'}" for n, ok in flags)

    def failure(self):
        """Why g fails (A2) or (A3'), the hypotheses the decomposition
        needs, or None; the (A1) heuristic decides nothing."""
        if not self.a2:
            return (f"A2 needs isolated roots of g in the window; it has "
                    f"{len(self.roots)}, least gap {self.min_separation:.3g}")
        if not self.a3_prime:
            k = int(np.argmax(_off_a3_prime(self.slopes)))
            return (f"A3' needs g'(l) in {{-2, -1, 1, 2}}; "
                    f"g'({self.roots[k]:.12g}) = {self.slopes[k]:.12g}")
        return None


def _off_a3_prime(slopes):
    """Mask of the slopes that are not -2, -1, 1 or 2 to SLOPE_TOL."""
    near_int = np.round(slopes)
    return ~((np.abs(slopes - near_int) < SLOPE_TOL)
             & (np.abs(near_int) >= 1) & (np.abs(near_int) <= 2))


def _sphere_g_prime(rho):
    return np.cos(rho)


def _sphere_source(rho, out):
    """sin(rho) cos(rho) as sin(2 rho) / 2 into `out`: one transcendental."""
    out = np.sin(np.multiply(rho, 2.0, out=out), out=out)
    out *= 0.5
    return out


def _ym_g(rho):
    return 1.0 - np.asarray(rho) ** 2 if np.ndim(rho) else 1.0 - rho * rho


def _ym_g_prime(rho):
    return -2.0 * np.asarray(rho) if np.ndim(rho) else -2.0 * rho


def _ym_source(rho, out):
    """(1 - rho^2)(-2 rho) as 2 rho (rho^2 - 1) into `out`; the doubling
    and the negation are exact, so the bits are those of g g' up to the
    sign of a zero."""
    out = np.multiply(rho, rho, out=out)
    out -= 1.0
    out *= rho
    out *= 2.0
    return out


SPHERE = Metric("sphere", np.sin, _sphere_g_prime,
                (-4 * math.pi, 4 * math.pi), (("target", "sphere"),),
                _sphere_source)
YANG_MILLS = Metric("yang-mills", _ym_g, _ym_g_prime, (-3.0, 3.0),
                    (("target", "yang-mills"),), _ym_source)

_BUILTIN = {m.id: m for m in (SPHERE, YANG_MILLS)}


def get_metric(metric_id):
    """Look up a built-in metric by id ("sphere", "yang-mills")."""
    try:
        return _BUILTIN[metric_id]
    except KeyError:
        raise GeometryError(
            f"unknown metric {metric_id!r}; built-ins: {sorted(_BUILTIN)}")


def make_metric(metric_id, g_expr, g_prime_expr, window):
    """Build a custom metric from expression strings in `rho`.

    The claimed derivative is validated against a centered finite
    difference of g at a handful of probe points.  The metric's keys are
    the [metric] section that rebuilds it, the window at 17 digits.  The
    id names the metric in schemes and reports, so it may be neither empty
    nor a built-in's.
    """
    if not metric_id.strip():
        raise GeometryError("custom metric id is empty")
    if metric_id in _BUILTIN:
        raise GeometryError(f"custom metric id {metric_id!r} names a "
                            f"built-in target")
    g = parse_expression(g_expr)
    gp = parse_expression(g_prime_expr)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise GeometryError(f"empty search window {window}")
    probes = np.linspace(lo, hi, 17)[1:-1]
    h = 1e-6 * max(1.0, hi - lo)
    fd = (np.asarray(g(probes + h)) - np.asarray(g(probes - h))) / (2 * h)
    claimed = np.asarray(gp(probes))
    scale = np.max(np.abs(fd)) + 1.0
    if np.max(np.abs(fd - claimed)) > 1e-4 * scale:
        k = int(np.argmax(np.abs(fd - claimed)))
        raise GeometryError(
            "g_prime expression disagrees with finite difference of g "
            f"(at rho={probes[k]:.6g}: claimed {claimed[k]:.6g}, "
            f"measured {fd[k]:.6g})")
    return Metric(metric_id, g, gp, (lo, hi), (
        ("target", "custom"), ("id", metric_id), ("g", g_expr),
        ("g_prime", g_prime_expr), ("window", f"{FMT % lo} {FMT % hi}")))


def _gauss_legendre(f, lo, hi):
    """Node terms of the 24-point Gauss-Legendre rule for f on each panel
    [lo_i, hi_i]; row i sums to the panel's integral."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * GL_NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    return (half[:, None] * GL_WEIGHTS) * np.broadcast_to(
        fx, (x.size,)).reshape(x.shape)


def integrate(f, a, b, points, rtol, atol):
    """(int_a^b f, error estimate) for a vectorized f, with the breakpoints
    `points` inside (a, b) where f may kink: |g| for G here, 1/|g| for
    the radii where a connector crosses a level of |g| in `resolution`.

    Each piece between breakpoints starts as PANELS_PER_PIECE panels.  A
    panel's error is the gap between its rule and the sum over its two
    halves, and the halves make the value.  A panel whose error exceeds its
    share by length of max(atol, rtol |value|) is bisected, until none does
    or MAX_BISECTIONS panels have been split.  A NaN of f gives a NaN
    error, which meets no bound.
    """
    edges = np.array([a, *points, b], dtype=float)
    grid = edges[:-1, None] + np.diff(edges)[:, None] * np.linspace(
        0.0, 1.0, PANELS_PER_PIECE + 1)
    grid[:, -1] = edges[1:]
    lo, hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
    whole = _gauss_legendre(f, lo, hi).sum(axis=1)
    bisections = 0
    while True:
        mid = 0.5 * (lo + hi)
        left = _gauss_legendre(f, lo, mid)
        right = _gauss_legendre(f, mid, hi)
        halves = left.sum(axis=1), right.sum(axis=1)
        err = np.abs(whole - (halves[0] + halves[1]))
        value = math.fsum(np.concatenate((left, right), axis=None))
        total = math.fsum(err)
        bound = max(atol, rtol * abs(value))
        split = ~(err <= bound * (hi - lo) / (b - a))
        if not split.any() or bisections >= MAX_BISECTIONS:
            return value, total
        keep = ~split
        bisections += int(np.count_nonzero(split))
        lo = np.concatenate([lo[keep], lo[split], mid[split]])
        hi = np.concatenate([hi[keep], mid[split], hi[split]])
        whole = np.concatenate([whole[keep], halves[0][split],
                                halves[1][split]])


@lru_cache(maxsize=65536)
def eval_G(metric, x, rtol=1e-10):
    """G(x) = int_0^x |g(y)| dy, strictly increasing, G(0) = 0.

    The integrand kinks at the roots of g, so those are the breakpoints of
    the Gauss-Legendre panels (`integrate`).  Raises QuadratureError
    when the error estimate misses the tolerance or is NaN.
    """
    x = float(x)
    if x == 0.0:
        return 0.0
    a, b = (0.0, x) if x > 0 else (x, 0.0)
    # breakpoints: roots of g inside (a, b); the full-window set is cached
    vset = find_vanishing_set(metric)
    points = [r for r in vset.roots if a < r < b]
    value, abserr = integrate(lambda y: np.abs(metric.g(y)), a, b, points,
                              rtol, 1e-13)
    if not abserr <= rtol * max(1.0, abs(value)) * 10 + 1e-12:
        raise QuadratureError(f"G({x}) did not converge", abserr)
    return value if x > 0 else -value


def bisect(f, a, b, tol):
    """Bracket [a, b] of a sign change of f, halved until it is narrower
    than tol (at most 100 times); [m, m] when f(m) is exactly zero."""
    fa = f(a)
    for _ in range(100):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m, m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return a, b


@lru_cache(maxsize=256)
def find_vanishing_set(metric, window=None):
    """Locate the roots of g in the window to ~1e-12.

    Roots are bracketed on a sample grid of 64 points per unit length (at
    least 2048 points), bisected, then polished by one Newton step.  A root
    where g' also vanishes violates (A2) and is an error rather than a
    result.
    """
    if window is None:
        window = metric.search_window
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise GeometryError(f"empty search window {window}")
    n = max(2048, int(64 * (hi - lo)))
    xs = np.linspace(lo, hi, n + 1)
    gs = np.asarray(metric.g(xs), dtype=float)

    roots = []
    # exact zeros on the sample grid first (e.g. integer windows hitting roots)
    on_grid = np.flatnonzero(np.abs(gs) < 1e-14)
    for k in on_grid:
        roots.append(xs[k])
    sign = np.sign(gs)
    crossings = np.flatnonzero((sign[:-1] * sign[1:]) < 0)
    for k in crossings:
        a, b = bisect(lambda x: float(metric.g(x)), xs[k], xs[k + 1],
                      ROOT_TOL)
        root = 0.5 * (a + b)
        gp = float(metric.g_prime(root))
        if gp != 0.0:
            polished = root - float(metric.g(root)) / gp
            if a - 1e-9 <= polished <= b + 1e-9:
                root = polished
        roots.append(root)

    # flag near-degenerate behavior: a sample where |g| dips to ~0 without
    # a sign change is a non-simple root
    small = np.flatnonzero(np.abs(gs) < 1e-10)
    for k in small:
        if np.abs(gs[k]) < 1e-14:
            continue  # handled as on-grid root above
        if k == 0 or k == n:
            continue
        if sign[k - 1] == sign[k + 1] and sign[k - 1] != 0:
            raise GeometryError(
                f"assumption A2 violated: non-simple root near {xs[k]:.9g}")

    merged = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) < 1e-10:
            continue
        merged.append(r)
    roots = np.asarray(merged)

    slopes = np.asarray([float(metric.g_prime(r)) for r in roots])
    for r, s in zip(roots, slopes):
        if abs(s) < 1e-8:
            raise GeometryError(
                f"assumption A2 violated: non-simple root at {r:.12g}")

    if len(roots) > 1:
        seps = np.diff(roots)
        gaps = np.empty(len(roots))
        gaps[0] = seps[0]
        gaps[-1] = seps[-1]
        for k in range(1, len(roots) - 1):
            gaps[k] = min(seps[k - 1], seps[k])
    else:
        gaps = np.full(len(roots), np.inf)

    return VanishingSet(roots, slopes, gaps)


def _probe_G(metric, a, b):
    """|int_a^b |g||, to a relative 1e-7, with root breakpoints searched
    inside [a, b]."""
    lo, hi = min(a, b), max(a, b)
    try:
        vset = find_vanishing_set(metric, (lo, hi))
        points = [r for r in vset.roots if lo < r < hi]
    except GeometryError:
        points = []
    value, abserr = integrate(lambda y: np.abs(metric.g(y)), lo, hi, points,
                              1e-7, 1.49e-8)
    if not abserr <= 1e-7 * max(1.0, abs(value)) * 10 + 1e-10:
        raise QuadratureError(f"G probe on [{lo}, {hi}] did not converge",
                              abserr)
    return abs(value)


def check_assumptions(metric):
    """Evaluate (A1), (A2), (A3), (A3') on the metric's search window, with
    backing numbers.

    (A1) cannot be decided from a finite window.  The heuristic probes G at
    4x the window half-width on each side and accepts when it exceeds 3x
    the value at the window end: G keeps growing at a near-linear or better
    rate past the window, which logarithmic or bounded antiderivatives fail.
    """
    vset = find_vanishing_set(metric)
    lo, hi = metric.search_window

    g_lo = abs(eval_G(metric, lo, rtol=1e-8))
    g_hi = abs(eval_G(metric, hi, rtol=1e-8))
    min_sep = float(np.min(np.diff(vset.roots))) if len(vset) > 1 else math.inf
    try:
        a1 = (g_lo > 0 and g_hi > 0
              and _probe_G(metric, 0.0, 4 * hi) >= 3 * g_hi
              and _probe_G(metric, 4 * lo, 0.0) >= 3 * g_lo)
    except QuadratureError:
        a1 = False
    a2 = len(vset) > 0 and min_sep > 100 * ROOT_TOL
    a3 = len(vset) > 0 and bool(
        np.all(np.abs(np.abs(vset.slopes) - 1.0) < SLOPE_TOL))
    a3p = len(vset) > 0 and not _off_a3_prime(vset.slopes).any()
    return AssumptionReport(a1=a1, a2=a2, a3=a3, a3_prime=a3p,
                            g_growth=(g_lo, g_hi), min_separation=min_sep,
                            roots=vset.roots, slopes=vset.slopes)
