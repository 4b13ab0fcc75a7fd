"""Target geometry for corotational maps into a surface of revolution.

The target carries the metric ds^2 = d rho^2 + g(rho)^2 d theta^2.  All the
structure the rest of the code needs is the factor g, its derivative g',
the antiderivative G(x) = int_0^x |g|, and the vanishing set

    V = {l : g(l) = 0},

whose elements label the possible endpoint values of finite-energy maps.
Working assumptions on g, checked per window by `check_assumptions`:

    (A1)  G(x) -> +-inf as x -> +-inf       (checked heuristically)
    (A2)  V is discrete with simple roots
    (A3)  g'(l) in {-1, +1} for all l in V
    (A3') g'(l) in {-2, -1, +1, +2}

Built-in targets: "sphere" (g = sin rho) and "yang-mills" (g = 1 - rho^2,
the equivariant Yang-Mills reduction).  Custom targets come from expression
strings, see `exprgrammar`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .exprgrammar import parse_expression

ROOT_TOL = 1e-12
SLOPE_TOL = 1e-9


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
    into this target are expected to take values inside it.
    """
    id: str
    g: Callable
    g_prime: Callable
    search_window: tuple

    def f(self, psi):
        """Nonlinearity of the wave-map flow: f = g * g'."""
        return self.g(psi) * self.g_prime(psi)

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
    metric_id: str
    window: tuple
    roots: np.ndarray
    slopes: np.ndarray
    gaps: np.ndarray

    def __len__(self):
        return len(self.roots)

    def root_at(self, value, tol=1e-6):
        """The Root record whose value is closest to `value` (within tol)."""
        if len(self.roots) == 0:
            raise GeometryError("vanishing set is empty")
        k = int(np.argmin(np.abs(self.roots - value)))
        if not abs(self.roots[k] - value) <= tol:     # NaN is no root
            raise GeometryError(
                f"{value} is not a root of g (nearest: {self.roots[k]})")
        return Root(float(self.roots[k]), float(self.slopes[k]),
                    float(self.gaps[k]))

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
    slopes: np.ndarray       # g'(l) values backing A3 / A3'

    def __str__(self):
        flags = [(name, ok) for name, ok in
                 [("A1", self.a1), ("A2", self.a2),
                  ("A3", self.a3), ("A3'", self.a3_prime)]]
        return "  ".join(f"{n}:{'ok' if ok else 'FAIL'}" for n, ok in flags)


def _sphere_g_prime(rho):
    return np.cos(rho)


def _ym_g(rho):
    return 1.0 - np.asarray(rho) ** 2 if np.ndim(rho) else 1.0 - rho * rho


def _ym_g_prime(rho):
    return -2.0 * np.asarray(rho) if np.ndim(rho) else -2.0 * rho


SPHERE = Metric("sphere", np.sin, _sphere_g_prime, (-4 * math.pi, 4 * math.pi))
YANG_MILLS = Metric("yang-mills", _ym_g, _ym_g_prime, (-3.0, 3.0))

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
    difference of g at a handful of probe points.
    """
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
    return Metric(metric_id, g, gp, (lo, hi))


@lru_cache(maxsize=65536)
def eval_G(metric, x, rtol=1e-10):
    """G(x) = int_0^x |g(y)| dy, strictly increasing, G(0) = 0.

    The integrand has kinks at the roots of g, so those are passed to the
    quadrature as breakpoints.  Raises QuadratureError when the adaptive
    rule cannot meet the tolerance.
    """
    x = float(x)
    if x == 0.0:
        return 0.0
    a, b = (0.0, x) if x > 0 else (x, 0.0)
    # breakpoints: roots of g inside (a, b); the full-window set is cached
    vset = find_vanishing_set(metric)
    points = [r for r in vset.roots if a < r < b]
    absg = lambda y: abs(metric.g(y))
    value, abserr = quad(absg, a, b, points=points or None,
                         epsabs=1e-13, epsrel=rtol, limit=200)
    if abserr > rtol * max(1.0, abs(value)) * 10 + 1e-12:
        raise QuadratureError(f"G({x}) did not converge", abserr)
    return value if x > 0 else -value


@lru_cache(maxsize=256)
def find_vanishing_set(metric, window=None, samples_per_unit=64,
                       min_samples=2048):
    """Locate the roots of g in the window to ~1e-12.

    Roots are bracketed on a dense sample grid, bisected, then polished by
    one Newton step.  A root where g' also vanishes violates (A2) and is an
    error rather than a result.
    """
    if window is None:
        window = metric.search_window
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise GeometryError(f"empty search window {window}")
    n = max(min_samples, int(samples_per_unit * (hi - lo)))
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
        a, b = xs[k], xs[k + 1]
        fa, fb = gs[k], gs[k + 1]
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = float(metric.g(m))
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0:
                b, fb = m, fm
            else:
                a, fa = m, fm
            if b - a < ROOT_TOL:
                break
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

    return VanishingSet(metric.id, (lo, hi), roots, slopes, gaps)


def _probe_G(metric, a, b, rtol=1e-7):
    """|int_a^b |g|| with root breakpoints searched inside [a, b]."""
    try:
        vset = find_vanishing_set(metric, (min(a, b), max(a, b)))
        points = [r for r in vset.roots if min(a, b) < r < max(a, b)]
    except GeometryError:
        points = None
    lo, hi = min(a, b), max(a, b)
    value, abserr = quad(lambda y: abs(metric.g(y)), lo, hi,
                         points=points or None, epsrel=rtol, limit=400)
    if abserr > rtol * max(1.0, abs(value)) * 10 + 1e-10:
        raise QuadratureError(f"G probe on [{lo}, {hi}] did not converge",
                              abserr)
    return abs(value)


def check_assumptions(metric, window=None):
    """Evaluate (A1), (A2), (A3), (A3') on the window, with backing numbers.

    (A1) cannot be decided from a finite window.  The heuristic probes G at
    4x the window half-width on each side and accepts when it exceeds 3x
    the value at the window end: G keeps growing at a near-linear or better
    rate past the window, which logarithmic or bounded antiderivatives fail.
    """
    if window is None:
        window = metric.search_window
    vset = find_vanishing_set(metric, window)
    lo, hi = vset.window

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
    near_int = np.round(vset.slopes)
    a3p = len(vset) > 0 and bool(
        np.all(np.abs(vset.slopes - near_int) < SLOPE_TOL)
        and np.all(np.abs(near_int) >= 1) and np.all(np.abs(near_int) <= 2))
    return AssumptionReport(a1=a1, a2=a2, a3=a3, a3_prime=a3p,
                            g_growth=(g_lo, g_hi), min_separation=min_sep,
                            slopes=vset.slopes)
