"""Initial-data families for the flows: every builder returns a
RadialField and checks its own data.  `cli`'s family table calls the
config families' builders with their [data] keys, and holds the only
defaults.  Profiles built from the smooth compact bump

    B(x) = exp(1 - 1/(1 - x^2))   for |x| < 1,  0 otherwise

(so B(0) = 1 and every derivative vanishes at the support edge) keep the
data in the energy space: fields equal their endpoint value at the origin
whenever center >= width, as `_unit_bump` demands.  Data that cannot be
built (a bump reaching the origin, an ell that is not a root, a step with
no neighbor root, chain scales that do not decrease) is refused with
GeometryError.
"""

import numpy as np

from .geometry import GeometryError, find_vanishing_set
from .evolution import RadialField
from .statics import build_harmonic_map, eval_Q, rescale_Q


def bump_profile(r, amplitude, center, width):
    x = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def _unit_bump(grid, center, width):
    """B((r - center) / width) on the grid, refused when its support
    reaches the origin."""
    if center < width:
        raise GeometryError("bump support must avoid the origin "
                            "(center >= width)")
    return bump_profile(grid.r, 1.0, center, width)


def make_bubble(grid, metric, ell, scale, direction):
    """The connector from the root ell to its neighbor root in `direction`,
    at `scale`: (Q(r / scale), 0)."""
    return rescale_Q(build_harmonic_map(metric, ell, direction), scale, grid)


def make_bump(grid, metric, ell, amplitude, center, width, velocity):
    """Nonlinear data: psi = ell + amplitude * B, psi_t = velocity * B."""
    root = find_vanishing_set(metric).root_at(ell)
    shape = _unit_bump(grid, center, width)
    return RadialField(grid, root.value + amplitude * shape,
                       velocity * shape, ell0=root.value,
                       ell_inf=root.value, time=0.0)


def make_bubble_bump(grid, metric, ell, scale, direction, amplitude, center,
                     width, velocity):
    """A bubble plus a bump: psi = Q(r / scale) + amplitude * B and
    psi_t = velocity * amplitude * B."""
    field = make_bubble(grid, metric, ell, scale, direction)
    bump = amplitude * _unit_bump(grid, center, width)
    field.psi += bump
    field.psi_dot += velocity * bump
    return field


def make_perturbation(grid, amplitude=0.1, center=5.0, width=2.0,
                      velocity=0.0):
    """Linear-flow data: a compact bump perturbation around 0."""
    shape = _unit_bump(grid, center, width)
    return RadialField(grid, amplitude * shape, velocity * shape,
                       ell0=0.0, ell_inf=0.0, time=0.0)


def make_superposition(grid, rng):
    """Seeded superposition of two compact bumps (time-symmetric, around 0).

    Each bump draws |amplitude| in [0.02, 0.2] with a random sign, a center
    in [5, 40] and a width in [5, 40], clipped to the center so its support
    stays inside r > 0 and the data sits in the energy space.
    """
    psi = np.zeros_like(grid.r)
    for _ in range(2):
        amp = rng.uniform(0.02, 0.2) * (1 if rng.uniform() < 0.5 else -1)
        center = rng.uniform(5.0, 40.0)
        width = min(rng.uniform(5.0, 40.0), center)
        psi += bump_profile(grid.r, amp, center, width)
    return RadialField(grid, psi, np.zeros_like(psi), ell0=0.0, ell_inf=0.0,
                       time=0.0)


def make_chain(grid, metric, ell_outer, steps):
    """Chained multi-bubble data: the outer value is the root ell_outer and
    each (direction, scale) pair in `steps` descends one connector inward,

        psi = ell_outer + sum_j (Q_j(r / scale_j) - Q_j(inf)),

    with Q_{j+1}(inf) = Q_j(0).  Steps are ordered outermost first, so
    their scales decrease; steps in any other order are refused.
    """
    vset = find_vanishing_set(metric)
    outer = level = vset.root_at(ell_outer).value
    if any(b >= a for (_, a), (_, b) in zip(steps, steps[1:])):
        raise GeometryError("chain steps need decreasing scales")
    psi = np.full_like(grid.r, level)
    for direction, scale in steps:
        inner = vset.neighbor(level, direction)
        if inner is None:
            raise GeometryError(
                f"no root of g {'above' if direction > 0 else 'below'} "
                f"ell = {level:g} to chain to")
        # connector with Q(0) = inner, Q(inf) = level
        qmap = build_harmonic_map(metric, inner.value,
                                  +1 if level > inner.value else -1)
        psi += eval_Q(qmap, grid.r / scale) - qmap.m
        level = inner.value
    return RadialField(grid, psi, np.zeros_like(psi), ell0=level,
                       ell_inf=outer, time=0.0)
