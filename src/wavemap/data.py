"""Initial-data families for the flows.

All families return RadialField objects.  Profiles built from the smooth
compact bump

    B(x) = exp(1 - 1/(1 - x^2))   for |x| < 1,  0 otherwise

(so B(0) = 1 and every derivative vanishes at the support edge) keep the
data in the energy space: fields equal their endpoint value at the origin
whenever center >= width.  Data that cannot be built (a bump reaching
the origin, an ell that is not a root, a step with no neighbor root) is
refused with GeometryError.
"""

import numpy as np

from .geometry import GeometryError, find_vanishing_set
from .evolution import RadialField
from .rng import XorShift64Star
from .statics import build_harmonic_map, eval_Q


def bump_profile(r, amplitude, center, width):
    x = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def make_bump(grid, metric, ell=0.0, amplitude=0.1, center=5.0, width=2.0,
              velocity=0.0):
    """Nonlinear data: psi = ell + bump, psi_t = velocity * bump-shape."""
    if center < width:
        raise GeometryError("bump support must avoid the origin "
                            "(center >= width)")
    vset = find_vanishing_set(metric)
    root = vset.root_at(ell)
    shape = bump_profile(grid.r, 1.0, center, width)
    return RadialField(grid, root.value + amplitude * shape,
                       velocity * shape, ell0=root.value,
                       ell_inf=root.value, time=0.0)


def make_perturbation(grid, amplitude=0.1, center=5.0, width=2.0,
                      velocity=0.0):
    """Linear-flow data: a compact bump perturbation around 0."""
    if center < width:
        raise GeometryError("bump support must avoid the origin "
                            "(center >= width)")
    shape = bump_profile(grid.r, 1.0, center, width)
    return RadialField(grid, amplitude * shape, velocity * shape,
                       ell0=0.0, ell_inf=0.0, time=0.0)


def make_superposition(grid, rng, n_bumps=2, amplitude_range=(0.02, 0.2),
                       center_range=(5.0, 40.0), width_range=(5.0, 40.0)):
    """Seeded superposition of compact bumps (time-symmetric, around 0).

    Widths are clipped to the drawn center so each bump's support stays
    inside r > 0 and the data sits in the energy space.
    """
    psi = np.zeros_like(grid.r)
    for _ in range(n_bumps):
        amp = rng.uniform(*amplitude_range) * (1 if rng.uniform() < 0.5 else -1)
        center = rng.uniform(*center_range)
        width = min(rng.uniform(*width_range), center)
        psi += bump_profile(grid.r, amp, center, width)
    return RadialField(grid, psi, np.zeros_like(psi), ell0=0.0, ell_inf=0.0,
                       time=0.0)


def make_chain(grid, metric, ell_outer, steps):
    """Chained multi-bubble data: the outer value is the root ell_outer and
    each (direction, scale) pair in `steps` descends one connector inward,

        psi = ell_outer + sum_j (Q_j(r / scale_j) - Q_j(inf)),

    with Q_{j+1}(inf) = Q_j(0).  Returns (field, connectors, scales).
    Steps must be ordered outermost first with decreasing scales.
    """
    vset = find_vanishing_set(metric)
    level = vset.root_at(ell_outer).value
    psi = np.full_like(grid.r, level)
    connectors, scales = [], []
    for direction, scale in steps:
        inner = vset.neighbor(level, +1 if direction > 0 else -1)
        if inner is None:
            raise GeometryError(
                f"no root of g {'above' if direction > 0 else 'below'} "
                f"ell = {level:g} to chain to")
        # connector with Q(0) = inner, Q(inf) = level
        qmap = build_harmonic_map(metric, inner.value,
                                  +1 if level > inner.value else -1)
        psi += eval_Q(qmap, grid.r / scale) - qmap.m
        connectors.append(qmap)
        scales.append(scale)
        level = inner.value
    return (RadialField(grid, psi, np.zeros_like(psi), ell0=level,
                        ell_inf=vset.root_at(ell_outer).value, time=0.0),
            connectors, scales)
