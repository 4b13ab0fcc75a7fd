"""Numerical laboratory for corotational wave maps into surfaces of revolution.

Modules
-------
geometry    targets g, G, the vanishing set V, structural assumptions
statics     harmonic-map connectors Q between consecutive roots
evolution   nonlinear and linearized radial flows, trajectories, frame I/O
diagnostics energies, weighted norms, time selection, cone diagnostics
resolution  bubble extraction, scattering states, regular parts at blow-up
cli         scenario configs, trajectory stores (a single field is a
            one-frame store) and the `wavemap` command line tool
"""

__version__ = "0.1.0"

from .geometry import (Metric, Root, VanishingSet, AssumptionReport,
                       SPHERE, YANG_MILLS, get_metric, make_metric,
                       eval_G, find_vanishing_set, check_assumptions)
