"""Connector oracles: two targets have closed-form profiles.

  sphere ground state    Q(r) = 2 arctan(r)       (0 -> pi,  energy 4)
  yang-mills connector   Q(r) = (r^2-1)/(r^2+1)   (-1 -> 1,  energy 8/3)

Both follow from separating dQ/ds = g(Q); energies from 2|G(m) - G(l)|.
"""

import math

import numpy as np
import pytest

from wavemap import statics
from wavemap.geometry import (SPHERE, YANG_MILLS, _gauss_legendre, eval_G,
                              find_vanishing_set)
from wavemap.statics import (HarmonicMap, StaticsError, build_harmonic_map,
                             eval_Q, rescale_Q)


@pytest.fixture(scope="module")
def ground_state():
    return build_harmonic_map(SPHERE, 0.0, +1)


@pytest.fixture(scope="module")
def ym_connector():
    return build_harmonic_map(YANG_MILLS, -1.0, +1)


class TestSphereGroundState:
    def test_profile_matches_closed_form(self, ground_state):
        r = np.logspace(-3, 3, 2001)
        dev = np.abs(eval_Q(ground_state, r) - 2 * np.arctan(r))
        assert np.max(dev) < 1e-8

    def test_endpoints(self, ground_state):
        assert eval_Q(ground_state, 0.0) == 0.0
        assert eval_Q(ground_state, np.inf) == pytest.approx(math.pi)

    def test_normalization_exact(self, ground_state):
        assert eval_Q(ground_state, 1.0) == 0.5 * (0.0 + math.pi)

    def test_energy(self, ground_state):
        assert ground_state.energy == pytest.approx(4.0, abs=1e-10)
        oracle = 2 * abs(eval_G(SPHERE, math.pi) - eval_G(SPHERE, 0.0))
        assert ground_state.energy == pytest.approx(oracle, abs=1e-8)

    def test_energy_against_profile_quadrature(self, ground_state):
        # E = int ((dQ/ds)^2 + g(Q)^2) ds with dQ/ds = g(Q) on this branch
        s = np.linspace(-30.0, 30.0, 400001)
        q = eval_Q(ground_state, np.exp(s))
        density = 2.0 * np.sin(q) ** 2
        assert np.trapezoid(density, s) == pytest.approx(4.0, abs=1e-6)

    def test_far_field_tail(self, ground_state):
        # 2 arctan(1e6) = pi - 2e-6 + O(1e-18)
        assert abs(eval_Q(ground_state, 1e6) - math.pi) < 1e-5
        assert eval_Q(ground_state, 1e6) == pytest.approx(math.pi - 2e-6,
                                                          abs=1e-11)

    def test_inversion_symmetry(self, ground_state):
        r = np.logspace(-2.5, 2.5, 501)
        lhs = eval_Q(ground_state, 1.0 / r)
        rhs = math.pi - eval_Q(ground_state, r)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_ode_residual_at_samples(self, ground_state):
        # slope of the Hermite cubics between the knots against sign g(Q)
        q = ground_state
        s = np.linspace(q.stitch_lo, q.stitch_hi, 4096)
        i = np.clip(np.searchsorted(q.knots, s, side="right") - 1, 0,
                    len(q.knots) - 2)
        t = s - q.knots[i]
        _, c1, c2, c3 = q.coeffs
        qp = (3.0 * c3[i] * t + 2.0 * c2[i]) * t + c1[i]
        residual = np.abs(qp - q.sign * np.sin(eval_Q(q, np.exp(s))))
        assert np.max(residual) < 1e-8

    def test_tail_constants(self, ground_state):
        # 2 arctan r = 2r + O(r^3) at 0 and pi - 2/r + O(r^-3) at infinity
        assert ground_state.c_lo == pytest.approx(2.0, rel=1e-9)
        assert ground_state.c_hi == pytest.approx(-2.0, rel=1e-9)

    def test_monotone_profile(self, ground_state):
        r = np.logspace(-8, 8, 20001)
        assert np.all(np.diff(eval_Q(ground_state, r)) > 0)

    def test_downward_branch_mirror(self):
        down = build_harmonic_map(SPHERE, 0.0, -1)
        assert down.m == pytest.approx(-math.pi)
        r = np.logspace(-2, 2, 101)
        up = build_harmonic_map(SPHERE, 0.0, +1)
        assert np.allclose(eval_Q(down, r), -eval_Q(up, r), atol=1e-12)


class TestYangMillsConnector:
    def test_profile_matches_closed_form(self, ym_connector):
        r = np.logspace(-3, 3, 2001)
        exact = (r ** 2 - 1.0) / (r ** 2 + 1.0)
        assert np.max(np.abs(eval_Q(ym_connector, r) - exact)) < 1e-8

    def test_energy(self, ym_connector):
        assert ym_connector.energy == pytest.approx(8.0 / 3.0, abs=1e-10)

    def test_midpoint(self, ym_connector):
        assert eval_Q(ym_connector, 1.0) == 0.0

    def test_quadratic_tails(self, ym_connector):
        # Q + 1 ~ 2 r^2 at the origin, slope |g'(-1)| = 2
        assert ym_connector.k_lo == pytest.approx(2.0)
        r = 1e-5
        assert eval_Q(ym_connector, r) + 1.0 == pytest.approx(2 * r ** 2,
                                                              rel=1e-6)

    def test_no_root_above(self):
        with pytest.raises(StaticsError, match="outside search window"):
            build_harmonic_map(YANG_MILLS, 1.0, +1)


class TestRescale:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_non_positive_scale_refused(self, ground_state, lam):
        from wavemap.evolution import RadialGrid
        with pytest.raises(ValueError, match="scale must be positive"):
            rescale_Q(ground_state, lam, RadialGrid(r_max=10.0, n_points=100))

    def test_under_resolved_warning(self, ground_state):
        from wavemap.evolution import RadialGrid
        grid = RadialGrid(r_max=10.0, n_points=100)  # dr = 0.1
        with pytest.warns(RuntimeWarning, match="under-resolved bubble"):
            rescale_Q(ground_state, 0.2, grid)

    def test_rescaled_samples(self, ground_state):
        from wavemap.evolution import RadialGrid
        grid = RadialGrid(r_max=40.0, n_points=4096)
        field = rescale_Q(ground_state, 2.0, grid)
        assert np.allclose(field.psi, 2 * np.arctan(grid.r / 2.0), atol=1e-8)
        assert np.all(field.psi_dot == 0)
        assert field.ell0 == 0.0
        assert field.ell_inf == pytest.approx(math.pi)


def whole_table_branch(metric, sign, mid, target):
    """`statics._branch` with every interval's Gauss-Legendre nodes in one
    (N_SAMPLES, 24) table of `_gauss_legendre`."""
    def dsdu(x):
        q_gl = target + (mid - target) * np.exp(-x)
        return (target - q_gl) / (sign * np.asarray(metric.g(q_gl),
                                                    dtype=float))

    u = np.linspace(0.0, math.log(abs(mid - target) / statics.STITCH_TOL),
                    statics.N_SAMPLES + 1)
    ds = _gauss_legendre(dsdu, u[:-1], u[1:]).sum(axis=1)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    q = np.concatenate(([mid], target + (mid - target) * np.exp(-u[1:])))
    return s, q


@pytest.mark.parametrize("metric", [SPHERE, YANG_MILLS], ids=lambda m: m.id)
def test_block_quadrature_keeps_the_bits(metric, monkeypatch):
    # every connector between adjacent roots, both ways, against one built
    # from whole tables
    roots = find_vanishing_set(metric).roots
    pairs = [(float(a), +1) for a in roots[:-1]] + \
        [(float(b), -1) for b in roots[1:]]
    built = [build_harmonic_map(metric, ell, d) for ell, d in pairs]
    monkeypatch.setattr(statics, "_branch", whole_table_branch)
    for (ell, d), qmap in zip(pairs, built):
        oracle = build_harmonic_map.__wrapped__(metric, ell, d)
        assert qmap.knots.tobytes() == oracle.knots.tobytes(), (ell, d)
        assert qmap.coeffs.tobytes() == oracle.coeffs.tobytes(), (ell, d)
        assert qmap.energy == oracle.energy
