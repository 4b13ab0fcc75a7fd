"""Geometry oracles: closed-form G values, known root lattices, assumptions.

Expected values are frozen from independent derivations:
  - G(sphere, x) has antiderivative 1 - cos x on [0, pi], so G(pi) = 2
  - G(yang-mills, 1) = int_0^1 (1 - y^2) dy = 2/3
  - roots of sin are k*pi with slopes cos(k*pi) = (-1)^k
  - roots of 1 - rho^2 are +-1 with slopes -2*rho = -+2
"""

import math

import numpy as np
import pytest

from wavemap import geometry
from wavemap.geometry import (GeometryError, SPHERE, YANG_MILLS,
                              check_assumptions, eval_G, find_vanishing_set,
                              get_metric, make_metric)


def brute_force_bisect(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class TestEvalG:
    def test_sphere_pi(self):
        # int_0^pi sin = [1 - cos] = 2
        assert eval_G(SPHERE, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_sphere_beyond_first_root(self):
        # |sin| over [0, 2pi] = 4; the kink at pi must not break quadrature
        assert eval_G(SPHERE, 2 * math.pi) == pytest.approx(4.0, abs=1e-10)

    def test_yang_mills_one(self):
        assert eval_G(YANG_MILLS, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_odd_symmetry_and_monotone(self):
        xs = np.linspace(-8.0, 8.0, 41)
        vals = [eval_G(SPHERE, x) for x in xs]
        assert np.all(np.diff(vals) > 0)
        for x, v in zip(xs, vals):
            # |sin| is even, so G is odd
            assert v == pytest.approx(-eval_G(SPHERE, -x), abs=1e-10)

    def test_zero(self):
        assert eval_G(SPHERE, 0.0) == 0.0


class TestVanishingSet:
    def test_sphere_roots_window(self):
        vset = find_vanishing_set(SPHERE, (-10.0, 10.0))
        expected = np.array([k * math.pi for k in range(-3, 4)])
        assert len(vset) == 7
        assert np.max(np.abs(vset.roots - expected)) < 1e-12
        signs = np.array([(-1.0) ** k for k in range(-3, 4)])
        assert np.max(np.abs(vset.slopes - signs)) < 1e-9

    def test_sphere_roots_against_brute_force(self):
        vset = find_vanishing_set(SPHERE, (2.0, 4.0))
        assert len(vset) == 1
        oracle = brute_force_bisect(math.sin, 2.0, 4.0)
        assert abs(vset.roots[0] - oracle) < 1e-12

    def test_yang_mills_roots(self):
        vset = find_vanishing_set(YANG_MILLS)
        assert np.allclose(vset.roots, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(vset.slopes, [2.0, -2.0], atol=1e-12)
        assert np.allclose(vset.gaps, [2.0, 2.0])

    def test_gaps_distance_to_nearest_root(self):
        vset = find_vanishing_set(SPHERE, (-10.0, 10.0))
        assert np.allclose(vset.gaps, math.pi)

    def test_single_root_gap_infinite(self):
        # g = rho has the lone root 0
        m = make_metric("line", "rho", "1", (-2.0, 2.0))
        vset = find_vanishing_set(m)
        assert len(vset) == 1
        assert vset.gaps[0] == math.inf

    def test_root_at_and_neighbors(self):
        vset = find_vanishing_set(SPHERE, (-10.0, 10.0))
        r = vset.root_at(math.pi)
        assert r.slope == pytest.approx(-1.0)
        up = vset.neighbor(math.pi, +1)
        assert up.value == pytest.approx(2 * math.pi)
        down = vset.neighbor(0.0, -1)
        assert down.value == pytest.approx(-math.pi)
        assert vset.neighbor(3 * math.pi, +1) is None

    def test_root_at_refuses_nan(self):
        # every comparison with NaN is false, so a '> tol' test would pass
        # it through to the first root of the window
        with pytest.raises(GeometryError, match="not a root"):
            find_vanishing_set(SPHERE).root_at(math.nan)

    def test_degenerate_root_rejected(self):
        # g = (1 - rho^2)^2 has double roots at +-1
        m = make_metric("degenerate", "(1 - rho^2) * (1 - rho^2)",
                        "-4 * rho * (1 - rho^2)", (-2.0, 2.0))
        with pytest.raises(GeometryError, match="non-simple"):
            find_vanishing_set(m)


class TestAssumptions:
    def test_sphere_all_hold(self):
        rep = check_assumptions(SPHERE)
        assert rep.a1 and rep.a2 and rep.a3 and rep.a3_prime

    def test_yang_mills_a3_fails_a3_prime_holds(self):
        rep = check_assumptions(YANG_MILLS)
        assert rep.a2
        assert not rep.a3
        assert rep.a3_prime
        assert np.allclose(sorted(np.abs(rep.slopes)), [2.0, 2.0])

    def test_a1_heuristic_fails_on_flat_tail(self):
        # g = sin(rho) * e^{-|rho|}-like decay cannot be expressed in the
        # grammar with abs, so use a window far beyond the oscillation of a
        # slowly growing G instead: g = rho/(1+rho^2) has G ~ log, roots {0},
        # and window ends dominated by the (synthetic) gap scale.
        m = make_metric("log-growth", "rho / (1 + rho^2)",
                        "(1 - rho^2) / ((1 + rho^2)^2)", (-4.0, 4.0))
        rep = check_assumptions(m)
        assert not rep.a1

    def test_report_numbers(self):
        rep = check_assumptions(SPHERE)
        assert rep.min_separation == pytest.approx(math.pi, rel=1e-10)
        # G(4 pi) = 8: two units of |sin| area per half-period
        assert rep.g_growth == pytest.approx((8.0, 8.0), abs=1e-8)


class TestCustomMetric:
    def test_wrong_derivative_rejected(self):
        with pytest.raises(GeometryError, match="finite difference"):
            make_metric("bad", "sin(rho)", "sin(rho)", (-4.0, 4.0))

    def test_grammar_functions(self):
        m = make_metric("scaled", "2 * sin(rho / 2)", "cos(rho / 2)",
                        (-7.0, 7.0))
        vset = find_vanishing_set(m)
        assert np.allclose(vset.roots, [-2 * math.pi, 0.0, 2 * math.pi],
                           atol=1e-11)

    def test_get_metric_unknown(self):
        with pytest.raises(GeometryError, match="unknown metric"):
            get_metric("torus")
