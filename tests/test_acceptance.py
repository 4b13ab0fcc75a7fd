"""Acceptance gate: ten end-to-end checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantities so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.  All
tolerances are pinned here, frozen from refined-grid calibration runs; a
failure means the library regressed, not that a tolerance needs rederiving.

Scenario sizes are chosen so the whole gate runs in a couple of minutes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavemap.geometry import SPHERE, find_vanishing_set
from wavemap.statics import build_harmonic_map, eval_Q, rescale_Q
from wavemap.evolution import (RadialGrid, RadialField, evolve,
                               discrete_energy)
from wavemap.data import (make_bump, make_perturbation, make_chain,
                          bump_profile)
from wavemap.diagnostics import energy, h_norms, beta_hat_ensemble
from wavemap.resolution import (extract_bubbles, extend_H,
                                build_scattering_state, extract_regular_part,
                                EXTENSION_RAMP_GRADIENT,
                                EXTENSION_RAMP_ZEROTH_INNER,
                                EXTENSION_RAMP_ZEROTH_OUTER)
from wavemap.rng import XorShift64Star

VSET = find_vanishing_set(SPHERE)
ROOT0 = VSET.root_at(0.0)


def report(num, name, ok, detail):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_c01_harmonic_map_oracle():
    # sphere ground state against the closed form, energy via 2|G(m)-G(l)|
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    r = np.logspace(-3, 3, 2000)
    max_err = float(np.max(np.abs(eval_Q(qmap, r) - 2.0 * np.arctan(r))))
    energy_err = abs(qmap.energy - 4.0)
    ok = max_err < 1e-8 and energy_err < 1e-6
    report(1, "harmonic-map oracle", ok,
           f"sup|Q - 2 arctan| = {max_err:.2e} (tol 1e-8), "
           f"|E - 4| = {energy_err:.2e} (tol 1e-6)")


def test_c02_energy_conservation_and_order():
    # nonlinear bump run: relative drift at n = 4096 plus the convergence
    # order of the final field across a dyadic refinement ladder
    finals = {}
    drift = None
    for n in (512, 1024, 2048, 4096):
        grid = RadialGrid(20.0, n)
        seed = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0,
                         width=3.0, velocity=0.0)
        rec = 128 if n == 4096 else 10 ** 9
        traj = evolve(seed, SPHERE, 10.0, record_every=rec)
        finals[n] = (grid, traj.snapshots[-1].psi)
        if n == 4096:
            e = [energy(s, SPHERE).total for s in traj.snapshots]
            drift = max(abs(v - e[0]) for v in e) / e[0]
    # convergence in the r-weighted L2 norm on shared nodes (odd fine
    # indices land on the coarse grid); sup norm reads low at the front
    diffs = []
    for n in (512, 1024, 2048):
        gc, uc = finals[n]
        uf = finals[2 * n][1][1::2]
        diffs.append(float(np.sqrt(np.sum((uf - uc) ** 2 * gc.r * gc.dr))))
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    ok = drift < 1e-5 and min(orders) >= 1.9
    report(2, "energy conservation", ok,
           f"drift = {drift:.2e} (tol 1e-5), "
           f"orders = {orders[0]:.2f}, {orders[1]:.2f} (floor 1.9)")


def test_c03_stationarity_of_the_bubble():
    # (Q, 0) stays put up to scheme error, quartering under dr halving
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    devs = []
    for n in (2048, 4096):
        grid = RadialGrid(20.0, n)
        q = rescale_Q(qmap, 1.0, grid)
        traj = evolve(q, SPHERE, 5.0, record_every=10 ** 9)
        devs.append(float(np.max(np.abs(traj.snapshots[-1].psi - q.psi))))
    ratio = devs[0] / devs[1]
    ok = devs[0] < 1e-4 and 3.5 < ratio < 4.5
    report(3, "stationarity", ok,
           f"max dev = {devs[0]:.2e}, {devs[1]:.2e} (tol 1e-4), "
           f"refinement ratio = {ratio:.3f} (want ~4)")


def test_c04_linear_flow_conservation_and_equipartition():
    # the flux-form energy the integrator conserves, then the late-time
    # kinetic/potential split of the linear flow
    grid = RadialGrid(200.0, 8192)
    seed = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
    traj = evolve(seed, ROOT0, 50.0, record_every=256, cfl=0.25)
    e = [discrete_energy(s, ROOT0) for s in traj.snapshots]
    drift = max(abs(v - e[0]) for v in e) / e[0]
    hn = h_norms(traj.snapshots[-1], ROOT0)
    kin = hn.l2 ** 2 / hn.h_ell_x_l2 ** 2
    pot = hn.h_ell ** 2 / hn.h_ell_x_l2 ** 2
    ok = drift < 1e-5 and abs(kin - 0.5) < 0.01 and abs(pot - 0.5) < 0.01
    report(4, "linear flow", ok,
           f"drift = {drift:.2e} (tol 1e-5), kinetic fraction = {kin:.5f}, "
           f"potential fraction = {pot:.5f} (within 0.01 of 1/2)")


def test_c05_exterior_energy_ensemble():
    # time-symmetric seeded data, odd slope: the squared exterior ratio at
    # t = 20 stays bounded away from zero and is grid-stable
    t = 20.0
    beta_c, _ = beta_hat_ensemble(RadialGrid(128.0, 2048), ROOT0, t,
                                  n_data=100)
    beta_f, _ = beta_hat_ensemble(RadialGrid(128.0, 4096), ROOT0, t,
                                  n_data=100)
    rel_change = abs(beta_f - beta_c) / beta_f
    ok = beta_c > 0.0 and beta_f > 0.0 and rel_change < 0.10
    report(5, "exterior-energy ensemble", ok,
           f"min ratio = {beta_c:.4f} (coarse), {beta_f:.4f} (refined), "
           f"change = {rel_change:.2e} (tol 0.10)")


def test_c06_bubble_extraction_oracle():
    # planted one- and two-bubble fields: counts, exact root chaining,
    # scales, and the energy defect
    grid1 = RadialGrid(5.0, 2 ** 16)
    f1 = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1e-2, grid1)
    rep1 = extract_bubbles(f1, SPHERE)

    grid2 = RadialGrid(2.0, 2 ** 17)
    scales2 = [1e-1, 1e-4]
    f2 = make_chain(grid2, SPHERE, 0.0, [(-1, lam) for lam in scales2])
    rep2 = extract_bubbles(f2, SPHERE)

    err1 = abs(rep1.scales[0] / 1e-2 - 1.0)
    errs2 = [abs(s / s0 - 1.0) for s, s0 in zip(rep2.scales, scales2)]
    chain1 = rep1.bubbles[0].m == rep1.outer_root == np.pi
    chain2 = (rep2.bubbles[0].m == rep2.outer_root == 0.0
              and rep2.bubbles[1].m == rep2.bubbles[0].ell == -np.pi)
    ok = (rep1.J == 1 and rep2.J == 2 and chain1 and chain2
          and rep2.scales[0] / rep2.scales[1] >= 100.0
          and err1 < 0.05 and max(errs2) < 0.05
          and rep1.defect_fraction < 0.02 and rep2.defect_fraction < 0.02)
    report(6, "bubble extraction oracle", ok,
           f"J = {rep1.J}, {rep2.J}, scale errs = {err1:.1e}, "
           f"{max(errs2):.1e} (tol 0.05), defects = "
           f"{rep1.defect_fraction:.1e}, {rep2.defect_fraction:.1e} "
           f"(tol 0.02)")


def test_c07_extraction_property_sweep():
    # 50 seeded single-bubble cases: recovery, idempotence of a second
    # pass on the residual, and exact-scale equivariance under grid and
    # scale doubling
    rng = XorShift64Star(20260819)
    q_up = build_harmonic_map(SPHERE, 0.0, +1)
    q_dn = build_harmonic_map(SPHERE, 0.0, -1)
    grid = RadialGrid(4.0, 2 ** 13)
    grid2 = RadialGrid(8.0, 2 ** 14)
    worst_scale = 0.0
    worst_equiv = 0.0
    clean = True
    for _ in range(50):
        qmap = q_up if rng.uniform() < 0.5 else q_dn
        lam = 0.02 * (10.0 ** rng.uniform())
        rep = extract_bubbles(rescale_Q(qmap, lam, grid), SPHERE)
        rep2 = extract_bubbles(rescale_Q(qmap, 2.0 * lam, grid2), SPHERE)
        again = extract_bubbles(rep.residual, SPHERE)
        if rep.J != 1 or rep2.J != 1 or again.J != 0:
            clean = False
            continue
        worst_scale = max(worst_scale, abs(rep.scales[0] / lam - 1.0))
        worst_equiv = max(worst_equiv,
                          abs(rep2.scales[0] / rep.scales[0] / 2.0 - 1.0))
    ok = clean and worst_scale < 1e-6 and worst_equiv < 1e-8
    report(7, "extraction property sweep", ok,
           f"50 cases clean = {clean}, worst scale err = {worst_scale:.1e} "
           f"(tol 1e-6), worst equivariance err = {worst_equiv:.1e} "
           f"(tol 1e-8)")


def test_c08_extension_lemma():
    # the H bound on 1000 seeded inputs, and the ramp constants of the
    # constant-field case against quadrature
    rng = XorShift64Star(2026)
    grid = RadialGrid(20.0, 2048)
    r = grid.r
    worst = math.inf
    for _ in range(1000):
        r1 = 0.4 + 1.2 * rng.uniform()
        r2 = r1 * (2.0 + 3.0 * rng.uniform())
        a = -1.0 + 2.0 * rng.uniform()
        b = -1.0 + 2.0 * rng.uniform()
        k = 0.5 + 3.0 * rng.uniform()
        f = RadialField(grid, a * np.sin(k * r) + b,
                        np.zeros_like(r), 0.0, 0.0, 0.0)
        worst = min(worst, extend_H(f, r1, r2).slack)
    grad_in = quad(lambda x: 4.0 * x, 0.5, 1.0)[0]
    zer_in = quad(lambda x: (2.0 * x - 1.0) ** 2 / x, 0.5, 1.0)[0]
    zer_out = quad(lambda x: (2.0 - x) ** 2 / x, 1.0, 2.0)[0]
    const_err = max(abs(grad_in - EXTENSION_RAMP_GRADIENT),
                    abs(zer_in - EXTENSION_RAMP_ZEROTH_INNER),
                    abs(zer_out - EXTENSION_RAMP_ZEROTH_OUTER))
    ok = (worst >= 0.0 and const_err < 1e-10
          and EXTENSION_RAMP_ZEROTH_INNER <= math.log(2.0))
    report(8, "extension lemma", ok,
           f"min slack over 1000 inputs = {worst:.3e} (floor 0), "
           f"ramp constant err = {const_err:.1e} (tol 1e-10)")


def test_c09_scattering_round_trip():
    # linear-solver trajectory must be reproduced within 3x the
    # construction defect at every frame; a small nonlinear run within 5%
    grid = RadialGrid(200.0, 2048)
    seed = make_perturbation(grid, amplitude=0.1, center=15.0, width=5.0)
    ltraj = evolve(seed, ROOT0, 90.0, record_every=32)
    st = build_scattering_state(ltraj)
    budget = 3.0 * st.defect
    worst = max(st.match_errors)

    nseed = make_bump(grid, SPHERE, 0.0, amplitude=0.05, center=15.0,
                      width=5.0, velocity=0.0)
    ntraj = evolve(nseed, SPHERE, 90.0, record_every=32)
    nst = build_scattering_state(ntraj)
    final_rel = nst.match_errors[-1] / h_norms(nst.phi_L, ROOT0).h_ell_x_l2
    ok = worst <= budget and final_rel < 0.05
    report(9, "scattering round trip", ok,
           f"linear worst match = {worst:.2e} <= 3 x defect = {budget:.2e}, "
           f"nonlinear final rel err = {final_rel:.2e} (tol 0.05)")


def test_c10_blowup_pipeline():
    # steep degree-1 data must trigger detection with a shrinking
    # concentration radius and settle on a far root; the constructed
    # surrogate pins the quantitative decay of the interior norm
    grid = RadialGrid(6.0, 4096)
    r = grid.r
    psi = 2.0 * np.arctan(r) + 5.0 * r * np.exp(-r ** 2)
    f = RadialField(grid, psi, np.zeros_like(r), ell0=0.0, ell_inf=np.pi,
                    time=0.0)
    traj = evolve(f, SPHERE, 5.0, record_every=16)
    detected = traj.blowup is not None
    rhos = [rho for _, rho in traj.blowup.radius_series] if detected else []
    shrinking = len(rhos) >= 2 and rhos[-1] < rhos[0]
    reg = extract_regular_part(traj)
    on_root = min(abs(reg.ell_star.value - v) for v in VSET.roots) == 0.0
    settled = math.isfinite(reg.settle_gap) and len(reg.trace) > 0

    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    sgrid = RadialGrid(10.0, 1024)
    frames = []
    for t in np.linspace(0.0, 0.96, 25):
        lam = (1.0 - t) ** 2
        spsi = (eval_Q(qmap, sgrid.r / lam)
                + bump_profile(sgrid.r, 0.3, 3.0, 1.5))
        frames.append(RadialField(sgrid, spsi, np.zeros(sgrid.n_points),
                                  ell0=0.0, ell_inf=np.pi, time=float(t)))
    from wavemap.evolution import Trajectory, BlowupRecord
    straj = Trajectory(frames, 0.002, "synthetic", 0.5, SPHERE,
                       BlowupRecord(1.0, 0.01, 0.96, "energy-concentration",
                                    []))
    sreg = extract_regular_part(straj)
    decay = sreg.interior_norms[-1] / sreg.interior_norms[0]
    ok = (detected and shrinking and on_root and settled and decay < 0.2)
    report(10, "blow-up pipeline", ok,
           f"detected = {detected}, radius {rhos[0]:.3f} -> {rhos[-1]:.4f}, "
           f"ell* = {reg.ell_star.value:.6f} on a root = {on_root}, "
           f"surrogate norm decay = {decay:.3f} (tol 0.2)")
