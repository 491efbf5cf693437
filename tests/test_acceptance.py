"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Each criterion carries its stated tolerance and runtime budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import topology as tp
from hopfion.energy import (
    CROSS_VARIANT_SKYRME_RATIO,
    energy_gradient,
    energy_map,
    energy_potential,
)
from hopfion.gauge import (
    ORDER_BUDGET,
    POINTWISE_BUDGET,
    ad_inverse_apply,
    identity_suite,
    make_stabilizer,
    smooth_algebra_field,
    smooth_scalar,
    stabilizer_log_derivative,
)
from hopfion.lattice import Grid, LatticeField, d, l2_norm
from hopfion.minimize import RelaxConfig, relax


def report(criterion, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status} ({time.time() - t0:.1f} s) {detail}")
    assert passed, detail


def test_criterion_1_coisotropy_isometry(rng):
    t0 = time.time()
    pair = alg.su2_u1()
    n = 10_000
    g = alg.random_unit_quaternions(rng, (n,))
    pt = alg.cp1_point_of(g)
    xi = rng.standard_normal((n, 3))
    tangent = 2.0 * np.cross(xi, pt)  # the action tangent [xi, pt]
    w_fast = alg.coisotropy_form(pair, pt, tangent)
    w_generic = alg.coisotropy_form(pair, g, xi)
    model = 0.5 * np.linalg.norm(tangent, axis=-1)  # quotient-metric norm of S
    dev_fast = float(np.max(np.abs(np.linalg.norm(w_fast, axis=-1) - model)))
    dev_generic = float(np.max(np.abs(np.linalg.norm(w_generic, axis=-1) - model)))
    dev_paths = float(np.max(np.abs(w_fast - w_generic)))
    elapsed = time.time() - t0
    passed = dev_fast <= 1e-12 and dev_generic <= 1e-12 and dev_paths <= 1e-12 and elapsed < 1.0
    report(1, passed,
           f"isometry devs fast {dev_fast:.2e} generic {dev_generic:.2e} "
           f"paths {dev_paths:.2e} over {n} samples", t0)


def test_criterion_2_exact_discrete_identities(rng):
    t0 = time.time()
    grid = Grid(32)
    f0 = LatticeField(grid, 0, rng.standard_normal((32, 32, 32, 1, 3)))
    f1 = LatticeField(grid, 1, rng.standard_normal((32, 32, 32, 3, 3)))
    dd = max(float(np.max(np.abs(d(d(f0)).data))), float(np.max(np.abs(d(d(f1)).data))))
    u = smooth_lift(grid, rng, amplitude=0.6)
    plaquette = fl.plaquette_defect(u)
    phi = smooth_cp1_map(grid, rng, amplitude=0.3)
    a = fl.pure_gauge_potential(u, phi)
    par, perp = a.split()
    recon = float(np.max(np.abs(par.data + perp.data - a.a.data)))
    orth = float(np.max(np.abs(np.sum(par.data * perp.data, axis=-1))))
    elapsed = time.time() - t0
    passed = dd <= 1e-12 and plaquette <= 1e-12 and recon <= 1e-12 and orth <= 1e-12 \
        and elapsed < 5.0
    report(2, passed,
           f"dd {dd:.2e} plaquette {plaquette:.2e} split {recon:.2e} orth {orth:.2e}",
           t0)


def test_criterion_3_gauge_invariance(rng):
    t0 = time.time()
    grid = Grid(32)
    worst_density = 0.0
    worst_total = 0.0
    # constant reference, log-derivative route; and smooth reference with
    # the calculus-exact stabilizer derivative
    for reference in ("constant", "smooth"):
        if reference == "constant":
            phi = fl.constant_map(grid)
            stab = make_stabilizer(phi, smooth_scalar(grid, rng, 0.7))
            dw = stabilizer_log_derivative(stab, scheme="log")
        else:
            phi = smooth_cp1_map(grid, rng, amplitude=0.3)
            stab = make_stabilizer(phi, smooth_scalar(grid, rng, 0.7))
            dw = stabilizer_log_derivative(stab, scheme="exact")
        data = np.stack([smooth_algebra_field(grid, rng, 0.6) for _ in range(3)], axis=3)
        a = fl.PotentialField(LatticeField(grid, 1, data), phi)
        a_w = fl.PotentialField(ad_inverse_apply(stab.w, a.a) + dw, phi)
        e0 = energy_potential(a)
        e1 = energy_potential(a_w)
        dens = float(np.max(np.abs(e0.density.data - e1.density.data))
                     / np.max(e0.density.data))
        tot = abs(e0.total - e1.total) / e0.total
        worst_density = max(worst_density, dens)
        worst_total = max(worst_total, tot)
    elapsed = time.time() - t0
    passed = worst_density <= 1e-10 and worst_total <= 1e-10 and elapsed < 10.0
    report(3, passed,
           f"pointwise density dev {worst_density:.2e} total dev {worst_total:.2e}",
           t0)


def test_criterion_4_identity_suite():
    t0 = time.time()
    rows = identity_suite(sizes=(16, 32, 64), seed=0)
    failures = [r.name for r in rows if not r.passed]
    pointwise = {r.name: max(r.residuals.values()) for r in rows if r.kind == "pointwise"}
    orders = {r.name: r.fitted_order for r in rows if r.kind == "differential"}
    elapsed = time.time() - t0
    passed = not failures and elapsed < 180.0
    detail = (f"{len(rows)} identities; pointwise worst "
              f"{max(pointwise.values()):.2e} (budget {POINTWISE_BUDGET:g}); "
              f"min order {min(orders.values()):.2f} (budget {ORDER_BUDGET:g})")
    if failures:
        detail += f"; failures: {failures}"
    report(4, passed, detail, t0)


def test_criterion_5_topological_charges(rng):
    t0 = time.time()
    grid = Grid(48)
    devs = []
    agree = []
    links_exact = True
    for q in (1, 2):
        psi, u = fl.make_ansatz("hopf", grid, q)
        cs = tp.chern_simons_from_lift(u)
        wh = tp.whitehead_charge(psi)
        lk = tp.linking_charge(psi)
        devs += [abs(cs - q), abs(wh - q)]
        agree.append(abs(cs - wh))
        links_exact = links_exact and (lk == q)
    # additivity against a smooth stabilizer
    phi = fl.constant_map(grid)
    _, u = fl.make_ansatz("hopf", grid, 1)
    w = make_stabilizer(phi, smooth_scalar(grid, rng, 0.6)).w
    uw = fl.LiftField(grid, u.pair, alg.qmul(u.values, w.values))
    add_dev = abs(tp.chern_simons_from_lift(uw)
                  - tp.chern_simons_from_lift(u)
                  - tp.chern_simons_from_lift(w))
    elapsed = time.time() - t0
    passed = max(devs) <= 0.02 and links_exact and add_dev <= 0.03 \
        and max(agree) <= 0.01 and elapsed < 120.0
    report(5, passed,
           f"max |charge - Q| {max(devs):.4f}; linking exact {links_exact}; "
           f"cross-route {max(agree):.4f}; additivity {add_dev:.4f}", t0)


def test_criterion_6_gradient_correctness(rng):
    t0 = time.time()
    psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
    grad = energy_gradient(psi)
    ghat = grad / np.linalg.norm(grad)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        # random tangent direction with guaranteed gradient overlap; a
        # uniformly random direction is almost orthogonal to the gradient
        # in this dimension, which makes the relative error ill-conditioned
        delta = rng.standard_normal(psi.values.shape)
        delta -= np.sum(delta * psi.values, axis=-1, keepdims=True) * psi.values
        delta = delta / np.linalg.norm(delta) + ghat
        delta -= np.sum(delta * psi.values, axis=-1, keepdims=True) * psi.values
        delta /= np.linalg.norm(delta)
        ep = energy_map(psi.with_values(psi.values + eps * delta)).total
        em = energy_map(psi.with_values(psi.values - eps * delta)).total
        fd = (ep - em) / (2.0 * eps)
        an = float(np.sum(grad * delta))
        worst = max(worst, abs(fd - an) / abs(an))
    elapsed = time.time() - t0
    passed = worst <= 1e-6 and elapsed < 30.0
    report(6, passed, f"worst relative FD error {worst:.2e} over 100 directions", t0)


def test_criterion_7_minimization():
    t0 = time.time()
    psi0, _ = fl.make_ansatz("hopf", Grid(32), 1)
    cfg = RelaxConfig(max_iters=2000, grad_tol=1e-3, charge_check_every=25)
    run = relax(psi0, cfg)
    run2 = relax(psi0, cfg)
    energies = run.energies()
    strict = all(b < a for a, b in zip(energies, energies[1:]))
    grad_ratio = run.history[-1][4] / run.history[0][4]
    charges = [c for _, c in run.charges() if c is not None]
    drift = max(abs(c - 1.0) for c in charges) if charges else np.inf
    deterministic = run.history == run2.history
    elapsed = time.time() - t0
    passed = (run.termination == "converged" and strict and grad_ratio <= 1e-3
              and drift <= 0.05 and deterministic and elapsed < 600.0)
    report(7, passed,
           f"{run.termination} at iter {run.history[-1][0]}; strict descent {strict}; "
           f"grad ratio {grad_ratio:.2e}; charge drift {drift:.4f}; "
           f"bitwise-deterministic {deterministic}", t0)


def test_criterion_8_dual_formulation(rng):
    t0 = time.time()
    rel = {}
    for n in (16, 32, 64):
        grid = Grid(n)
        local = np.random.default_rng(42)
        phi = smooth_cp1_map(grid, local, amplitude=0.25)
        u = smooth_lift(grid, local, amplitude=0.4)
        e_map = energy_map(fl.act(u, phi)).total
        e_pot = energy_potential(fl.pure_gauge_potential(u, phi)).total
        rel[n] = abs(e_map - e_pot) / e_map
    hs = np.log([Grid(n).h for n in rel])
    order = float(np.polyfit(hs, np.log(list(rel.values())), 1)[0])

    psi = smooth_cp1_map(Grid(24), rng, amplitude=0.5)
    coiso = energy_map(psi)
    cross = energy_map(psi, variant="cross_product")
    dir_dev = abs(coiso.dirichlet - cross.dirichlet) / coiso.dirichlet
    dens_c = coiso.density.slot(0)[..., 0]
    dens_x = cross.density.slot(0)[..., 0]
    from hopfion.fields import pullback_coisotropy

    e2 = 0.5 * pullback_coisotropy(psi).norm2_density()
    sk_c = dens_c - e2
    sk_x = dens_x - e2
    keep = sk_x > 1e-6 * sk_x.max()
    ratio = sk_c[keep] / sk_x[keep]
    spread = float(np.std(ratio) / np.mean(ratio))
    ratio_dev = abs(float(np.mean(ratio)) - CROSS_VARIANT_SKYRME_RATIO)
    elapsed = time.time() - t0
    passed = (order >= 0.9 and all(rel[a] > rel[b] for a, b in ((16, 32), (32, 64)))
              and spread <= 1e-10 and ratio_dev <= 1e-8 and dir_dev <= 1e-12
              and elapsed < 120.0)
    report(8, passed,
           f"dual-energy order {order:.2f}; skyrme ratio {np.mean(ratio):.12f} "
           f"(frozen {CROSS_VARIANT_SKYRME_RATIO}, spread {spread:.2e}); "
           f"dirichlet dev {dir_dev:.2e}", t0)
