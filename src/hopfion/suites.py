"""Roundoff-class invariant checks for the algebra and lattice layers.

These back the `check` subcommand together with the gauge identity suite;
every entry here must sit at roundoff on random inputs.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import fields as fl
from .gauge import IdentityResidual
from .lattice import Grid, LatticeField, d, dot, integrate_3form

ROUNDOFF = 1e-10


def _entry(name, value, budget=ROUNDOFF):
    return IdentityResidual(
        name=name, kind="pointwise", residuals={0: float(value)},
        fitted_order=None, budget=f"<= {budget:g}", passed=float(value) <= budget)


def invariant_suite(seed=0):
    samples, n = 4096, 16
    rng = np.random.default_rng(seed)
    rows = []

    # quaternion algebra
    p = alg.random_unit_quaternions(rng, (samples,))
    q = alg.random_unit_quaternions(rng, (samples,))
    r = alg.random_unit_quaternions(rng, (samples,))
    assoc = alg.qmul(alg.qmul(p, q), r) - alg.qmul(p, alg.qmul(q, r))
    rows.append(_entry("quat_associativity", np.max(np.abs(assoc))))
    rows.append(_entry("quat_norm_multiplicative",
                       np.max(np.abs(alg.qnorm(alg.qmul(p, q)) - 1.0))))

    # bracket antisymmetry and ad-invariance of the inner product
    pair = alg.su2_u1()
    xi = rng.standard_normal((samples, 3))
    eta = rng.standard_normal((samples, 3))
    zeta = rng.standard_normal((samples, 3))
    rows.append(_entry("bracket_antisymmetry",
                       np.max(np.abs(pair.bracket(xi, eta) + pair.bracket(eta, xi))),
                       budget=1e-14))
    inv = (np.sum(pair.bracket(zeta, xi) * eta, axis=-1)
           + np.sum(xi * pair.bracket(zeta, eta), axis=-1))
    rows.append(_entry("inner_product_ad_invariance", np.max(np.abs(inv)), budget=1e-12))

    # subalgebra conditions on every built-in pair
    for pr in (alg.su2_u1(), alg.su2_group(), alg.su3_t2()):
        f = pr.structure_consts
        worst = 0.0
        dim = pr.dim_g
        basis = np.eye(dim)
        hset = list(pr.basis_h)
        for a in hset:
            for b in hset:
                br = pr.bracket(basis[a], basis[b])
                worst = max(worst, float(np.max(np.abs(pr.proj_perp(br)))))
        for a in hset:
            for b in range(dim):
                if b in hset:
                    continue
                br = pr.bracket(basis[a], basis[b])
                worst = max(worst, float(np.max(np.abs(pr.proj_h(br)))))
        rows.append(_entry(f"subalgebra_conditions_{pr.name}", worst, budget=1e-12))
        if pr.symmetric:
            worst = 0.0
            perp = [b for b in range(dim) if b not in hset]
            for a in perp:
                for b in perp:
                    br = pr.bracket(basis[a], basis[b])
                    worst = max(worst, float(np.max(np.abs(pr.proj_perp(br)))))
            rows.append(_entry(f"symmetric_space_bracket_{pr.name}", worst, budget=1e-12))

    # coisotropy form: isometry of both paths and their agreement on CP1
    g = alg.random_unit_quaternions(rng, (samples,))
    pt = alg.cp1_point_of(g)
    xi = rng.standard_normal((samples, 3))
    tangent = 2.0 * np.cross(xi, pt)  # [xi, pt], the action tangent
    w_fast = alg.coisotropy_form(pair, pt, tangent)
    w_gen = alg.coisotropy_form(pair, g, xi)
    rows.append(_entry("coisotropy_paths_agree", np.max(np.abs(w_fast - w_gen)), budget=1e-12))
    model_norm = 0.5 * np.linalg.norm(tangent, axis=-1)
    rows.append(_entry("coisotropy_isometry",
                       np.max(np.abs(np.linalg.norm(w_fast, axis=-1) - model_norm)),
                       budget=1e-12))

    # left equivariance
    gamma = alg.random_unit_quaternions(rng, (samples,))
    lhs = alg.coisotropy_form(pair, alg.qrotate(gamma, pt), alg.qrotate(gamma, tangent))
    rhs = alg.qrotate(gamma, w_fast)
    rows.append(_entry("coisotropy_left_equivariance", np.max(np.abs(lhs - rhs)), budget=1e-11))

    # projection algebra at random coset points
    par, perp = alg.project_isotropy(pair, pt, xi)
    rows.append(_entry("isotropy_reconstruction", np.max(np.abs(par + perp - xi)), budget=1e-12))
    rows.append(_entry("isotropy_orthogonality",
                       np.max(np.abs(np.sum(par * perp, axis=-1))), budget=1e-12))
    par2, _ = alg.project_isotropy(pair, pt, par)
    rows.append(_entry("isotropy_idempotent", np.max(np.abs(par2 - par)), budget=1e-12))

    # symmetric-space bracket relation along the fibers
    _, perp2 = alg.project_isotropy(pair, pt, eta)
    br = pair.bracket(perp, perp2)
    brpar, _ = alg.project_isotropy(pair, pt, br)
    rows.append(_entry("fiberwise_symmetric_bracket", np.max(np.abs(brpar - br)), budget=1e-12))

    # lattice identities
    grid = Grid(n)
    f0 = LatticeField(grid, 0, rng.standard_normal((n, n, n, 1, 3)))
    f1 = LatticeField(grid, 1, rng.standard_normal((n, n, n, 3, 3)))
    rows.append(_entry("dd_zero_0form", np.max(np.abs(d(d(f0)).data)), budget=1e-12))
    rows.append(_entry("dd_zero_1form", np.max(np.abs(d(d(f1)).data)), budget=1e-12))
    beta = LatticeField(grid, 2, rng.standard_normal((n, n, n, 3, 1)))
    scale = float(np.max(np.abs(beta.data)))
    rows.append(_entry("stokes_closed_torus",
                       abs(integrate_3form(d(beta))) / scale, budget=1e-10))

    # pure-gauge structure
    u = fl.LiftField(grid, pair, alg.qexp(
        np.stack([_smooth(grid, rng) for _ in range(3)], axis=-1)))
    rows.append(_entry("plaquette_triviality", fl.plaquette_defect(u), budget=1e-12))
    a = fl.pure_gauge_potential(u)
    apar, aperp = a.split()
    rows.append(_entry("potential_split_reconstruction",
                       np.max(np.abs(apar.data + aperp.data - a.a.data)), budget=1e-12))
    rows.append(_entry("potential_split_orthogonality",
                       np.max(np.abs(dot(apar.data, aperp.data))), budget=1e-12))
    return rows


def _smooth(grid, rng):
    x = grid.site_coords() * (2.0 * np.pi / grid.length)
    out = np.zeros((grid.n,) * 3)
    for _ in range(2):
        k = rng.integers(-2, 3, size=3)
        out += rng.uniform(0.2, 0.6) * np.sin(x @ k + rng.uniform(0, 2 * np.pi))
    return out
