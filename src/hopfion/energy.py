"""Faddeev-Skyrme energy densities, totals and the exact discrete gradient.

The canonical density is e = |w|^2 / 2 + |w ^ w|^2 / 4 with w the pullback
of the coisotropy form, evaluated on centered-difference tangents.  On CP1
this makes the model metric the Riemann-quotient one: tangent lengths are
half their Euclidean length on the embedded unit sphere, and the quartic
slot values are commutators [w_mu, w_nu].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .lattice import LatticeField, SLOTS2, centered_diff, cross, dot, empty_form, wedge

# Site-wise ratio of the commutator-wedge Skyrme density to the literal
# cross-product form on the half-scaled differential: |[x, y]| = 2 |x cross y|
# on su2, squared.  Frozen as a regression value.
CROSS_VARIANT_SKYRME_RATIO = 4.0


@dataclass
class EnergyReport:
    dirichlet: float
    skyrme: float
    total: float
    density: LatticeField
    model_tag: str

    def as_dict(self):
        return {
            "model": self.model_tag,
            "dirichlet": self.dirichlet,
            "skyrme": self.skyrme,
            "total": self.total,
        }

    def __str__(self):
        return (f"[{self.model_tag}] dirichlet = {self.dirichlet:.12g}  "
                f"skyrme = {self.skyrme:.12g}  total = {self.total:.12g}")


def comm_wedge(omega, pair):
    """(w ^ w) under the matrix product: slot (mu, nu) equals [w_mu, w_nu]."""
    # antisymmetry doubles the single product: slot = 2 p(w_mu, w_nu)
    if pair.group_kind == "quaternion":
        # one cross per slot: cross(w_nu, w_mu) is exactly -c, so the
        # wedge's c - cross(w_nu, w_mu) is c + c
        data = empty_form(omega.data.shape[:3] + (len(SLOTS2), omega.vdim))
        for slot, (mu, nu) in enumerate(SLOTS2):
            c = cross(omega.slot(mu), omega.slot(nu))
            np.add(c, c, out=data[:, :, :, slot])
        return LatticeField(omega.grid, 2, data)
    return wedge(omega, omega, lambda a, b: 0.5 * pair.bracket(a, b))


def _report(grid, e2, e4, tag):
    h3 = grid.h ** 3
    dirichlet = float(np.sum(e2) * h3)
    skyrme = float(np.sum(e4) * h3)
    density = LatticeField(grid, 0, (e2 + e4)[..., None, None])
    return EnergyReport(dirichlet, skyrme, dirichlet + skyrme, density, tag)


def energy_map(psi, variant="coisotropy"):
    """Energy of a coset-valued map.

    variant 'coisotropy' is the canonical form for every pair;
    'cross_product' is the CP1-only vector-algebra path kept as an oracle
    (its Skyrme density is the coisotropy one divided by
    CROSS_VARIANT_SKYRME_RATIO); 'isotropic_skyrme' projects the quartic
    slots onto the isotropy subalgebra before taking norms.
    """
    grid = psi.grid
    if variant == "cross_product":
        if not psi.is_cp1:
            raise ValueError("cross_product variant is defined for the CP1 pair only")
        halves = []
        for v in fl.map_tangents(psi):
            vt = v - dot(v, psi.values)[..., None] * psi.values
            halves.append(0.5 * vt)
        e2 = 0.5 * sum(dot(hm, hm) for hm in halves)
        e4 = np.zeros_like(e2)
        for mu, nu in SLOTS2:
            c = cross(halves[mu], halves[nu])
            e4 = e4 + dot(c, c)
        e4 = 0.25 * e4
        return _report(grid, e2, e4, "map/cross_product")

    omega = fl.pullback_coisotropy(psi)
    e2 = 0.5 * omega.norm2_density()
    W = comm_wedge(omega, psi.pair)
    if variant == "isotropic_skyrme":
        W = fl.split_form(W, psi)[0]
        tag = "map/isotropic_skyrme"
    elif variant == "coisotropy":
        tag = "map/coisotropy"
    else:
        raise ValueError(f"unknown energy variant '{variant}'")
    e4 = 0.25 * W.norm2_density()
    return _report(grid, e2, e4, tag)


def covariant_potential(a):
    """D_phi a = a_perp + phi^* omega-perp as a 1-form, phi the reference map of a."""
    _, aperp = a.split()
    if a.phi is None:
        return aperp
    return aperp + fl.pullback_coisotropy(a.phi)


def energy_potential(a):
    """Energy of a potential relative to its reference map: E_phi(a)."""
    D = covariant_potential(a)
    e2 = 0.5 * D.norm2_density()
    W = comm_wedge(D, a.pair)
    e4 = 0.25 * W.norm2_density()
    return _report(a.grid, e2, e4, "potential")


def descent_energy(psi):
    """The relaxation objective, (dirichlet, skyrme): a topology-protecting discretization.

    Same continuum functional as energy_map, realized with the chordal
    nearest-neighbor Dirichlet term and the quartic term built from signed
    spherical plaquette areas (the quantized flux that also measures the
    charge).  Centered differences admit lattice null modes (checkerboard
    and antipodal-flip patterns cost nothing) through which descent can
    drain topology; here any lattice-scale topology change pays the full
    quartic price of a wrapped plaquette, of order 1/h.
    """
    if not psi.is_cp1:
        raise ValueError("the descent objective is implemented for the CP1 target")
    h = psi.grid.h
    p = np.moveaxis(psi.values, -1, 0)
    e2 = np.zeros(p.shape[1:])
    for mu in range(3):
        delta = (np.roll(p, -1, axis=mu + 1) - p).transpose(1, 2, 3, 0)  # (n, n, n, 3) view
        e2 += dot(delta, delta)
    e4 = np.zeros_like(e2)
    for _, area in alg.plaquette_areas(p):
        e4 += area * area
    dirichlet = float(np.sum(e2)) * h / 8.0
    skyrme = float(np.sum(e4)) / (16.0 * h)
    return dirichlet, skyrme


def descent_gradient(psi):
    """Exact tangent gradient of descent_energy with respect to site values."""
    if not psi.is_cp1:
        raise ValueError("the descent objective is implemented for the CP1 target")
    h = psi.grid.h
    p = np.moveaxis(psi.values, -1, 0)
    grad = np.zeros_like(p)
    for mu in range(3):
        grad += 0.25 * h * (
            2.0 * p - np.roll(p, -1, axis=mu + 1) - np.roll(p, 1, axis=mu + 1))
    for (mu, nu), area, (g00, g10, g11, g01) in alg.plaquette_areas(p, with_grads=True):
        w = (1.0 / (8.0 * h)) * area
        grad += w * g00
        grad += np.roll(w * g10, 1, axis=mu + 1)
        grad += np.roll(np.roll(w * g11, 1, axis=mu + 1), 1, axis=nu + 1)
        grad += np.roll(w * g01, 1, axis=nu + 1)
    grad -= dot(grad.transpose(1, 2, 3, 0), p.transpose(1, 2, 3, 0)) * p
    # C order, so that reductions over the returned gradient run as before
    return np.ascontiguousarray(np.moveaxis(grad, 0, -1))


def energy_gradient(psi):
    """Exact gradient of the discretized coisotropy energy on a CP1 map.

    Returns per-site vectors tangent to the sphere, shape (n, n, n, 3).
    The energy as a function of raw site values is
      sum_x h^3 [ 1/8 sum_mu |psi x v_mu|^2 + 1/16 sum_{mu<nu} s_mn^2 ]
    with v_mu the centered differences and s_mn = psi . (v_mu x v_nu);
    the chain rule contributions through the neighbors enter as the
    (negative) centered difference of d(density)/d(v_mu).
    """
    if not psi.is_cp1:
        raise ValueError("energy_gradient is implemented for the CP1 target")
    grid = psi.grid
    h = grid.h
    p = psi.values
    v = [centered_diff(p, mu, h) for mu in range(3)]

    grad = np.zeros_like(p)
    dEdv = [np.zeros_like(p) for _ in range(3)]

    for mu in range(3):
        pv = dot(p, v[mu])[..., None]
        vv = dot(v[mu], v[mu])[..., None]
        grad += 0.25 * (vv * p - pv * v[mu])
        dEdv[mu] += 0.25 * (v[mu] - pv * p)

    for mu, nu in SLOTS2:
        cvv = cross(v[mu], v[nu])
        s = dot(p, cvv)[..., None]
        grad += 0.125 * s * cvv
        dEdv[mu] += 0.125 * s * cross(v[nu], p)
        dEdv[nu] += 0.125 * s * cross(p, v[mu])

    for mu in range(3):
        grad -= centered_diff(dEdv[mu], mu, h)

    grad *= h ** 3
    grad -= dot(grad, p)[..., None] * p
    return grad
