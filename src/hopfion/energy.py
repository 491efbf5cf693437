"""Faddeev-Skyrme energy densities, totals and the exact discrete gradient.

The canonical density is e = |w|^2 / 2 + |w ^ w|^2 / 4 of a g-valued 1-form
w: the pullback of the coisotropy form, evaluated on centered-difference
tangents, for a map, and D_phi a for a potential, so one function
evaluates both sides of the map/potential correspondence.  On CP1
this makes the model metric the Riemann-quotient one: tangent lengths are
half their Euclidean length on the embedded unit sphere, and the quartic
slot values are commutators [w_mu, w_nu].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .lattice import (LatticeField, SLOTS2, centered_diff, cross, dot, empty_component_major, wedge,
                      wedge_slot)

# descent_energy's admissibility wall in radians: relaxed hopf maps (charges
# 1, 2; n >= 24) reach |triangle| 0.61, the n = 16 charge-2 start 1.75 and the
# n = 8 and 12 starts, which relax refuses, 5.5 to 6.3
A_MAX = 2.0

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
    if pair.group_kind == "quaternion":
        data = empty_component_major(omega.data.shape[:3] + (len(SLOTS2), omega.vdim))
        for slot in range(len(SLOTS2)):
            comm_slot(omega, pair, slot, out=data[:, :, :, slot])
        return LatticeField(omega.grid, 2, data)
    return wedge(omega, omega, lambda a, b: 0.5 * pair.bracket(a, b))


def comm_slot(omega, pair, slot, out=None, planes=slice(None)):
    """Slot SLOTS2[slot] = (mu, nu) of comm_wedge(omega, pair) alone, on the
    x-planes `planes` (all by default): [w_mu, w_nu]."""
    if pair.group_kind != "quaternion":
        return wedge_slot(omega, omega, lambda a, b: 0.5 * pair.bracket(a, b), slot, out=out,
                          planes=planes)
    # antisymmetry doubles the single product, and cross(w_nu, w_mu) is
    # exactly -c, so the wedge's c - cross(w_nu, w_mu) is c + c
    c = cross(*(omega.slot(mu)[planes] for mu in SLOTS2[slot]))
    return np.add(c, c, out=c if out is None else out)


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
        halves = [0.5 * (v - alg.isotropic_part(psi.pair, psi.values, v))
                  for v in fl.map_tangents(psi)]
        e2 = 0.5 * sum(dot(hm, hm) for hm in halves)
        e4 = np.zeros_like(e2)
        for mu, nu in SLOTS2:
            c = cross(halves[mu], halves[nu])
            e4 = e4 + dot(c, c)
        e4 = 0.25 * e4
        return _report(grid, e2, e4, "map/cross_product")

    if variant not in ("coisotropy", "isotropic_skyrme"):
        raise ValueError(f"unknown energy variant '{variant}'")
    return _form_energy(fl.pullback_coisotropy(psi), psi.pair, f"map/{variant}",
                        psi if variant == "isotropic_skyrme" else None)


def _form_energy(w, pair, tag, phi=None):
    """The Faddeev-Skyrme density |w|^2 / 2 + |w ^ w|^2 / 4 of a g-valued
    1-form w, its quartic slots projected onto h_phi when phi is given."""
    e2 = 0.5 * w.norm2_density()
    W = comm_wedge(w, pair)
    if phi is not None:
        W = fl.isotropic_part(W, phi)
    e4 = 0.25 * W.norm2_density()
    return _report(w.grid, e2, e4, tag)


def covariant_potential(a):
    """D_phi a = a_perp + phi^* omega-perp as a 1-form, phi the reference map of a,
    with phi^* omega-perp added into a_perp's buffer."""
    omega = fl.pullback_coisotropy(a.phi)  # first: its transients outsize a_perp's
    return fl.coisotropic_part(a.a, a.phi, plus=omega)


def energy_potential(a):
    """Energy of a potential relative to its reference map: E_phi(a)."""
    return _form_energy(covariant_potential(a), a.pair, "potential")


def _descent_pass(psi, wall):
    """((dirichlet, skyrme), grad) of the descent objective in one pass.

    The Dirichlet term and its gradient share each axis's forward roll, and
    the quartic term and its gradient one add_plaquette_gradient pass.  With
    wall set the pass stops at the first slot with a triangle of |area| >=
    A_MAX and returns ((dirichlet, inf), None).
    """
    if not psi.is_cp1:
        raise ValueError("the descent objective is implemented for the CP1 target")
    h = psi.grid.h
    p = psi.values
    e2 = np.zeros(p.shape[:3])
    grad = np.zeros_like(p)
    for mu in range(3):
        ahead = np.roll(p, -1, axis=mu)
        delta = ahead - p
        e2 += dot(delta, delta)
        del delta
        grad += 0.25 * h * (2.0 * p - ahead - np.roll(p, 1, axis=mu))
        del ahead
    dirichlet = float(np.sum(e2)) * h / 8.0
    del e2
    e4 = np.zeros(p.shape[:3])
    for _, area, peak in alg.add_plaquette_gradient(p, 1.0 / (8.0 * h), grad):
        if wall and peak >= A_MAX:
            return (dirichlet, np.inf), None
        e4 += area * area
        del area  # the slot's corners are formed once the loop resumes
    skyrme = float(np.sum(e4)) / (16.0 * h)
    del e4
    # C order, so that reductions over the returned gradient run as before
    return (dirichlet, skyrme), np.ascontiguousarray(grad - alg.isotropic_part(psi.pair, p, grad))


def descent_energy(psi):
    """The relaxation objective, (dirichlet, skyrme): a topology-protecting discretization.

    Same continuum functional as energy_map, realized with the chordal
    nearest-neighbor Dirichlet term and the quartic term built from signed
    spherical plaquette areas (the quantized flux that also measures the
    charge).  Centered differences admit lattice null modes (checkerboard
    and antipodal-flip patterns cost nothing) through which descent can
    drain topology; here any lattice-scale topology change pays the full
    quartic price of a wrapped plaquette, of order 1/h.  The skyrme term is
    +inf once a triangle reaches |area| = A_MAX, short of the +-2 pi branch,
    so no path on which it stays finite changes the lattice charge (Berg &
    Luscher 1981).

    The gradient is formed in the same pass and kept on psi (None beyond the
    wall) until descent_gradient(psi) hands it out; psi is immutable, so the
    kept gradient is always psi's.
    """
    terms, grad = _descent_pass(psi, wall=True)
    object.__setattr__(psi, "_descent_grad", grad)
    return terms


def descent_gradient(psi):
    """Exact tangent gradient of descent_energy with respect to site values.

    The gradient descent_energy(psi) kept is handed out once and forgotten;
    with none kept, one pass without the wall forms it, for any map.
    """
    grad = getattr(psi, "_descent_grad", None)
    if grad is None:
        return _descent_pass(psi, wall=False)[1]
    object.__setattr__(psi, "_descent_grad", None)
    return grad


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
    return grad - alg.isotropic_part(psi.pair, p, grad)
