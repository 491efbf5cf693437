"""Group- and coset-valued lattice maps, potentials and charged ansatze.

CP1-valued maps store unit imaginary quaternions per site; the group SU2
acts on them by conjugation.  Lifts store unit quaternions (or unitary
matrices for matrix pairs).  Potentials extracted from lifts use the
principal logarithm of link variables, which lands exactly in the Lie
algebra and keeps plaquette holonomies of pure gauges at the identity.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from .lattice import (LatticeField, SLOTS2, centered_diff, component_major, cross,
                      empty_component_major, empty_form)


class _SiteField:
    """Per-site values of a map or a lift on the torus, checked where built.

    Values must have shape (n, n, n) + the site shape: (3,) for a CP1 map,
    (4,) for other quaternion values, (N, N) for matrix pairs.  Quaternion
    values are stored component-major like forms (see lattice): renormalized
    into that layout, or with renormalize=False checked finite and unit and
    copied into it if need be.  Matrix values, which @ reads as stacked
    matrices, stay C-contiguous and are checked finite.  Values are frozen.
    """

    __slots__ = ("grid", "pair", "values")

    def __init__(self, grid, pair, values, renormalize=True):
        values = np.asarray(values)
        if pair.group_kind == "matrix":
            site = pair.basis_matrices.shape[1:]
        else:
            site = (3,) if self._kind == "map" and pair.dim_h else (4,)
        shape = (grid.n,) * 3 + site
        if values.shape != shape:
            raise ValueError(f"{pair.name} {self._kind} values must have shape {shape}, "
                             f"not {values.shape}")
        if pair.group_kind == "matrix":
            values = np.ascontiguousarray(values)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{self._kind} values hold NaN or Inf")
        elif renormalize:
            norm = np.linalg.norm(values, axis=-1, keepdims=True)
            values = np.divide(values, norm, out=empty_component_major(shape, norm.dtype))
        else:
            values = component_major(values)
            alg.check_unit(values, f"{self._kind} value")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def inverse_values(self):
        return self.pair.inverse(self.values)


class MapField(_SiteField):
    """A map from the torus into the coset space of a pair.

    CP1 values are unit imaginary quaternions, group targets unit
    quaternions, and matrix pairs store coset representatives.
    """

    __slots__ = ()
    _kind = "map"

    @property
    def is_cp1(self):
        return self.pair.group_kind == "quaternion" and self.values.shape[-1] == 3

    def with_values(self, values, renormalize=True):
        return MapField(self.grid, self.pair, values, renormalize=renormalize)


class LiftField(_SiteField):
    """A map into the group G: unit quaternions or unitary matrices per site."""

    __slots__ = ()
    _kind = "lift"


class PotentialField:
    """A g-valued 1-form a with its reference map phi (on a's grid, giving the
    pair), as in E_phi(a); a pair given without phi means there is no map."""

    __slots__ = ("a", "phi", "pair")

    def __init__(self, a, phi=None, pair=None):
        if a.degree != 1:
            raise ValueError("potential must be a 1-form")
        if (phi is None) == (pair is None):
            raise ValueError("a potential takes a reference map or, without one, a pair")
        if phi is not None and phi.grid != a.grid:
            raise ValueError("potential and reference map live on different grids")
        pair = pair if phi is None else phi.pair
        if a.vdim != pair.dim_g:
            raise ValueError(f"a {pair.name} potential has {pair.dim_g} components, not {a.vdim}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "pair", pair)

    def __setattr__(self, *a):
        raise AttributeError("PotentialField is immutable")

    def split(self):
        """(a_par, a_perp) as 1-forms, pointwise in h_phi and its complement."""
        return _split_form(self.a, self.phi, self.pair)

    @property
    def grid(self):
        return self.a.grid


def split_form(form, phi):
    """(par, perp): a g-valued form of any degree split pointwise into h_phi
    and its orthogonal complement along the map phi, in phi's pair."""
    return _split_form(form, phi, phi.pair)


def _split_form(form, phi, pair):
    return tuple(LatticeField(form.grid, form.degree, x) for x in split_data(form.data, phi, pair))


def split_data(data, phi, pair, planes=slice(None)):
    """(par, perp) of g-valued form data on the x-planes `planes` along the map
    phi (unit where it was built) of pair: zero and data when h is trivial,
    a ValueError with no map (phi None) otherwise."""
    if pair.dim_h == 0:
        return np.zeros_like(data), data
    if phi is None:
        raise ValueError("isotropy split needs a reference map")
    # phi broadcasts over the slot axis
    return alg.isotropy_split(pair, phi.values[planes, :, :, None], data)


def constant_map(grid):
    """The constant reference map phi = i on CP1."""
    return MapField(grid, alg.su2_u1(), np.broadcast_to([1.0, 0.0, 0.0], (grid.n,) * 3 + (3,)))


def links(u, axis):
    """Link variable u(x)^-1 u(x + e_axis)."""
    return u.pair.mul(u.inverse_values(), np.roll(u.values, -1, axis=axis))


def pure_gauge_potential(u, phi=None):
    """a = u^-1 du from principal logs of link variables, exactly g-valued,
    against phi (default: the constant map for su2_u1, none otherwise)."""
    h = u.grid.h
    inv = u.inverse_values()
    data = empty_form(u.values.shape[:3] + (3, u.pair.dim_g))
    for mu in range(3):
        ell = u.pair.mul(inv, np.roll(u.values, -1, axis=mu))
        if u.pair.group_kind == "quaternion":
            coeffs = alg.qlog(ell)
        else:
            coeffs = u.pair.coeffs_of(alg.matrix_log_unitary(ell))
        del ell
        np.divide(coeffs, h, out=data[:, :, :, mu])
        del coeffs  # before the next link is formed
    a = LatticeField(u.grid, 1, data)
    if phi is None and u.pair.name != "su2_u1":
        return PotentialField(a, pair=u.pair)
    return PotentialField(a, phi if phi is not None else constant_map(u.grid))


def plaquette_defect(u):
    """Max distance of any plaquette holonomy from the identity."""
    pair = u.pair
    axes = -1 if pair.group_kind == "quaternion" else (-2, -1)
    worst = 0.0
    for mu, nu in SLOTS2:
        l_mu = links(u, mu)
        l_nu = links(u, nu)
        p = pair.mul(pair.mul(l_mu, np.roll(l_nu, -1, axis=mu)),
                     pair.inverse(pair.mul(l_nu, np.roll(l_mu, -1, axis=nu))))
        defect = np.linalg.norm(p - pair.identity_element(p.shape[:3]), axis=axes)
        worst = max(worst, float(np.max(defect)))
    return worst


def act(u, phi):
    """Action of a lift on a map: conjugation on CP1, left product on groups."""
    if u.grid != phi.grid:
        raise ValueError("grids differ")
    if phi.is_cp1:
        return phi.with_values(alg.qrotate(u.values, phi.values))
    if phi.pair.group_kind == "quaternion":
        return phi.with_values(alg.qmul(u.values, phi.values))
    return phi.with_values(u.values @ phi.values, renormalize=False)


def map_tangents(psi):
    """Centered-difference tangents of a CP1 map, one per axis, unprojected."""
    return [centered_diff(psi.values, mu, psi.grid.h) for mu in range(3)]


def pullback_coisotropy(psi):
    """psi^* omega-perp as a g-valued 1-form.

    CP1: the form on the centered-difference tangent projected to the
    sphere; the cross product with the unit base point performs both the
    projection and the quarter-turn, slot = psi x D_mu psi / 2.  Group
    targets: right-translated projected tangent.  Matrix cosets: forward
    link logs pushed through Ad of the representative.
    """
    g = psi.grid
    if psi.is_cp1:
        data = empty_form(psi.values.shape[:3] + (3, 3))
        for mu in range(3):
            v = centered_diff(psi.values, mu, g.h)
            np.multiply(0.5, cross(psi.values, v), out=data[:, :, :, mu])
        return LatticeField(g, 1, data)
    if psi.pair.group_kind == "quaternion":
        # omega-perp = dg g^-1 for trivial H, on projected tangents
        slots = []
        for mu in range(3):
            v = centered_diff(psi.values, mu, g.h)
            v = v - np.sum(v * psi.values, axis=-1, keepdims=True) * psi.values
            slots.append(alg.qim(alg.qmul(v, psi.pair.inverse(psi.values))))
        return LatticeField.from_slots(g, 1, slots)
    pair = psi.pair
    down = [pair.proj_perp(pair.coeffs_of(alg.matrix_log_unitary(links(psi, mu))) / g.h)
            for mu in range(3)]
    return LatticeField(g, 1, pair.ad(psi.values[:, :, :, None], np.stack(down, axis=3)))


# ---------------------------------------------------------------------------
# ansatze
# ---------------------------------------------------------------------------

def smoothstep(t):
    """Quintic step: 0 -> 1 on [0, 1] with two vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _suspension_lift(grid, charge):
    """Radial suspension of a degree-`charge` sphere map, supported in a ball.

    u = cos f + sin f m, with the profile f falling from pi at the center
    to 0 at radius L/3 (quintic step, so link angles stay below the log
    cut at moderate n) and m the radial direction with its azimuth wound
    `charge` times about the x-axis.  That axis choice sends the winding
    axis to the vacuum value i of psi = u i u^-1, so the preimages of
    generic regular values stay clear of the azimuthal degeneracy.  The
    resulting group map has degree = charge.
    """
    L = grid.length
    radius = L / 3.0
    x = grid.site_coords() - 0.5 * L
    r = np.linalg.norm(x, axis=-1)
    f = np.pi * smoothstep(1.0 - r / radius)
    inside = r > 1e-12 * L
    rho = np.sqrt(x[..., 1] ** 2 + x[..., 2] ** 2)
    theta = np.arctan2(rho, x[..., 0])          # polar angle from +x
    phi_az = np.arctan2(x[..., 2], x[..., 1])   # azimuth in the (y, z) plane
    m = np.zeros_like(x)
    m[..., 0] = np.cos(theta)
    m[..., 1] = np.sin(theta) * np.cos(charge * phi_az)
    m[..., 2] = np.sin(theta) * np.sin(charge * phi_az)
    m[~inside] = (1.0, 0.0, 0.0)
    vals = np.zeros(x.shape[:-1] + (4,))
    vals[..., 0] = np.cos(f)
    vals[..., 1:] = np.sin(f)[..., None] * m
    return LiftField(grid, alg.su2_u1(), vals)


def make_ansatz(kind, grid, charge=0):
    """Charged initial data: returns (psi, u) with psi = u . i . u^-1.

    Kinds: 'constant', 'hopf' (Hopf charge = `charge`), 'ball_degree'
    (lift degree = `charge`, same suspension generator) and 'great_circle'
    (an equatorial wrap along x with its closed periodic lift).
    """
    pair = alg.su2_u1()
    if kind == "constant" or (kind == "hopf" and charge == 0):
        u = LiftField(grid, pair, pair.identity_element((grid.n,) * 3))
        return constant_map(grid), u
    if kind in ("hopf", "ball_degree"):
        u = _suspension_lift(grid, int(charge))
        return act(u, constant_map(grid)), u
    if kind == "great_circle":
        x1 = grid.site_coords()[..., 0]
        alpha = np.pi * x1 / grid.length
        # closed periodic lift: exp(k alpha) exp(i alpha)
        u_vals = alg.qmul(
            np.stack([np.cos(alpha), np.zeros_like(alpha), np.zeros_like(alpha),
                      np.sin(alpha)], axis=-1),
            np.stack([np.cos(alpha), np.sin(alpha), np.zeros_like(alpha),
                      np.zeros_like(alpha)], axis=-1),
        )
        u = LiftField(grid, pair, u_vals)
        psi = np.stack([np.cos(2.0 * alpha), np.sin(2.0 * alpha), np.zeros_like(alpha)], axis=-1)
        return MapField(grid, pair, psi), u
    raise ValueError(f"unknown ansatz kind '{kind}'")
