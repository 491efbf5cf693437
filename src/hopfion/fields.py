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
from .lattice import (LatticeField, SLOTS2, centered_diff, component_major, cross, dot,
                      empty_component_major)


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

    # _descent_grad: the gradient energy.descent_energy formed with the
    # objective, kept until energy.descent_gradient hands it out
    __slots__ = ("_descent_grad",)
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
    """A g-valued 1-form a with its reference map phi, on a's grid and giving
    the pair, as in E_phi(a)."""

    __slots__ = ("a", "phi", "pair")

    def __init__(self, a, phi):
        if a.degree != 1:
            raise ValueError("potential must be a 1-form")
        if phi.grid != a.grid:
            raise ValueError("potential and reference map live on different grids")
        pair = phi.pair
        if a.vdim != pair.dim_g:
            raise ValueError(f"a {pair.name} potential has {pair.dim_g} components, not {a.vdim}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "pair", pair)

    def __setattr__(self, *a):
        raise AttributeError("PotentialField is immutable")

    def split(self):
        """(a_par, a_perp) as 1-forms, pointwise in h_phi and its complement:
        zero and a when h is trivial."""
        if self.pair.dim_h == 0:
            return LatticeField.zeros(self.grid, 1, self.a.vdim), self.a
        par = isotropic_part(self.a, self.phi)
        return par, self.a - par

    @property
    def grid(self):
        return self.a.grid


def isotropic_part(form, phi):
    """The part of a g-valued form of any degree in h_phi, pointwise along the
    map phi (unit where it was built, so not checked again) and broadcast over
    the form's slots."""
    return LatticeField(form.grid, form.degree,
                        alg.isotropic_part(phi.pair, phi.values[:, :, :, None], form.data))


def coisotropic_part(form, phi, plus=None):
    """form - isotropic_part(form, phi) in the isotropic part's buffer, with
    plus, a form of the same degree, added into that buffer when given."""
    out = alg.isotropic_part(phi.pair, phi.values[:, :, :, None], form.data)
    np.subtract(form.data, out, out=out)
    if plus is not None:
        out += plus.data
    return LatticeField(form.grid, form.degree, out)


def constant_map(grid, pair=None):
    """The vacuum map of a pair, the coset of the identity: phi = i on CP1 for
    su2_u1 (the default), the identity representative otherwise."""
    pair = alg.su2_u1() if pair is None else pair
    if pair is alg.su2_u1():
        return MapField(grid, pair, np.broadcast_to([1.0, 0.0, 0.0], (grid.n,) * 3 + (3,)))
    return MapField(grid, pair, pair.identity_element((grid.n,) * 3))


def links(u, axis, planes=slice(None)):
    """Link variables u(x)^-1 u(x + e_axis) on the x-planes `planes`, a slice (all by default)."""
    here = u.values[planes]
    if axis:
        ahead = np.roll(here, -1, axis=axis)
    else:
        start, stop, _ = planes.indices(u.grid.n)
        ahead = np.empty_like(here)
        ahead[:-1] = u.values[start + 1:stop]
        ahead[-1] = u.values[stop % u.grid.n]
    return u.pair.mul(u.pair.inverse(here), ahead)


def pure_gauge_potential(u, phi=None):
    """a = maurer_cartan_form(u) against phi (default: the vacuum map of u's pair)."""
    a = maurer_cartan_form(u)
    return PotentialField(a, constant_map(u.grid, u.pair) if phi is None else phi)


def maurer_cartan_form(u):
    """u^-1 du as a 1-form, from principal logs of link variables, exactly g-valued."""
    data = empty_component_major(u.values.shape[:3] + (3, u.pair.dim_g))
    for mu in range(3):
        maurer_cartan_slot(u, mu, out=data[:, :, :, mu])
    return LatticeField(u.grid, 1, data)


def maurer_cartan_slot(u, mu, out=None):
    """Slot mu of maurer_cartan_form(u) alone: the log of the link along mu over h,
    formed slab by slab along x, so that the links and their logs' temporaries
    are a slab's, not the grid's."""
    n = u.grid.n
    if out is None:
        out = empty_component_major(u.values.shape[:3] + (u.pair.dim_g,))
    rows = max(1, alg._SLAB_SITES // (n * n))
    for x in range(0, n, rows):
        planes = slice(x, x + rows)
        np.divide(u.pair.log(links(u, mu, planes)), u.grid.h, out=out[planes])
    return out


def plaquette_defect(u):
    """Max distance of any plaquette holonomy from the identity."""
    pair = u.pair
    worst = 0.0
    for mu, nu in SLOTS2:
        l_mu = links(u, mu)
        l_nu = links(u, nu)
        p = pair.mul(pair.mul(l_mu, np.roll(l_nu, -1, axis=mu)),
                     pair.inverse(pair.mul(l_nu, np.roll(l_mu, -1, axis=nu))))
        defect = np.linalg.norm(p - pair.identity_element(p.shape[:3]),
                                axis=tuple(range(3, p.ndim)))
        worst = max(worst, float(np.max(defect)))
    return worst


def act(u, phi):
    """Action of a lift on a map: conjugation on CP1, left product on groups."""
    if u.grid != phi.grid:
        raise ValueError("grids differ")
    if phi.is_cp1:
        return phi.with_values(alg.qrotate(u.values, phi.values))
    return phi.with_values(phi.pair.mul(u.values, phi.values))


def map_tangents(psi):
    """Centered-difference tangents of a CP1 map, one per axis, unprojected."""
    return [centered_diff(psi.values, mu, psi.grid.h) for mu in range(3)]


def pullback_coisotropy(psi):
    """psi^* omega-perp as a g-valued 1-form.

    CP1: the form on the centered-difference tangent projected to the
    sphere; the cross product with the unit base point performs both the
    projection and the quarter-turn, slot = psi x D_mu psi / 2.  Group
    targets: right-translated projected tangent.  Matrix cosets: the
    coisotropic part of maurer_cartan_form pushed through Ad of the
    representative.
    """
    g = psi.grid
    if psi.is_cp1:
        data = empty_component_major(psi.values.shape[:3] + (3, 3))
        for mu in range(3):
            v = centered_diff(psi.values, mu, g.h)
            np.multiply(0.5, cross(psi.values, v), out=data[:, :, :, mu])
        return LatticeField(g, 1, data)
    if psi.pair.group_kind == "quaternion":
        # omega-perp = dg g^-1 for trivial H, on projected tangents
        slots = []
        for mu in range(3):
            v = centered_diff(psi.values, mu, g.h)
            v = v - dot(v, psi.values)[..., None] * psi.values
            slots.append(alg.qim(alg.qmul(v, psi.pair.inverse(psi.values))))
        return LatticeField.from_slots(g, 1, slots)
    pair = psi.pair
    return LatticeField(g, 1, pair.ad(psi.values[:, :, :, None],
                                      pair.proj_perp(maurer_cartan_form(psi).data)))


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


def make_ansatz(kind, grid, charge=None):
    """Charged initial data: returns (psi, u) with psi = u . i . u^-1.

    Kinds: 'constant', 'hopf' (Hopf charge and lift degree = `charge`, 1
    when not given) and 'great_circle' (an equatorial wrap along x with its
    closed periodic lift).  Only 'hopf' takes a charge: one given to another
    kind is a ValueError, not dropped.
    """
    pair = alg.su2_u1()
    if charge is not None and kind in ("constant", "great_circle"):
        raise ValueError(f"the {kind} ansatz takes no charge, but was given {charge}")
    charge = 1 if charge is None else int(charge)
    if kind == "constant" or (kind == "hopf" and charge == 0):
        u = LiftField(grid, pair, pair.identity_element((grid.n,) * 3))
        return constant_map(grid), u
    if kind == "hopf":
        u = _suspension_lift(grid, charge)
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
