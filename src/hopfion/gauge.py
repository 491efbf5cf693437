"""Stabilizer sections, gauge action on potentials, coset curvature and the
identity suite.

Identities split into two classes.  Pointwise-algebraic ones must sit at
roundoff when both sides are assembled from the same discrete fields; they
detect implementation bugs, not discretization error.  Differential ones
compare independent discretizations of the two sides and get a convergence
order budget instead.

The discrete derivative of a stabilizer w = exp(theta phi) comes in two
realizations: principal logs of link variables ('log', the generic one,
exact only for constant phi where links stay on one axis), and the
calculus-exact form d theta . phi + (Ad(w^-1) - I) phi^*omega ('exact',
with forward differences on theta so that d d theta telescopes away).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
# d, wedge and comm_wedge are not called here: they stay bound because the
# benchmark tracer wraps them at this module and refuses to run without them
# (perfbench/spans.REQUIRED_BINDINGS)
from .energy import comm_slot, comm_wedge, energy_map, energy_potential
from .errors import ConfigError
from .lattice import (SLOTS2, Grid, LatticeField, centered_diff, coulomb_solve, cross, d, d_slot,
                      dot, empty_component_major, forward_diff, wedge, wedge_slot, x_halo, x_slabs)

ISOTROPY_TOL = 1e-10


@dataclass
class StabilizerField:
    """A section of the isotropy bundle: w(x) stabilizes phi(x)."""

    w: fl.LiftField
    phi: fl.MapField
    theta: np.ndarray = None


def make_stabilizer(phi, theta):
    """w = cos(theta) + sin(theta) phi, the rotation about the phi(x) axis."""
    if not phi.is_cp1:
        raise ValueError("stabilizer generation is implemented for the CP1 pair")
    theta = np.asarray(theta, dtype=float)
    if theta.shape == ():
        theta = np.broadcast_to(theta, (phi.grid.n,) * 3).copy()
    vals = np.concatenate([np.cos(theta)[..., None],
                           np.sin(theta)[..., None] * phi.values], axis=-1)
    w = fl.LiftField(phi.grid, phi.pair, vals)
    return StabilizerField(w=w, phi=phi, theta=theta)


def ad_inverse_apply(w, form):
    """Ad(w^-1) applied slotwise to a g-valued form (w broadcasts over slots)."""
    return LatticeField(form.grid, form.degree, alg.qrotate_form(w.inverse_values(), form.data))


def stabilizer_log_derivative(stab, scheme="log"):
    """The discrete w^-1 dw of a stabilizer as a g-valued 1-form.

    'log': principal logs of links (the generic definition).
    'exact': d theta . phi + (Ad(w^-1) - I) phi^*omega, the combination the
    coset calculus predicts; the theta part uses forward differences.
    """
    grid = stab.w.grid
    if scheme == "log":
        return fl.maurer_cartan_form(stab.w)
    if scheme != "exact":
        raise ValueError("scheme must be 'log' or 'exact'")
    if stab.theta is None:
        raise ValueError("'exact' scheme needs the generating angle field")
    omega = fl.pullback_coisotropy(stab.phi)
    w_inv = stab.w.inverse_values()
    data = empty_component_major(omega.data.shape)
    for mu in range(3):
        _exact_log_derivative_slot(stab, omega, w_inv, mu, out=data[:, :, :, mu])
    return LatticeField(grid, 1, data)


def _exact_log_derivative_slot(stab, omega, w_inv, mu, out=None, planes=slice(None)):
    """Slot mu of stabilizer_log_derivative(stab, 'exact') alone, on the x-planes
    `planes` (all by default), omega = phi^*omega and w_inv = w^-1 on those planes
    given: d_mu theta phi + Ad(w^-1) omega_mu - omega_mu."""
    dest = np.multiply(forward_diff(stab.theta, mu, stab.w.grid.h, planes=planes)[..., None],
                       stab.phi.values[planes], out=out)
    dest += _rotate_slot(w_inv, omega.slot(mu)[planes])
    dest -= omega.slot(mu)[planes]
    return dest


def _rotate_slot(w_inv, x):
    """Ad(w^-1) x for one slot x (n, n, n, 3) of a form, or its x-planes, w_inv =
    w^-1 on the same planes: the values ad_inverse_apply gives there."""
    return alg.qrotate_form(w_inv, x[:, :, :, None])[:, :, :, 0]


def _require_isotropic(b, phi):
    """ValueError unless the form b is isotropy-valued against phi: the largest
    entry of its coisotropic part, taken slot by slot and slab by slab, is at
    most ISOTROPY_TOL times b's largest entry (or 1)."""
    defect = 0.0
    for slot in range(b.data.shape[3]):
        for planes in x_slabs(b.grid.n):
            x = b.slot(slot)[planes]
            perp = x - alg.isotropic_part(phi.pair, phi.values[planes], x)
            defect = max(defect, float(perp.max()), -float(perp.min()))
    scale = max(float(b.data.max()), -float(b.data.min()), 1.0)
    if defect > ISOTROPY_TOL * scale:
        raise ValueError(f"potential is not isotropy-valued (defect {defect:.3e})")


def gauge_transform_potential(b, stab):
    """b^w = Ad(w^-1) b + w^-1 dw - (Ad(w^-1) - I) phi^*omega, phi = b.phi.

    Computed as Ad(w^-1)(b - phi^*omega) + phi^*omega + w^-1 dw, one Ad
    action.  b must be isotropy-valued against phi, and stab built on phi;
    w^-1 dw is the 'log' derivative.  The result is isotropy-valued at
    roundoff for constant phi and up to O(h) otherwise.
    """
    phi = b.phi
    if stab.phi is not phi and (stab.phi.grid != phi.grid
                                or not np.array_equal(stab.phi.values, phi.values)):
        raise ValueError("stabilizer and potential have different reference maps")
    return _gauge_transform(b, stab, fl.pullback_coisotropy(phi))


def _gauge_transform(b, stab, omega=None):
    """gauge_transform_potential with omega = phi^*omega given, stab built on phi,
    formed slot by slot and slab by slab.  omega None stands for the constant
    map's, whose every entry is 0: its terms are dropped."""
    _require_isotropic(b.a, b.phi)
    out = empty_component_major(b.a.data.shape)
    for mu in range(3):
        for planes in x_slabs(b.grid.n):
            out[planes, :, :, mu] = _gauge_transform_slot(b, stab.w, mu, omega, planes)
    return fl.PotentialField(LatticeField(b.grid, 1, out), b.phi)


def _gauge_transform_slot(b, w, mu, omega, planes):
    """Slot mu of _gauge_transform(b, stab, omega) on the x-planes `planes` alone,
    w = stab.w and b's isotropy checked by the caller: Ad(w^-1)(b_mu - omega_mu)
    + omega_mu, then the log of w's link along mu over h added."""
    x = b.a.slot(mu)[planes]
    if omega is not None:
        x = x - omega.slot(mu)[planes]
    dest = _rotate_slot(w.pair.inverse(w.values[planes]), x)
    if omega is not None:
        dest += omega.slot(mu)[planes]
    dest += fl.maurer_cartan_slot(w, mu, planes=planes)
    return dest


def coset_curvature(b):
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi,
    written slot by slot."""
    omega = fl.pullback_coisotropy(b.phi)
    out = empty_component_major(b.a.data.shape)
    for slot in range(len(SLOTS2)):
        _curvature_slot(b, omega, slot, out=out[:, :, :, slot])
    return LatticeField(b.grid, 2, out)


def _curvature_slot(b, omega, slot, out=None, planes=slice(None)):
    """Slot SLOTS2[slot] of coset_curvature(b) alone, on the x-planes `planes` (all
    by default), omega = phi^*omega given: the forward differences of d b written
    into out, then the slots of [b ^ b], [b ^ omega] and (omega ^ omega)_par
    summed into it one by one.  omega None stands for the constant map's, whose
    every entry is 0: its two terms are dropped."""
    a, pair = b.a, b.pair
    dest = d_slot(a, slot, out=out, planes=planes)
    dest += comm_slot(a, pair, slot, planes=planes)
    if omega is not None:
        dest -= wedge_slot(a, omega, pair.bracket, slot, planes=planes)
        dest -= alg.isotropic_part(pair, b.phi.values[planes],
                                   comm_slot(omega, pair, slot, planes=planes))
    return dest


def projector_derivative_wedge(phi, form):
    """d Phi ^ form for Phi = pr_{h_phi}, assembled from the CP1 closed form.

    d Phi_mu (xi) = (xi . v_mu) phi + (xi . phi) v_mu with v the centered
    differences of phi: the wedge of the 1-form v with form under that
    product, each term formed from one tangent v_mu when it is needed.  No
    matrices are differentiated numerically twice.
    """
    if not phi.is_cp1:
        raise ValueError("projector derivative uses the CP1 closed form")
    if form.degree == 1:
        data = empty_component_major(form.data.shape)
        for slot in range(len(SLOTS2)):
            projector_derivative_slot(phi, form, slot, out=data[:, :, :, slot])
        return LatticeField(phi.grid, 2, data)
    if form.degree != 2:
        raise ValueError("projector derivative wedge expects a 1- or 2-form")
    # the (1, 2) wedge: v_x ^ form_yz - v_y ^ form_xz + v_z ^ form_xy
    out = _dphi(phi, 0, form.slot(2))
    out -= _dphi(phi, 1, form.slot(1))
    out += _dphi(phi, 2, form.slot(0))
    return LatticeField(phi.grid, 3, out[:, :, :, None])


def projector_derivative_slot(phi, form, slot, out=None, planes=slice(None)):
    """Slot SLOTS2[slot] = (mu, nu) of projector_derivative_wedge(phi, form) for a
    1-form alone, on the x-planes `planes` (all by default): d Phi_mu (form_nu) -
    d Phi_nu (form_mu), phi on CP1 (unchecked)."""
    mu, nu = SLOTS2[slot]
    dest = _dphi(phi, mu, form.slot(nu)[planes], out=out, planes=planes)
    dest -= _dphi(phi, nu, form.slot(mu)[planes], planes=planes)
    return dest


def _dphi(phi, mu, xi, out=None, planes=slice(None)):
    """d Phi_mu (xi) = (xi . v_mu) phi + (xi . phi) v_mu on the x-planes `planes`
    (all by default), xi given on them; the second term in v_mu's buffer."""
    p = phi.values[planes]
    v = centered_diff(phi.values, mu, phi.grid.h, planes=planes)
    out = np.multiply(dot(xi, v)[..., None], p, out=out)
    out += np.multiply(dot(xi, p)[..., None], v, out=v)
    return out


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass
class IdentityResidual:
    """Relative L2 residuals of one identity across grid sizes."""

    name: str
    kind: str                      # 'pointwise' or 'differential'
    residuals: dict                # n -> relative residual
    fitted_order: float = None     # slope of log residual vs log h
    budget: str = ""
    passed: bool = False

    def as_dict(self):
        return {**asdict(self), "residuals": {str(k): v for k, v in self.residuals.items()}}


POINTWISE_BUDGET = 1e-8
ORDER_BUDGET = 0.9


def _fit_order(grids, residuals):
    hs = np.log([g.h for g in grids])
    rs = np.log(np.maximum(residuals, 1e-300))
    slope = np.polyfit(hs, rs, 1)[0]
    return float(slope)


class _SumsOfSquares(dict):
    """Sums of squares by name on an n-site grid, each added one slot of a form
    at a time: a relative L2 residual is the ratio of two of their roots, and
    h^3 cancels, so no whole form is held to be measured."""

    def __init__(self, n):
        super().__init__()
        self._n = n
        self._open = {}     # name -> the squares of the slot whose slabs are coming in

    def add(self, name, x, planes=slice(None)):
        """Add the squares of x, one slot of a form on the x-planes `planes`.  The
        slabs of a slot come in order (lattice.x_slabs), and their squares are
        written into one n^3 scratch that is summed when the last one is in, so
        each slot is summed in one order whatever the slabs."""
        # dot gives one C-ordered array whatever x's layout, so the sum runs in
        # one order; an einsum over x would run in x's memory order, which the
        # kernels that formed x decide
        squares = dot(x, x)
        start, stop, _ = planes.indices(self._n)
        if stop - start < self._n:
            scratch = self._open.setdefault(name, np.empty((self._n,) + squares.shape[1:]))
            scratch[planes] = squares
            if stop < self._n:
                return
            squares = self._open.pop(name)
        self[name] = self.get(name, 0.0) + float(np.sum(squares))

    def rel(self, residual, reference):
        """The residual's root over the reference's, or over 1 where that is 0."""
        return math.sqrt(self[residual]) / (math.sqrt(self[reference]) or 1.0)


def smooth_scalar(grid, rng, amplitude=1.0):
    """Random low-frequency trig polynomial sampled on the grid.

    Three modes amp sin(x k0 + y k1 + z k2 + phase), k in {-1, 0, 1}^3, each
    from separable tables: sin(P + z k2) = sin P cos(z k2) + cos P sin(z k2)
    with P = x k0 + y k1 + phase an (n, n, 1) table and amp folded into its
    sin and cos, so no transcendental is taken over the whole grid.
    """
    c = grid.axis_coords() * (2.0 * np.pi / grid.length)
    x, y, z = c[:, None, None], c[None, :, None], c[None, None, :]
    out = np.zeros((grid.n,) * 3)
    for _ in range(3):
        k = rng.integers(-1, 2, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0) * amplitude
        p = (x * k[0] + y * k[1]) + phase
        out += (amp * np.sin(p)) * np.cos(z * k[2])
        out += (amp * np.cos(p)) * np.sin(z * k[2])
    return out


def smooth_algebra_field(grid, rng, amplitude=1.0):
    return np.stack([smooth_scalar(grid, rng, amplitude) for _ in range(3)], axis=-1)


def smooth_inputs(grid, rng):
    """Analytic smooth (phi, u, theta, a) sampled on one grid.

    The same low-mode coefficients produce matching fields at every size
    when the rng is reseeded identically, which is what the refinement
    studies need.  Amplitudes are kept small so the O(h) regime of the
    differential identities is visible from n = 16 on.
    """
    phi_gen = fl.LiftField(grid, alg.su2_u1(), alg.qexp(smooth_algebra_field(grid, rng, 0.2)))
    phi = fl.act(phi_gen, fl.constant_map(grid))
    u = fl.LiftField(grid, alg.su2_u1(), alg.qexp(smooth_algebra_field(grid, rng, 0.4)))
    theta = smooth_scalar(grid, rng, 0.4)
    a = LatticeField.from_slots(grid, 1, [smooth_algebra_field(grid, rng, 0.4) for _ in range(3)])
    return phi, u, theta, a


def _gauge_action_rows(grid, rng, theta):
    """The gauge action on constant-map potentials, where it is exact: curvature
    equivariance, composition of same-axis stabilizers, and the Coulomb
    condition of gauge_smooth's fixing.  The constant map's phi^*omega is 0, so
    its terms are dropped.  The second stabilizer is built from its angle,
    drawn in its place, and the composed one before b0^w, which the
    equivariance pass differences across x-planes; both rows are then measured
    slot by slot and slab by slab, (b0^w)^w_b and b0^(w w_b) a slab at a time."""
    phi0 = fl.constant_map(grid)
    n, pair = grid.n, phi0.pair
    stab0 = make_stabilizer(phi0, theta)
    b0 = fl.PotentialField(LatticeField.from_slots(
        grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)]), phi0)
    coulomb = _coulomb_residual(b0)
    w_b = make_stabilizer(phi0, smooth_scalar(grid, rng, 0.6)).w
    w12 = fl.LiftField(grid, pair, alg.qmul(stab0.w.values, w_b.values))
    b0w = _gauge_transform(b0, stab0)
    sums = _SumsOfSquares(n)
    for slot in range(len(SLOTS2)):
        for planes in x_slabs(n):
            w_inv = pair.inverse(stab0.w.values[planes])
            rotated = _rotate_slot(w_inv, _curvature_slot(b0, None, slot, planes=planes))
            sums.add("rotated", rotated, planes)
            moved = _curvature_slot(b0w, None, slot, planes=planes)
            moved -= rotated
            sums.add("equivariance", moved, planes)
    del stab0
    _require_isotropic(b0w.a, phi0)  # b0's passed in b0w's transform
    for mu in range(3):
        for planes in x_slabs(n):
            twice = _gauge_transform_slot(b0w, w_b, mu, None, planes)
            composed = _gauge_transform_slot(b0, w12, mu, None, planes)
            sums.add("composed", composed, planes)
            sums.add("composition", np.subtract(twice, composed, out=twice), planes)
    return [("curvature_equivariance_shared", "pointwise", sums.rel("equivariance", "rotated")),
            ("gauge_action_composition", "pointwise", sums.rel("composition", "composed")),
            ("coulomb_gauge_fixing", "pointwise", coulomb)]


def _coulomb_residual(b):
    """max|div(beta + d theta)| / max|div beta| for b = beta phi and theta the
    angle of gauge_smooth(b), div the backward-difference adjoint of d (its 1/h
    cancels): the discrete Coulomb condition that fixes the gauge."""
    theta = gauge_smooth(b).theta
    fixed, free = np.zeros_like(theta), np.zeros_like(theta)
    for mu in range(3):
        beta = dot(b.a.slot(mu), b.phi.values)
        gauged = beta + forward_diff(theta, mu, b.grid.h)
        fixed += gauged - np.roll(gauged, 1, axis=mu)
        free += beta - np.roll(beta, 1, axis=mu)
    return float(np.max(np.abs(fixed))) / (float(np.max(np.abs(free))) or 1.0)


def _dafi_rows(stab, omega, a):
    """D a = a_perp + phi^*omega goes to Ad(w^-1) D a under a -> a^w, with its
    energy density, over shared discrete inputs (exact dw); dw's two routes.
    One pass over (mu, slab) forms both routes' slab of dw, then D a^w's and D
    a's, and adds the two densities into theirs."""
    phi, pair = stab.phi, stab.phi.pair
    n = phi.grid.n
    sums = _SumsOfSquares(n)
    density, density_w = np.zeros((n,) * 3), np.zeros((n,) * 3)
    for mu in range(3):
        for planes in x_slabs(n):
            p, w_inv = phi.values[planes], pair.inverse(stab.w.values[planes])
            dw = _exact_log_derivative_slot(stab, omega, w_inv, mu, planes=planes)
            dw_log = fl.maurer_cartan_slot(stab.w, mu, planes=planes)
            sums.add("dw_log", dw_log, planes)
            sums.add("routes", dw_log - dw, planes)
            moved = _rotate_slot(w_inv, a.slot(mu)[planes])
            moved += dw
            cov_w = np.subtract(moved, alg.isotropic_part(pair, p, moved), out=moved)
            cov_w += omega.slot(mu)[planes]
            cov = a.slot(mu)[planes] - alg.isotropic_part(pair, p, a.slot(mu)[planes])
            cov += omega.slot(mu)[planes]
            density_w[planes] += dot(cov_w, cov_w)
            density[planes] += dot(cov, cov)
            rotated = _rotate_slot(w_inv, cov)
            sums.add("rotated", rotated, planes)
            sums.add("dafi", np.subtract(cov_w, rotated, out=cov_w), planes)
    spread = np.abs(np.subtract(density_w, density, out=density_w), out=density_w)
    return [("dafi_shared_inputs", "pointwise", sums.rel("dafi", "rotated")),
            ("dafi_energy_density", "pointwise",
             float(np.max(spread)) / (float(np.max(np.abs(density))) or 1.0)),
            ("stabilizer_derivative_e062", "differential", sums.rel("routes", "dw_log"))]


def _curvature_rows(b, omega):
    """The coset curvature of an isotropy-valued b against its projected form,
    and the symmetric-space reference curvature, which has no perp part.  One
    pass over (slot, slab): each forms omega ^ omega, [omega ^ b], d b, its
    isotropic part and F once, F in d b's buffer ([b ^ omega] = [omega ^ b]
    bit for bit under the cross-product bracket)."""
    a, phi, pair = b.a, b.phi, b.pair
    n = b.grid.n
    sums = _SumsOfSquares(n)
    for slot in range(len(SLOTS2)):
        for planes in x_slabs(n):
            p = phi.values[planes]
            oo = comm_slot(omega, pair, slot, planes=planes)
            oo_par = alg.isotropic_part(pair, p, oo)
            sums.add("oo", oo, planes)
            sums.add("oo_perp", oo - oo_par, planes)
            bracket = wedge_slot(omega, a, pair.bracket, slot, planes=planes)
            sums.add("bracket", bracket, planes)
            db = d_slot(a, slot, planes=planes)
            db_par = alg.isotropic_part(pair, p, db)
            perp = np.subtract(db, db_par)
            perp -= bracket
            sums.add("perp", perp, planes)
            bb = comm_slot(a, pair, slot, planes=planes)
            curvature = db
            curvature += bb
            curvature -= bracket
            curvature -= oo_par
            sums.add("curvature", curvature, planes)
            # the projected form db_par + [b ^ b] - (omega ^ omega)_par, in db_par's buffer
            projected = db_par
            projected += bb
            projected -= oo_par
            sums.add("vs_projected", np.subtract(curvature, projected, out=projected), planes)
    return [("refcurv_no_projection", "pointwise", sums.rel("oo_perp", "oo")),
            ("curvature_vs_projected_form", "differential", sums.rel("vs_projected", "curvature")),
            ("isotropic_derivative_perp", "differential", sums.rel("perp", "bracket"))]


def _pure_gauge_rows(u, phi):
    """The pure-gauge potential a = u^-1 du against phi: its flatness, its match
    with the map psi = u.phi and its dual energy, then the flat-potential
    relations of its split a_par + a_perp, each in passes over (slot, slab).
    psi's energy is taken before a is formed, and psi is dropped before a's
    energy is taken and a is split.  Relation (iii), dPhi ^ a_par and the
    fourth term share the slots yz, xz, xy of dPhi ^ a_par and [a_perp ^
    a_perp], which meet axis x, y, z of a 1-form in the 3-forms; relations (i)
    and (ii) and dPhi ^ a_perp share the slots of F(a_par) and dPhi ^ a_perp,
    and phi^*omega's slots are formed there on each slab alone.  The pure-gauge
    rows are for CP1 (dPhi is CP1's closed form)."""
    grid, pair = phi.grid, phi.pair
    n = grid.n
    sums = _SumsOfSquares(n)
    psi = fl.act(u, phi)
    e_map = energy_map(psi).total
    apot = fl.pure_gauge_potential(u, phi)
    a = apot.a
    for slot in range(len(SLOTS2)):
        for planes in x_slabs(n):
            da = d_slot(a, slot, planes=planes)
            sums.add("d_a", da, planes)
            sums.add("flatness", da + comm_slot(a, pair, slot, planes=planes), planes)
    # mapcon: a_perp against Ad(u^-1) psi^*omega - phi^*omega
    for mu in range(3):
        for planes in x_slabs(n):
            x = a.slot(mu)[planes]
            aperp = x - alg.isotropic_part(pair, phi.values[planes], x)
            moved = _rotate_slot(pair.inverse(u.values[planes]),
                                 fl.coisotropy_slot(psi, mu, planes=planes))
            moved -= fl.coisotropy_slot(phi, mu, planes=planes)
            sums.add("aperp", aperp, planes)
            sums.add("mapcon", np.subtract(aperp, moved, out=moved), planes)
    del psi, x  # x is a view of a
    dual = abs(e_map - energy_potential(apot).total) / max(abs(e_map), 1e-30)
    apar, aperp = apot.split()
    del apot, a

    # relation (iii), d[a_perp ^ a_perp] = -(dPhi ^ a_par) ^ a_perp + dPhi ^ [a_perp ^ a_perp],
    # its 3-forms summed with signs + - + as d and wedge sum them, slab by slab
    d_aa, dphi_par_aperp, dphi_aa = (empty_component_major((n,) * 3 + (pair.dim_g,))
                                     for _ in range(3))
    for slot, axis in ((2, 0), (1, 1), (0, 2)):
        for planes in x_slabs(n):
            start, stop, _ = planes.indices(n)
            p = phi.values[planes]
            d_apar = d_slot(apar, slot, planes=planes)
            sums.add("d_apar", d_apar, planes)
            perp = d_apar - alg.isotropic_part(pair, p, d_apar)
            dphi_par = projector_derivative_slot(phi, apar, slot, planes=planes)
            sums.add("wedge_par", np.subtract(dphi_par, perp, out=perp), planes)
            _sum_3form(dphi_par_aperp[planes], slot,
                       pair.bracket(dphi_par, aperp.slot(axis)[planes]))
            # [a_perp ^ a_perp] on the slab and, where d differences it along x,
            # on the plane ahead of it too
            ext = np.r_[start:stop, x_halo(planes, n)[1]] if axis == 0 else planes
            aa = comm_slot(aperp, pair, slot, planes=ext)
            here = aa[:stop - start]
            sums.add("aa", here, planes)
            sums.add("aa_perp", here - alg.isotropic_part(pair, p, here), planes)
            _sum_3form(d_aa[planes], slot,
                       forward_diff(aa, axis, grid.h, planes=slice(0, stop - start)))
            _sum_3form(dphi_aa[planes], slot, _dphi(phi, axis, here, planes=planes))
    residual = np.negative(dphi_par_aperp, out=dphi_par_aperp)
    residual += dphi_aa
    sums.add("d_aa", d_aa)
    sums.add("quartic", np.subtract(d_aa, residual, out=residual))
    del d_aa, dphi_par_aperp, dphi_aa, residual

    # dPhi ^ a_perp, relation (ii) for d a_perp, and relation (i) for F(a_par)
    for slot in range(len(SLOTS2)):
        mu, nu = SLOTS2[slot]
        for planes in x_slabs(n):
            p = phi.values[planes]
            dphi_perp = projector_derivative_slot(phi, aperp, slot, planes=planes)
            d_aperp = d_slot(aperp, slot, planes=planes)
            sums.add("d_aperp", d_aperp, planes)
            sums.add("wedge_perp", dphi_perp + alg.isotropic_part(pair, p, d_aperp), planes)
            # -dPhi ^ a_par - dPhi ^ a_perp - [a_par ^ a_perp], without and with (aa)_perp
            flat = projector_derivative_slot(phi, apar, slot, planes=planes)
            np.negative(flat, out=flat)
            flat -= dphi_perp
            flat -= wedge_slot(apar, aperp, pair.bracket, slot, planes=planes)
            sums.add("ii_symmetric", d_aperp - flat, planes)
            aa = comm_slot(aperp, pair, slot, planes=planes)
            aa_par = alg.isotropic_part(pair, p, aa)
            flat -= aa - aa_par
            sums.add("ii", np.subtract(d_aperp, flat, out=flat), planes)
            # phi^*omega on the slab alone: (omega ^ omega) as comm_slot forms it,
            # 2 omega_mu x omega_nu, and [a_par ^ omega] as wedge_slot does
            omega_mu, omega_nu = (fl.coisotropy_slot(phi, m, planes=planes) for m in (mu, nu))
            oo = cross(omega_mu, omega_nu)
            oo += oo
            # the right sides of relation (i) without and with the isotropy projections
            symmetric = np.subtract(dphi_perp, aa, out=aa)
            symmetric -= oo
            oo_par = alg.isotropic_part(pair, p, oo)
            projected = np.subtract(dphi_perp, aa_par, out=aa_par)
            projected -= oo_par
            curvature = d_slot(apar, slot, planes=planes)
            curvature += comm_slot(apar, pair, slot, planes=planes)
            curvature -= np.subtract(pair.bracket(apar.slot(mu)[planes], omega_nu),
                                     pair.bracket(apar.slot(nu)[planes], omega_mu))
            curvature -= oo_par
            sums.add("curvature", curvature, planes)
            sums.add("i_symmetric", np.subtract(curvature, symmetric, out=symmetric), planes)
            sums.add("i", np.subtract(curvature, projected, out=projected), planes)
    return [("dphi_wedge_par", "differential", sums.rel("wedge_par", "d_apar")),
            ("symmetric_fourth_term", "pointwise", sums.rel("aa_perp", "aa")),
            ("flat_curvature_i", "differential", sums.rel("i", "curvature")),
            ("flat_curvature_i_symmetric", "differential", sums.rel("i_symmetric", "curvature")),
            ("flat_quartic_iii_symmetric", "differential", sums.rel("quartic", "d_aa")),
            ("dphi_wedge_perp", "differential", sums.rel("wedge_perp", "d_aperp")),
            ("flat_derivative_ii", "differential", sums.rel("ii", "d_aperp")),
            ("flat_derivative_ii_symmetric", "differential", sums.rel("ii_symmetric", "d_aperp")),
            ("pure_gauge_flatness", "differential", sums.rel("flatness", "d_a")),
            ("mapcon", "differential", sums.rel("mapcon", "aperp")),
            ("dual_energy", "differential", dual)]


def _sum_3form(total, slot, term):
    """A 3-form, or its x-planes, summed into total over the 2-form slots yz, xz,
    xy (2, 1, 0) with signs + - +, as d and wedge sum it: the first term is
    written into total."""
    if slot == 2:
        total[...] = term
    elif slot == 1:
        total -= term
    else:
        total += term


def _grid_rows(grid, seed):
    """(name, kind, residual) of every identity on one grid, family by family.
    Each shared form is built just before its first use and dropped after its
    last: the Dafi family runs before the isotropic part b of a exists, omega
    is dropped before the pure-gauge family, which forms its slots where it
    reads them, and every other form is formed slot by slot and x-slab by
    x-slab in each family that reads it.  The gauge-action family, the only
    one that draws from rng after smooth_inputs, runs last, on phi and theta
    alone."""
    rng = np.random.default_rng(seed)  # same modes on every grid
    phi, u, theta, a = smooth_inputs(grid, rng)
    omega = fl.pullback_coisotropy(phi)
    dafi = _dafi_rows(make_stabilizer(phi, theta), omega, a)
    b = fl.PotentialField(fl.isotropic_part(a, phi), phi)
    del a
    curvature = _curvature_rows(b, omega)
    del b, omega
    pure_gauge = _pure_gauge_rows(u, phi)
    del u
    return _gauge_action_rows(grid, rng, theta) + pure_gauge + dafi + curvature


def identity_suite(sizes=(16, 32, 64), seed=0):
    """Evaluate the gauge-calculus identities over two or more distinct grid sizes."""
    try:
        grids = [Grid(n) for n in sorted(set(sizes))]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(grids) < 2:
        # a one-point order fit means nothing
        raise ConfigError(f"sizes {sorted(set(sizes))} must hold two or more distinct grid sizes")
    res = {}
    for grid in grids:
        for name, kind, value in _grid_rows(grid, seed):
            res.setdefault(name, (kind, {}))[1][grid.n] = value
    out = []
    for name, (kind, vals) in res.items():
        residuals = [vals[g.n] for g in grids]
        if kind == "pointwise":
            passed = all(r <= POINTWISE_BUDGET for r in residuals)
            order = None
            budget = f"relative residual <= {POINTWISE_BUDGET:g} at every size"
        else:
            order = _fit_order(grids, residuals)
            monotone = all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
            passed = monotone and order >= ORDER_BUDGET
            budget = f"residuals decrease with fitted order >= {ORDER_BUDGET:g}"
        out.append(IdentityResidual(name=name, kind=kind, residuals=vals,
                                    fitted_order=order, budget=budget, passed=passed))
    return out


# ---------------------------------------------------------------------------
# exact gauge fixing
# ---------------------------------------------------------------------------

def gauge_smooth(b):
    """The stabilizer w = exp(theta phi) about phi = b.phi minimizing |b^w|_{L2}^2.

    Ad(w^-1) fixes phi, so an isotropy-valued b = beta phi goes to
    b^w = (beta + d theta) phi, and the minimizer is the discrete Coulomb
    gauge: backward-difference div(beta + d theta) = 0, solved exactly by
    theta = -coulomb_solve(beta), whose zero mode is 0.
    """
    phi = b.phi
    if not phi.is_cp1:
        raise ValueError("gauge smoothing is implemented for the CP1 pair")
    _require_isotropic(b.a, phi)
    beta = LatticeField.from_slots(b.grid, 1, [dot(b.a.slot(mu), phi.values)[..., None]
                                               for mu in range(3)])
    return make_stabilizer(phi, -coulomb_solve(beta).slot(0)[..., 0])
