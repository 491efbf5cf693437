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
from .lattice import (SLOTS2, Grid, LatticeField, centered_diff, coulomb_solve,
                      d, d_slot, dot, empty_component_major, forward_diff, wedge, wedge_slot)

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


def _exact_log_derivative_slot(stab, omega, w_inv, mu, out=None):
    """Slot mu of stabilizer_log_derivative(stab, 'exact') alone, omega = phi^*omega
    and w_inv = w^-1 given: d_mu theta phi + Ad(w^-1) omega_mu - omega_mu."""
    dest = np.multiply(forward_diff(stab.theta, mu, stab.w.grid.h)[..., None],
                       stab.phi.values, out=out)
    dest += _rotate_slot(w_inv, omega.slot(mu))
    dest -= omega.slot(mu)
    return dest


def _rotate_slot(w_inv, x):
    """Ad(w^-1) x for one slot x (n, n, n, 3) of a form, w_inv = w^-1: the values
    ad_inverse_apply gives that slot of the whole form."""
    return alg.qrotate_form(w_inv, x[:, :, :, None])[:, :, :, 0]


def _require_isotropic(b, phi):
    perp = fl.coisotropic_part(b, phi).data
    defect = max(float(perp.max()), -float(perp.min()))
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


def _gauge_transform(b, stab, omega):
    """gauge_transform_potential with omega = phi^*omega given, stab built on phi:
    b - omega is rotated in its own buffer, and omega and each link's log are
    added into it, the logs slot by slot."""
    _require_isotropic(b.a, b.phi)
    out = np.subtract(b.a.data, omega.data)
    alg.qrotate_form(stab.w.inverse_values(), out, out=out)
    out += omega.data
    for mu in range(3):
        out[:, :, :, mu] += fl.maurer_cartan_slot(stab.w, mu)
    return fl.PotentialField(LatticeField(b.grid, 1, out), b.phi)


def coset_curvature(b):
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi,
    written slot by slot."""
    omega = fl.pullback_coisotropy(b.phi)
    out = empty_component_major(b.a.data.shape)
    for slot in range(len(SLOTS2)):
        _curvature_slot(b, omega, slot, out=out[:, :, :, slot])
    return LatticeField(b.grid, 2, out)


def _curvature_slot(b, omega, slot, out=None):
    """Slot SLOTS2[slot] of coset_curvature(b) alone, omega = phi^*omega given: the
    forward differences of d b written into out, then the slots of [b ^ b],
    [b ^ omega] and (omega ^ omega)_par summed into it one by one."""
    a, pair = b.a, b.pair
    dest = d_slot(a, slot, out=out)
    dest += comm_slot(a, pair, slot)
    dest -= wedge_slot(a, omega, pair.bracket, slot)
    dest -= alg.isotropic_part(pair, b.phi.values, comm_slot(omega, pair, slot))
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


def projector_derivative_slot(phi, form, slot, out=None):
    """Slot SLOTS2[slot] = (mu, nu) of projector_derivative_wedge(phi, form) for a
    1-form alone: d Phi_mu (form_nu) - d Phi_nu (form_mu), phi on CP1 (unchecked)."""
    mu, nu = SLOTS2[slot]
    dest = _dphi(phi, mu, form.slot(nu), out=out)
    dest -= _dphi(phi, nu, form.slot(mu))
    return dest


def _dphi(phi, mu, xi, out=None):
    """d Phi_mu (xi) = (xi . v_mu) phi + (xi . phi) v_mu, the second term in v_mu's buffer."""
    p = phi.values
    v = centered_diff(p, mu, phi.grid.h)
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
    """Sums of squares by name, each added one slot of a form at a time: a
    relative L2 residual is the ratio of two of their roots, and h^3 cancels,
    so no whole form is held to be measured."""

    def add(self, name, x):
        # dot gives one C-ordered (n, n, n) array whatever x's layout, so the
        # sum runs in one order; an einsum over x would run in x's memory
        # order, which the kernels that formed x decide
        self[name] = self.get(name, 0.0) + float(np.sum(dot(x, x)))

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
    condition of gauge_smooth's fixing.  The equivariance difference is formed
    slot by slot; (b0^w)^w_b is formed and b0^w freed before b0^(w w_b) is, and
    the second stabilizer is built from its angle, drawn in its place, only then."""
    phi0 = fl.constant_map(grid)
    stab0 = make_stabilizer(phi0, theta)
    b0 = fl.PotentialField(LatticeField.from_slots(
        grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)]), phi0)
    coulomb = _coulomb_residual(b0)
    theta_b = smooth_scalar(grid, rng, 0.6)
    omega0 = fl.pullback_coisotropy(phi0)  # the constant map's form, once for five uses
    b0w = _gauge_transform(b0, stab0, omega0)
    sums, w_inv = _SumsOfSquares(), stab0.w.inverse_values()
    for slot in range(len(SLOTS2)):
        rotated = _rotate_slot(w_inv, _curvature_slot(b0, omega0, slot))
        sums.add("rotated", rotated)
        moved = _curvature_slot(b0w, omega0, slot)
        moved -= rotated
        sums.add("equivariance", moved)
        del rotated, moved
    del w_inv
    stab0b = make_stabilizer(phi0, theta_b)
    twice = _gauge_transform(b0w, stab0b, omega0).a
    del b0w
    w12 = StabilizerField(
        w=fl.LiftField(grid, phi0.pair, alg.qmul(stab0.w.values, stab0b.w.values)),
        phi=phi0, theta=stab0.theta + stab0b.theta)
    del stab0, stab0b
    composed = _gauge_transform(b0, w12, omega0).a
    del b0, w12
    for mu in range(3):
        sums.add("composed", composed.slot(mu))
        sums.add("composition", twice.slot(mu) - composed.slot(mu))
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
    One pass over mu forms both routes' slot of dw, then D a^w's and D a's
    slots, and sums the two densities slot by slot."""
    phi, pair = stab.phi, stab.phi.pair
    sums, w_inv = _SumsOfSquares(), stab.w.inverse_values()
    density = density_w = 0.0
    for mu in range(3):
        dw = _exact_log_derivative_slot(stab, omega, w_inv, mu)
        dw_log = fl.maurer_cartan_slot(stab.w, mu)
        sums.add("dw_log", dw_log)
        sums.add("routes", dw_log - dw)
        del dw_log
        moved = _rotate_slot(w_inv, a.slot(mu))
        moved += dw
        del dw
        cov_w = np.subtract(moved, alg.isotropic_part(pair, phi.values, moved), out=moved)
        cov_w += omega.slot(mu)
        del moved
        cov = a.slot(mu) - alg.isotropic_part(pair, phi.values, a.slot(mu))
        cov += omega.slot(mu)
        density_w += dot(cov_w, cov_w)
        density += dot(cov, cov)
        rotated = _rotate_slot(w_inv, cov)
        del cov
        sums.add("rotated", rotated)
        sums.add("dafi", np.subtract(cov_w, rotated, out=cov_w))
        del cov_w, rotated
    return [("dafi_shared_inputs", "pointwise", sums.rel("dafi", "rotated")),
            ("dafi_energy_density", "pointwise",
             float(np.max(np.abs(density_w - density))) / (float(np.max(np.abs(density))) or 1.0)),
            ("stabilizer_derivative_e062", "differential", sums.rel("routes", "dw_log"))]


def _curvature_rows(b, omega):
    """The coset curvature of an isotropy-valued b against its projected form,
    and the symmetric-space reference curvature, which has no perp part.  One
    pass: each slot forms omega ^ omega, [omega ^ b], d b, its isotropic part
    and F once, F in d b's buffer ([b ^ omega] = [omega ^ b] bit for bit under
    the cross-product bracket)."""
    a, phi, pair = b.a, b.phi, b.pair
    sums = _SumsOfSquares()
    for slot in range(len(SLOTS2)):
        oo = comm_slot(omega, pair, slot)
        oo_par = alg.isotropic_part(pair, phi.values, oo)
        sums.add("oo", oo)
        sums.add("oo_perp", oo - oo_par)
        del oo
        bracket = wedge_slot(omega, a, pair.bracket, slot)
        sums.add("bracket", bracket)
        db = d_slot(a, slot)
        db_par = alg.isotropic_part(pair, phi.values, db)
        perp = np.subtract(db, db_par)
        perp -= bracket
        sums.add("perp", perp)
        del perp
        bb = comm_slot(a, pair, slot)
        curvature = db
        curvature += bb
        curvature -= bracket
        curvature -= oo_par
        del db, bracket
        sums.add("curvature", curvature)
        # the projected form db_par + [b ^ b] - (omega ^ omega)_par, in db_par's buffer
        projected = db_par
        projected += bb
        projected -= oo_par
        del db_par, bb, oo_par
        sums.add("vs_projected", np.subtract(curvature, projected, out=projected))
        del curvature, projected
    return [("refcurv_no_projection", "pointwise", sums.rel("oo_perp", "oo")),
            ("curvature_vs_projected_form", "differential", sums.rel("vs_projected", "curvature")),
            ("isotropic_derivative_perp", "differential", sums.rel("perp", "bracket"))]


def _pure_gauge_rows(u, phi):
    """The pure-gauge potential a = u^-1 du against phi: its flatness, its match
    with the map u.phi and its dual energy, then the flat-potential relations
    of its split a_par + a_perp, in three passes over the slots.  Flatness
    takes the slots of a; relation (iii), dPhi ^ a_par and the fourth term
    share the slots yz, xz, xy of dPhi ^ a_par and [a_perp ^ a_perp], which
    meet axis x, y, z of a 1-form in the 3-forms; relations (i) and (ii) and
    dPhi ^ a_perp share the slots of F(a_par) and dPhi ^ a_perp.  phi^*omega
    is formed for mapcon and again for the last pass, so that the pass
    before it runs without it."""
    grid, pair = phi.grid, phi.pair
    sums = _SumsOfSquares()
    apot = fl.pure_gauge_potential(u, phi)
    for slot in range(len(SLOTS2)):
        da = d_slot(apot.a, slot)
        sums.add("d_a", da)
        sums.add("flatness", da + comm_slot(apot.a, pair, slot))
        del da
    psi = fl.act(u, phi)
    e_map = energy_map(psi).total
    dual = abs(e_map - energy_potential(apot).total) / max(abs(e_map), 1e-30)
    apar, aperp = apot.split()
    del apot
    moved = alg.qrotate_form(u.inverse_values(), fl.pullback_coisotropy(psi).data)
    del psi
    moved -= fl.pullback_coisotropy(phi).data
    for mu in range(3):
        sums.add("aperp", aperp.slot(mu))
        sums.add("mapcon", np.subtract(aperp.slot(mu), moved[:, :, :, mu], out=moved[:, :, :, mu]))
    del moved

    # relation (iii), d[a_perp ^ a_perp] = -(dPhi ^ a_par) ^ a_perp + dPhi ^ [a_perp ^ a_perp],
    # its 3-forms summed with signs + - + as d and wedge sum them
    d_aa = dphi_par_aperp = dphi_aa = None
    for slot, axis in ((2, 0), (1, 1), (0, 2)):
        d_apar = d_slot(apar, slot)
        sums.add("d_apar", d_apar)
        perp = d_apar - alg.isotropic_part(pair, phi.values, d_apar)
        del d_apar
        dphi_par = projector_derivative_slot(phi, apar, slot)
        sums.add("wedge_par", np.subtract(dphi_par, perp, out=perp))
        del perp
        dphi_par_aperp = _sum_3form(dphi_par_aperp, slot, pair.bracket(dphi_par, aperp.slot(axis)))
        del dphi_par
        aa = comm_slot(aperp, pair, slot)
        sums.add("aa", aa)
        sums.add("aa_perp", aa - alg.isotropic_part(pair, phi.values, aa))
        d_aa = _sum_3form(d_aa, slot, forward_diff(aa, axis, grid.h))
        dphi_aa = _sum_3form(dphi_aa, slot, _dphi(phi, axis, aa))
        del aa
    residual = np.negative(dphi_par_aperp, out=dphi_par_aperp)
    residual += dphi_aa
    sums.add("d_aa", d_aa)
    sums.add("quartic", np.subtract(d_aa, residual, out=residual))
    del d_aa, dphi_par_aperp, dphi_aa, residual

    # dPhi ^ a_perp, relation (ii) for d a_perp, and relation (i) for F(a_par)
    omega = fl.pullback_coisotropy(phi)
    for slot in range(len(SLOTS2)):
        dphi_perp = projector_derivative_slot(phi, aperp, slot)
        d_aperp = d_slot(aperp, slot)
        sums.add("d_aperp", d_aperp)
        sums.add("wedge_perp", dphi_perp + alg.isotropic_part(pair, phi.values, d_aperp))
        # -dPhi ^ a_par - dPhi ^ a_perp - [a_par ^ a_perp], without and with (aa)_perp
        flat = projector_derivative_slot(phi, apar, slot)
        np.negative(flat, out=flat)
        flat -= dphi_perp
        flat -= wedge_slot(apar, aperp, pair.bracket, slot)
        sums.add("ii_symmetric", d_aperp - flat)
        aa = comm_slot(aperp, pair, slot)
        aa_par = alg.isotropic_part(pair, phi.values, aa)
        flat -= aa - aa_par
        sums.add("ii", np.subtract(d_aperp, flat, out=flat))
        del d_aperp, flat
        # the right sides of relation (i) without and with the isotropy projections
        oo = comm_slot(omega, pair, slot)
        symmetric = np.subtract(dphi_perp, aa, out=aa)
        symmetric -= oo
        oo_par = alg.isotropic_part(pair, phi.values, oo)
        del aa, oo
        projected = np.subtract(dphi_perp, aa_par, out=aa_par)
        projected -= oo_par
        del dphi_perp, aa_par
        curvature = d_slot(apar, slot)
        curvature += comm_slot(apar, pair, slot)
        curvature -= wedge_slot(apar, omega, pair.bracket, slot)
        curvature -= oo_par
        del oo_par
        sums.add("curvature", curvature)
        sums.add("i_symmetric", np.subtract(curvature, symmetric, out=symmetric))
        sums.add("i", np.subtract(curvature, projected, out=projected))
        del curvature, symmetric, projected
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
    """A 3-form summed over the 2-form slots yz, xz, xy (2, 1, 0) with signs + - +,
    as d and wedge sum it: the first term starts the sum, returned."""
    if slot == 2:
        return term
    if slot == 1:
        total -= term
    else:
        total += term
    return total


def _grid_rows(grid, seed):
    """(name, kind, residual) of every identity on one grid, family by family.
    Each shared form is built just before its first use and dropped after its
    last: the Dafi family runs before the isotropic part b of a exists, omega
    is dropped before the pure-gauge family, which forms it where it reads it,
    and (omega ^ omega) and its isotropic part are formed slot by slot in each
    family that reads them.  The gauge-action family,
    the only one that draws from rng after smooth_inputs, runs last, on phi
    and theta alone."""
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
