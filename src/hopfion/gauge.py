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

from dataclasses import asdict, dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .energy import comm_slot, comm_wedge, energy_map, energy_potential
from .errors import ConfigError
from .lattice import (SLOTS2, Grid, LatticeField, centered_diff, coulomb_solve, d,
                      d_slot, dot, empty_component_major, forward_diff, l2_norm, wedge,
                      wedge_slot)

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
    h = grid.h
    omega = fl.pullback_coisotropy(stab.phi)
    ad_omega = ad_inverse_apply(stab.w, omega)
    data = empty_component_major(omega.data.shape)
    for mu in range(3):
        dest = np.multiply(forward_diff(stab.theta, mu, h)[..., None], stab.phi.values,
                           out=data[:, :, :, mu])
        dest += ad_omega.slot(mu)
        dest -= omega.slot(mu)
    return LatticeField(grid, 1, data)


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
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi."""
    return LatticeField(b.grid, 2, _coset_curvature(b, fl.pullback_coisotropy(b.phi)))


def _coset_curvature(b, omega):
    """coset_curvature's data in a new writable buffer, omega = phi^*omega given,
    written slot by slot."""
    out = empty_component_major(b.a.data.shape)
    for slot in range(len(SLOTS2)):
        _curvature_slot(b, omega, slot, out=out[:, :, :, slot])
    return out


def _curvature_slot(b, omega, slot, out=None):
    """Slot SLOTS2[slot] of coset_curvature(b) alone, omega = phi^*omega given: the
    forward differences of d b written into out, then the slots of [b ^ b],
    [b ^ omega] and (omega ^ omega)_par summed into it one by one."""
    a, pair = b.a, b.pair
    dest = d_slot(a, slot, out=out)
    dest += comm_slot(a, pair, slot)
    dest -= wedge_slot(a, omega, pair.bracket, slot)
    dest -= _oo_par(omega, b.phi, slot)
    return dest


def _oo_par(omega, phi, slot):
    """Slot SLOTS2[slot] of (omega ^ omega)_par alone, phi the map of omega."""
    return alg.isotropic_part(phi.pair, phi.values, comm_slot(omega, phi.pair, slot))


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


def _rel(residual_field, reference_field):
    return _over(l2_norm(residual_field), l2_norm(reference_field))


def _over(norm, reference):
    """A relative residual: norm over the reference norm, or over 1 where that is 0."""
    return norm / (reference if reference > 0 else 1.0)


def _norm2(grid, data):
    """l2_norm of 2-form data that is written again after it is read, through a frozen view."""
    return l2_norm(LatticeField(grid, 2, data.view()))


def _d_data(a):
    """d of a 1-form as new writable data, written slot by slot."""
    out = empty_component_major(a.data.shape)
    for slot in range(len(SLOTS2)):
        d_slot(a, slot, out=out[:, :, :, slot])
    return out


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
    slot by slot in the rotated curvature's buffer; (b0^w)^w_b is formed and
    b0^w freed before b0^(w w_b) is, and the second stabilizer is built from its
    angle, drawn in its place, only then."""
    phi0 = fl.constant_map(grid)
    stab0 = make_stabilizer(phi0, theta)
    b0 = fl.PotentialField(LatticeField.from_slots(
        grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)]), phi0)
    coulomb = _coulomb_residual(b0)
    theta_b = smooth_scalar(grid, rng, 0.6)
    omega0 = fl.pullback_coisotropy(phi0)  # the constant map's form, once for five uses
    b0w = _gauge_transform(b0, stab0, omega0)
    rotated = _coset_curvature(b0, omega0)
    alg.qrotate_form(stab0.w.inverse_values(), rotated, out=rotated)
    reference = _norm2(grid, rotated)
    for slot in range(len(SLOTS2)):
        np.subtract(_curvature_slot(b0w, omega0, slot), rotated[:, :, :, slot],
                    out=rotated[:, :, :, slot])
    equivariance = _over(_norm2(grid, rotated), reference)
    del rotated
    stab0b = make_stabilizer(phi0, theta_b)
    twice = _gauge_transform(b0w, stab0b, omega0).a.data
    del b0w
    w12 = StabilizerField(
        w=fl.LiftField(grid, phi0.pair, alg.qmul(stab0.w.values, stab0b.w.values)),
        phi=phi0, theta=stab0.theta + stab0b.theta)
    del stab0, stab0b
    composed = _gauge_transform(b0, w12, omega0).a
    del b0, w12
    return [("curvature_equivariance_shared", "pointwise", equivariance),
            ("gauge_action_composition", "pointwise",
             _rel(LatticeField(grid, 1, twice - composed.data), composed)),
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
    energy density, over shared discrete inputs (exact dw); dw's two routes."""
    dw = stabilizer_log_derivative(stab, scheme="exact")
    dw_log = stabilizer_log_derivative(stab, scheme="log")
    routes = _rel(dw_log - dw, dw_log)
    del dw_log
    moved = ad_inverse_apply(stab.w, a) + dw
    del dw
    cov_w = fl.coisotropic_part(moved, stab.phi, plus=omega)
    del moved
    cov = fl.coisotropic_part(a, stab.phi, plus=omega)
    rotated = ad_inverse_apply(stab.w, cov)
    density = cov.norm2_density()
    del cov
    return [("dafi_shared_inputs", "pointwise", _rel(cov_w - rotated, rotated)),
            ("dafi_energy_density", "pointwise",
             float(np.max(np.abs(cov_w.norm2_density() - density)))
             / (float(np.max(np.abs(density))) or 1.0)),
            ("stabilizer_derivative_e062", "differential", routes)]


def _curvature_rows(b, omega):
    """The coset curvature of an isotropy-valued b against its projected form,
    and the symmetric-space reference curvature, which has no perp part.  The
    slots of db are formed where they are read, and each residual in the
    buffer of the form it is measured against, after that form's norm."""
    grid, phi, pair = b.grid, b.phi, b.pair
    oo = comm_wedge(omega, pair)
    refcurv = l2_norm(fl.coisotropic_part(oo, phi)) / max(l2_norm(oo), 1e-30)
    del oo
    curvature = _coset_curvature(b, omega)
    reference = _norm2(grid, curvature)
    for slot in range(len(SLOTS2)):
        # db_par + [b ^ b] - (omega ^ omega)_par, the sum written db_par - (-[b ^ b])
        dest = alg.isotropic_part(pair, phi.values, d_slot(b.a, slot))
        dest -= -comm_slot(b.a, pair, slot)
        dest -= _oo_par(omega, phi, slot)
        np.subtract(curvature[:, :, :, slot], dest, out=curvature[:, :, :, slot])
    vs_projected = _over(_norm2(grid, curvature), reference)
    del curvature
    bracket = wedge(omega, b.a, pair.bracket)
    perp = empty_component_major(b.a.data.shape)
    for slot in range(len(SLOTS2)):
        db = d_slot(b.a, slot)
        dest = np.subtract(db, alg.isotropic_part(pair, phi.values, db), out=perp[:, :, :, slot])
        dest -= bracket.slot(slot)
    return [("refcurv_no_projection", "pointwise", refcurv),
            ("curvature_vs_projected_form", "differential", vs_projected),
            ("isotropic_derivative_perp", "differential",
             _rel(LatticeField(grid, 2, perp), bracket))]


def _pure_gauge_rows(u, phi):
    """The pure-gauge potential a = u^-1 du against phi: its flatness, its match
    with the map u.phi and its dual energy, then the flat-potential relations
    of its split a_par + a_perp.  No whole form is held that is read one slot
    at a time: relation (iii) and dPhi ^ a_par against d a_par share one pass
    over the slots of dPhi ^ a_par, relation (ii) takes a second, and relation
    (i) and dPhi ^ a_perp a pass over the slots of dPhi ^ a_perp once F(a_par)
    is formed and a_par freed.  phi^*omega is formed for mapcon and again for
    relation (i), so that the two passes between them run without it."""
    grid, pair = phi.grid, phi.pair
    apot = fl.pure_gauge_potential(u, phi)
    d_a = d(apot.a)
    flat = empty_component_major(d_a.data.shape)
    for slot in range(len(SLOTS2)):
        np.add(d_a.slot(slot), comm_slot(apot.a, pair, slot), out=flat[:, :, :, slot])
    flatness = _rel(LatticeField(grid, 2, flat), d_a)
    del d_a, flat
    psi = fl.act(u, phi)
    e_map = energy_map(psi).total
    dual = abs(e_map - energy_potential(apot).total) / max(abs(e_map), 1e-30)
    apar, aperp = apot.split()
    del apot
    moved = alg.qrotate_form(u.inverse_values(), fl.pullback_coisotropy(psi).data)
    del psi
    moved -= fl.pullback_coisotropy(phi).data
    mapcon = _rel(LatticeField(grid, 1, np.subtract(aperp.data, moved, out=moved)), aperp)
    del moved
    quartic, wedge_par = _flat_quartic_rows(phi, apar, aperp)
    d_aperp_norm, flat_ii, flat_ii_symmetric = _flat_derivative_rows(phi, apar, aperp)
    omega = fl.pullback_coisotropy(phi)
    curvature = _coset_curvature(fl.PotentialField(apar, phi), omega)
    del apar
    relation_i, wedge_perp_norm = _flat_curvature_rows(phi, aperp, curvature, omega)
    return [("dphi_wedge_par", "differential", wedge_par)] + relation_i + [
        ("flat_quartic_iii_symmetric", "differential", quartic),
        ("dphi_wedge_perp", "differential", _over(wedge_perp_norm, d_aperp_norm)),
        ("flat_derivative_ii", "differential", flat_ii),
        ("flat_derivative_ii_symmetric", "differential", flat_ii_symmetric),
        ("pure_gauge_flatness", "differential", flatness), ("mapcon", "differential", mapcon),
        ("dual_energy", "differential", dual)]


def _flat_quartic_rows(phi, apar, aperp):
    """Relation (iii), d[a_perp ^ a_perp] = -(dPhi ^ a_par) ^ a_perp + dPhi ^ [a_perp ^ a_perp],
    and dPhi ^ a_par against the perp part of d a_par, the residual in d a_par's
    buffer, from one pass over the slots yz, xz, xy of dPhi ^ a_par and
    [a_perp ^ a_perp].  Each of those slots meets axis x, y, z of a 1-form in
    the 3-forms, which sum their terms with signs + - + as d and wedge do."""
    grid, pair = phi.grid, phi.pair
    d_apar = _d_data(apar)
    reference = _norm2(grid, d_apar)
    d_aa = dphi_par_aperp = dphi_aa = None
    for slot, axis in ((2, 0), (1, 1), (0, 2)):
        dphi_par = projector_derivative_slot(phi, apar, slot)
        perp = d_apar[:, :, :, slot] - alg.isotropic_part(pair, phi.values, d_apar[:, :, :, slot])
        np.subtract(dphi_par, perp, out=d_apar[:, :, :, slot])
        del perp
        dphi_par_aperp = _sum_3form(dphi_par_aperp, slot,
                                    pair.bracket(dphi_par, aperp.slot(axis)))
        del dphi_par
        aa = comm_slot(aperp, pair, slot)
        d_aa = _sum_3form(d_aa, slot, forward_diff(aa, axis, grid.h))
        dphi_aa = _sum_3form(dphi_aa, slot, _dphi(phi, axis, aa))
        del aa
    wedge_par = _over(_norm2(grid, d_apar), reference)
    del d_apar
    # d[aa] - (-(dPhi ^ a_par) ^ a_perp + dPhi ^ [aa])
    residual = np.negative(dphi_par_aperp, out=dphi_par_aperp)
    residual += dphi_aa
    np.subtract(d_aa, residual, out=residual)
    quartic = _rel(LatticeField(grid, 3, residual[:, :, :, None]),
                   LatticeField(grid, 3, d_aa[:, :, :, None]))
    return quartic, wedge_par


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


def _flat_derivative_rows(phi, apar, aperp):
    """Relation (ii) for d a_perp: flat_ii = -dPhi ^ a_par - dPhi ^ a_perp - [a_par ^ a_perp]
    against it, with and without (a_perp ^ a_perp)_perp, over the slots of
    flat_ii; the residual without it in d a_perp's buffer after its norm, which
    is returned first."""
    grid, pair = phi.grid, phi.pair
    d_aperp = _d_data(aperp)
    reference = _norm2(grid, d_aperp)
    with_aa = empty_component_major(d_aperp.shape)
    for slot in range(len(SLOTS2)):
        scratch, dest = with_aa[:, :, :, slot], d_aperp[:, :, :, slot]
        flat = projector_derivative_slot(phi, apar, slot)
        np.negative(flat, out=flat)
        flat -= projector_derivative_slot(phi, aperp, slot, out=scratch)
        flat -= wedge_slot(apar, aperp, pair.bracket, slot, out=scratch)
        aa = comm_slot(aperp, pair, slot)
        aa_perp = np.subtract(aa, alg.isotropic_part(pair, phi.values, aa), out=aa)
        np.subtract(dest, np.subtract(flat, aa_perp, out=scratch), out=scratch)
        np.subtract(dest, flat, out=dest)
        del flat, aa, aa_perp
    return (reference, _over(_norm2(grid, with_aa), reference),
            _over(_norm2(grid, d_aperp), reference))


def _flat_curvature_rows(phi, aperp, curvature, omega):
    """a_par of a flat potential, through its curvature data F (written over):
    relation (i) with and without the isotropy projections, the residual with
    them in F's buffer after its norm, the symmetric fourth term, and the
    norm of dPhi ^ a_perp + (d a_perp)_par, formed from the same slots of
    dPhi ^ a_perp."""
    grid, pair = phi.grid, phi.pair
    aa = comm_wedge(aperp, pair)
    fourth = l2_norm(fl.coisotropic_part(aa, phi)) / max(l2_norm(aa), 1e-30)
    del aa
    reference = _norm2(grid, curvature)
    symmetric = empty_component_major(curvature.shape)
    wedge_perp = empty_component_major(curvature.shape)
    for slot in range(len(SLOTS2)):
        lhs = curvature[:, :, :, slot]
        dphi_perp = projector_derivative_slot(phi, aperp, slot, out=wedge_perp[:, :, :, slot])
        aa = comm_slot(aperp, pair, slot)
        oo = comm_slot(omega, pair, slot)
        dest = np.subtract(dphi_perp, aa, out=symmetric[:, :, :, slot])
        dest -= oo
        np.subtract(lhs, dest, out=dest)
        # the isotropic parts in the buffers of the slots they project
        dest = np.subtract(dphi_perp, alg.isotropic_part(pair, phi.values, aa, out=aa), out=aa)
        dest -= alg.isotropic_part(pair, phi.values, oo, out=oo)
        np.subtract(lhs, dest, out=lhs)
        del dest, aa, oo
        dphi_perp += alg.isotropic_part(pair, phi.values, d_slot(aperp, slot))
    flat_i_symmetric = _over(_norm2(grid, symmetric), reference)
    del symmetric
    rows = [("symmetric_fourth_term", "pointwise", fourth),
            ("flat_curvature_i", "differential", _over(_norm2(grid, curvature), reference)),
            ("flat_curvature_i_symmetric", "differential", flat_i_symmetric)]
    return rows, _norm2(grid, wedge_perp)


def _grid_rows(grid, seed):
    """(name, kind, residual) of every identity on one grid, family by family.
    Each shared form is built just before its first use and dropped after its
    last: the Dafi family runs before the isotropic part b of a exists, omega
    is dropped before the pure-gauge family, which forms it where it reads it,
    and (omega ^ omega) and its isotropic part are formed in each family that
    reads them, slot by slot where they enter a sum.  The gauge-action family,
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
