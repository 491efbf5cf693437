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
from .energy import comm_wedge, energy_map, energy_potential
from .errors import ConfigError
from .lattice import (Grid, LatticeField, coulomb_solve, d, dot, empty_component_major, forward_diff,
                      l2_norm, wedge)

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
    return LatticeField(form.grid, form.degree,
                        alg.qrotate(w.inverse_values()[:, :, :, None], form.data))


def stabilizer_log_derivative(stab, scheme="log"):
    """The discrete w^-1 dw of a stabilizer as a g-valued 1-form.

    'log': principal logs of links (the generic definition).
    'exact': d theta . phi + (Ad(w^-1) - I) phi^*omega, the combination the
    coset calculus predicts; the theta part uses forward differences.
    """
    grid = stab.w.grid
    if scheme == "log":
        return fl.pure_gauge_potential(stab.w, stab.phi).a
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
    perp = fl.split_form(b, phi)[1].data
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
    if stab.phi is not phi and (phi is None or stab.phi.grid != phi.grid
                                or not np.array_equal(stab.phi.values, phi.values)):
        raise ValueError("stabilizer and potential have different reference maps")
    return _gauge_transform(b, stab, fl.pullback_coisotropy(phi))


def _gauge_transform(b, stab, omega):
    """gauge_transform_potential with omega = phi^*omega given, stab built on phi."""
    _require_isotropic(b.a, b.phi)
    return fl.PotentialField(
        ad_inverse_apply(stab.w, b.a - omega) + omega + stabilizer_log_derivative(stab), b.phi)


def coset_curvature(b):
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi."""
    phi = b.phi
    if phi is None:
        raise ValueError("coset curvature needs the reference map")
    omega = fl.pullback_coisotropy(phi)
    return _coset_curvature(b, omega, fl.split_form(comm_wedge(omega, phi.pair), phi)[0])


def _coset_curvature(b, omega, oo_par):
    """coset_curvature with omega = phi^*omega and oo_par = (omega ^ omega)_par given."""
    a, pair = b.a, b.pair
    out = d(a).data + comm_wedge(a, pair).data
    out -= wedge(a, omega, pair.bracket).data
    out -= oo_par.data
    return LatticeField(a.grid, 2, out)


def projector_derivative_wedge(phi, form):
    """d Phi ^ form for Phi = pr_{h_phi}, assembled from the CP1 closed form.

    d Phi_mu (xi) = (xi . v_mu) phi + (xi . phi) v_mu with v the centered
    differences of phi: the wedge of the 1-form v with form under that
    product.  No matrices are differentiated numerically twice.
    """
    if not phi.is_cp1:
        raise ValueError("projector derivative uses the CP1 closed form")
    if form.degree not in (1, 2):
        raise ValueError("projector derivative wedge expects a 1- or 2-form")
    p = phi.values
    tangents = LatticeField.from_slots(phi.grid, 1, fl.map_tangents(phi))
    return wedge(tangents, form,
                 lambda v, xi: dot(xi, v)[..., None] * p + dot(xi, p)[..., None] * v)


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
    ref = l2_norm(reference_field)
    return l2_norm(residual_field) / (ref if ref > 0 else 1.0)


def smooth_scalar(grid, rng, amplitude=1.0):
    """Random low-frequency trig polynomial sampled on the grid."""
    c = grid.axis_coords() * (2.0 * np.pi / grid.length)
    x, y, z = c[:, None, None], c[None, :, None], c[None, None, :]
    out = np.zeros((grid.n,) * 3)
    for _ in range(3):
        k = rng.integers(-1, 2, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0) * amplitude
        out += amp * np.sin((x * k[0] + y * k[1]) + z * k[2] + phase)
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
    equivariance, and composition of same-axis stabilizers."""
    phi0 = fl.constant_map(grid)
    stab0 = make_stabilizer(phi0, theta)
    b0 = fl.PotentialField(LatticeField.from_slots(
        grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)]), phi0)
    omega0 = fl.pullback_coisotropy(phi0)  # the constant map's forms, once for five uses
    oo0_par = fl.split_form(comm_wedge(omega0, phi0.pair), phi0)[0]
    b0w = _gauge_transform(b0, stab0, omega0)
    curvature = ad_inverse_apply(stab0.w, _coset_curvature(b0, omega0, oo0_par))
    equivariance = _rel(_coset_curvature(b0w, omega0, oo0_par) - curvature, curvature)
    del curvature, oo0_par
    stab0b = make_stabilizer(phi0, smooth_scalar(grid, rng, 0.6))
    w12 = StabilizerField(
        w=fl.LiftField(grid, phi0.pair, alg.qmul(stab0.w.values, stab0b.w.values)),
        phi=phi0, theta=stab0.theta + stab0b.theta)
    composed = _gauge_transform(b0, w12, omega0).a
    del b0, w12
    return [("curvature_equivariance_shared", "pointwise", equivariance),
            ("gauge_action_composition", "pointwise",
             _rel(_gauge_transform(b0w, stab0b, omega0).a - composed, composed))]


def _dafi_rows(stab, omega, a, a_perp):
    """D a = a_perp + phi^*omega goes to Ad(w^-1) D a under a -> a^w, with its
    energy density, over shared discrete inputs (exact dw); dw's two routes."""
    dw = stabilizer_log_derivative(stab, scheme="exact")
    dw_log = stabilizer_log_derivative(stab, scheme="log")
    routes = _rel(dw_log - dw, dw_log)
    del dw_log
    moved = ad_inverse_apply(stab.w, a) + dw
    del dw
    cov_w = fl.split_form(moved, stab.phi)[1] + omega
    del moved
    cov = a_perp + omega
    rotated = ad_inverse_apply(stab.w, cov)
    density = cov.norm2_density()
    del cov
    return [("dafi_shared_inputs", "pointwise", _rel(cov_w - rotated, rotated)),
            ("dafi_energy_density", "pointwise",
             float(np.max(np.abs(cov_w.norm2_density() - density)))
             / (float(np.max(np.abs(density))) or 1.0)),
            ("stabilizer_derivative_e062", "differential", routes)]


def _curvature_rows(b, omega, oo, oo_par):
    """The coset curvature of an isotropy-valued b against its projected form,
    and the symmetric-space reference curvature, which has no perp part."""
    phi, pair = b.phi, b.pair
    curvature = _coset_curvature(b, omega, oo_par)
    db_par, db_perp = fl.split_form(d(b.a), phi)
    bracket = wedge(omega, b.a, pair.bracket)
    return [("refcurv_no_projection", "pointwise",
             l2_norm(fl.split_form(oo, phi)[1]) / max(l2_norm(oo), 1e-30)),
            ("curvature_vs_projected_form", "differential",
             _rel(curvature - (db_par + comm_wedge(b.a, pair) - oo_par), curvature)),
            ("isotropic_derivative_perp", "differential", _rel(db_perp - bracket, bracket))]


def _flat_par_rows(phi, apar, aperp, dphi_par, dphi_perp, omega, oo, oo_par):
    """a_par of a flat potential: dPhi ^ a_par against d a_par, then relation
    (i) for its curvature, with and without the isotropy projections."""
    d_apar = d(apar)
    wedge_par = _rel(dphi_par - fl.split_form(d_apar, phi)[1], d_apar)
    del d_apar
    curvature = _coset_curvature(fl.PotentialField(apar, phi), omega, oo_par)
    aa = comm_wedge(aperp, phi.pair)
    aa_norm = l2_norm(aa)
    flat_i_symmetric = _rel(_residual(curvature, dphi_perp, aa, oo), curvature)
    aa_par, aa_perp = fl.split_form(aa, phi)
    del aa
    fourth = l2_norm(aa_perp) / max(aa_norm, 1e-30)
    del aa_perp
    return [("dphi_wedge_par", "differential", wedge_par),
            ("symmetric_fourth_term", "pointwise", fourth),
            ("flat_curvature_i", "differential",
             _rel(_residual(curvature, dphi_perp, aa_par, oo_par), curvature)),
            ("flat_curvature_i_symmetric", "differential", flat_i_symmetric)]


def _flat_perp_rows(phi, forms):
    """a_perp of a flat potential: relation (iii) for d[a_perp ^ a_perp], then
    dPhi ^ a_perp against d a_perp and relation (ii) for d a_perp.

    forms is the list [a_par, a_perp, dPhi ^ a_par, dPhi ^ a_perp], which
    holds the only references to them: this family empties it, so that each
    form is freed after its last use here.
    """
    apar, aperp, dphi_par, dphi_perp = forms
    forms.clear()
    bracket = phi.pair.bracket
    flat_ii = -dphi_par - dphi_perp - wedge(apar, aperp, bracket)
    del apar
    aa = comm_wedge(aperp, phi.pair)
    dphi_aa = projector_derivative_wedge(phi, aa)
    d_aa = d(aa)
    quartic = _rel(d_aa - (-wedge(dphi_par, aperp, bracket) + dphi_aa), d_aa)
    del dphi_par, dphi_aa, d_aa
    aa_perp = fl.split_form(aa, phi)[1]
    del aa
    d_aperp = d(aperp)
    return [("flat_quartic_iii_symmetric", "differential", quartic),
            ("dphi_wedge_perp", "differential",
             _rel(dphi_perp + fl.split_form(d_aperp, phi)[0], d_aperp)),
            ("flat_derivative_ii", "differential",
             _rel(_residual(d_aperp, flat_ii, aa_perp), d_aperp)),
            ("flat_derivative_ii_symmetric", "differential", _rel(d_aperp - flat_ii, d_aperp))]


def _residual(lhs, first, *rest):
    """lhs - (first - rest[0] - rest[1] - ...), evaluated as written, in one new buffer."""
    out = first.data - rest[0].data
    for term in rest[1:]:
        out -= term.data
    np.subtract(lhs.data, out, out=out)
    return LatticeField(lhs.grid, lhs.degree, out)


def _pure_gauge_rows(u, phi, omega, oo, oo_par):
    """The pure-gauge potential a = u^-1 du against phi: its flatness, its match
    with the map u.phi and its dual energy, then the flat-potential relations
    of its split."""
    apot = fl.pure_gauge_potential(u, phi)
    d_a = d(apot.a)
    flatness = _rel(d_a + comm_wedge(apot.a, phi.pair), d_a)
    del d_a
    psi = fl.act(u, phi)
    e_map = energy_map(psi).total
    dual = abs(e_map - energy_potential(apot).total) / max(abs(e_map), 1e-30)
    apar, aperp = apot.split()
    mapcon = _rel(aperp - (ad_inverse_apply(u, fl.pullback_coisotropy(psi)) - omega), aperp)
    del apot, psi
    forms = [apar, aperp, projector_derivative_wedge(phi, apar),
             projector_derivative_wedge(phi, aperp)]
    del apar, aperp  # the list holds the only references, for _flat_perp_rows to free
    rows = _flat_par_rows(phi, *forms, omega, oo, oo_par)
    rows += _flat_perp_rows(phi, forms)
    return rows + [("pure_gauge_flatness", "differential", flatness),
                   ("mapcon", "differential", mapcon),
                   ("dual_energy", "differential", dual)]


def _grid_rows(grid, seed):
    """(name, kind, residual) of every identity on one grid, family by family;
    only what later families share is bound here, and the pure-gauge family
    runs last, once the Dafi and curvature families' inputs are freed."""
    rng = np.random.default_rng(seed)  # same modes on every grid
    phi, u, theta, a = smooth_inputs(grid, rng)
    gauge_action = _gauge_action_rows(grid, rng, theta)  # the only draws after smooth_inputs
    omega = fl.pullback_coisotropy(phi)
    oo = comm_wedge(omega, phi.pair)
    oo_par = fl.split_form(oo, phi)[0]
    b, a_perp = fl.split_form(a, phi)
    dafi = _dafi_rows(make_stabilizer(phi, theta), omega, a, a_perp)
    del theta, a, a_perp
    curvature = _curvature_rows(fl.PotentialField(b, phi), omega, oo, oo_par)
    del b
    return gauge_action + _pure_gauge_rows(u, phi, omega, oo, oo_par) + dafi + curvature


def identity_suite(sizes=(16, 32, 64), seed=0):
    """Evaluate the gauge-calculus identities over two or more distinct grid sizes."""
    sizes = sorted(set(sizes))
    if len(sizes) < 2 or sizes[0] < 4:
        # a one-point order fit means nothing; Grid needs n >= 4
        raise ConfigError(f"sizes {sizes} must hold two or more distinct grid sizes >= 4")
    grids = [Grid(n) for n in sizes]
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
    if phi is None or not phi.is_cp1:
        raise ValueError("gauge smoothing is implemented for the CP1 pair")
    _require_isotropic(b.a, phi)
    beta = LatticeField.from_slots(b.grid, 1, [dot(b.a.slot(mu), phi.values)[..., None]
                                               for mu in range(3)])
    return make_stabilizer(phi, -coulomb_solve(beta).slot(0)[..., 0])
