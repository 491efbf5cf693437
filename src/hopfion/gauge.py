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
from .lattice import (SLOTS2, Grid, LatticeField, coulomb_solve, d, dot, empty_component_major,
                      forward_diff, l2_norm, wedge, wedge_slot)

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
    """gauge_transform_potential with omega = phi^*omega given, stab built on phi,
    summed into the buffer of the Ad action."""
    _require_isotropic(b.a, b.phi)
    out = alg.qrotate_form(stab.w.inverse_values(), (b.a - omega).data)
    out += omega.data
    out += stabilizer_log_derivative(stab).data
    return fl.PotentialField(LatticeField(b.grid, 1, out), b.phi)


def coset_curvature(b):
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi."""
    return LatticeField(b.grid, 2, _coset_curvature(b, fl.pullback_coisotropy(b.phi)))


def _coset_curvature(b, omega):
    """coset_curvature's data in a new writable buffer, omega = phi^*omega given:
    the slots of [b ^ b], [b ^ omega] and (omega ^ omega)_par are formed and
    summed into it one by one."""
    a, pair = b.a, b.pair
    da = d(a)
    out = empty_component_major(a.data.shape)
    for slot in range(len(SLOTS2)):
        dest = np.add(da.slot(slot), comm_slot(a, pair, slot), out=out[:, :, :, slot])
        dest -= wedge_slot(a, omega, pair.bracket, slot)
        dest -= _oo_par(omega, b.phi, slot)
    return out


def _oo_par(omega, phi, slot):
    """Slot SLOTS2[slot] of (omega ^ omega)_par alone, phi the map of omega."""
    return alg.isotropic_part(phi.pair, phi.values, comm_slot(omega, phi.pair, slot))


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
    condition of gauge_smooth's fixing.  The curvatures come first, so that b0
    is freed before b0^w is transformed again."""
    phi0 = fl.constant_map(grid)
    stab0 = make_stabilizer(phi0, theta)
    b0 = fl.PotentialField(LatticeField.from_slots(
        grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)]), phi0)
    coulomb = _coulomb_residual(b0)
    stab0b = make_stabilizer(phi0, smooth_scalar(grid, rng, 0.6))
    omega0 = fl.pullback_coisotropy(phi0)  # the constant map's form, once for five uses
    b0w = _gauge_transform(b0, stab0, omega0)
    curvature = ad_inverse_apply(stab0.w, LatticeField(grid, 2, _coset_curvature(b0, omega0)))
    difference = _coset_curvature(b0w, omega0)
    difference -= curvature.data
    equivariance = _rel(LatticeField(grid, 2, difference), curvature)
    del curvature, difference
    w12 = StabilizerField(
        w=fl.LiftField(grid, phi0.pair, alg.qmul(stab0.w.values, stab0b.w.values)),
        phi=phi0, theta=stab0.theta + stab0b.theta)
    composed = _gauge_transform(b0, w12, omega0).a
    del b0, w12
    return [("curvature_equivariance_shared", "pointwise", equivariance),
            ("gauge_action_composition", "pointwise",
             _rel(_gauge_transform(b0w, stab0b, omega0).a - composed, composed)),
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
    and the symmetric-space reference curvature, which has no perp part."""
    phi, pair = b.phi, b.pair
    oo = comm_wedge(omega, pair)
    refcurv = l2_norm(fl.coisotropic_part(oo, phi)) / max(l2_norm(oo), 1e-30)
    del oo
    curvature = LatticeField(b.grid, 2, _coset_curvature(b, omega))
    db = d(b.a)
    # db_par + [b ^ b] - (omega ^ omega)_par, the sum written db_par - (-[b ^ b])
    projected = _residual(curvature, fl.isotropic_part(db, phi).slot,
                          lambda slot: -comm_slot(b.a, pair, slot),
                          lambda slot: _oo_par(omega, phi, slot))
    vs_projected = _rel(projected, curvature)
    del curvature, projected
    db_perp = fl.coisotropic_part(db, phi)
    del db
    bracket = wedge(omega, b.a, pair.bracket)
    return [("refcurv_no_projection", "pointwise", refcurv),
            ("curvature_vs_projected_form", "differential", vs_projected),
            ("isotropic_derivative_perp", "differential", _rel(db_perp - bracket, bracket))]


def _flat_par_rows(phi, apar, aperp, dphi_perp, omega):
    """a_par of a flat potential: relation (i) for its curvature, with and
    without the isotropy projections.  dPhi ^ a_par is not formed yet."""
    aa = comm_wedge(aperp, phi.pair)
    aa_norm = l2_norm(aa)
    fourth = l2_norm(fl.coisotropic_part(aa, phi)) / max(aa_norm, 1e-30)
    curvature = LatticeField(phi.grid, 2, _coset_curvature(fl.PotentialField(apar, phi), omega))
    flat_i_symmetric = _rel(_residual(curvature, dphi_perp.slot, aa.slot,
                                      lambda slot: comm_slot(omega, phi.pair, slot)), curvature)
    flat_i = _rel(_residual(curvature, dphi_perp.slot,
                            lambda slot: alg.isotropic_part(phi.pair, phi.values, aa.slot(slot)),
                            lambda slot: _oo_par(omega, phi, slot)), curvature)
    return [("symmetric_fourth_term", "pointwise", fourth),
            ("flat_curvature_i", "differential", flat_i),
            ("flat_curvature_i_symmetric", "differential", flat_i_symmetric)]


def _residual(lhs, first, *rest):
    """lhs - (first - rest[0] - rest[1] - ...), evaluated as written, slot by slot
    in one new buffer; each term is a function that gives one slot of it, such
    as a form's slot method."""
    out = empty_component_major(lhs.data.shape)
    for slot in range(lhs.data.shape[3]):
        dest = np.subtract(first(slot), rest[0](slot), out=out[:, :, :, slot])
        for term in rest[1:]:
            dest -= term(slot)
        np.subtract(lhs.slot(slot), dest, out=dest)
    return LatticeField(lhs.grid, lhs.degree, out)


def _pure_gauge_rows(u, phi, omega):
    """The pure-gauge potential a = u^-1 du against phi: its flatness, its match
    with the map u.phi and its dual energy, then the flat-potential relations
    of its split: dPhi ^ a_par against d a_par, relation (i), relation (iii)
    for d[a_perp ^ a_perp], dPhi ^ a_perp against d a_perp and relation (ii)
    for d a_perp.  Each form is freed after its last use."""
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
    dphi_perp = projector_derivative_wedge(phi, aperp)
    relation_i = _flat_par_rows(phi, apar, aperp, dphi_perp, omega)
    dphi_par = projector_derivative_wedge(phi, apar)
    d_apar = d(apar)
    wedge_par = _rel(dphi_par - fl.coisotropic_part(d_apar, phi), d_apar)
    del d_apar
    bracket = phi.pair.bracket
    flat_ii = -dphi_par - dphi_perp - wedge(apar, aperp, bracket)
    del apar
    aa = comm_wedge(aperp, phi.pair)
    dphi_aa = projector_derivative_wedge(phi, aa)
    d_aa = d(aa)
    quartic = _rel(d_aa - (-wedge(dphi_par, aperp, bracket) + dphi_aa), d_aa)
    del dphi_par, dphi_aa, d_aa
    aa_perp = fl.coisotropic_part(aa, phi)
    del aa
    d_aperp = d(aperp)
    del aperp
    return [("dphi_wedge_par", "differential", wedge_par)] + relation_i + [
        ("flat_quartic_iii_symmetric", "differential", quartic),
        ("dphi_wedge_perp", "differential",
         _rel(dphi_perp + fl.isotropic_part(d_aperp, phi), d_aperp)),
        ("flat_derivative_ii", "differential",
         _rel(_residual(d_aperp, flat_ii.slot, aa_perp.slot), d_aperp)),
        ("flat_derivative_ii_symmetric", "differential", _rel(d_aperp - flat_ii, d_aperp)),
        ("pure_gauge_flatness", "differential", flatness), ("mapcon", "differential", mapcon),
        ("dual_energy", "differential", dual)]


def _grid_rows(grid, seed):
    """(name, kind, residual) of every identity on one grid, family by family.
    Each shared form is built just before its first use and dropped after its
    last: the Dafi family runs before the isotropic part b of a exists, and
    (omega ^ omega) and its isotropic part are formed in each family that
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
    del b
    pure_gauge = _pure_gauge_rows(u, phi, omega)
    del u, omega
    return _gauge_action_rows(grid, rng, theta) + pure_gauge + dafi + curvature


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
    if not phi.is_cp1:
        raise ValueError("gauge smoothing is implemented for the CP1 pair")
    _require_isotropic(b.a, phi)
    beta = LatticeField.from_slots(b.grid, 1, [dot(b.a.slot(mu), phi.values)[..., None]
                                               for mu in range(3)])
    return make_stabilizer(phi, -coulomb_solve(beta).slot(0)[..., 0])
