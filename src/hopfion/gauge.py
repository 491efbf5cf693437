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

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import fields as fl
from .energy import comm_wedge, energy_map, energy_potential
from .errors import ConfigError
from .lattice import Grid, LatticeField, cross, d, dot, forward_diff, l2_norm, wedge
from .minimize import descend

ISOTROPY_TOL = 1e-10


@dataclass
class StabilizerField:
    """A section of the isotropy bundle: w(x) stabilizes phi(x)."""

    w: fl.LiftField
    phi: fl.MapField
    theta: np.ndarray = None
    objective_history: list = field(default=None, repr=False)

    def stabilization_defect(self):
        moved = fl.act(self.w, self.phi)
        return float(np.max(np.linalg.norm(moved.values - self.phi.values, axis=-1)))


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
    slots = []
    for mu in range(3):
        dtheta = forward_diff(stab.theta, mu, h)
        slots.append(dtheta[..., None] * stab.phi.values
                     + ad_omega.slot(mu) - omega.slot(mu))
    return LatticeField.from_slots(grid, 1, slots)


def _require_isotropic(b, phi):
    par = fl.split_form(b, phi)[0]
    defect = float(np.max(np.abs(b.data - par.data)))
    scale = max(float(np.max(np.abs(b.data))), 1.0)
    if defect > ISOTROPY_TOL * scale:
        raise ValueError(f"potential is not isotropy-valued (defect {defect:.3e})")


def gauge_transform_potential(b, stab, dw_scheme="log"):
    """b^w = Ad(w^-1) b + w^-1 dw - (Ad(w^-1) - I) phi^*omega, phi = b.phi.

    b must be isotropy-valued against phi, and stab built on phi.  The
    result is isotropy-valued at roundoff for constant phi (or the 'exact'
    scheme) and up to O(h) otherwise.
    """
    phi = b.phi
    if stab.phi is not phi and (phi is None or stab.phi.grid != phi.grid
                                or not np.array_equal(stab.phi.values, phi.values)):
        raise ValueError("stabilizer and potential have different reference maps")
    _require_isotropic(b.a, phi)
    omega = fl.pullback_coisotropy(phi)
    dw = stabilizer_log_derivative(stab, scheme=dw_scheme)
    adb = ad_inverse_apply(stab.w, b.a)
    ad_omega = ad_inverse_apply(stab.w, omega)
    out = adb + dw - (ad_omega - omega)
    return fl.PotentialField(out, phi)


def coset_curvature(b):
    """F(b) = db + b ^ b - [b, phi^*omega] - (phi^*omega ^ phi^*omega)_par, phi = b.phi."""
    phi, a = b.phi, b.a
    if phi is None:
        raise ValueError("coset curvature needs the reference map")
    pair = phi.pair
    omega = fl.pullback_coisotropy(phi)
    par_oo = fl.split_form(comm_wedge(omega, pair), phi)[0]
    return d(a) + comm_wedge(a, pair) - wedge(a, omega, pair.bracket) - par_oo


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
        return {
            "name": self.name,
            "kind": self.kind,
            "residuals": {str(k): v for k, v in self.residuals.items()},
            "fitted_order": self.fitted_order,
            "budget": self.budget,
            "passed": self.passed,
        }


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
    x = grid.site_coords() * (2.0 * np.pi / grid.length)
    out = np.zeros((grid.n,) * 3)
    for _ in range(3):
        k = rng.integers(-1, 2, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0) * amplitude
        out += amp * np.sin(x @ k + phase)
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
    a_data = np.stack([smooth_algebra_field(grid, rng, 0.4) for _ in range(3)], axis=3)
    a = LatticeField(grid, 1, a_data)
    return phi, u, theta, a


def identity_suite(sizes=(16, 32, 64), seed=0):
    """Evaluate the gauge-calculus identities over two or more distinct grid sizes."""
    sizes = sorted(set(sizes))
    if len(sizes) < 2 or sizes[0] < 4:
        # a one-point order fit means nothing; Grid needs n >= 4
        raise ConfigError(f"sizes {sizes} must hold two or more distinct grid sizes >= 4")
    grids = [Grid(n) for n in sizes]
    res = {}

    def record(name, kind, n, value):
        res.setdefault(name, {"kind": kind, "vals": {}})["vals"][n] = value

    # Single-use intermediates are inlined or reuse the names lhs and rhs: at
    # n = 64 a form takes 19 MB, and a named one lives to the end of its grid.
    for grid in grids:
        rng = np.random.default_rng(seed)  # same modes on every grid
        phi, u, theta, a_smooth = smooth_inputs(grid, rng)
        pair = phi.pair
        omega = fl.pullback_coisotropy(phi)
        stab = make_stabilizer(phi, theta)
        phi0 = fl.constant_map(grid)
        stab0 = make_stabilizer(phi0, theta)

        apot = fl.pure_gauge_potential(u, phi)
        a = apot.a
        apar, aperp = fl.split_form(a, phi)

        # ---- pointwise-algebraic class ------------------------------
        # Dafi over shared discrete inputs, non-constant phi, exact dw
        a_w = ad_inverse_apply(stab.w, a_smooth) + stabilizer_log_derivative(stab, scheme="exact")
        b, asperp = fl.split_form(a_smooth, phi)
        lhs = fl.split_form(a_w, phi)[1] + omega
        rhs = ad_inverse_apply(stab.w, asperp + omega)
        record("dafi_shared_inputs", "pointwise", grid.n, _rel(lhs - rhs, rhs))

        # energy density invariance |D(a^w)|^2 = |D a|^2, same inputs
        d_lhs = lhs.norm2_density()
        d_rhs = (asperp + omega).norm2_density()
        scale = float(np.max(np.abs(d_rhs))) or 1.0
        record("dafi_energy_density", "pointwise", grid.n,
               float(np.max(np.abs(d_lhs - d_rhs))) / scale)

        # curvature equivariance with shared inputs (constant phi)
        b0 = LatticeField.from_slots(
            grid, 1, [smooth_scalar(grid, rng)[..., None] * phi0.values for _ in range(3)])
        lhs = coset_curvature(gauge_transform_potential(fl.PotentialField(b0, phi0), stab0))
        rhs = ad_inverse_apply(stab0.w, coset_curvature(fl.PotentialField(b0, phi0)))
        record("curvature_equivariance_shared", "pointwise", grid.n, _rel(lhs - rhs, rhs))

        # symmetric-space cancellations
        aa = comm_wedge(aperp, pair)
        record("symmetric_fourth_term", "pointwise", grid.n,
               l2_norm(fl.split_form(aa, phi)[1]) / max(l2_norm(aa), 1e-30))
        oo = comm_wedge(omega, pair)
        record("refcurv_no_projection", "pointwise", grid.n,
               l2_norm(fl.split_form(oo, phi)[1]) / max(l2_norm(oo), 1e-30))

        # ---- differential class -------------------------------------
        # curvature formula vs its projected form (Theorem statement vs corollary)
        lhs = coset_curvature(fl.PotentialField(b, phi))
        db_par, db_perp = fl.split_form(d(b), phi)
        rhs = db_par + comm_wedge(b, pair) - fl.split_form(oo, phi)[0]
        record("curvature_vs_projected_form", "differential", grid.n, _rel(lhs - rhs, lhs))

        # (db)_perp = [omega, b]
        rhs = wedge(omega, b, pair.bracket)
        record("isotropic_derivative_perp", "differential", grid.n, _rel(db_perp - rhs, rhs))

        # projector-derivative relations
        dphi_par = projector_derivative_wedge(phi, apar)
        dphi_perp = projector_derivative_wedge(phi, aperp)
        record("dphi_wedge_par", "differential", grid.n,
               _rel(dphi_par - fl.split_form(d(apar), phi)[1], d(apar)))
        record("dphi_wedge_perp", "differential", grid.n,
               _rel(dphi_perp + fl.split_form(d(aperp), phi)[0], d(aperp)))

        # flat-potential relations (pure-gauge a, smooth phi)
        lhs = coset_curvature(fl.PotentialField(apar, phi))
        rhs = dphi_perp - fl.split_form(aa, phi)[0] - fl.split_form(oo, phi)[0]
        record("flat_curvature_i", "differential", grid.n, _rel(lhs - rhs, lhs))

        rhs = dphi_perp - aa - oo
        record("flat_curvature_i_symmetric", "differential", grid.n, _rel(lhs - rhs, lhs))

        lhs = d(aperp)
        rhs = -dphi_par - dphi_perp - wedge(apar, aperp, pair.bracket) - fl.split_form(aa, phi)[1]
        record("flat_derivative_ii", "differential", grid.n, _rel(lhs - rhs, lhs))

        rhs = -dphi_par - dphi_perp - wedge(apar, aperp, pair.bracket)
        record("flat_derivative_ii_symmetric", "differential", grid.n, _rel(lhs - rhs, lhs))

        lhs = d(aa)
        rhs = -wedge(dphi_par, aperp, pair.bracket) + projector_derivative_wedge(phi, aa)
        record("flat_quartic_iii_symmetric", "differential", grid.n, _rel(lhs - rhs, lhs))

        # pure-gauge flatness and the map/potential correspondences
        record("pure_gauge_flatness", "differential", grid.n,
               _rel(d(a) + comm_wedge(a, pair), d(a)))

        psi = fl.act(u, phi)
        rhs = ad_inverse_apply(u, fl.pullback_coisotropy(psi)) - omega
        record("mapcon", "differential", grid.n, _rel(aperp - rhs, aperp))

        # stabilizer derivative: log route vs calculus route
        lhs = stabilizer_log_derivative(stab, scheme="log")
        record("stabilizer_derivative_e062", "differential", grid.n,
               _rel(lhs - stabilizer_log_derivative(stab, scheme="exact"), lhs))

        # gauge action composition: exact for same-axis stabilizer products
        theta2 = smooth_scalar(grid, rng, 0.6)
        stab0b = make_stabilizer(phi0, theta2)
        w12 = StabilizerField(
            w=fl.LiftField(grid, pair, alg.qmul(stab0.w.values, stab0b.w.values)),
            phi=phi0, theta=stab0.theta + stab0b.theta)
        lhs = gauge_transform_potential(
            gauge_transform_potential(fl.PotentialField(b0, phi0), stab0), stab0b)
        rhs = gauge_transform_potential(fl.PotentialField(b0, phi0), w12)
        record("gauge_action_composition", "pointwise", grid.n, _rel(lhs.a - rhs.a, rhs.a))

        # dual formulation of the energy
        e_map = energy_map(psi).total
        e_pot = energy_potential(apot).total
        record("dual_energy", "differential", grid.n, abs(e_map - e_pot) / max(abs(e_map), 1e-30))

    out = []
    for name, entry in res.items():
        vals = entry["vals"]
        kind = entry["kind"]
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
# heuristic gauge smoothing
# ---------------------------------------------------------------------------

def gauge_smooth(b, iterations=200, step=0.2):
    """Descend theta -> |b^{w(theta)}|_{L2}^2, w about b.phi, to the best stabilizer.

    minimize.descend on the Euclidean theta (retraction theta + v, no
    projection), with step as its initial inverse-Hessian scale and
    gradient step; iterations bounds the accepted steps.  The objective
    history (start and accepted steps) decreases strictly by the Armijo
    test.  This is a heuristic smoothing pass, not a compactness statement.
    """
    phi = b.phi
    if phi is None or not phi.is_cp1:
        raise ValueError("gauge smoothing is implemented for the CP1 pair")
    h = b.grid.h
    r = b.a + fl.pullback_coisotropy(phi)
    last = [None, None]  # [theta, (stab, b^w)] of the latest point

    def transformed(theta):
        # descend evaluates the objective and then the gradient at each
        # accepted point, on the same array: transform it once
        if last[0] is not theta:
            last[:] = None, None  # free the previous point's b^w first
            stab = make_stabilizer(phi, theta)
            last[:] = theta, (stab, gauge_transform_potential(b, stab, dw_scheme="exact").a)
        return last[1]

    def objective(theta):
        bw = transformed(theta)[1]
        return (float(np.sum(bw.data * bw.data)) * h ** 3,)

    def gradient(theta):
        # d/dtheta of Ad(w^-1)r is -2 phi x (Ad(w^-1) r); the dtheta.phi term
        # contributes through the adjoint of the forward difference.
        stab, bw = transformed(theta)
        adr = ad_inverse_apply(stab.w, r)
        grad = np.zeros_like(theta)
        for mu in range(3):
            cross_term = -2.0 * cross(phi.values, adr.slot(mu))
            grad += 2.0 * dot(bw.slot(mu), cross_term)
            proj = dot(bw.slot(mu), phi.values)
            grad += 2.0 * (np.roll(proj, 1, axis=mu) - proj) / h
        return grad * h ** 3

    history = []
    theta, _ = descend(objective, gradient, np.zeros((b.grid.n,) * 3),
                       retract=lambda theta, v: theta + v, project=lambda theta, v: v,
                       step_init=step, max_iters=iterations,
                       on_step=lambda it, theta, terms, grad, st: history.append(terms[0]))
    stab = make_stabilizer(phi, theta)
    stab.objective_history = history
    return stab
