import numpy as np
import pytest

import oracles
from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion.energy import comm_wedge
from hopfion.errors import RoughFieldError
from hopfion.lattice import Grid, LatticeField, l2_norm


class TestPureGauge:
    def test_identity_lift(self, grid16):
        u = fl.LiftField(grid16, alg.su2_u1(), alg.su2_u1().identity_element((16,) * 3))
        a = fl.pure_gauge_potential(u)
        assert np.max(np.abs(a.a.data)) == 0.0

    def test_one_parameter_subgroup_exact(self, grid16):
        # u = exp(k 2 pi x / L) has a = (2 pi / L) k dx^1 at every site
        x1 = grid16.site_coords()[..., 0]
        zero = np.zeros_like(x1)
        u = fl.LiftField(grid16, alg.su2_u1(),
                         alg.qexp(np.stack([zero, zero, 2 * np.pi * x1 / grid16.length], axis=-1)))
        a = fl.pure_gauge_potential(u)
        expected = np.array([0.0, 0.0, 2 * np.pi / grid16.length])
        assert np.max(np.abs(a.a.slot(0) - expected)) < 1e-13
        assert np.max(np.abs(a.a.slot(1))) < 1e-13
        assert np.max(np.abs(a.a.slot(2))) < 1e-13

    def test_rough_field_rejected(self, grid16):
        angles = np.zeros((16, 16, 16, 3))
        angles[::2, :, :, 0] = np.pi / 2      # alternating +-i: links are -1,
        angles[1::2, :, :, 0] = -np.pi / 2    # exactly on the log cut
        u = fl.LiftField(grid16, alg.su2_u1(), alg.qexp(angles))
        with pytest.raises(RoughFieldError):
            fl.pure_gauge_potential(u)

    def test_plaquette_triviality(self, rng):
        u = smooth_lift(Grid(20), rng, amplitude=0.7)
        assert fl.plaquette_defect(u) < 1e-12

    def test_flatness_refines(self, rng):
        residuals = []
        for n in (16, 32):
            grid = Grid(n)
            u = smooth_lift(grid, np.random.default_rng(11), amplitude=0.5)
            a = fl.pure_gauge_potential(u)
            from hopfion.energy import comm_wedge
            from hopfion.lattice import d

            F = d(a.a) + comm_wedge(a.a, u.pair)
            residuals.append(l2_norm(F) / l2_norm(d(a.a)))
        assert residuals[1] < 0.6 * residuals[0]


class TestAction:
    def test_identity(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng)
        e = fl.LiftField(grid16, phi.pair, phi.pair.identity_element((16,) * 3))
        assert np.max(np.abs(fl.act(e, phi).values - phi.values)) < 1e-15

    def test_composition(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng)
        u = smooth_lift(grid16, rng)
        v = smooth_lift(grid16, rng)
        lhs = fl.act(u, fl.act(v, phi))
        uv = fl.LiftField(grid16, phi.pair, alg.qmul(u.values, v.values))
        rhs = fl.act(uv, phi)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_stabilizer_rotation_fixes_pole(self, grid16):
        phi = fl.constant_map(grid16)
        theta = 0.37
        u_vals = np.broadcast_to(
            np.array([np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0]), (16, 16, 16, 4))
        u = fl.LiftField(grid16, phi.pair, u_vals.copy())
        assert np.max(np.abs(fl.act(u, phi).values - phi.values)) < 1e-15


class TestPullback:
    def test_constant_map(self, grid16):
        omega = fl.pullback_coisotropy(fl.constant_map(grid16))
        assert np.max(np.abs(omega.data)) == 0.0

    def test_isometry_against_projected_tangent(self, grid16, rng):
        # |psi^* omega| is the quotient-metric length: half the Euclidean
        # length of the projected centered difference.
        psi = smooth_cp1_map(grid16, rng, amplitude=0.5)
        omega = fl.pullback_coisotropy(psi)
        for mu, v in enumerate(fl.map_tangents(psi)):
            vt = v - np.sum(v * psi.values, axis=-1, keepdims=True) * psi.values
            lhs = np.linalg.norm(omega.slot(mu), axis=-1)
            rhs = 0.5 * np.linalg.norm(vt, axis=-1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_cp1_matches_cross_formula(self, grid12, rng):
        psi = smooth_cp1_map(grid12, rng, amplitude=0.5)
        got = fl.pullback_coisotropy(psi).data
        assert np.array_equal(got, oracles.pullback_coisotropy_cp1(psi).data)

    def test_great_circle_closed_form(self):
        # discrete slot norm is sin(2 pi h / L) / (2 h), exactly
        grid = Grid(24)
        psi, _ = fl.make_ansatz("great_circle", grid)
        omega = fl.pullback_coisotropy(psi)
        expected = np.sin(2 * np.pi * grid.h / grid.length) / (2 * grid.h)
        norms = np.linalg.norm(omega.slot(0), axis=-1)
        assert np.max(np.abs(norms - expected)) < 1e-12
        assert np.max(np.abs(omega.slot(1))) < 1e-13
        assert np.max(np.abs(omega.slot(2))) < 1e-13

    def test_tangency_residual_diagnostic(self, grid16, rng):
        assert oracles.tangency_residual(fl.constant_map(grid16)) == 0.0
        smooth = smooth_cp1_map(grid16, rng, amplitude=0.3)
        rough = smooth_cp1_map(grid16, rng, amplitude=1.5)
        assert oracles.tangency_residual(smooth) < oracles.tangency_residual(rough)

    def test_group_target_norm(self, rng):
        # For the group pair the pullback is dpsi psi^-1 on projected tangents
        grid = Grid(16)
        u = smooth_lift(grid, rng, amplitude=0.4)
        psi = fl.MapField(grid, alg.su2_group(), u.values)
        omega = fl.pullback_coisotropy(psi)
        from hopfion.lattice import centered_diff

        for mu in range(3):
            v = centered_diff(psi.values, mu, grid.h)
            vt = v - np.sum(v * psi.values, axis=-1, keepdims=True) * psi.values
            assert np.allclose(np.linalg.norm(omega.slot(mu), axis=-1),
                               np.linalg.norm(vt, axis=-1), atol=1e-12)


class TestSplit:
    def test_reconstruction_orthogonality(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng, amplitude=0.3)
        u = smooth_lift(grid16, rng, amplitude=0.5)
        a = fl.pure_gauge_potential(u, phi)
        par, perp = a.split()
        assert np.max(np.abs(par.data + perp.data - a.a.data)) < 1e-12
        assert np.max(np.abs(np.sum(par.data * perp.data, axis=-1))) < 1e-12

    def test_group_pair_has_no_isotropic_part(self, grid16, rng):
        u = smooth_lift(grid16, rng)
        psi = fl.MapField(grid16, alg.su2_group(), u.values)
        # with the map, and without one: h is trivial, so neither needs it
        for a in (fl.PotentialField(fl.pure_gauge_potential(u).a, psi),
                  fl.pure_gauge_potential(fl.LiftField(grid16, alg.su2_group(), u.values))):
            par, perp = a.split()
            assert np.max(np.abs(par.data)) == 0.0
            assert np.max(np.abs(perp.data - a.a.data)) == 0.0


class TestMergedSplit:
    def test_cp1_split_matches_old_formulas(self, grid12, rng):
        phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        a = LatticeField(grid12, 1, rng.standard_normal((12,) * 3 + (3, 3)))
        par, perp = fl.split_form(a, phi)
        ref_par, ref_perp = oracles.cp1_split_potential(a, phi)
        assert np.array_equal(par.data, ref_par.data)
        assert np.array_equal(perp.data, ref_perp.data)
        W = comm_wedge(fl.pullback_coisotropy(phi), phi.pair) + LatticeField(
            grid12, 2, rng.standard_normal((12,) * 3 + (3, 3)))
        par, perp = fl.split_form(W, phi)
        ref_par = oracles.cp1_isotropy_project_2form(W, phi)
        assert np.array_equal(par.data, ref_par.data)
        assert np.array_equal(perp.data, (W - ref_par).data)  # the old project_perp

    def test_generic_split_matches_slotwise_ad(self, rng):
        pair = alg.su3_t2()
        grid = Grid(6)
        gen = 0.3 * rng.standard_normal((6,) * 3 + (8,))
        phi = fl.MapField(grid, pair, oracles.matrix_exp(pair.matrix_of(gen)), renormalize=False)
        for degree, slots in ((1, 3), (2, 3), (3, 1)):
            form = LatticeField(grid, degree, rng.standard_normal((6,) * 3 + (slots, 8)))
            par, perp = fl.split_form(form, phi)
            ref_par, ref_perp = oracles.slotwise_ad_split(form, phi)
            assert np.max(np.abs(par.data - ref_par.data)) <= 1e-12
            assert np.max(np.abs(perp.data - ref_perp.data)) <= 1e-12
            assert np.max(np.abs(par.data + perp.data - form.data)) <= 1e-12

    def test_needs_reference_map(self, grid12):
        # a potential without a map splits only when h is trivial
        a = fl.PotentialField(LatticeField.zeros(grid12, 1, 3), pair=alg.su2_u1())
        with pytest.raises(ValueError):
            a.split()

    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_map_or_pair(self, grid12, given):
        # the pair comes from the map; one is given without the other
        a = LatticeField.zeros(grid12, 1, 3)
        args = (fl.constant_map(grid12), alg.su2_u1()) if given == "both" else ()
        with pytest.raises(ValueError):
            fl.PotentialField(a, *args)


class TestFieldInvariants:
    @pytest.mark.parametrize("scale", [3.0, 1.0 + 1e-6, np.nan, np.inf])
    def test_map_not_unit_rejected(self, grid12, rng, scale):
        vals = smooth_cp1_map(grid12, rng).values.copy()
        vals[1, 2, 3] *= scale
        with pytest.raises(ValueError):
            fl.MapField(grid12, alg.su2_u1(), vals, renormalize=False)

    def test_lift_not_unit_rejected(self, grid12, rng):
        vals = smooth_lift(grid12, rng).values.copy()
        vals[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            fl.LiftField(grid12, alg.su2_u1(), vals, renormalize=False)

    @pytest.mark.parametrize("pair, ncomp", [(alg.su2_u1(), 4), (alg.su2_group(), 3)])
    def test_component_count_must_fit_pair(self, grid12, pair, ncomp):
        vals = np.zeros((12,) * 3 + (ncomp,))
        vals[..., 0] = 1.0
        for renormalize in (True, False):
            with pytest.raises(ValueError):
                fl.MapField(grid12, pair, vals, renormalize=renormalize)


class TestAnsatz:
    def test_constant(self, grid16):
        psi, u = fl.make_ansatz("constant", grid16)
        assert np.allclose(psi.values, [1.0, 0.0, 0.0])
        from hopfion.energy import energy_map

        assert energy_map(psi).total == 0.0

    def test_hopf_zero_charge_is_constant(self, grid16):
        psi, u = fl.make_ansatz("hopf", grid16, 0)
        assert np.allclose(psi.values, [1.0, 0.0, 0.0])

    def test_hopf_is_conjugated_lift(self, grid16):
        psi, u = fl.make_ansatz("hopf", grid16, 1)
        again = fl.act(u, fl.constant_map(grid16))
        assert np.max(np.abs(again.values - psi.values)) < 1e-12

    def test_lift_identity_outside_ball(self, grid16):
        _, u = fl.make_ansatz("hopf", grid16, 1)
        x = grid16.site_coords() - grid16.length / 2
        outside = np.linalg.norm(x, axis=-1) > grid16.length / 3 + 1e-9
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(u.values[outside] - ident)) < 1e-12

    def test_great_circle_matches_lift(self, grid16):
        psi, u = fl.make_ansatz("great_circle", grid16)
        assert np.max(np.abs(fl.act(u, fl.constant_map(grid16)).values - psi.values)) < 1e-12

    def test_linking_charge_of_small_ansatz(self):
        from hopfion.topology import linking_charge

        psi, _ = fl.make_ansatz("hopf", Grid(24), 1)
        assert linking_charge(psi) == 1

    def test_unknown_kind(self, grid16):
        with pytest.raises(ValueError):
            fl.make_ansatz("vortex", grid16, 1)


def test_mapcon_identity_refines(rng):
    # a_u-perp = Ad(u^-1)(u phi)^*omega - phi^*omega, O(h) discretely
    residuals = []
    for n in (16, 32):
        grid = Grid(n)
        local = np.random.default_rng(3)
        phi = smooth_cp1_map(grid, local, amplitude=0.25)
        u = smooth_lift(grid, local, amplitude=0.4)
        a = fl.pure_gauge_potential(u, phi)
        _, aperp = a.split()
        psi = fl.act(u, phi)
        omega_psi = fl.pullback_coisotropy(psi)
        omega_phi = fl.pullback_coisotropy(phi)
        from hopfion.lattice import LatticeField

        ad = LatticeField.from_slots(
            grid, 1,
            [alg.qrotate(alg.qconj(u.values), omega_psi.slot(m)) for m in range(3)])
        residuals.append(l2_norm(aperp - (ad - omega_phi)) / l2_norm(aperp))
    assert residuals[1] < 0.65 * residuals[0]
