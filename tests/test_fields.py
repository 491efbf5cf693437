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

    @pytest.mark.parametrize("pair", [alg.su2_u1(), alg.su2_group(), alg.su3_t2()],
                             ids=lambda pair: pair.name)
    def test_vacuum_is_identity_coset(self, grid12, rng, pair):
        # CP1 i for su2_u1 (the default), the identity representative
        # otherwise; a pure gauge is taken against it
        phi = fl.constant_map(grid12, pair)
        vacuum = [1.0, 0.0, 0.0] if pair is alg.su2_u1() else pair.identity_element()
        assert phi.pair is pair
        assert np.array_equal(phi.values, np.broadcast_to(vacuum, phi.values.shape))
        if pair is alg.su2_u1():
            assert np.array_equal(fl.constant_map(grid12).values, phi.values)
        quaternion = pair.group_kind == "quaternion"
        values = smooth_lift(grid12, rng).values if quaternion else pair.identity_element((12,) * 3)
        u = fl.LiftField(grid12, pair, values)
        assert np.array_equal(fl.pure_gauge_potential(u).phi.values, phi.values)

    @pytest.mark.parametrize("pair, n", [(alg.su2_u1(), 24), (alg.su3_t2(), 6)],
                             ids=["su2_u1", "su3_t2"])
    def test_slab_links_match_whole_grid_formula(self, rng, pair, n):
        # the links' logs are formed slab by slab along x: n = 24 spans two
        # slabs, the second wrapping to x = 0; each slot alone and the form
        grid = Grid(n)
        if pair.group_kind == "quaternion":
            u = smooth_lift(grid, rng, amplitude=0.7)
        else:
            u = fl.LiftField(grid, pair, oracles.matrix_exp(
                pair.matrix_of(0.3 * rng.standard_normal((n,) * 3 + (8,)))))
        want = oracles.maurer_cartan_form(u).data
        assert np.array_equal(fl.maurer_cartan_form(u).data, want)
        for mu in range(3):
            assert np.array_equal(fl.maurer_cartan_slot(u, mu), want[:, :, :, mu])

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

    def test_group_target_left_product(self, grid16, rng):
        # on a group target the lift acts by the left product u phi
        phi = fl.MapField(grid16, alg.su2_group(), smooth_lift(grid16, rng).values)
        u = smooth_lift(grid16, rng)
        moved = fl.act(u, phi)
        assert moved.pair is phi.pair
        assert np.max(np.abs(moved.values - alg.qmul(u.values, phi.values))) < 1e-15
        assert np.max(np.abs(moved.values - alg.qmul(phi.values, u.values))) > 1e-3


    def test_matrix_target_left_product(self, rng):
        # on a matrix pair the lift acts by the matrix product u phi
        pair, grid = alg.su3_t2(), Grid(6)
        u, phi = (oracles.matrix_exp(pair.matrix_of(0.4 * rng.standard_normal((6,) * 3 + (8,))))
                  for _ in range(2))
        moved = fl.act(fl.LiftField(grid, pair, u), fl.MapField(grid, pair, phi, renormalize=False))
        assert moved.pair is pair
        assert np.array_equal(moved.values, u @ phi)

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
        # with the map, and on the vacuum: h is trivial, so neither split reads it
        for a in (fl.PotentialField(fl.pure_gauge_potential(u).a, psi),
                  fl.pure_gauge_potential(fl.LiftField(grid16, alg.su2_group(), u.values))):
            par, perp = a.split()
            assert np.max(np.abs(par.data)) == 0.0
            assert np.max(np.abs(perp.data - a.a.data)) == 0.0


class TestOnePartSplit:
    @pytest.mark.parametrize("pair", ["su2_u1", "su2_group", "su3_t2"])
    def test_coisotropic_part_is_form_less_isotropic_part(self, rng, pair):
        # the two parts, bit for bit, and plus added into the one buffer: on a
        # smooth CP1 map, with a trivial isotropy group and on a matrix pair
        grid = Grid(6)
        if pair == "su2_u1":
            phi = smooth_cp1_map(grid, rng, amplitude=0.4)
        elif pair == "su2_group":
            phi = fl.MapField(grid, alg.su2_group(), smooth_lift(grid, rng).values)
        else:
            gen = 0.3 * rng.standard_normal((6,) * 3 + (8,))
            phi = fl.MapField(grid, alg.su3_t2(), oracles.matrix_exp(alg.su3_t2().matrix_of(gen)),
                              renormalize=False)
        for degree, slots in ((1, 3), (2, 3), (3, 1)):
            data = rng.standard_normal((6,) * 3 + (slots, phi.pair.dim_g))
            form = LatticeField(grid, degree, data)
            plus = LatticeField(grid, degree, rng.standard_normal(data.shape))
            par = fl.isotropic_part(form, phi)
            perp = fl.coisotropic_part(form, phi)
            assert np.array_equal(perp.data, form.data - par.data)
            assert np.array_equal(fl.coisotropic_part(form, phi, plus=plus).data, (perp + plus).data)
            if pair == "su2_group":
                assert np.max(np.abs(par.data)) == 0.0
                assert np.array_equal(perp.data, form.data)


class TestMergedSplit:
    def test_cp1_split_matches_old_formulas(self, grid12, rng):
        phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        a = LatticeField(grid12, 1, rng.standard_normal((12,) * 3 + (3, 3)))
        par, perp = fl.isotropic_part(a, phi), fl.coisotropic_part(a, phi)
        ref_par, ref_perp = oracles.cp1_split_potential(a, phi)
        assert np.array_equal(par.data, ref_par.data)
        assert np.array_equal(perp.data, ref_perp.data)
        W = comm_wedge(fl.pullback_coisotropy(phi), phi.pair) + LatticeField(
            grid12, 2, rng.standard_normal((12,) * 3 + (3, 3)))
        par, perp = fl.isotropic_part(W, phi), fl.coisotropic_part(W, phi)
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
            par, perp = fl.isotropic_part(form, phi), fl.coisotropic_part(form, phi)
            ref_par, ref_perp = oracles.slotwise_ad_split(form, phi)
            assert np.max(np.abs(par.data - ref_par.data)) <= 1e-12
            assert np.max(np.abs(perp.data - ref_perp.data)) <= 1e-12
            assert np.max(np.abs(par.data + perp.data - form.data)) <= 1e-12

    @pytest.mark.parametrize("with_map", [True, False])
    def test_value_dimension_must_be_dim_g(self, grid12, with_map):
        # an 8-component form is no su2 potential, on the su2_u1 or the su2_group vacuum
        a = LatticeField.zeros(grid12, 1, 8)
        with pytest.raises(ValueError, match="components"):
            if with_map:
                fl.PotentialField(a, fl.constant_map(grid12))
            else:
                fl.PotentialField(a, fl.constant_map(grid12, alg.su2_group()))

    @pytest.mark.parametrize("attr", ["a", "phi", "pair", "extra"])
    def test_immutable(self, grid12, attr):
        # the pair is checked against the map only where the potential is built
        p = fl.PotentialField(LatticeField.zeros(grid12, 1, 3), fl.constant_map(grid12))
        with pytest.raises(AttributeError):
            setattr(p, attr, fl.constant_map(Grid(6)))
        assert p.phi.grid == grid12


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

    @pytest.mark.parametrize("field, pair, shape, fill", [
        (fl.MapField, alg.su2_u1(), (12, 12, 12, 4), 0.0),
        (fl.MapField, alg.su2_group(), (12, 12, 12, 3), 0.0),
        (fl.LiftField, alg.su2_u1(), (12, 12, 12, 3), 0.0),
        (fl.LiftField, alg.su2_u1(), (13, 12, 12, 4), 0.0),
        (fl.MapField, alg.su3_t2(), (12, 12, 12, 2, 2), 0.0),
        (fl.LiftField, alg.su3_t2(), (12, 12, 12, 2, 2), 0.0),
        (fl.MapField, alg.su3_t2(), (12, 12, 12, 3, 3), np.nan),
        (fl.LiftField, alg.su3_t2(), (12, 12, 12, 3, 3), np.nan),
    ], ids=["pair0-4", "pair1-3", "su2_u1_lift_3", "lift_off_grid", "su3_t2_map_2x2",
            "su3_t2_lift_2x2", "su3_t2_map_nan", "su3_t2_lift_nan"])
    def test_component_count_must_fit_pair(self, grid12, field, pair, shape, fill):
        # shape, finiteness and unit norm are checked by the one constructor
        vals = np.full(shape, fill, dtype=complex if pair.group_kind == "matrix" else float)
        vals[..., 0] = 1.0
        for renormalize in (True, False):
            with pytest.raises(ValueError):
                field(grid12, pair, vals, renormalize=renormalize)


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

    @pytest.mark.parametrize("kind, charge", [("constant", 2), ("constant", 0),
                                              ("great_circle", 1)])
    def test_charge_refused_on_charge_less_kind(self, grid16, kind, charge):
        with pytest.raises(ValueError, match="takes no charge"):
            fl.make_ansatz(kind, grid16, charge)

    def test_hopf_charge_defaults_to_1(self, grid16):
        psi, u = fl.make_ansatz("hopf", grid16)
        psi1, u1 = fl.make_ansatz("hopf", grid16, 1)
        assert np.array_equal(psi.values, psi1.values) and np.array_equal(u.values, u1.values)


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
