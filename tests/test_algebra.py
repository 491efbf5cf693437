import tracemalloc
import weakref

import numpy as np
import pytest

from hopfion import algebra as alg
from hopfion.lattice import (Grid, LatticeField, component_major, empty_component_major,
                             is_component_major)
import oracles

I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])
ONE = np.array([1.0, 0.0, 0.0, 0.0])
SU2_U1 = alg.su2_u1()


class TestQuaternions:
    def test_table(self):
        assert np.allclose(alg.qmul(I, J), K)
        assert np.allclose(alg.qmul(J, I), -K)
        assert np.allclose(alg.qmul(J, K), I)
        assert np.allclose(alg.qmul(K, I), J)

    def test_identity(self, rng):
        q = alg.random_unit_quaternions(rng, (64,))
        assert np.allclose(alg.qmul(q, ONE), q)
        assert np.allclose(alg.qmul(ONE, q), q)

    def test_norm_multiplicative(self, rng):
        p = rng.standard_normal((256, 4))
        q = rng.standard_normal((256, 4))
        assert np.allclose(alg.qnorm(alg.qmul(p, q)), alg.qnorm(p) * alg.qnorm(q))

    def test_associative(self, rng):
        p, q, r = (alg.random_unit_quaternions(rng, (128,)) for _ in range(3))
        lhs = alg.qmul(alg.qmul(p, q), r)
        rhs = alg.qmul(p, alg.qmul(q, r))
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_matches_sum_and_cross_formula_bitwise(self, rng):
        # the component-wise product keeps the rounding of the array formula
        p = rng.standard_normal((64, 4))
        q = rng.standard_normal((5, 64, 4))
        assert np.array_equal(alg.qmul(p, q), oracles.qmul(p, q))

    def test_exp_log_roundtrip(self, rng):
        v = rng.standard_normal((128, 3))
        v *= (0.9 * np.pi / np.linalg.norm(v, axis=-1).max())
        assert np.allclose(alg.qlog(alg.qexp(v)), v, atol=1e-12)

    def test_log_cut_rejected(self):
        almost_minus_one = alg.qexp(np.array([np.pi - 1e-9, 0.0, 0.0]))
        with pytest.raises(alg.RoughFieldError):
            alg.qlog(almost_minus_one)

    def test_matrix_representation(self, rng):
        p = alg.random_unit_quaternions(rng, (32,))
        q = alg.random_unit_quaternions(rng, (32,))
        lhs = oracles.quat_to_matrix(alg.qmul(p, q))
        rhs = oracles.quat_to_matrix(p) @ oracles.quat_to_matrix(q)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestAdAction:
    def test_identity(self, rng):
        xi = rng.standard_normal((8, 3))
        assert np.allclose(SU2_U1.ad(ONE, xi), xi)

    def test_half_turn_example(self):
        g = alg.qexp(np.array([np.pi / 2.0, 0.0, 0.0]))
        assert np.allclose(g, I)
        assert np.allclose(SU2_U1.ad(g, np.array([0.0, 1.0, 0.0])), [0.0, -1.0, 0.0])

    def test_isometry_and_homomorphism(self, rng):
        g = alg.random_unit_quaternions(rng, (256,))
        h = alg.random_unit_quaternions(rng, (256,))
        xi = rng.standard_normal((256, 3))
        assert np.allclose(np.linalg.norm(SU2_U1.ad(g, xi), axis=-1),
                           np.linalg.norm(xi, axis=-1), atol=1e-12)
        lhs = SU2_U1.ad(alg.qmul(g, h), xi)
        rhs = SU2_U1.ad(g, SU2_U1.ad(h, xi))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bracket_automorphism(self, rng):
        pair = alg.su2_u1()
        g = alg.random_unit_quaternions(rng, (128,))
        xi = rng.standard_normal((128, 3))
        eta = rng.standard_normal((128, 3))
        lhs = SU2_U1.ad(g, pair.bracket(xi, eta))
        rhs = pair.bracket(SU2_U1.ad(g, xi), SU2_U1.ad(g, eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            SU2_U1.ad(2.0 * ONE, np.array([1.0, 0.0, 0.0]))


class TestComponentKernels:
    """The component kernels round exactly as the formulas they replaced."""

    @pytest.mark.parametrize("g_shape, v_shape", [
        ((), (3,)), ((64,), (64, 3)), ((), (7, 3)), ((6, 6, 6), (6, 6, 6, 3)),
        ((6, 6, 6, 1), (6, 6, 6, 3, 3)), ((24, 24, 24, 1), (24, 24, 24, 3, 3))])
    def test_qrotate_matches_chain(self, rng, g_shape, v_shape):
        # unbroadcast and broadcast over the slot axis; 24^3 x 3 spans slabs
        g = alg.random_unit_quaternions(rng, g_shape)
        v = rng.standard_normal(v_shape)
        got = alg.qrotate(g, v)
        assert got.strides == np.empty_like(v).strides
        assert np.array_equal(got, oracles.qrotate(g, v))

    @pytest.mark.parametrize("g_shape", [(6, 6, 6, 1), (6, 6, 6, 3)])
    def test_qrotate_follows_component_major_operand(self, rng, g_shape):
        # a component-major v (as form data is stored) gives a component-major
        # result with the chain's values; g is copied component-major once
        g = alg.random_unit_quaternions(rng, g_shape)
        v = LatticeField(Grid(6), 1, rng.standard_normal((6, 6, 6, 3, 3))).data
        got = alg.qrotate(g, v)
        assert got.strides == v.strides
        assert np.array_equal(got, oracles.qrotate(g, v))

    def test_qrotate_peak_not_above_chain(self, rng):
        g = alg.random_unit_quaternions(rng, (32, 32, 32, 1))
        v = rng.standard_normal((32, 32, 32, 3, 3))

        def peak(fn):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                fn(g, v)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert peak(alg.qrotate) <= peak(oracles.qrotate)

    @pytest.mark.parametrize("n", [6, 24])
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_qrotate_form_matches_chain(self, rng, n, scale):
        # g conj(g)-homogeneous: a g of norm 1.5 scales the result by 2.25 in
        # both; n = 24 spans two slabs along x
        g = scale * alg.random_unit_quaternions(rng, (n, n, n))
        v = LatticeField(Grid(n), 1, rng.standard_normal((n, n, n, 3, 3))).data
        got = alg.qrotate_form(g, v)
        assert np.max(np.abs(got - oracles.qrotate(g[:, :, :, None], v))) <= 1e-15 * np.max(np.abs(v))

    def test_qrotate_form_component_major(self, rng):
        g = alg.random_unit_quaternions(rng, (6, 6, 6))
        v = LatticeField(Grid(6), 2, rng.standard_normal((6, 6, 6, 3, 3))).data
        got = alg.qrotate_form(g, v)
        assert is_component_major(got) and got.strides == v.strides

    @pytest.mark.parametrize("n", [6, 24])
    def test_qrotate_form_in_place_matches_whole_grid_formula(self, rng, n):
        # out=v rotates v in its own buffer, each slab copied first, with the
        # values of the whole-grid matrix product; n = 24 spans two slabs
        g = alg.random_unit_quaternions(rng, (n, n, n))
        v = empty_component_major((n, n, n, 3, 3))
        v[...] = rng.standard_normal(v.shape)
        want = oracles.qrotate_form(g, v)
        assert np.array_equal(alg.qrotate_form(g, v), want)
        assert alg.qrotate_form(g, v, out=v) is v
        assert np.array_equal(v, want)

    def test_qrotate_form_peak_within_one_slab_of_qrotate(self, rng):
        # the matrix of each slab is freed before the next slab's is built
        g = alg.random_unit_quaternions(rng, (32, 32, 32))
        v = LatticeField(Grid(32), 1, rng.standard_normal((32, 32, 32, 3, 3))).data

        def peak(fn, g):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                fn(g, v)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        slab = alg._SLAB_SITES * 3 * 8   # one slab of 3-vectors
        assert peak(alg.qrotate_form, g) <= peak(alg.qrotate, g[:, :, :, None]) + slab

    @pytest.mark.parametrize("shape", [(), (50,), (5, 4, 1)])
    def test_qconj_qexp_match_concatenation(self, rng, shape):
        q = rng.standard_normal(shape + (4,))
        v = rng.standard_normal(shape + (3,))
        assert np.array_equal(alg.qconj(q), oracles.qconj(q))
        assert np.array_equal(alg.qexp(v), oracles.qexp(v))
        assert np.array_equal(alg.qexp(np.zeros(shape + (3,))), oracles.qexp(np.zeros(shape + (3,))))

    def test_qlog_matches_sinc_formula(self, rng):
        q = alg.qexp(rng.uniform(-1.0, 1.0, (4096, 3)))
        q[:3] = [[1.0, 0.0, 0.0, 0.0], [1.0 + 1e-16, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        assert np.array_equal(alg.qlog(q), oracles.qlog(q))
        assert np.array_equal(alg.qlog(q[5]), oracles.qlog(q[5]))

    def test_bracket_and_split_match_numpy(self, rng):
        xi = rng.standard_normal((9, 9, 9, 3, 3))
        eta = rng.standard_normal((9, 9, 9, 1, 3))
        assert np.array_equal(SU2_U1.bracket(xi, eta), 2.0 * np.cross(xi, eta))
        phi = alg.cp1_point_of(alg.random_unit_quaternions(rng, (9, 9, 9, 1)))
        par, perp = alg.project_isotropy(SU2_U1, phi, xi)
        ref = np.sum(xi * phi, axis=-1, keepdims=True) * phi
        assert np.array_equal(par, ref)
        assert np.array_equal(perp, xi - ref)


class TestPairs:
    def test_pairs_compare_and_hash_by_identity(self):
        # a field-wise == would compare the basis ndarrays and raise
        pair = alg.su2_u1()
        assert hash(pair) == hash(alg.su2_u1())
        assert {pair: 1}[alg.su2_u1()] == 1
        assert alg.su2_u1() == alg.su2_u1()
        assert not alg.su2_u1() == alg.su2_group()
        assert alg.su2_u1() != alg.su2_group()

    @pytest.mark.parametrize("factory", [alg.su2_u1, alg.su2_group, alg.su3_t2])
    def test_subalgebra_conditions(self, factory):
        pair = factory()
        basis = np.eye(pair.dim_g)
        hset = list(pair.basis_h)
        perp = [a for a in range(pair.dim_g) if a not in hset]
        for a in hset:
            for b in hset:
                assert np.max(np.abs(pair.proj_perp(pair.bracket(basis[a], basis[b])))) < 1e-12
            for b in perp:
                assert np.max(np.abs(pair.proj_h(pair.bracket(basis[a], basis[b])))) < 1e-12

    def test_su2_u1_symmetric(self):
        pair = alg.su2_u1()
        assert pair.symmetric
        basis = np.eye(3)
        for a in (1, 2):
            for b in (1, 2):
                br = pair.bracket(basis[a], basis[b])
                assert np.max(np.abs(pair.proj_perp(br))) < 1e-12

    def test_su3_not_symmetric(self):
        pair = alg.su3_t2()
        assert not pair.symmetric
        basis = np.eye(8)
        perp = [a for a in range(8) if a not in pair.basis_h]
        worst = 0.0
        for a in perp:
            for b in perp:
                worst = max(worst, np.max(np.abs(pair.proj_perp(pair.bracket(basis[a], basis[b])))))
        assert worst > 0.1  # [h-perp, h-perp] leaves h on the flag manifold

    def test_bracket_antisymmetry_and_invariance(self, rng):
        for pair in (alg.su2_u1(), alg.su3_t2()):
            xi = rng.standard_normal((64, pair.dim_g))
            eta = rng.standard_normal((64, pair.dim_g))
            zeta = rng.standard_normal((64, pair.dim_g))
            assert np.max(np.abs(pair.bracket(xi, eta) + pair.bracket(eta, xi))) < 1e-12
            inv = (np.sum(pair.bracket(zeta, xi) * eta, axis=-1)
                   + np.sum(xi * pair.bracket(zeta, eta), axis=-1))
            assert np.max(np.abs(inv)) < 1e-11

    def test_su2_trace_tensor(self):
        # tr(e_a e_b e_c) = -2 eps_abc in the quaternion basis
        T = oracles.trace_tensor(alg.su2_u1())
        eps = np.zeros((3, 3, 3))
        for a, b, c, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                           (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
            eps[a, b, c] = s
        assert np.allclose(T, -2.0 * eps, atol=1e-14)

    def test_su3_ad_isometry(self, rng):
        pair = alg.su3_t2()
        g = oracles.matrix_exp(pair.matrix_of(0.4 * rng.standard_normal((16, 8))))
        xi = rng.standard_normal((16, 8))
        moved = pair.ad(g, xi)
        assert np.allclose(np.linalg.norm(moved, axis=-1),
                           np.linalg.norm(xi, axis=-1), atol=1e-10)

    def test_matrix_log_domain(self, rng):
        # every angle below qlog's cut pi - 1e-6 round-trips; the cut, a
        # singular U + 1 and a log that leaves su(3), at a nontrivial central
        # element, are refused
        V = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]

        def conj(diagonal):
            return (V * diagonal) @ V.conj().T

        angles = np.array([2.5, -1.0, -1.5])
        X = conj(1j * angles)
        assert np.max(np.abs(alg.matrix_log_unitary(conj(np.exp(1j * angles))) - X)) < 1e-12
        near_cut = np.array([np.pi - 1e-9, -1.0, 1.0 - np.pi + 1e-9])
        with pytest.raises(alg.RoughFieldError):
            alg.matrix_log_unitary(conj(np.exp(1j * near_cut)))
        for refused in (np.diag([-1.0, -1.0, 1.0]), np.exp(2j * np.pi / 3) * np.eye(3)):
            with pytest.raises(alg.RoughFieldError):
                alg.matrix_log_unitary(refused)

    def test_coeff_matrix_roundtrip(self, rng):
        for pair in (alg.su2_u1(), alg.su3_t2()):
            xi = rng.standard_normal((32, pair.dim_g))
            assert np.allclose(pair.coeffs_of(pair.matrix_of(xi)), xi, atol=1e-12)

    def test_log_inverts_exp(self, rng):
        for pair, exp in ((alg.su2_u1(), alg.qexp),
                          (alg.su3_t2(), lambda xi: oracles.matrix_exp(alg.su3_t2().matrix_of(xi)))):
            xi = 0.4 * rng.standard_normal((32, pair.dim_g))
            assert np.allclose(pair.log(exp(xi)), xi, atol=1e-12)

    @pytest.mark.parametrize("derived", ["structure_consts", "frob_scale"])
    def test_derived_data_is_not_an_argument(self, derived):
        # both are computed from the basis; a value passed in would be dropped
        with pytest.raises(TypeError):
            alg.HomogeneousPair(name="su2_u1", basis_matrices=alg._SU2_BASIS, basis_h=(0,),
                                symmetric=True, group_kind="quaternion", **{derived: 1.0})


class TestIsotropyProjection:
    def test_examples_at_i(self):
        pair = alg.su2_u1()
        phi = np.array([1.0, 0.0, 0.0])
        for xi, par, perp in (
            ([0, 1, 0], [0, 0, 0], [0, 1, 0]),
            ([1, 0, 0], [1, 0, 0], [0, 0, 0]),
            ([2, 3, 0], [2, 0, 0], [0, 3, 0]),
        ):
            p, q = alg.project_isotropy(pair, phi, np.asarray(xi, dtype=float))
            assert np.allclose(p, par)
            assert np.allclose(q, perp)

    def test_projection_algebra(self, rng):
        pair = alg.su2_u1()
        pt = alg.cp1_point_of(alg.random_unit_quaternions(rng, (512,)))
        xi = rng.standard_normal((512, 3))
        par, perp = alg.project_isotropy(pair, pt, xi)
        assert np.max(np.abs(par + perp - xi)) < 1e-12
        assert np.max(np.abs(np.sum(par * perp, axis=-1))) < 1e-12
        par2, _ = alg.project_isotropy(pair, pt, par)
        assert np.max(np.abs(par2 - par)) < 1e-12

    def test_generic_path_matches_fast_path(self, rng):
        pair = alg.su2_u1()
        g = alg.random_unit_quaternions(rng, (512,))
        pt = alg.cp1_point_of(g)
        xi = rng.standard_normal((512, 3))
        p_fast, q_fast = alg.project_isotropy(pair, pt, xi)
        p_gen, q_gen = alg.project_isotropy(pair, g, xi)
        assert np.max(np.abs(p_fast - p_gen)) < 1e-12
        assert np.max(np.abs(q_fast - q_gen)) < 1e-12

    @pytest.mark.parametrize("target", ["cp1", "su3_t2"])
    def test_part_written_into_its_operand(self, rng, target):
        # out may be xi itself: the part is the one formed into a new array
        if target == "cp1":
            pair, x = alg.su2_u1(), alg.cp1_point_of(alg.random_unit_quaternions(rng, (64,)))
            xi = rng.standard_normal((64, 3))
        else:
            pair = alg.su3_t2()
            x = oracles.matrix_exp(pair.matrix_of(0.3 * rng.standard_normal((64, 8))))
            xi = rng.standard_normal((64, 8))
        want = alg.isotropic_part(pair, x, xi)
        assert alg.isotropic_part(pair, x, xi, out=xi) is xi
        assert np.array_equal(xi, want)

    def test_generic_path_broadcasts_over_slots(self, rng):
        # one representative per site acting on every slot of a form
        pair = alg.su2_u1()
        g = alg.random_unit_quaternions(rng, (128, 1))
        xi = rng.standard_normal((128, 3, 3))
        p_fast, q_fast = alg.project_isotropy(pair, alg.cp1_point_of(g), xi)
        p_gen, q_gen = alg.project_isotropy(pair, g, xi)
        assert np.max(np.abs(p_fast - p_gen)) < 1e-12
        assert np.max(np.abs(q_fast - q_gen)) < 1e-12

    @pytest.mark.parametrize("name", ["su2_u1", "su2_group", "su3_t2"])
    def test_generic_perp_matches_ad_route(self, rng, name):
        # xi - par at a group representative against Ad(g) proj_perp Ad(g^-1) xi
        pair = getattr(alg, name)()
        for _ in range(5):
            if pair.group_kind == "quaternion":
                g = alg.random_unit_quaternions(rng, (4096,))
            else:
                gen = pair.matrix_of(0.7 * rng.standard_normal((4096, pair.dim_g)))
                g = oracles.matrix_exp(gen)
            xi = rng.standard_normal((4096, pair.dim_g))
            perp = alg.project_isotropy(pair, g, xi)[1]
            ref = oracles.ad_route_split(pair, g, xi)[1]
            assert np.max(np.abs(perp - ref)) <= 1e-13 * np.max(np.abs(xi))

    def test_symmetric_bracket_along_fibers(self, rng):
        pair = alg.su2_u1()
        pt = alg.cp1_point_of(alg.random_unit_quaternions(rng, (256,)))
        _, pe1 = alg.project_isotropy(pair, pt, rng.standard_normal((256, 3)))
        _, pe2 = alg.project_isotropy(pair, pt, rng.standard_normal((256, 3)))
        br = pair.bracket(pe1, pe2)
        par, _ = alg.project_isotropy(pair, pt, br)
        assert np.max(np.abs(par - br)) < 1e-12

    def test_rejects_non_unit_point(self):
        with pytest.raises(ValueError):
            alg.project_isotropy(alg.su2_u1(), np.array([2.0, 0.0, 0.0]),
                                 np.array([0.0, 1.0, 0.0]))


class TestCoisotropyForm:
    def test_cp1_quarter_turn(self):
        pair = alg.su2_u1()
        val = alg.coisotropy_form(pair, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(val, [0.0, 0.0, 0.5])

    def test_linearity_zero(self):
        pair = alg.su2_u1()
        val = alg.coisotropy_form(pair, np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert np.allclose(val, 0.0)

    def test_generic_at_origin(self, rng):
        pair = alg.su2_u1()
        xi = rng.standard_normal((64, 3))
        e = pair.identity_element((64,))
        val = alg.coisotropy_form(pair, e, xi)
        assert np.allclose(val, pair.proj_perp(xi), atol=1e-14)

    def test_rejects_non_tangent(self):
        pair = alg.su2_u1()
        with pytest.raises(ValueError):
            alg.coisotropy_form(pair, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_isometry_and_path_agreement(self, rng):
        # Lemma-level isometry: |omega(S)| equals the quotient-metric norm
        # of S, which is half the Euclidean length of the embedded tangent.
        pair = alg.su2_u1()
        n = 10_000
        g = alg.random_unit_quaternions(rng, (n,))
        pt = alg.cp1_point_of(g)
        xi = rng.standard_normal((n, 3))
        tangent = 2.0 * np.cross(xi, pt)      # [xi, pt]: the action tangent
        w_fast = alg.coisotropy_form(pair, pt, tangent)
        w_gen = alg.coisotropy_form(pair, g, xi)
        assert np.max(np.abs(w_fast - w_gen)) < 1e-12
        model = 0.5 * np.linalg.norm(tangent, axis=-1)
        assert np.max(np.abs(np.linalg.norm(w_fast, axis=-1) - model)) < 1e-12

    def test_left_equivariance(self, rng):
        pair = alg.su2_u1()
        g = alg.random_unit_quaternions(rng, (512,))
        gamma = alg.random_unit_quaternions(rng, (512,))
        pt = alg.cp1_point_of(g)
        eta = rng.standard_normal((512, 3))
        eta -= np.sum(eta * pt, axis=-1, keepdims=True) * pt
        lhs = alg.coisotropy_form(pair, alg.qrotate(gamma, pt), alg.qrotate(gamma, eta))
        rhs = alg.qrotate(gamma, alg.coisotropy_form(pair, pt, eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_cp1_lift_roundtrip(rng):
    pt = alg.cp1_point_of(alg.random_unit_quaternions(rng, (256,)))
    g = oracles.cp1_lift_of(pt)
    assert np.max(np.abs(alg.cp1_point_of(g) - pt)) < 1e-12
    poles = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    g = oracles.cp1_lift_of(poles)
    assert np.max(np.abs(alg.cp1_point_of(g) - poles)) < 1e-12


def test_plaquette_area_corner_gradients(rng):
    a, b, c = (alg.cp1_point_of(alg.random_unit_quaternions(rng, (32,))) for _ in range(3))
    # triangle t lies on the (0, 1) plaquette anchored at (2i, 2j, k): a at
    # the anchor, b at +x, c at +x+y and a random fourth corner at +y; the
    # 2x2 blocks are disjoint, so each plaquette area sees only its corners
    p = alg.cp1_point_of(alg.random_unit_quaternions(rng, (8, 8, 8)))
    i, j, k = np.unravel_index(np.arange(32), (4, 4, 2))
    x, y = 2 * i, 2 * j
    p[x, y, k], p[x + 1, y, k], p[x + 1, y + 1, k] = a, b, c

    def area_xy(q):
        (mu, nu), area, _ = next(alg.plaquette_areas(q))
        assert (mu, nu) == (0, 1)
        return area

    # the area first, then the corners one at a time, in the order 00, 10, 11, 01
    slot = alg._slot_gradients(p, 0, 1)
    next(slot)
    assert iter(slot) is slot
    eps = 1e-7
    for (dx, dy), grad in zip(((0, 0), (1, 0), (1, 1), (0, 1)), slot):
        d = rng.standard_normal((32, 3))
        p_p, p_m = p.copy(), p.copy()
        p_p[x + dx, y + dy, k] += eps * d
        p_m[x + dx, y + dy, k] -= eps * d
        fd = (area_xy(p_p)[x, y, k] - area_xy(p_m)[x, y, k]) / (2 * eps)
        an = np.sum(grad[x, y, k] * d, axis=-1)
        assert np.max(np.abs(fd - an)) < 1e-6
    assert next(slot, None) is None


def test_plaquette_areas_drop_handed_out_corners(rng):
    # the kernel holds no corner it has handed out: once the caller lets a
    # corner go, asking for the next frees it
    p = alg.cp1_point_of(alg.random_unit_quaternions(rng, (8, 8, 8)))
    for mu, nu in alg.SLOTS2:
        corners = alg._slot_gradients(p, mu, nu)
        next(corners)
        held = weakref.ref(next(corners))
        for corner in corners:
            assert held() is None
            held = weakref.ref(corner)
            del corner


def test_plaquette_areas_read_either_layout(rng):
    # values as a map stores them or as a C-order array: the same bits
    p = alg.cp1_point_of(alg.random_unit_quaternions(rng, (8, 8, 8)))
    stored = component_major(p)
    assert p.flags.c_contiguous and is_component_major(stored)
    pairs = []
    for (slot, area, _), (cm_slot, cm_area, _) in zip(alg.plaquette_areas(p),
                                                      alg.plaquette_areas(stored)):
        assert slot == cm_slot
        pairs.append((area, cm_area))
    base = rng.standard_normal(p.shape)
    grads = (base.copy(), component_major(base))
    for q, grad in zip((p, stored), grads):
        for _ in alg.add_plaquette_gradient(q, 0.3, grad):
            pass
    pairs.append(grads)
    assert len(pairs) == 4
    for x, y in pairs:
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))

def test_gradient_pass_yields_the_plaquette_areas(rng):
    # one pass serves the objective and its gradient: each slot's area and
    # peak are plaquette_areas' bits, handed out before that slot's corners
    p = alg.cp1_point_of(alg.random_unit_quaternions(rng, (8, 8, 8)))
    out = np.zeros_like(p)
    passes = alg.add_plaquette_gradient(p, 0.3, out)
    for (slot, area, peak), (ref_slot, ref_area, ref_peak) in zip(passes, alg.plaquette_areas(p)):
        assert slot == ref_slot and peak == ref_peak
        assert np.array_equal(area, ref_area)
        if slot == (0, 1):
            assert not np.any(out)
    assert next(passes, None) is None and np.any(out)
    # stopped at its second slot, the pass has added the first slot's corners only
    stopped = np.zeros_like(p)
    for slot, _, _ in alg.add_plaquette_gradient(p, 0.3, stopped):
        if slot == (0, 2):
            break
    assert np.any(stopped) and not np.array_equal(stopped, out)
