import numpy as np
import pytest

from hopfion import algebra as alg

I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])
ONE = np.array([1.0, 0.0, 0.0, 0.0])


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
        lhs = alg.quat_to_matrix(alg.qmul(p, q))
        rhs = alg.quat_to_matrix(p) @ alg.quat_to_matrix(q)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestAdAction:
    def test_identity(self, rng):
        xi = rng.standard_normal((8, 3))
        assert np.allclose(alg.ad_action(ONE, xi), xi)

    def test_half_turn_example(self):
        g = alg.qexp(np.array([np.pi / 2.0, 0.0, 0.0]))
        assert np.allclose(g, I)
        assert np.allclose(alg.ad_action(g, np.array([0.0, 1.0, 0.0])), [0.0, -1.0, 0.0])

    def test_isometry_and_homomorphism(self, rng):
        g = alg.random_unit_quaternions(rng, (256,))
        h = alg.random_unit_quaternions(rng, (256,))
        xi = rng.standard_normal((256, 3))
        assert np.allclose(np.linalg.norm(alg.ad_action(g, xi), axis=-1),
                           np.linalg.norm(xi, axis=-1), atol=1e-12)
        lhs = alg.ad_action(alg.qmul(g, h), xi)
        rhs = alg.ad_action(g, alg.ad_action(h, xi))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bracket_automorphism(self, rng):
        pair = alg.su2_u1()
        g = alg.random_unit_quaternions(rng, (128,))
        xi = rng.standard_normal((128, 3))
        eta = rng.standard_normal((128, 3))
        lhs = alg.ad_action(g, pair.bracket(xi, eta))
        rhs = pair.bracket(alg.ad_action(g, xi), alg.ad_action(g, eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            alg.ad_action(2.0 * ONE, np.array([1.0, 0.0, 0.0]))


class TestPairs:
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
        T = alg.su2_u1().trace_tensor
        eps = np.zeros((3, 3, 3))
        for a, b, c, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                           (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
            eps[a, b, c] = s
        assert np.allclose(T, -2.0 * eps, atol=1e-14)

    def test_su3_ad_isometry(self, rng):
        pair = alg.su3_t2()
        g = alg.matrix_exp(pair.matrix_of(0.4 * rng.standard_normal((16, 8))))
        xi = rng.standard_normal((16, 8))
        moved = pair.ad(g, xi)
        assert np.allclose(np.linalg.norm(moved, axis=-1),
                           np.linalg.norm(xi, axis=-1), atol=1e-10)

    def test_coeff_matrix_roundtrip(self, rng):
        for pair in (alg.su2_u1(), alg.su3_t2()):
            xi = rng.standard_normal((32, pair.dim_g))
            assert np.allclose(pair.coeffs_of(pair.matrix_of(xi)), xi, atol=1e-12)


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
    g = alg.cp1_lift_of(pt)
    assert np.max(np.abs(alg.cp1_point_of(g) - pt)) < 1e-12
    poles = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    g = alg.cp1_lift_of(poles)
    assert np.max(np.abs(alg.cp1_point_of(g) - poles)) < 1e-12


def test_plaquette_area_corner_gradients(rng):
    a, b, c = (alg.cp1_point_of(alg.random_unit_quaternions(rng, (32,))) for _ in range(3))
    # triangle t lies on the (0, 1) plaquette anchored at (2i, 2j, k): a at
    # the anchor, b at +x, c at +x+y and a random fourth corner at +y; the
    # 2x2 blocks are disjoint, so each plaquette area sees only its corners
    p = np.moveaxis(alg.cp1_point_of(alg.random_unit_quaternions(rng, (8, 8, 8))), -1, 0).copy()
    i, j, k = np.unravel_index(np.arange(32), (4, 4, 2))
    x, y = 2 * i, 2 * j
    p[:, x, y, k], p[:, x + 1, y, k], p[:, x + 1, y + 1, k] = a.T, b.T, c.T

    def slot_xy(q, with_grads=False):
        return next(alg.plaquette_areas(q, with_grads))

    (mu, nu), _, grads = slot_xy(p, with_grads=True)
    assert (mu, nu) == (0, 1)
    eps = 1e-7
    for (dx, dy), grad in zip(((0, 0), (1, 0), (1, 1), (0, 1)), grads):
        d = rng.standard_normal((32, 3))
        p_p, p_m = p.copy(), p.copy()
        p_p[:, x + dx, y + dy, k] += eps * d.T
        p_m[:, x + dx, y + dy, k] -= eps * d.T
        fd = (slot_xy(p_p)[1][x, y, k] - slot_xy(p_m)[1][x, y, k]) / (2 * eps)
        an = np.sum(grad[:, x, y, k].T * d, axis=-1)
        assert np.max(np.abs(fd - an)) < 1e-6
