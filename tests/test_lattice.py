import numpy as np
import pytest

import oracles
from hopfion.algebra import qembed, qmul, su2_u1
from hopfion.lattice import (
    Grid,
    LatticeField,
    coulomb_solve,
    cross,
    d,
    dot,
    forward_diff_symbols,
    integrate_3form,
    l2_inner,
    l2_norm,
    wedge,
)


def quat(a, b):
    """The quaternion product; imaginary (v = 3) inputs are embedded with w = 0."""
    return qmul(*(qembed(x) if x.shape[-1] == 3 else x for x in (a, b)))


def dot_value(a, b):
    """The dot product as a one-component value."""
    return dot(a, b)[..., None]


def random_field(grid, degree, vdim, rng):
    from hopfion.lattice import SLOT_COUNT

    n = grid.n
    return LatticeField(grid, degree, rng.standard_normal((n, n, n, SLOT_COUNT[degree], vdim)))


class TestGrid:
    def test_spacing(self):
        g = Grid(16, 4.0)
        assert g.h == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3)
        with pytest.raises(ValueError):
            Grid(8, -1.0)


class TestExteriorDerivative:
    def test_constant_is_closed(self, grid12):
        f = LatticeField(grid12, 0, np.ones((12, 12, 12, 1, 2)))
        assert np.max(np.abs(d(f).data)) == 0.0

    def test_dd_zero(self, grid12, rng):
        for degree in (0, 1):
            f = random_field(grid12, degree, 3, rng)
            assert np.max(np.abs(d(d(f)).data)) < 1e-12

    def test_three_form_rejected(self, grid12, rng):
        with pytest.raises(ValueError):
            d(random_field(grid12, 3, 1, rng))

    def test_sin_derivative_first_order(self):
        errs = {}
        for n in (16, 32, 64):
            grid = Grid(n)
            x = grid.site_coords()[..., 0]
            f = LatticeField(grid, 0, np.sin(2 * np.pi * x / grid.length)[..., None, None])
            df = d(f)
            exact = (2 * np.pi / grid.length) * np.cos(2 * np.pi * x / grid.length)
            errs[n] = float(np.max(np.abs(df.slot(0)[..., 0] - exact)))
        assert errs[64] < errs[32] < errs[16]
        order = np.polyfit(np.log([Grid(n).h for n in errs]), np.log(list(errs.values())), 1)[0]
        assert order >= 0.9

    def test_leibniz_first_order(self):
        errs = {}
        for n in (16, 32, 64):
            grid = Grid(n)
            x = grid.site_coords()
            k = 2 * np.pi / grid.length
            f = (np.sin(k * x[..., 0]) * np.cos(k * x[..., 1]))[..., None, None]
            g = np.cos(k * (x[..., 0] + x[..., 2]) + 0.3)[..., None, None]
            ff = LatticeField(grid, 0, f)
            gg = LatticeField(grid, 0, g)
            fg = LatticeField(grid, 0, f * g)
            defect = d(fg) - (wedge(d(ff), gg, np.multiply) + wedge(ff, d(gg), np.multiply))
            errs[n] = l2_norm(defect)
        order = np.polyfit(np.log([Grid(n).h for n in errs]), np.log(list(errs.values())), 1)[0]
        assert order >= 0.9


class TestWedge:
    def test_wedge_with_zero(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        z = LatticeField.zeros(grid12, 1, 3)
        assert np.max(np.abs(wedge(a, z, cross).data)) == 0.0

    def test_constant_single_slot(self, grid12):
        # xi dx^1 wedge eta dx^2 has only the (x, y) slot, value = xi * eta
        xi = np.array([0.0, 0.3, -0.2, 0.5])
        eta = np.array([0.0, 0.1, 0.7, -0.4])
        n = grid12.n
        a = np.zeros((n, n, n, 3, 4))
        b = np.zeros((n, n, n, 3, 4))
        a[:, :, :, 0] = xi
        b[:, :, :, 1] = eta
        w = wedge(LatticeField(grid12, 1, a), LatticeField(grid12, 1, b), quat)
        assert np.allclose(w.slot(0), qmul(xi, eta))
        assert np.max(np.abs(w.slot(1))) == 0.0
        assert np.max(np.abs(w.slot(2))) == 0.0

    def test_self_wedge_is_half_bracket(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        w_quat = wedge(a, a, quat)
        w_bracket = wedge(a, a, su2_u1().bracket)
        assert np.max(np.abs(w_quat.data[..., 0])) < 1e-13        # no scalar part
        assert np.max(np.abs(w_quat.data[..., 1:] - 0.5 * w_bracket.data)) < 1e-12

    def test_antisymmetry_for_symmetric_product(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        b = random_field(grid12, 1, 3, rng)
        lhs = wedge(a, b, dot_value)
        rhs = wedge(b, a, dot_value)
        assert np.max(np.abs(lhs.data + rhs.data)) < 1e-12

    def test_cross_and_norm_density_round_as_numpy(self, grid12, rng):
        # component-wise kernels keep np.cross's and np.sum's rounding
        a = random_field(grid12, 1, 3, rng)
        b = random_field(grid12, 1, 3, rng)
        w = wedge(a, b, cross)
        ref = np.stack([np.cross(a.slot(mu), b.slot(nu)) - np.cross(a.slot(nu), b.slot(mu))
                        for mu, nu in ((0, 1), (0, 2), (1, 2))], axis=3)
        assert np.array_equal(w.data, ref)
        assert np.array_equal(w.norm2_density(), np.sum(ref * ref, axis=(3, 4)))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3,), (3,)), ((40, 3), (40, 3)), ((5, 5, 5, 3, 3), (5, 5, 5, 1, 3)),
        ((5, 5, 5, 1, 3), (5, 5, 5, 3, 3))])
    def test_cross_and_dot_helpers_round_as_numpy(self, rng, a_shape, b_shape):
        a = rng.standard_normal(a_shape) * 10.0 ** rng.uniform(-6, 6, a_shape)
        b = rng.standard_normal(b_shape)
        assert np.array_equal(cross(a, b), np.cross(a, b))
        assert np.array_equal(dot(a, b), np.sum(a * b, axis=-1))

    def test_bracket_wedge_rounds_as_numpy(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        b = random_field(grid12, 1, 3, rng)
        ref = np.stack([2.0 * np.cross(a.slot(mu), b.slot(nu))
                        - 2.0 * np.cross(a.slot(nu), b.slot(mu))
                        for mu, nu in ((0, 1), (0, 2), (1, 2))], axis=3)
        assert np.array_equal(wedge(a, b, su2_u1().bracket).data, ref)

    def test_dot_wedge_rounds_as_numpy(self, grid12, rng):
        def ref_dot(x, y):
            return np.sum(x * y, axis=-1, keepdims=True)

        f = random_field(grid12, 0, 3, rng)
        a = random_field(grid12, 1, 3, rng)
        b = random_field(grid12, 1, 3, rng)
        ref = np.stack([ref_dot(a.slot(mu), b.slot(nu)) - ref_dot(a.slot(nu), b.slot(mu))
                        for mu, nu in ((0, 1), (0, 2), (1, 2))], axis=3)
        assert np.array_equal(wedge(a, b, dot_value).data, ref)
        ref = np.stack([ref_dot(f.slot(0), a.slot(mu)) for mu in range(3)], axis=3)
        assert np.array_equal(wedge(f, a, dot_value).data, ref)

    def test_degree_overflow_rejected(self, grid12, rng):
        a = random_field(grid12, 2, 1, rng)
        b = random_field(grid12, 2, 1, rng)
        with pytest.raises(ValueError):
            wedge(a, b, np.multiply)


class TestIntegration:
    def test_inner_zero_and_constant(self, grid12):
        c = 1.7
        f = LatticeField(grid12, 0, np.full((12, 12, 12, 1, 1), c))
        z = LatticeField.zeros(grid12, 0, 1)
        assert l2_inner(z, f) == 0.0
        assert np.isclose(l2_inner(f, f), c * c * grid12.length ** 3, rtol=1e-13)

    def test_positivity(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        assert l2_inner(a, a) > 0.0
        z = LatticeField.zeros(grid12, 1, 3)
        assert l2_inner(z, z) == 0.0

    def test_shape_mismatch(self, grid12, rng):
        a = random_field(grid12, 1, 3, rng)
        b = random_field(grid12, 1, 4, rng)
        with pytest.raises(ValueError):
            l2_inner(a, b)

    def test_volume(self, grid12):
        one = LatticeField(grid12, 3, np.ones((12, 12, 12, 1, 1)))
        assert np.isclose(integrate_3form(one), grid12.length ** 3, rtol=1e-13)

    def test_exact_forms_integrate_to_zero(self, grid12, rng):
        beta = random_field(grid12, 2, 1, rng)
        scale = float(np.max(np.abs(beta.data)))
        assert abs(integrate_3form(d(beta))) < 1e-10 * scale

    def test_requires_3form(self, grid12, rng):
        with pytest.raises(ValueError):
            integrate_3form(random_field(grid12, 2, 1, rng))


class TestCoulombSolve:
    @staticmethod
    def backward_div(beta):
        h = beta.grid.h
        return sum((beta.slot(mu) - np.roll(beta.slot(mu), 1, axis=mu)) / h for mu in range(3))

    @pytest.mark.parametrize("n", [9, 24])
    def test_one_form_leaves_divergence_free(self, n, rng):
        beta = random_field(Grid(n), 1, 2, rng)
        theta = coulomb_solve(beta)
        assert theta.degree == 0 and theta.vdim == 2
        assert np.max(np.abs(np.mean(theta.data, axis=(0, 1, 2)))) <= 1e-14
        rest = self.backward_div(beta - d(theta))
        assert np.max(np.abs(rest)) <= 1e-12 * np.max(np.abs(self.backward_div(beta)))

    def test_two_form_inverts_d_per_component(self, rng):
        F = d(random_field(Grid(9), 1, 2, rng))
        A = coulomb_solve(F)
        assert A.degree == 1 and A.vdim == 2
        assert l2_norm(d(A) - F) < 1e-10 * l2_norm(F)

    @pytest.mark.parametrize("degree", [0, 3])
    def test_other_degrees_rejected(self, degree, grid12, rng):
        with pytest.raises(ValueError):
            coulomb_solve(random_field(grid12, degree, 1, rng))

    @pytest.mark.parametrize("n", [4, 5, 9, 16, 24, 32, 48, 64])
    def test_symbols_are_the_half_of_the_full_spectrum(self, n):
        # the Sobolev preconditioner divides by this S, so the relax history rests on it
        _, S = forward_diff_symbols(Grid(n))
        _, full = oracles.full_spectrum_symbols(Grid(n))
        assert np.array_equal(S, full[:, :, :n // 2 + 1])


def test_fields_immutable(grid12, rng):
    f = random_field(grid12, 1, 3, rng)
    with pytest.raises(ValueError):
        f.data[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.degree = 2


def test_field_rejects_nan(grid12):
    data = np.zeros((12, 12, 12, 1, 1))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        LatticeField(grid12, 0, data)
