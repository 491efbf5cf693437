import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import gauge
from hopfion.energy import comm_wedge
from hopfion.gauge import (
    ad_inverse_apply,
    coset_curvature,
    gauge_smooth,
    gauge_transform_potential,
    identity_suite,
    make_stabilizer,
    projector_derivative_wedge,
    smooth_algebra_field,
    smooth_scalar,
    stabilizer_log_derivative,
)
from hopfion.lattice import SLOT_COUNT, Grid, LatticeField, dot, forward_diff, l2_norm


def isotropic_potential(grid, phi, rng, amplitude=0.6):
    slots = [smooth_scalar(grid, rng, amplitude)[..., None] * phi.values for _ in range(3)]
    return fl.PotentialField(LatticeField.from_slots(grid, 1, slots), phi)


class TestStabilizers:
    def test_zero_angle_is_identity(self, grid16):
        stab = make_stabilizer(fl.constant_map(grid16), 0.0)
        assert np.allclose(stab.w.values, [1.0, 0.0, 0.0, 0.0])

    def test_pi_angle_is_center(self, grid16):
        phi = fl.constant_map(grid16)
        stab = make_stabilizer(phi, np.pi)
        assert np.allclose(stab.w.values, [-1.0, 0.0, 0.0, 0.0], atol=1e-15)
        moved = fl.act(stab.w, stab.phi).values
        assert np.max(np.linalg.norm(moved - stab.phi.values, axis=-1)) < 1e-12

    def test_smooth_angle_stabilizes_exactly(self, grid16):
        phi = fl.constant_map(grid16)
        x2 = grid16.site_coords()[..., 1]
        stab = make_stabilizer(phi, np.sin(2 * np.pi * x2 / grid16.length))
        moved = fl.act(stab.w, stab.phi).values
        assert np.max(np.linalg.norm(moved - stab.phi.values, axis=-1)) < 1e-12
        # values lie in the unit-complex subgroup: no j, k components
        assert np.max(np.abs(stab.w.values[..., 2:])) < 1e-15

    def test_nonconstant_reference(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng, amplitude=0.4)
        stab = make_stabilizer(phi, smooth_scalar(grid16, rng, 0.8))
        moved = fl.act(stab.w, stab.phi).values
        assert np.max(np.linalg.norm(moved - stab.phi.values, axis=-1)) < 1e-12


class TestGaugeAction:
    def test_identity_transformation(self, grid16, rng):
        phi = fl.constant_map(grid16)
        b = isotropic_potential(grid16, phi, rng)
        stab = make_stabilizer(phi, 0.0)
        bw = gauge_transform_potential(b, stab)
        assert np.max(np.abs(bw.a.data - b.a.data)) < 1e-14

    def test_requires_isotropic_input(self, grid16, rng):
        phi = fl.constant_map(grid16)
        data = np.stack([smooth_algebra_field(grid16, rng, 0.5) for _ in range(3)], axis=3)
        bad = fl.PotentialField(LatticeField(grid16, 1, data), phi)
        stab = make_stabilizer(phi, smooth_scalar(grid16, rng, 0.5))
        with pytest.raises(ValueError):
            gauge_transform_potential(bad, stab)

    def test_stabilizer_on_another_map_rejected(self, grid16, rng):
        # the zero potential is isotropic against any map, so only the map
        # check can reject it
        phi = fl.constant_map(grid16)
        zero = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), phi)
        theta = smooth_scalar(grid16, rng, 0.5)
        for other in (smooth_cp1_map(grid16, rng, amplitude=0.4), fl.constant_map(Grid(16, 1.0))):
            with pytest.raises(ValueError, match="reference maps"):
                gauge_transform_potential(zero, make_stabilizer(other, theta))
        equal = fl.MapField(grid16, phi.pair, phi.values.copy())
        bw = gauge_transform_potential(zero, make_stabilizer(equal, theta))
        assert np.array_equal(bw.a.data, gauge_transform_potential(
            zero, make_stabilizer(phi, theta)).a.data)

    def test_isotropy_test_memory(self, rng):
        # the test keeps one split's perp part and reduces it without an
        # abs temporary: par and perp at most, in units of one (n, n, n, 3, 3)
        # float array at n = 32, seen by tracemalloc
        grid = Grid(32)
        phi = smooth_cp1_map(grid, rng, amplitude=0.4)
        b = isotropic_potential(grid, phi, rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gauge._require_isotropic(b.a, phi)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (32 ** 3 * 9 * 8) <= 2.2

    def test_result_isotropic_for_constant_reference(self, grid16, rng):
        phi = fl.constant_map(grid16)
        b = isotropic_potential(grid16, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid16, rng, 0.7))
        bw = gauge_transform_potential(b, stab)
        par, perp = bw.split()
        assert np.max(np.abs(perp.data)) < 1e-10 * max(np.max(np.abs(bw.a.data)), 1.0)

    def test_zero_potential_formula(self, rng):
        # b = 0: b^w = w^-1 dw - (Ad(w^-1) - I) phi^*omega, which is the
        # isotropic part of the log derivative up to O(h)
        rel = []
        for n in (16, 32):
            grid = Grid(n)
            local = np.random.default_rng(5)
            phi = smooth_cp1_map(grid, local, amplitude=0.25)
            stab = make_stabilizer(phi, smooth_scalar(grid, local, 0.5))
            zero = fl.PotentialField(LatticeField.zeros(grid, 1, 3), phi)
            bw = gauge_transform_potential(zero, stab)
            dw = stabilizer_log_derivative(stab, scheme="log")
            par = fl.split_form(dw, phi)[0]
            rel.append(l2_norm(bw.a - par) / l2_norm(par))
        assert rel[1] < 0.65 * rel[0]

    def test_exact_scheme_matches_log_scheme_to_first_order(self, rng):
        rel = []
        for n in (16, 32):
            grid = Grid(n)
            local = np.random.default_rng(7)
            phi = smooth_cp1_map(grid, local, amplitude=0.25)
            stab = make_stabilizer(phi, smooth_scalar(grid, local, 0.5))
            lhs = stabilizer_log_derivative(stab, scheme="log")
            rhs = stabilizer_log_derivative(stab, scheme="exact")
            rel.append(l2_norm(lhs - rhs) / l2_norm(lhs))
        assert rel[1] < 0.65 * rel[0]


class TestCosetCurvature:
    def test_flat_trivial(self, grid16):
        phi = fl.constant_map(grid16)
        zero = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), phi)
        F = coset_curvature(zero)
        assert np.max(np.abs(F.data)) == 0.0

    def test_reference_curvature(self, grid16, rng):
        # F(0) = -(omega ^ omega)_par, assembled independently
        phi = smooth_cp1_map(grid16, rng, amplitude=0.4)
        zero = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), phi)
        F = coset_curvature(zero)
        omega = fl.pullback_coisotropy(phi)
        oo = comm_wedge(omega, phi.pair)
        expected = -fl.split_form(oo, phi)[0].data
        assert np.max(np.abs(F.data - expected)) < 1e-12

    def test_symmetric_pair_projection_free(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng, amplitude=0.4)
        omega = fl.pullback_coisotropy(phi)
        oo = comm_wedge(omega, phi.pair)
        assert l2_norm(fl.split_form(oo, phi)[1]) < 1e-10 * l2_norm(oo)

    def test_curvature_equivariance_shared_inputs(self, grid16, rng):
        phi = fl.constant_map(grid16)
        b = isotropic_potential(grid16, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid16, rng, 0.6))
        lhs = coset_curvature(gauge_transform_potential(b, stab))
        rhs = ad_inverse_apply(stab.w, coset_curvature(b))
        assert l2_norm(lhs - rhs) < 1e-8 * l2_norm(rhs)


class TestIdentitySuite:
    def test_small_sizes_pass(self):
        rows = identity_suite(sizes=(12, 16, 24), seed=0)
        names = {r.name for r in rows}
        assert "dafi_shared_inputs" in names
        assert "flat_derivative_ii_symmetric" in names
        failures = [r.name for r in rows if not r.passed]
        assert failures == []

    def test_classification(self):
        rows = identity_suite(sizes=(12, 16), seed=1)
        # every identity, by name: check's exit code and pass fraction count
        # only the rows present, so a dropped row must fail here
        assert {r.name: r.kind for r in rows} == {
            "curvature_equivariance_shared": "pointwise",
            "gauge_action_composition": "pointwise",
            "dafi_shared_inputs": "pointwise",
            "dafi_energy_density": "pointwise",
            "symmetric_fourth_term": "pointwise",
            "refcurv_no_projection": "pointwise",
            "stabilizer_derivative_e062": "differential",
            "curvature_vs_projected_form": "differential",
            "isotropic_derivative_perp": "differential",
            "dphi_wedge_par": "differential",
            "dphi_wedge_perp": "differential",
            "flat_curvature_i": "differential",
            "flat_curvature_i_symmetric": "differential",
            "flat_derivative_ii": "differential",
            "flat_derivative_ii_symmetric": "differential",
            "flat_quartic_iii_symmetric": "differential",
            "pure_gauge_flatness": "differential",
            "mapcon": "differential",
            "dual_energy": "differential",
        }
        for r in rows:
            if r.kind == "pointwise":
                assert r.fitted_order is None
                assert max(r.residuals.values()) < 1e-8
            else:
                assert r.fitted_order is not None

    @pytest.mark.parametrize("sizes", [(16,), (16, 16), (2, 16)])
    def test_needs_two_distinct_sizes_from_4(self, sizes):
        with pytest.raises(ValueError):
            identity_suite(sizes=sizes)

    def test_peak_memory(self):
        # each row family frees its forms after their last use, and the
        # reference forms are built once per map; in units of one (n, n, n, 3, 3)
        # float array at the largest n, seen by tracemalloc (12.45 measured)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            identity_suite(sizes=(16, 32))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (32 ** 3 * 9 * 8) <= 13


class TestComponentKernels:
    def test_projector_derivative_wedge_matches_sum_formula(self, grid12, rng):
        phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        for degree in (1, 2):
            form = LatticeField(grid12, degree, rng.standard_normal((12,) * 3 + (3, 3)))
            assert np.array_equal(projector_derivative_wedge(phi, form).data,
                                  oracles.projector_derivative_wedge(phi, form).data)

    @pytest.mark.parametrize("target, degree", [("cp1", 0), ("cp1", 3), ("su2_group", 1)])
    def test_projector_derivative_wedge_guard(self, grid12, rng, target, degree):
        if target == "cp1":
            phi = smooth_cp1_map(grid12, rng)
        else:
            phi = fl.MapField(grid12, alg.su2_group(), alg.random_unit_quaternions(rng, (12,) * 3))
        form = LatticeField(grid12, degree, rng.standard_normal((12,) * 3 + (SLOT_COUNT[degree], 3)))
        with pytest.raises(ValueError):
            projector_derivative_wedge(phi, form)

    @pytest.mark.parametrize("reference", ["constant", "smooth"])
    def test_kernels_match_recomputing_forms(self, grid12, rng, reference):
        # the public entries and the kernels fed precomputed reference forms
        # both equal the bodies that rebuilt phi^*omega and its wedge per call
        if reference == "constant":
            phi = fl.constant_map(grid12)
        else:
            phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        b = isotropic_potential(grid12, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid12, rng, 0.6))
        omega = fl.pullback_coisotropy(phi)
        oo_par = fl.split_form(comm_wedge(omega, phi.pair), phi)[0]
        curvature = oracles.coset_curvature(b).data
        assert np.array_equal(coset_curvature(b).data, curvature)
        assert np.array_equal(gauge._coset_curvature(b, omega, oo_par).data, curvature)
        transformed = oracles.gauge_transform_potential(b, stab).a.data
        assert np.array_equal(gauge_transform_potential(b, stab).a.data, transformed)
        assert np.array_equal(gauge._gauge_transform(b, stab, omega).a.data, transformed)

    def test_suite_rows_unmoved_by_component_kernels(self, monkeypatch):
        # the same process with the old formulas rebound at every module binding
        fast = [row.as_dict() for row in identity_suite(sizes=(16, 32))]
        assert oracles.patch_kernels(monkeypatch) >= 15
        assert [row.as_dict() for row in identity_suite(sizes=(16, 32))] == fast


class TestGaugeSmooth:
    @staticmethod
    def beta(b):
        return [dot(b.a.slot(mu), b.phi.values) for mu in range(3)]

    @staticmethod
    def objective(beta, theta, h):
        """|b^w|^2 for b = beta phi and w = exp(theta phi): h^3 sum (beta + d+ theta)^2."""
        return h ** 3 * sum(float(np.sum((beta[mu] + forward_diff(theta, mu, h)) ** 2))
                            for mu in range(3))

    def test_zero_stays(self, grid12):
        phi = fl.constant_map(grid12)
        zero = fl.PotentialField(LatticeField.zeros(grid12, 1, 3), phi)
        assert np.max(np.abs(gauge_smooth(zero).theta)) == 0.0

    def test_planted_solution_objective_drop(self, grid12, rng):
        phi = fl.constant_map(grid12)
        theta0 = smooth_scalar(grid12, rng, 0.6)
        planted = make_stabilizer(phi, theta0)
        b = fl.PotentialField(stabilizer_log_derivative(planted, scheme="log"), phi)
        par, _ = b.split()
        b = fl.PotentialField(par, phi)
        theta = gauge_smooth(b).theta
        beta, h = self.beta(b), grid12.h
        start = self.objective(beta, np.zeros_like(theta), h)
        assert self.objective(beta, theta, h) <= 0.1 * start
        # b is the planted d theta0 phi, so the gauge undoes it up to a constant
        assert np.ptp(theta + theta0) <= 1e-10

    def test_coulomb_gauge(self, grid12, rng):
        # the minimizer of |beta + d+ theta|^2 solves div(beta + d+ theta) = 0,
        # div the backward-difference adjoint of d+
        phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        b = isotropic_potential(grid12, phi, rng)
        theta = gauge_smooth(b).theta
        beta, h = self.beta(b), grid12.h

        def div(v):
            return sum((v[mu] - np.roll(v[mu], 1, axis=mu)) / h for mu in range(3))

        fixed = [beta[mu] + forward_diff(theta, mu, h) for mu in range(3)]
        assert np.max(np.abs(div(fixed))) <= 1e-12 * np.max(np.abs(div(beta)))

    @pytest.mark.parametrize("n", [9, 12])
    def test_theta_matches_complex_fft_oracle(self, n, rng):
        grid = Grid(n)
        b = isotropic_potential(grid, smooth_cp1_map(grid, rng, amplitude=0.4), rng)
        assert np.max(np.abs(gauge_smooth(b).theta - oracles.gauge_smooth_theta(b))) <= 1e-13

    def test_isotropic_potential_transforms_by_d_theta(self, grid12, rng):
        # Ad(w^-1) fixes phi, so the exact-scheme b^w of b = beta phi is
        # (beta + d+ theta) phi: the identity the Poisson solve rests on
        phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        b = isotropic_potential(grid12, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid12, rng, 0.8))
        omega = fl.pullback_coisotropy(phi)
        bw = (ad_inverse_apply(stab.w, b.a) + stabilizer_log_derivative(stab, "exact")
              - (ad_inverse_apply(stab.w, omega) - omega))
        beta, h = self.beta(b), grid12.h
        for mu in range(3):
            expected = (beta[mu] + forward_diff(stab.theta, mu, h))[..., None] * phi.values
            assert np.max(np.abs(bw.slot(mu) - expected)) <= 1e-12
