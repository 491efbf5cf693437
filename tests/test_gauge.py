import re
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import gauge
from hopfion.energy import comm_slot, comm_wedge
from hopfion.gauge import (
    ad_inverse_apply,
    coset_curvature,
    gauge_smooth,
    gauge_transform_potential,
    identity_suite,
    make_stabilizer,
    projector_derivative_slot,
    projector_derivative_wedge,
    smooth_algebra_field,
    smooth_scalar,
    stabilizer_log_derivative,
)
from hopfion.lattice import (SLOT_COUNT, Grid, LatticeField, d, dot, forward_diff, l2_norm,
                             wedge, x_slabs)


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

    def test_isotropy_defect_is_the_whole_forms(self, grid16, rng):
        # taken slab by slab, the defect is the max over the whole coisotropic part
        phi = smooth_cp1_map(grid16, rng, amplitude=0.4)
        bad = LatticeField(grid16, 1, np.stack([smooth_algebra_field(grid16, rng, 0.5)
                                                for _ in range(3)], axis=3))
        perp = fl.coisotropic_part(bad, phi).data
        defect = max(float(perp.max()), -float(perp.min()))
        text = f"potential is not isotropy-valued (defect {defect:.3e})"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            gauge._require_isotropic(bad, phi)

    def test_isotropy_test_memory(self, rng):
        # the test forms the perp part alone, in one buffer, and reduces it
        # without an abs temporary: 1.67 in units of one (n, n, n, 3, 3)
        # float array at n = 32, seen by tracemalloc (2.0 with both parts)
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
        assert peak / (32 ** 3 * 9 * 8) <= 1.8

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
            par = fl.isotropic_part(dw, phi)
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
        expected = -oracles.cp1_isotropy_project_2form(oo, phi).data
        assert np.max(np.abs(F.data - expected)) < 1e-12

    def test_symmetric_pair_projection_free(self, grid16, rng):
        phi = smooth_cp1_map(grid16, rng, amplitude=0.4)
        omega = fl.pullback_coisotropy(phi)
        oo = comm_wedge(omega, phi.pair)
        assert l2_norm(fl.coisotropic_part(oo, phi)) < 1e-10 * l2_norm(oo)

    def test_curvature_equivariance_shared_inputs(self, grid16, rng):
        phi = fl.constant_map(grid16)
        b = isotropic_potential(grid16, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid16, rng, 0.6))
        lhs = coset_curvature(gauge_transform_potential(b, stab))
        rhs = ad_inverse_apply(stab.w, coset_curvature(b))
        assert l2_norm(lhs - rhs) < 1e-8 * l2_norm(rhs)


    def test_matrix_pair_isotropic_potential(self, rng):
        # su3_t2, a non-symmetric matrix pair: the kernel equals the form-level
        # formula bit for bit, its brackets taken on matrices
        pair, grid = alg.su3_t2(), Grid(6)
        phi = fl.MapField(grid, pair, oracles.matrix_exp(
            pair.matrix_of(0.3 * rng.standard_normal((6,) * 3 + (8,)))), renormalize=False)
        a = LatticeField(grid, 1, rng.standard_normal((6,) * 3 + (3, 8)))
        b = fl.isotropic_part(a, phi)
        omega = fl.pullback_coisotropy(phi)
        expected = (d(b) + comm_wedge(b, pair) - wedge(b, omega, pair.bracket)
                    - fl.isotropic_part(comm_wedge(omega, pair), phi))
        assert np.array_equal(coset_curvature(fl.PotentialField(b, phi)).data, expected.data)

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
            "coulomb_gauge_fixing": "pointwise",
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

    def test_residuals_pinned_at_seed_0(self):
        # the differential rows' values at sizes 12 and 16, seed 0, as the
        # suite gave them when each norm was one sum over a whole form; the
        # slot-wise sums move them in the last digits only.  The flag tests
        # cannot see a row whose value moves but still passes
        pinned = {
            "dphi_wedge_par": (0.26504965175142525, 0.2007686588255706),
            "flat_curvature_i": (0.5289672873917751, 0.41240049470482915),
            "flat_curvature_i_symmetric": (0.5289672873917751, 0.41240049470482915),
            "flat_quartic_iii_symmetric": (0.48953754104797614, 0.3777223516277716),
            "dphi_wedge_perp": (0.22531520238830663, 0.17252845729299937),
            "flat_derivative_ii": (0.35537793867479267, 0.27212297874760516),
            "flat_derivative_ii_symmetric": (0.35537793867479267, 0.27212297874760516),
            "pure_gauge_flatness": (0.2384690849563929, 0.17949186629319927),
            "mapcon": (0.2703563012805309, 0.1975977203106562),
            "dual_energy": (0.17462230025759995, 0.0965007945644886),
            "stabilizer_derivative_e062": (0.21679404299932448, 0.16486337387408398),
            "curvature_vs_projected_form": (0.2488739891507166, 0.1931665789780019),
            "isotropic_derivative_perp": (0.5562873685732469, 0.42132578236141494),
        }
        rows = identity_suite(sizes=(12, 16), seed=0)
        for r in rows:
            if r.kind == "pointwise":
                assert max(r.residuals.values()) <= gauge.POINTWISE_BUDGET, r.name
            else:
                for n, want in zip((12, 16), pinned.pop(r.name)):
                    assert abs(r.residuals[n] - want) <= 1e-13 * want, (r.name, n)
        assert pinned == {}

    @pytest.mark.parametrize("sizes", [(16,), (16, 16), (2, 16)])
    def test_needs_two_distinct_sizes_from_4(self, sizes):
        with pytest.raises(ValueError):
            identity_suite(sizes=sizes)

    def test_peak_memory(self):
        # each row family builds its forms just before their first use and
        # frees them after their last, and forms and measures every other form
        # slot by slot and x-slab by x-slab; in units of one (n, n, n, 3, 3)
        # float array at the largest n, seen by tracemalloc (5.46 measured,
        # 6.76 while each slot was formed whole, 7.07 while each family held
        # whole reference forms, 9.34 before that).  A small run first imports
        # what the suite imports lazily, so the peak does not depend on which
        # tests ran before this one
        identity_suite(sizes=(4, 6))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            identity_suite(sizes=(16, 32))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (32 ** 3 * 9 * 8) <= 5.72

    @staticmethod
    def _family_peak(family):
        # the family's tracemalloc peak above its inputs, as _grid_rows builds
        # them, in (n, n, n, 3, 3) float arrays at n = 32
        grid = Grid(32)
        rng = np.random.default_rng(0)
        phi, u, theta, a = gauge.smooth_inputs(grid, rng)
        omega = fl.pullback_coisotropy(phi)
        stab = make_stabilizer(phi, theta)
        b = fl.PotentialField(fl.isotropic_part(a, phi), phi)
        call = {"dafi": lambda: gauge._dafi_rows(stab, omega, a),
                "curvature": lambda: gauge._curvature_rows(b, omega),
                "pure_gauge": lambda: gauge._pure_gauge_rows(u, phi),
                "gauge_action": lambda: gauge._gauge_action_rows(grid, rng, theta)}[family]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / (32 ** 3 * 9 * 8)

    @pytest.fixture(scope="class")
    def family_peaks(self):
        # each family measured once for the three tests below, after a small
        # suite has imported what the families import lazily
        identity_suite(sizes=(4, 6))
        return {family: self._family_peak(family)
                for family in ("dafi", "curvature", "pure_gauge", "gauge_action")}

    @pytest.mark.parametrize("family, bound", [
        ("dafi", 3.9), ("curvature", 3.4), ("pure_gauge", 6.2), ("gauge_action", 6.7)])
    def test_family_peak_memory(self, family_peaks, family, bound):
        # the ceilings of the families once their forms were formed slot by
        # slot (3.73, 4.89, 7.12 and 8.50 measured before that)
        assert family_peaks[family] <= bound

    @pytest.mark.parametrize("family, bound", [
        ("dafi", 2.04), ("curvature", 1.98), ("pure_gauge", 5.6), ("gauge_action", 6.68)])
    def test_family_peak_memory_measured_slot_by_slot(self, family_peaks, family, bound):
        # the ceilings once the rows were measured slot by slot too (1.95,
        # 1.89, 5.34 and 6.36 measured then; 3.73, 3.22, 5.89 and 6.36 while
        # they measured whole reference forms)
        assert family_peaks[family] <= bound

    @pytest.mark.parametrize("family, bound", [
        pytest.param("dafi", 1.72, id="dafi"), pytest.param("curvature", 1.63, id="curvature"),
        pytest.param("pure_gauge", 4.78, id="pure_gauge"),
        pytest.param("gauge_action", 4.84, id="gauge_action")])
    def test_family_peak_memory_in_slabs(self, family_peaks, family, bound):
        # every pass runs over (slot, x-slab), so no slot-sized temporary is
        # whole: 1.64, 1.56, 4.56 and 4.62 measured.  Slabs of 2^13 sites are
        # 8 of the 32 planes here, so slab temporaries weigh more than at n = 64
        assert family_peaks[family] <= bound

    def test_rows_independent_of_slab_size(self, monkeypatch):
        # one plane per slab, the default slabs (28 planes do not split evenly
        # at 2^13 sites) and one slab per grid give the same rows bit for bit
        rows = []
        for sites in (1, alg._SLAB_SITES, 28 ** 3):
            monkeypatch.setattr(alg, "_SLAB_SITES", sites)
            rows.append([r.as_dict() for r in identity_suite(sizes=(12, 28))])
        assert rows[0] == rows[1] == rows[2]


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
        curvature = oracles.coset_curvature(b).data
        assert np.array_equal(coset_curvature(b).data, curvature)
        transformed = oracles.gauge_transform_potential(b, stab).a.data
        assert np.array_equal(gauge_transform_potential(b, stab).a.data, transformed)
        assert np.array_equal(gauge._gauge_transform(b, stab, omega).a.data, transformed)

    @pytest.mark.parametrize("reference", ["constant", "smooth"])
    def test_slot_kernels_match_whole_form_formulas(self, grid12, rng, reference):
        # each slot alone equals that slot of the whole-form formula
        if reference == "constant":
            phi = fl.constant_map(grid12)
        else:
            phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        b = isotropic_potential(grid12, phi, rng)
        omega = fl.pullback_coisotropy(phi)
        form = LatticeField(grid12, 1, rng.standard_normal((12,) * 3 + (3, 3)))
        curvature = oracles.coset_curvature(b).data
        dphi = oracles.projector_derivative_wedge(phi, form).data
        for slot in range(3):
            assert np.array_equal(gauge._curvature_slot(b, omega, slot), curvature[:, :, :, slot])
            assert np.array_equal(projector_derivative_slot(phi, form, slot), dphi[:, :, :, slot])

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("reference", ["constant", "smooth"])
    def test_slab_kernels_match_whole_slot_oracles(self, monkeypatch, grid12, rng, reference,
                                                   rows):
        # every slab, the wrap planes' included, equals those planes of the
        # whole-form formula; 12 planes split into slabs of 1 and of 5, 5, 2
        monkeypatch.setattr(alg, "_SLAB_SITES", rows * 12 ** 2)
        if reference == "constant":
            phi = fl.constant_map(grid12)
        else:
            phi = smooth_cp1_map(grid12, rng, amplitude=0.4)
        b = isotropic_potential(grid12, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid12, rng, 0.6))
        omega = fl.pullback_coisotropy(phi)
        form = LatticeField(grid12, 1, rng.standard_normal((12,) * 3 + (3, 3)))
        curvature = oracles.coset_curvature(b).data
        dphi = oracles.projector_derivative_wedge(phi, form).data
        comm = oracles.comm_wedge(form, phi.pair).data
        transformed = oracles.gauge_transform_potential(b, stab).a.data
        logs = oracles.maurer_cartan_form(stab.w).data
        coisotropy = oracles.pullback_coisotropy_cp1(phi).data
        for planes in x_slabs(12):
            for slot in range(3):
                assert np.array_equal(gauge._curvature_slot(b, omega, slot, planes=planes),
                                      curvature[planes, :, :, slot])
                assert np.array_equal(projector_derivative_slot(phi, form, slot, planes=planes),
                                      dphi[planes, :, :, slot])
                assert np.array_equal(comm_slot(form, phi.pair, slot, planes=planes),
                                      comm[planes, :, :, slot])
            for mu in range(3):
                assert np.array_equal(gauge._gauge_transform_slot(b, stab.w, mu, omega, planes),
                                      transformed[planes, :, :, mu])
                assert np.array_equal(fl.maurer_cartan_slot(stab.w, mu, planes=planes),
                                      logs[planes, :, :, mu])
                assert np.array_equal(fl.coisotropy_slot(phi, mu, planes=planes),
                                      coisotropy[planes, :, :, mu])

    def test_constant_map_path_drops_its_zero_form(self, grid12, rng):
        # the constant map's phi^*omega has no nonzero entry, so the kernels
        # that drop its terms give the values of those that add them
        phi = fl.constant_map(grid12)
        b = isotropic_potential(grid12, phi, rng)
        stab = make_stabilizer(phi, smooth_scalar(grid12, rng, 0.6))
        omega = fl.pullback_coisotropy(phi)
        assert np.count_nonzero(omega.data) == 0
        assert np.array_equal(gauge._gauge_transform(b, stab).a.data,
                              gauge._gauge_transform(b, stab, omega).a.data)
        for slot in range(3):
            assert np.array_equal(gauge._curvature_slot(b, None, slot),
                                  gauge._curvature_slot(b, omega, slot))

    def test_suite_rows_unmoved_by_component_kernels(self, monkeypatch):
        # the same process with the old formulas rebound at every module binding
        fast = [row.as_dict() for row in identity_suite(sizes=(16, 32))]
        assert oracles.patch_kernels(monkeypatch) >= 15
        assert [row.as_dict() for row in identity_suite(sizes=(16, 32))] == fast

    @pytest.mark.parametrize("n", [16, 64])
    def test_smooth_scalar_matches_whole_grid_sin(self, n):
        # the separable tables against one sin over the whole grid, same draws
        for seed in range(4):
            for amplitude in (1.0, 0.4):
                got = smooth_scalar(Grid(n), np.random.default_rng(seed), amplitude)
                want = oracles.smooth_scalar(Grid(n), np.random.default_rng(seed), amplitude)
                assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("seed, failed", [(0, []), (1, ["flat_quartic_iii_symmetric"])])
    def test_suite_rows_keep_names_order_and_flags(self, seed, failed):
        # the rotation matrix and the separable inputs move residuals in their
        # last digits only: every row's name, place and verdict stay
        rows = identity_suite(sizes=(16, 32), seed=seed)
        assert [r.name for r in rows] == [
            "curvature_equivariance_shared", "gauge_action_composition", "coulomb_gauge_fixing",
            "dphi_wedge_par", "symmetric_fourth_term", "flat_curvature_i",
            "flat_curvature_i_symmetric",
            "flat_quartic_iii_symmetric", "dphi_wedge_perp", "flat_derivative_ii",
            "flat_derivative_ii_symmetric", "pure_gauge_flatness", "mapcon", "dual_energy",
            "dafi_shared_inputs", "dafi_energy_density", "stabilizer_derivative_e062",
            "refcurv_no_projection", "curvature_vs_projected_form", "isotropic_derivative_perp"]
        assert [r.name for r in rows if not r.passed] == failed


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
