import numpy as np
import pytest

import oracles
from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion.energy import (
    CROSS_VARIANT_SKYRME_RATIO,
    comm_wedge,
    descent_energy,
    descent_gradient,
    energy_gradient,
    energy_map,
    energy_potential,
)
from hopfion.gauge import make_stabilizer, gauge_transform_potential, smooth_scalar
from hopfion.lattice import Grid
from hopfion.topology import area_flux_2form


def overlap_directions(psi, grad, rng, count):
    """Random tangent directions with guaranteed gradient overlap.

    A uniformly random direction in this many dimensions is almost
    orthogonal to the gradient, which makes the relative finite-difference
    comparison ill-conditioned; mixing in the normalized gradient keeps
    the quotient meaningful without losing randomness.
    """
    ghat = grad / np.linalg.norm(grad)
    for _ in range(count):
        d = rng.standard_normal(psi.values.shape)
        d -= np.sum(d * psi.values, axis=-1, keepdims=True) * psi.values
        d = d / np.linalg.norm(d) + ghat
        d -= np.sum(d * psi.values, axis=-1, keepdims=True) * psi.values
        yield d / np.linalg.norm(d)


class TestEnergyMap:
    def test_constant_is_zero(self, grid16):
        assert energy_map(fl.constant_map(grid16)).total == 0.0

    def test_great_circle_closed_form(self):
        grid = Grid(32)
        psi, _ = fl.make_ansatz("great_circle", grid)
        report = energy_map(psi)
        # slot norm is sin(2 pi h / L) / (2 h) at every site, and the
        # rank-one differential kills the quartic term exactly
        expected = 0.5 * grid.length ** 3 * (
            np.sin(2 * np.pi * grid.h / grid.length) / (2 * grid.h)) ** 2
        assert abs(report.dirichlet - expected) < 1e-12 * expected
        assert report.skyrme == 0.0

    def test_cross_variant_dirichlet_equal(self, rng):
        psi = smooth_cp1_map(Grid(16), rng, amplitude=0.5)
        coiso = energy_map(psi)
        cross = energy_map(psi, variant="cross_product")
        assert abs(coiso.dirichlet - cross.dirichlet) < 1e-12 * coiso.dirichlet

    def test_cross_variant_skyrme_ratio_frozen(self, rng):
        psi = smooth_cp1_map(Grid(16), rng, amplitude=0.5)
        coiso = energy_map(psi)
        cross = energy_map(psi, variant="cross_product")
        dens_c = coiso.density.slot(0)[..., 0] - _dirichlet_density(psi)
        dens_x = cross.density.slot(0)[..., 0] - _dirichlet_density(psi)
        keep = dens_x > 1e-6 * dens_x.max()
        ratio = dens_c[keep] / dens_x[keep]
        assert abs(np.mean(ratio) - CROSS_VARIANT_SKYRME_RATIO) < 1e-10
        assert np.std(ratio) / np.mean(ratio) < 1e-10

    def test_cross_variant_needs_cp1(self, grid16, rng):
        u = smooth_lift(grid16, rng)
        psi = fl.MapField(grid16, alg.su2_group(), u.values)
        with pytest.raises(ValueError):
            energy_map(psi, variant="cross_product")

    def test_isotropic_variant_matches_on_symmetric_pair(self, rng):
        # [h-perp, h-perp] lands in h, so the projection changes nothing on CP1
        psi = smooth_cp1_map(Grid(16), rng, amplitude=0.5)
        a = energy_map(psi)
        b = energy_map(psi, variant="isotropic_skyrme")
        assert abs(a.skyrme - b.skyrme) < 1e-10 * max(a.skyrme, 1e-30)

    def test_global_symmetry(self, rng):
        grid = Grid(16)
        psi = smooth_cp1_map(grid, rng, amplitude=0.5)
        g = alg.random_unit_quaternions(rng)
        rotated = psi.with_values(alg.qrotate(g, psi.values))
        e0 = energy_map(psi).total
        e1 = energy_map(rotated).total
        assert abs(e0 - e1) < 1e-12 * e0

    def test_lattice_symmetries(self, rng):
        grid = Grid(16)
        psi = smooth_cp1_map(grid, rng, amplitude=0.5)
        e0 = energy_map(psi).total
        rolled = psi.with_values(np.roll(psi.values, 5, axis=1), renormalize=False)
        assert abs(energy_map(rolled).total - e0) < 1e-12 * e0
        cycled = psi.with_values(np.transpose(psi.values, (2, 0, 1, 3)), renormalize=False)
        assert abs(energy_map(cycled).total - e0) < 1e-12 * e0

    def test_lower_bound_and_vanishing(self, rng):
        psi = smooth_cp1_map(Grid(12), rng, amplitude=0.4)
        assert energy_map(psi).total > 0.0
        assert energy_map(fl.constant_map(Grid(12))).total == 0.0

    def test_report_consistency(self, rng):
        psi = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        rep = energy_map(psi)
        assert rep.total == rep.dirichlet + rep.skyrme
        from hopfion.lattice import integrate_3form, LatticeField

        total = float(np.sum(rep.density.data)) * psi.grid.h ** 3
        assert abs(total - rep.total) < 1e-12 * rep.total
        assert np.all(rep.density.data >= 0.0)

    def test_unknown_variant(self, grid16):
        with pytest.raises(ValueError):
            energy_map(fl.constant_map(grid16), variant="manton")


def _dirichlet_density(psi):
    from hopfion.fields import pullback_coisotropy

    return 0.5 * pullback_coisotropy(psi).norm2_density()


class TestEnergyPotential:
    def test_zero_potential_constant_reference(self, grid16):
        phi = fl.constant_map(grid16)
        from hopfion.lattice import LatticeField

        a = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), phi)
        assert energy_potential(a).total == 0.0

    def test_matches_map_energy_under_refinement(self):
        rel = []
        for n in (16, 32):
            grid = Grid(n)
            local = np.random.default_rng(17)
            phi = smooth_cp1_map(grid, local, amplitude=0.25)
            u = smooth_lift(grid, local, amplitude=0.4)
            e_map = energy_map(fl.act(u, phi)).total
            e_pot = energy_potential(fl.pure_gauge_potential(u, phi)).total
            rel.append(abs(e_map - e_pot) / e_map)
        assert rel[1] < 0.4 * rel[0]

    def test_gauge_invariance_constant_reference(self, rng):
        grid = Grid(16)
        phi = fl.constant_map(grid)
        from hopfion.gauge import smooth_algebra_field
        from hopfion.lattice import LatticeField

        data = np.stack([smooth_algebra_field(grid, rng, 0.6) for _ in range(3)], axis=3)
        a = fl.PotentialField(LatticeField(grid, 1, data), phi)
        stab = make_stabilizer(phi, smooth_scalar(grid, rng, 0.7))
        dw = fl.pure_gauge_potential(stab.w, phi).a
        from hopfion.gauge import ad_inverse_apply

        a_w = fl.PotentialField(ad_inverse_apply(stab.w, a.a) + dw, phi)
        e0 = energy_potential(a)
        e1 = energy_potential(a_w)
        assert abs(e0.total - e1.total) < 1e-10 * e0.total
        d0 = e0.density.data
        d1 = e1.density.data
        assert np.max(np.abs(d0 - d1)) < 1e-10 * np.max(d0)

    def test_grid_mismatch_rejected(self, rng):
        from hopfion.lattice import LatticeField

        with pytest.raises(ValueError):
            fl.PotentialField(LatticeField.zeros(Grid(12), 1, 3), fl.constant_map(Grid(16)))


class TestGradients:
    def test_constant_critical(self, grid16):
        assert np.max(np.abs(energy_gradient(fl.constant_map(grid16)))) == 0.0
        assert np.max(np.abs(descent_gradient(fl.constant_map(grid16)))) == 0.0

    def test_tangency(self, rng):
        psi = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        for g in (energy_gradient(psi), descent_gradient(psi)):
            assert np.max(np.abs(np.sum(g * psi.values, axis=-1))) < 1e-12

    def test_energy_gradient_matches_fd(self, rng):
        psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
        grad = energy_gradient(psi)
        eps = 1e-5
        for delta in overlap_directions(psi, grad, rng, 10):
            ep = energy_map(psi.with_values(psi.values + eps * delta)).total
            em = energy_map(psi.with_values(psi.values - eps * delta)).total
            fd = (ep - em) / (2 * eps)
            an = float(np.sum(grad * delta))
            assert abs(fd - an) <= 1e-6 * abs(an)

    def test_descent_gradient_matches_fd(self, rng):
        psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
        grad = descent_gradient(psi)
        eps = 1e-5
        for delta in overlap_directions(psi, grad, rng, 10):
            ep = descent_energy(psi.with_values(psi.values + eps * delta))
            em = descent_energy(psi.with_values(psi.values - eps * delta))
            fd = (ep - em) / (2 * eps)
            an = float(np.sum(grad * delta))
            assert abs(fd - an) <= 1e-6 * abs(an)

    def test_linear_part_is_compact_laplacian(self, rng):
        # Dirichlet-only descent gradient on a weak perturbation of the
        # constant map reduces to the nearest-neighbor Laplacian stencil.
        grid = Grid(12)
        eps = 1e-6
        delta = rng.standard_normal((12, 12, 12, 3))
        delta[..., 0] = 0.0
        psi = fl.constant_map(grid).with_values(
            fl.constant_map(grid).values + eps * delta)
        g = descent_gradient(psi, scale_skyrme=0.0)
        lap = sum(np.roll(psi.values, s, axis=mu) for mu in range(3) for s in (1, -1))
        expected = (grid.h / 4.0) * (6.0 * psi.values - lap)
        expected -= np.sum(expected * psi.values, axis=-1, keepdims=True) * psi.values
        assert np.max(np.abs(g - expected)) < 1e-9 * np.max(np.abs(g))


@pytest.mark.parametrize("start", ["perturbed_hopf", "smooth"])
def test_plaquette_kernel_bit_exact(start, rng):
    # the component-major kernel rounds exactly like the site-major reference
    grid = Grid(12)
    if start == "perturbed_hopf":
        psi, _ = fl.make_ansatz("hopf", grid, 1)
        psi = psi.with_values(psi.values + 0.2 * rng.standard_normal(psi.values.shape))
    else:
        psi = smooth_cp1_map(grid, rng, amplitude=0.5)
    scales = dict(scale_dirichlet=0.7, scale_skyrme=1.3)
    assert descent_energy(psi, split=True, **scales) == oracles.descent_energy(psi, **scales)
    grad = descent_gradient(psi, **scales)
    assert grad.flags.c_contiguous
    assert np.array_equal(grad, oracles.descent_gradient(psi, **scales))
    assert np.array_equal(area_flux_2form(psi).data, oracles.area_flux_2form(psi).data)


def test_descent_energy_consistent_with_map_energy():
    # the two discretizations of the same functional approach each other
    rel = []
    for n in (16, 32):
        grid = Grid(n)
        local = np.random.default_rng(23)
        psi = smooth_cp1_map(grid, local, amplitude=0.4)
        a = energy_map(psi).total
        b = descent_energy(psi)
        rel.append(abs(a - b) / a)
    assert rel[1] < 0.35 * rel[0]


def test_su3_energy_smoke(rng):
    pair = alg.su3_t2()
    grid = Grid(8)
    gen = 0.25 * np.stack([np.stack(
        [smooth_scalar(grid, rng, 0.5) for _ in range(8)], axis=-1)], axis=0)[0]
    g = oracles.matrix_exp(pair.matrix_of(gen))
    psi = fl.MapField(grid, pair, g, renormalize=False)
    e_coiso = energy_map(psi)
    e_iso = energy_map(psi, variant="isotropic_skyrme")
    assert e_coiso.total > 0.0
    # non-symmetric pair: projecting the quartic slots changes the value
    assert e_iso.skyrme < e_coiso.skyrme
    ident = fl.MapField(grid, pair, pair.identity_element((8,) * 3), renormalize=False)
    assert energy_map(ident).total == 0.0


def test_comm_wedge_is_the_cross_wedge(rng):
    # one cross per slot, doubled, rounds as cross(a_mu, a_nu) - cross(a_nu, a_mu)
    psi = smooth_cp1_map(Grid(10), rng, amplitude=0.5)
    omega = fl.pullback_coisotropy(psi)
    for pair in (alg.su2_u1(), alg.su2_group()):
        assert np.array_equal(comm_wedge(omega, pair).data, oracles.comm_wedge(omega, pair).data)


def test_energies_unmoved_by_component_kernels(rng, monkeypatch):
    # every energy_map variant and energy_gradient, with and without the oracles
    psi = smooth_cp1_map(Grid(10), rng, amplitude=0.5)

    def run():
        maps = [energy_map(psi, variant).density.data
                for variant in ("coisotropy", "cross_product", "isotropic_skyrme")]
        return maps + [energy_gradient(psi)]

    fast = run()
    assert oracles.patch_kernels(monkeypatch) > 0
    for got, ref in zip(fast, run()):
        assert np.array_equal(got, ref)
