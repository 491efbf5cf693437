import tracemalloc

import numpy as np
import pytest

from conftest import smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import topology as tp
from hopfion.errors import DegeneratePreimageError, FluxObstructionError, HopfionError
from hopfion.gauge import make_stabilizer, smooth_scalar
from hopfion.lattice import Grid, LatticeField, coulomb_solve, d, l2_norm
import oracles
from oracles import gauss_integral_linking, signed_preimage_count, volume_degree


class TestChernSimons:
    def test_zero_potential(self, grid16):
        a = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), fl.constant_map(grid16))
        report = tp.chern_simons_charge(a)
        assert np.allclose(report.cs_value, 0.0)
        assert report.max_deviation == 0.0

    def test_ball_degree_one_plain_route(self):
        # the op itself (no extrapolation) sits within 0.02 at n = 48
        _, u = fl.make_ansatz("ball_degree", Grid(48), 1)
        report = tp.chern_simons_charge(fl.pure_gauge_potential(u))
        assert abs(report.cs_value[0] - 1.0) <= 0.02

    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_matches_preimage_count_oracle(self, q):
        grid = Grid(32)
        _, u = fl.make_ansatz("ball_degree", grid, q)
        count = signed_preimage_count(u)
        assert count == q
        refined = tp.chern_simons_from_lift(u).cs_value[0]
        assert abs(refined - count) <= 0.02
        # frozen orientation dictionary: charge = -(volume-formula degree);
        # the plain volume quadrature carries its own O(h^2) deviation
        vol = volume_degree(u)
        assert np.sign(vol) == -np.sign(refined)
        assert abs(vol + refined) <= 0.35

    def test_integrality_refinement_order(self):
        devs = {}
        for n in (24, 32, 48):
            _, u = fl.make_ansatz("hopf", Grid(n), 1)
            devs[n] = abs(tp.chern_simons_charge(fl.pure_gauge_potential(u)).cs_value[0] - 1.0)
        hs = np.log([Grid(n).h for n in devs])
        order = np.polyfit(hs, np.log(list(devs.values())), 1)[0]
        assert devs[48] < devs[32] < devs[24]
        assert order >= 1.5

    def test_additivity_with_stabilizer(self):
        grid = Grid(32)
        phi = fl.constant_map(grid)
        _, u = fl.make_ansatz("hopf", grid, 1)
        rng = np.random.default_rng(4)
        w = make_stabilizer(phi, smooth_scalar(grid, rng, 0.6)).w
        uw = fl.LiftField(grid, u.pair, alg.qmul(u.values, w.values))
        c_u = tp.chern_simons_from_lift(u).cs_value[0]
        c_w = tp.chern_simons_from_lift(w).cs_value[0]
        c_uw = tp.chern_simons_from_lift(uw).cs_value[0]
        assert abs(c_w) < 1e-10          # abelian-valued: integrand vanishes
        assert abs(c_uw - c_u - c_w) <= 0.03

    def test_odd_grid_plain_value(self, rng, monkeypatch):
        # n = 9 cannot be halved: no extrapolation, the plain four-term value
        u = smooth_lift(Grid(9), rng)
        plain = tp.chern_simons_charge(fl.pure_gauge_potential(u)).cs_value
        monkeypatch.setattr(tp, "_subsample", lambda u: pytest.fail("subsampled"))
        assert np.array_equal(tp.chern_simons_from_lift(u).cs_value, plain)

    def test_constant_gauge_invariance(self, rng):
        grid = Grid(24)
        _, u = fl.make_ansatz("hopf", grid, 1)
        g = alg.random_unit_quaternions(rng)
        gu = fl.LiftField(grid, u.pair, alg.qmul(np.broadcast_to(g, u.values.shape), u.values))
        c0 = tp.chern_simons_from_lift(u).cs_value[0]
        c1 = tp.chern_simons_from_lift(gu).cs_value[0]
        assert abs(c0 - c1) < 1e-10

    def test_four_term_split_resums(self, grid16, rng):
        # the split against any reference equals the unsplit trace integrand
        u = smooth_lift(grid16, rng, amplitude=0.5)
        a = fl.pure_gauge_potential(u)
        apar, aperp = a.split()
        T = a.pair.trace_tensor
        A, par, perp = a.a.data, apar.data, aperp.data
        whole = tp._trace_wedge_data(A, A, A, T)
        split = (tp._trace_wedge_data(par, par, par, T)
                 + 3.0 * tp._trace_wedge_data(par, par, perp, T)
                 + 3.0 * tp._trace_wedge_data(par, perp, perp, T)
                 + tp._trace_wedge_data(perp, perp, perp, T))
        scale = max(float(np.max(np.abs(whole))), 1e-30)
        assert np.max(np.abs(whole - split)) < 1e-10 * scale


class TestTripleTraceKernel:
    def test_epsilon_path_matches_einsum(self, rng, monkeypatch):
        # three distinct generic 1-forms: no term of the determinant vanishes
        T = alg.su2_u1().trace_tensor
        alpha, beta, gamma = (rng.standard_normal((12,) * 3 + (3, 3)) for _ in range(3))

        def no_einsum(*args, **kwargs):
            raise AssertionError("the su2 trace tensor took the einsum path")

        monkeypatch.setattr(np, "einsum", no_einsum)
        got = tp._trace_wedge_data(alpha, beta, gamma, T)
        monkeypatch.undo()
        ref = oracles.triple_trace_wedge_data(alpha, beta, gamma, T)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_su3_path_is_the_einsum(self, rng):
        T = alg.su3_t2().trace_tensor
        alpha, beta, gamma = (rng.standard_normal((6,) * 3 + (3, 8)) for _ in range(3))
        got = tp._trace_wedge_data(alpha, beta, gamma, T)
        assert np.array_equal(got, oracles.triple_trace_wedge_data(alpha, beta, gamma, T))

    @pytest.mark.parametrize("q", [1, 2])
    def test_chern_simons_from_lift_unmoved(self, q, monkeypatch):
        _, u = fl.make_ansatz("hopf", Grid(24), q)
        got = tp.chern_simons_from_lift(u).cs_value
        monkeypatch.setattr(tp, "_trace_wedge_data", oracles.triple_trace_wedge_data)
        ref = tp.chern_simons_from_lift(u).cs_value
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestWhitehead:
    def test_constant_map(self, grid16):
        assert tp.whitehead_charge(fl.constant_map(grid16)) == 0.0

    def test_hopf_one(self):
        psi, _ = fl.make_ansatz("hopf", Grid(32), 1)
        assert abs(tp.whitehead_charge(psi) - 1.0) <= 0.02

    def test_solver_exactness(self, rng):
        # dA = F holds at roundoff on the hopf flux form, which is exactly
        # closed, and on an exact form at odd n, where an irfftn without its
        # output shape returns n - 1 planes
        psi, _ = fl.make_ansatz("hopf", Grid(24), 1)
        exact = d(LatticeField(Grid(9), 1, rng.standard_normal((9, 9, 9, 3, 1))))
        for F in (tp.area_flux_2form(psi), exact):
            A = coulomb_solve(F)
            assert l2_norm(d(A) - F) < 1e-10 * l2_norm(F)

    @pytest.mark.parametrize("n", [16, 24, 48])
    @pytest.mark.parametrize("q", [1, 2])
    def test_plain_value_matches_complex_fft_oracle(self, n, q, monkeypatch):
        psi, _ = fl.make_ansatz("hopf", Grid(n), q)
        got = tp._whitehead_plain(psi)
        monkeypatch.setattr(tp, "coulomb_solve", oracles.vector_potential)
        assert abs(got - tp._whitehead_plain(psi)) <= 1e-13

    def test_flux_obstruction_raises(self):
        # a 2d hedgehog extended along z has unit flux through (x, y) tori
        grid = Grid(24)
        x = grid.site_coords() - grid.length / 2
        rho = np.hypot(x[..., 0], x[..., 1])
        f = np.pi * fl.smoothstep(1.0 - rho / (grid.length / 3))
        phi_az = np.arctan2(x[..., 1], x[..., 0])
        vals = np.stack([np.cos(f), np.sin(f) * np.cos(phi_az),
                         np.sin(f) * np.sin(phi_az)], axis=-1)
        psi = fl.MapField(grid, alg.su2_u1(), vals)
        with pytest.raises(FluxObstructionError):
            tp.whitehead_charge(psi)

    def test_great_circle_is_nullhomotopic(self):
        psi, _ = fl.make_ansatz("great_circle", Grid(16))
        assert abs(tp.whitehead_charge(psi)) < 1e-10


class TestLinking:
    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_hopf_ansatz(self, q):
        psi, _ = fl.make_ansatz("hopf", Grid(32), q)
        assert tp.linking_charge(psi) == q

    def test_constant_map_errors(self, grid16):
        with pytest.raises(DegeneratePreimageError):
            tp.linking_charge(fl.constant_map(grid16))

    def test_matches_gauss_integral(self):
        psi, _ = fl.make_ansatz("hopf", Grid(32), 1)
        curves_p = tp.preimage_curves(psi, np.array([0.0, 1.0, 0.0]))
        curves_q = tp.preimage_curves(psi, np.array([0.0, 0.0, 1.0]))
        total = sum(gauss_integral_linking(cp, cq)
                    for cp in curves_p for cq in curves_q)
        assert abs(total - tp.linking_charge(psi)) < 0.1

    def test_curves_live_on_the_preimage(self):
        # the map at the corner below each curve point stays within one
        # cell's field variation of the regular value
        psi, _ = fl.make_ansatz("hopf", Grid(32), 1)
        p = np.array([0.0, 1.0, 0.0])
        link = max(np.max(np.linalg.norm(np.roll(psi.values, -1, axis=mu)
                                         - psi.values, axis=-1)) for mu in range(3))
        grid = psi.grid
        for curve in tp.preimage_curves(psi, p):
            idx = np.floor(curve[:-1] / grid.h).astype(int) % grid.n
            base = psi.values[idx[:, 0], idx[:, 1], idx[:, 2]]
            assert np.max(np.linalg.norm(base - p, axis=-1)) < 2.0 * link


class TestPreimageWalk:
    def test_torus_winding_preimage_keeps_its_reason(self):
        # degree 1 on every xy 2-torus, constant in z: each preimage is a
        # line along z, and no tilt of the regular value closes it in R^3
        grid = Grid(16)
        L = grid.length
        x = grid.site_coords() + grid.h / 2
        theta = np.pi * np.maximum(np.abs(2 * x[..., 0] / L - 1), np.abs(2 * x[..., 1] / L - 1))
        az = np.arctan2(x[..., 1] - L / 2, x[..., 0] - L / 2)
        vals = np.stack([np.sin(theta) * np.cos(az), np.sin(theta) * np.sin(az),
                         np.cos(theta)], axis=-1)
        psi = fl.MapField(grid, alg.su2_u1(), vals)
        with pytest.raises(DegeneratePreimageError, match="winds the torus"):
            tp.linking_charge(psi)

    # (position, cube entered, cube left), h = 1: a strand from A to B
    # through their shared face and back through it closes
    A, B, C = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    PAIR = [(np.array([1.0, 0.3, 0.5]), B, A), (np.array([1.0, 0.7, 0.5]), A, B)]

    def test_balanced_pair_closes(self):
        loops = tp._walk_loops(self.PAIR, Grid(4, 4.0))
        assert len(loops) == 1 and loops[0].shape == (3, 3)
        assert np.array_equal(loops[0][0], loops[0][-1])

    def test_unbalanced_cube_dead_ends(self):
        # a second strand leaves A but none enters it: two exits, one entry
        extra = (np.array([0.5, 1.0, 0.5]), self.C, self.A)
        for crossings in (self.PAIR + [extra], [extra] + self.PAIR):
            with pytest.raises(DegeneratePreimageError, match="dead-ended"):
                tp._walk_loops(crossings, Grid(4, 4.0))


def _circle(center, e1, e2, m, radius=1.0):
    """Closed m-gon on the circle about center in the plane (e1, e2), first vertex repeated."""
    t = 2.0 * np.pi * np.arange(m) / m
    pts = np.asarray(center) + radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2)
    return np.vstack([pts, pts[:1]])


class TestGaussLinking:
    X, Y, Z = np.eye(3)

    def _core(self):
        return _circle((0.0, 0.0, 0.0), self.X, self.Y, 64)

    def _hopf_partner(self, center=(1.0, 0.0, 0.0)):
        # through the core's disk at the origin when centred at (1, 0, 0)
        return _circle(center, self.X, -self.Z, 48)

    def _check(self, c1, c2, expected):
        assert tp.gauss_linking(c1, c2) == expected
        assert tp.gauss_linking(c2, c1) == expected
        assert round(gauss_integral_linking(c1, c2)) == expected

    def test_hopf_link(self):
        self._check(self._core(), self._hopf_partner(), 1)

    def test_reversed_orientation(self):
        self._check(self._core(), self._hopf_partner()[::-1], -1)

    def test_pulled_apart(self):
        self._check(self._core(), self._hopf_partner((3.0, 0.0, 0.0)), 0)

    def test_winds_twice(self):
        # a (1, 2) torus curve at tube radius 0.4 about the core circle
        t = 2.0 * np.pi * np.arange(201) / 200
        tube = 1.0 + 0.4 * np.cos(2.0 * t)
        curve = np.stack([tube * np.cos(t), tube * np.sin(t), -0.4 * np.sin(2.0 * t)], axis=-1)
        curve[-1] = curve[0]
        self._check(self._core(), curve, 2)

    def test_shared_point_refused(self):
        core, partner = self._core(), self._hopf_partner()
        touching = partner - partner[10] + core[5]
        with pytest.raises(DegeneratePreimageError):
            tp.gauss_linking(core, touching)


class TestOrientationAndAgreement:
    def test_axis_reversal_negates_all_routes(self):
        grid = Grid(32)
        psi, u = fl.make_ansatz("hopf", grid, 1)
        rev = lambda arr: np.roll(arr[::-1], 1, axis=0)
        psi_r = fl.MapField(grid, psi.pair, rev(psi.values), renormalize=False)
        u_r = fl.LiftField(grid, u.pair, rev(u.values), renormalize=False)
        assert np.allclose(tp.chern_simons_from_lift(u_r).cs_value,
                           -tp.chern_simons_from_lift(u).cs_value, atol=1e-12)
        assert np.isclose(tp.whitehead_charge(psi_r), -tp.whitehead_charge(psi), atol=1e-12)
        assert tp.linking_charge(psi_r) == -tp.linking_charge(psi)

    def test_routes_agree_after_rounding(self):
        grid = Grid(32)
        for q in (1, 2):
            psi, u = fl.make_ansatz("hopf", grid, q)
            cs = tp.chern_simons_from_lift(u)
            wh = tp.whitehead_charge(psi)
            lk = tp.linking_charge(psi)
            assert cs.rounded[0] == int(round(wh)) == lk == q


class TestRouteMemory:
    """Each charge route keeps its temporaries a few full-grid 1-forms deep.

    Peaks above the inputs come from tracemalloc, which sees numpy's
    buffers, in units of one (n, n, n, 3, 3) float array at n = 32.  Deep
    whole-grid temporaries make the peak memory of a process that runs
    the routes repeatedly depend on the heap layout.
    """

    @staticmethod
    def _peak_in_forms(fn, field):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(field)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / (field.grid.n ** 3 * 9 * 8)

    @pytest.mark.parametrize("route, budget", [
        ("chern_simons", 2.9), ("whitehead", 2.6), ("linking", 2.5)])
    def test_transient_memory(self, route, budget):
        psi, u = fl.make_ansatz("hopf", Grid(32), 1)
        fn, field = {"chern_simons": (tp.chern_simons_from_lift, u),
                     "whitehead": (tp.whitehead_charge, psi),
                     "linking": (tp.linking_charge, psi)}[route]
        assert self._peak_in_forms(fn, field) <= budget


def test_charge_report_json():
    import json

    report = tp.ChargeReport(cs_value=np.array([0.98]), whitehead_value=1.01,
                             linking_value=1)
    payload = json.loads(json.dumps(report.as_dict()))
    assert set(payload) == {"cs", "whitehead", "linking", "rounded", "deviation"}
    assert payload["rounded"] == [1]
    assert np.isclose(payload["deviation"], 0.02)


def test_routes_that_round_differently_have_no_verdict():
    report = tp.ChargeReport(cs_value=[0.0], linking_value=1)
    for read in (lambda r: r.rounded, tp.ChargeReport.as_dict, str):
        with pytest.raises(HopfionError, match="chern-simons 0, linking 1"):
            read(report)


def test_linking_decides_the_verdict():
    # the float routes round to the exact linking integer, which is the verdict
    report = tp.ChargeReport(cs_value=np.array([-0.4]), whitehead_value=0.3, linking_value=0)
    assert report.rounded == [0]
    assert report.max_deviation == 0.4
    assert tp.ChargeReport().rounded == []
