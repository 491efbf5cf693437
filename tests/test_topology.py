import functools
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import energy as en
from hopfion import fields as fl
from hopfion import topology as tp
from hopfion.errors import (DegeneratePreimageError, FluxObstructionError, HopfionError,
                            RoughFieldError)
from hopfion.gauge import make_stabilizer, smooth_scalar
from hopfion.lattice import Grid, LatticeField, coulomb_solve, d, l2_norm
import oracles
from oracles import gauss_integral_linking, signed_preimage_count, volume_degree


def _su3_lift(u):
    """An su2_u1 lift embedded in SU(3), in the upper-left 2 x 2 block."""
    su3 = np.zeros(u.values.shape[:3] + (3, 3), dtype=complex)
    su3[..., :2, :2] = u.values[..., :1, None] * np.eye(2) + u.pair.matrix_of(u.values[..., 1:])
    su3[..., 2, 2] = 1.0
    return fl.LiftField(u.grid, alg.su3_t2(), su3)


class TestChernSimons:
    def test_zero_potential(self, grid16):
        a = fl.PotentialField(LatticeField.zeros(grid16, 1, 3), fl.constant_map(grid16))
        report = tp.ChargeReport(cs_value=tp.chern_simons_charge(a))
        assert np.allclose(report.cs_value, 0.0)
        assert report.max_deviation == 0.0

    def test_ball_degree_one_plain_route(self):
        # the op itself (no extrapolation) sits within 0.02 at n = 48 on the
        # degree-1 lift supported in a ball
        _, u = fl.make_ansatz("hopf", Grid(48), 1)
        value = tp.chern_simons_charge(fl.pure_gauge_potential(u))
        assert abs(value - 1.0) <= 0.02

    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_matches_preimage_count_oracle(self, q):
        grid = Grid(32)
        _, u = fl.make_ansatz("hopf", grid, q)
        count = signed_preimage_count(u)
        assert count == q
        refined = tp.chern_simons_from_lift(u)
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
            devs[n] = abs(tp.chern_simons_charge(fl.pure_gauge_potential(u)) - 1.0)
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
        c_u = tp.chern_simons_from_lift(u)
        c_w = tp.chern_simons_from_lift(w)
        c_uw = tp.chern_simons_from_lift(uw)
        assert abs(c_w) < 1e-10          # abelian-valued: integrand vanishes
        assert abs(c_uw - c_u - c_w) <= 0.03

    def test_odd_grid_plain_value(self, rng, monkeypatch):
        # n = 9 cannot be halved: no extrapolation, the plain four-term value
        u = smooth_lift(Grid(9), rng)
        plain = tp.chern_simons_charge(fl.pure_gauge_potential(u))
        monkeypatch.setattr(tp, "_subsample", lambda u: pytest.fail("subsampled"))
        assert np.array_equal(tp.chern_simons_from_lift(u), plain)

    def test_coarse_rough_field_ends_the_route(self):
        # links of pi/2 about i along x; the stride-2 links reach pi, qlog's
        # cut.  The plain value is 0 (a has an x slot only), and the
        # subsample's RoughFieldError is no flux obstruction: no fallback
        theta = 0.5 * np.pi * np.broadcast_to(np.arange(8.0)[:, None, None], (8, 8, 8))
        zero = np.zeros_like(theta)
        u = fl.LiftField(Grid(8), alg.su2_u1(),
                         np.stack([np.cos(theta), np.sin(theta), zero, zero], axis=-1))
        assert tp.chern_simons_charge(fl.pure_gauge_potential(u)) == 0.0
        with pytest.raises(RoughFieldError):
            tp.chern_simons_from_lift(u)

    def test_constant_gauge_invariance(self, rng):
        grid = Grid(24)
        _, u = fl.make_ansatz("hopf", grid, 1)
        g = alg.random_unit_quaternions(rng)
        gu = fl.LiftField(grid, u.pair, alg.qmul(np.broadcast_to(g, u.values.shape), u.values))
        c0 = tp.chern_simons_from_lift(u)
        c1 = tp.chern_simons_from_lift(gu)
        assert abs(c0 - c1) < 1e-10

    def test_four_term_split_resums(self, grid16, rng):
        # the split against any reference equals the unsplit trace integrand
        u = smooth_lift(grid16, rng, amplitude=0.5)
        a = fl.pure_gauge_potential(u)
        apar, aperp = a.split()
        T = oracles.trace_tensor(a.pair)
        par, perp = apar.data, aperp.data
        whole = tp.triple_trace_wedge(a.a.data, a.pair)
        split = (oracles.triple_trace_wedge_data(par, par, par, T)
                 + 3.0 * oracles.triple_trace_wedge_data(par, par, perp, T)
                 + 3.0 * oracles.triple_trace_wedge_data(par, perp, perp, T)
                 + oracles.triple_trace_wedge_data(perp, perp, perp, T))
        scale = max(float(np.max(np.abs(whole))), 1e-30)
        assert np.max(np.abs(whole - split)) < 1e-10 * scale

    def test_needs_no_map(self, rng):
        # the integrand depends on G alone: the same lift read in su2_group
        # gives the same bits, and embedded in SU(3) the same trace per site
        grid = Grid(12)
        u = smooth_lift(grid, rng, amplitude=0.2)
        a = fl.pure_gauge_potential(u)
        group = fl.pure_gauge_potential(fl.LiftField(grid, alg.su2_group(), u.values,
                                                    renormalize=False))
        assert np.array_equal(tp.chern_simons_charge(group),
                              tp.chern_simons_charge(a))
        b = fl.pure_gauge_potential(_su3_lift(u))
        want = tp.triple_trace_wedge(a.a.data, a.pair)
        got = tp.triple_trace_wedge(b.a.data, b.pair)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        cs_a, cs_b = tp.chern_simons_charge(a), tp.chern_simons_charge(b)
        bound = 1e-12 * tp.CHERN_SIMONS_SU_N * np.sum(np.abs(want)) * grid.h ** 3
        assert np.abs(cs_b - cs_a) <= bound

    def test_su3_lift_extrapolates_as_su2(self):
        # the matrix log takes the link angles qlog takes, so the embedded
        # lift's stride-2 subsample is logged too and the value extrapolates
        _, u = fl.make_ansatz("hopf", Grid(16), 1)
        want = tp.chern_simons_from_lift(u)
        assert np.max(np.abs(tp.chern_simons_from_lift(_su3_lift(u)) - want)) <= 1e-12


class TestTripleTraceKernel:
    @pytest.mark.parametrize("pair", [alg.su2_u1(), alg.su3_t2()], ids=lambda p: p.name)
    def test_matches_einsum(self, rng, pair):
        # a generic 1-form: no term of the trace vanishes
        A = rng.standard_normal((6,) * 3 + (3, pair.dim_g))
        got = tp.triple_trace_wedge(A, pair)
        ref = oracles.triple_trace_wedge_data(A, A, A, oracles.trace_tensor(pair))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("q", [1, 2])
    def test_chern_simons_from_lift_unmoved(self, q, monkeypatch):
        _, u = fl.make_ansatz("hopf", Grid(24), q)
        got = tp.chern_simons_from_lift(u)

        def oracle(A, pair):
            return oracles.triple_trace_wedge_data(A, A, A, oracles.trace_tensor(pair))

        monkeypatch.setattr(tp, "triple_trace_wedge", oracle)
        ref = tp.chern_simons_from_lift(u)
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

    def test_flux_obstructed_subsample_keeps_plain_value(self):
        # the n = 16 charge-1 ansatz halves to the n = 8 map, which has flux
        # through a coordinate 2-torus: the fine value is not extrapolated
        psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
        with pytest.raises(FluxObstructionError):
            tp._whitehead_plain(tp._subsample(psi))
        assert tp.whitehead_charge(psi) == tp._whitehead_plain(psi) == 0.8608950326546079

    def test_subsample_outside_the_spacing_rule_keeps_plain_value(self):
        # at period 1e78 the n = 24 grid passes Grid's spacing rule and its
        # stride-2 subsample does not: the fine value comes back, the one of
        # the default period up to rounding
        psi, _ = fl.make_ansatz("hopf", Grid(24), 1)
        far = fl.MapField(Grid(24, 1e78), psi.pair, psi.values, renormalize=False)
        with pytest.raises(ValueError, match="spacing"):
            tp._subsample(far)
        assert tp.whitehead_charge(far) == tp._whitehead_plain(far)
        assert abs(tp.whitehead_charge(far) - tp._whitehead_plain(psi)) <= 1e-12

    def test_great_circle_is_nullhomotopic(self):
        psi, _ = fl.make_ansatz("great_circle", Grid(16))
        assert abs(tp.whitehead_charge(psi)) < 1e-10


class TestLinking:
    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_hopf_ansatz(self, q):
        psi, _ = fl.make_ansatz("hopf", Grid(32), q)
        assert tp.linking_charge(psi) == q

    def test_constant_map_links_nothing(self, grid16):
        # a map that misses the regular values has the empty link
        assert tp.preimage_curves(fl.constant_map(grid16), tp.LINK_P) == []
        assert tp.linking_charge(fl.constant_map(grid16)) == 0

    def test_one_extraction_per_regular_value(self, monkeypatch):
        calls = []
        find = tp._face_crossings
        monkeypatch.setattr(tp, "_face_crossings", lambda psi, p: calls.append(p) or find(psi, p))
        psi, _ = fl.make_ansatz("hopf", Grid(32), 1)
        assert tp.linking_charge(psi) == 1
        assert calls == [tp.LINK_P, tp.LINK_Q]

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("charge", [1, 2])
    @pytest.mark.parametrize("turn", ["i_to_j", "i_to_k"])
    def test_vacuum_on_a_regular_value(self, n, charge, turn):
        # the ansatz turned exactly by 90 degrees in the target, so that its
        # vacuum sits on LINK_P or LINK_Q: beside a vacuum corner a face
        # triangle can be flat in projection, and its crossing is still kept
        psi, _ = fl.make_ansatz("hopf", Grid(n), charge)
        x, y, z = np.moveaxis(psi.values, -1, 0)
        turned = np.stack([-y, x, z] if turn == "i_to_j" else [-z, y, x], axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert tp.linking_charge(psi.with_values(turned, renormalize=False)) == charge

    @pytest.mark.parametrize("shift", range(5, 10))
    def test_translated_across_the_period(self, shift):
        # rolled along z, the two preimages unwrap from first crossings on
        # either side of the period and come out a period apart
        psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
        rolled = psi.with_values(np.roll(psi.values, shift, axis=2), renormalize=False)
        assert tp.linking_charge(rolled) == 1

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
        # line along z, which no choice of regular value closes in R^3
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

    @pytest.mark.parametrize("seed, message", [
        (0, "preimage loop winds the torus at n = 12;"),
        (2, r"preimage walk dead-ended in cube \(0, 2, 3\) at n = 12;"),
    ], ids=["winds", "dead_end"])
    def test_rough_map_failures_name_the_grid(self, seed, message):
        # neighbouring values up to 1.9 apart: a cube's boundary wraps the
        # sphere, and the message says where and on which grid
        psi = smooth_cp1_map(Grid(12), np.random.default_rng(seed), amplitude=1.0)
        with pytest.raises(DegeneratePreimageError, match=message):
            tp.linking_charge(psi)


def _frame_map(f1, f2, f3, p):
    """A stand-in map whose values have the frame components (f1, f2, f3) about p, exactly."""
    _, e1, e2 = tp._orthonormal_frame(p)
    values = f1[..., None] * e1 + f2[..., None] * e2 + f3[..., None] * np.asarray(p)
    return SimpleNamespace(grid=Grid(f1.shape[0]), values=values)


def _moved_orientation(x, y, delta=2.0 ** -10):
    """sign (x - q) x (y - q) for q = (delta, delta^2), exact for x, y on a coarse set of halves."""
    return np.sign((x[0] - delta) * (y[1] - delta ** 2) - (x[1] - delta ** 2) * (y[0] - delta))


def _cube_balance(crossings):
    """(entering, leaving) crossing counts per cube."""
    return Counter(c[1] for c in crossings), Counter(c[2] for c in crossings)


class TestFaceCrossings:
    # frame components on a coarse set: exact zeros, sites exactly at +-p,
    # edges whose line passes through the origin, and coincident corners
    LEVELS = (-1.0, -0.5, 0.0, 0.5, 1.0)
    # axis edges along x, y, z and an xy face diagonal
    SHIFTS = ((-1, 0), (-1, 1), (-1, 2), ((-1, -1), (0, 1)))

    def _quantized(self, rng, n=6):
        return list(rng.choice(self.LEVELS, size=(2, n, n, n)))

    def test_edge_signs_are_antisymmetric(self, rng):
        # the two triangles of an edge run it in opposite directions; corners
        # that coincide in projection read +1 both ways, in no triangle's favour
        smooth = smooth_cp1_map(Grid(8), rng, amplitude=1.0).values
        for f in ([smooth[..., 0], smooth[..., 1]], self._quantized(rng)):
            for shift in self.SHIFTS:
                g = [np.roll(x, *shift) for x in f]
                s = tp._edge_sign(f, g)
                coincident = (f[0] == g[0]) & (f[1] == g[1])
                assert set(np.unique(s)) <= {-1, 1}
                assert np.array_equal(tp._edge_sign(g, f), np.where(coincident, 1, -s))

    def test_tie_break_moves_the_origin_by_eps_eps2(self, rng):
        # only coincident corners keep a moved orientation of 0
        f = self._quantized(rng)
        for shift in self.SHIFTS:
            g = [np.roll(x, *shift) for x in f]
            moved = _moved_orientation(f, g)
            assert np.array_equal(moved == 0, (f[0] == g[0]) & (f[1] == g[1]))
            assert np.array_equal(tp._edge_sign(f, g), np.where(moved == 0, 1, moved))

    def test_tie_breaks_make_no_spurious_hit(self, rng):
        # the hits are the triangles that hold the moved origin strictly,
        # each triangle's three moved orientations taken on its own
        p = tp.LINK_Q
        for _ in range(4):
            f1, f2 = self._quantized(rng)
            n = f1.shape[0]
            expected = Counter()
            for rho, (mu, nu) in tp._FACE_AXES.items():
                c10, c01 = ([np.roll(x, -1, axis=ax) for x in (f1, f2)] for ax in (mu, nu))
                c11 = [np.roll(x, -1, axis=nu) for x in c10]
                for tri in (((f1, f2), c10, c11), ((f1, f2), c11, c01)):
                    orient = [_moved_orientation(x, y) for x, y in zip(tri, tri[1:] + tri[:1])]
                    for s in (1, -1):
                        for face in map(tuple, np.argwhere(np.all(np.array(orient) == s, axis=0))):
                            below = list(face)
                            below[rho] = (below[rho] - 1) % n
                            pair = (face, tuple(below))
                            expected[pair if s * (-1) ** rho > 0 else pair[::-1]] += 1
            crossings = tp._face_crossings(_frame_map(f1, f2, np.ones_like(f1), p), p)
            assert Counter((c[1], c[2]) for c in crossings) == expected
            assert sum(expected.values()) > 0
            # every hit is at -p when every site is in the lower hemisphere
            assert tp._face_crossings(_frame_map(f1, f2, -np.ones_like(f1), p), p) == []
            entering, leaving = _cube_balance(crossings)
            assert entering == leaving

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cube_balances(self, seed):
        rng = np.random.default_rng(seed)
        # values taken at sites: each preimage meets a lattice vertex
        psi = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        sites = rng.integers(12, size=(4, 3))
        crossings = [tp._face_crossings(psi, psi.values[tuple(site)]) for site in sites]
        for found in crossings:
            entering, leaving = _cube_balance(found)
            assert entering == leaving
        assert any(crossings)

    def test_edge_crossing_counted_once(self):
        # the LINK_P preimage passes through the lattice edge at (pi, pi, z):
        # it crosses two of the edge's faces, entering the cube it leaves
        # between them, where the per-triangle finder counted three
        psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
        at = {}
        for c in tp._face_crossings(psi, tp.LINK_P):
            at.setdefault(tuple(c[0]), []).append(c)
        shared = [cs for cs in at.values() if len(cs) > 1]
        assert shared
        for first, second in shared:
            assert np.array_equal(first[0][:2], [np.pi, np.pi])
            assert first[1] == second[2] or first[2] == second[1]

    @pytest.mark.parametrize("n", [16, 24, 32])
    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_crossings_are_the_oracles_without_duplicates(self, n, q):
        # every crossing lands bit for bit where the per-triangle finder puts
        # one; what it drops repeats a kept crossing on a lattice edge
        psi, _ = fl.make_ansatz("hopf", Grid(n), q)
        h = psi.grid.h
        for p in (tp.LINK_P, tp.LINK_Q):
            unmatched = list(oracles.face_crossings_per_triangle(psi, p))
            crossings = tp._face_crossings(psi, p)
            for pos, _, _ in crossings:
                match = next(i for i, c in enumerate(unmatched) if np.array_equal(c[0], pos))
                del unmatched[match]
            assert len(unmatched) <= 2
            for pos, _, _ in unmatched:
                on_lines = np.abs(pos / h - np.rint(pos / h)) < 1e-9
                assert np.sum(on_lines) == 2
                assert min(np.max(np.abs(c[0] - pos)) for c in crossings) < 1e-9 * h


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

    @staticmethod
    def _polygon(*points):
        return np.array(points + points[:1], dtype=float)

    @pytest.mark.parametrize("pair", ["cancelling", "half", "twice", "generic"])
    def test_crossing_segments_refused(self, pair):
        # segments crossing inside their interiors put a plaquette on one great
        # circle.  "cancelling": rectangles crossing at both segments' midpoints,
        # whose two triangles round to +2 pi and -2 pi; "half": squares whose
        # degree sum is exactly 0.5; "twice": two midpoint crossings, each
        # plaquette with antipodal diagonal corners, the degree sum exactly 0;
        # "generic": a crossing at 1/4 of one segment and 1/2 of the other,
        # where one triangle is a hemisphere and the degree sum rounds to -1
        square = self._polygon((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
        x, u, v = np.array([0.1, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0]), np.array([-1.0, 2.0, -2.0])
        side = np.cross(u, v)
        c1, c2 = {
            "cancelling": (self._polygon((-4.5, 0, 0), (4.5, 0, 0), (4.5, 0, -2), (-4.5, 0, -2)),
                           self._polygon((-8, -2, 0), (8, 2, 0), (8, 2, 2), (-8, -2, 2))),
            "half": (square, self._polygon((1, 0, -1), (1, 0, 1), (1, -2, 1), (1, -2, -1))),
            "twice": (square, self._polygon((1, 0, -1), (1, 0, 1), (1, 2, 1), (1, 2, -1))),
            "generic": (self._polygon(x - u / 4, x + 3 * u / 4, x + 3 * u / 4 + side, x - u / 4 + side),
                        self._polygon(x - v / 2, x + v / 2, x + v / 2 - side, x - v / 2 - side)),
        }[pair]
        for first, second in ((c1, c2), (c2, c1), (c1[::-1], c2)):
            with pytest.raises(DegeneratePreimageError, match="touch or cross"):
                tp.gauss_linking(first, second)

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
        assert np.allclose(tp.chern_simons_from_lift(u_r),
                           -tp.chern_simons_from_lift(u), atol=1e-12)
        assert np.isclose(tp.whitehead_charge(psi_r), -tp.whitehead_charge(psi), atol=1e-12)
        assert tp.linking_charge(psi_r) == -tp.linking_charge(psi)

    def test_routes_agree_after_rounding(self):
        grid = Grid(32)
        for q in (1, 2):
            psi, u = fl.make_ansatz("hopf", grid, q)
            cs = tp.chern_simons_from_lift(u)
            wh = tp.whitehead_charge(psi)
            lk = tp.linking_charge(psi)
            assert int(round(cs)) == int(round(wh)) == lk == q


def _plain_charges_and_energies(psi, u):
    return (tp._whitehead_plain(psi), tp._chern_simons_plain(u), tp.linking_charge(psi),
            en.energy_map(psi).total, en.energy_potential(fl.pure_gauge_potential(u)).total)


@functools.cache
def _hopf16(q):
    psi, u = fl.make_ansatz("hopf", Grid(16), q)
    return psi, u, _plain_charges_and_energies(psi, u)


_SYMMETRIES = st.one_of(
    st.tuples(st.just("translate"), st.tuples(*[st.integers(0, 15)] * 3)),
    st.tuples(st.just("reflect"), st.integers(0, 2)),
    st.tuples(st.just("rotate"), st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2]), move=_SYMMETRIES)
def test_symmetries_of_plain_routes_and_energies(q, move):
    """A lattice translation keeps the plain charges, the linking number and
    both energies; an axis reflection negates the three charges; a target
    rotation g . u keeps all five."""
    psi, u, expected = _hopf16(q)
    kind, arg = move
    if kind == "rotate":
        g = alg.random_unit_quaternions(np.random.default_rng(arg))
        lift_g = fl.LiftField(u.grid, u.pair, np.broadcast_to(g, u.values.shape))
        moved_psi = fl.act(lift_g, psi)
        moved_u = fl.LiftField(u.grid, u.pair, alg.qmul(g, u.values))
    else:
        if kind == "translate":
            move_sites = lambda v: np.roll(v, arg, axis=(0, 1, 2))
        else:  # site i -> -i along the axis arg
            move_sites = lambda v: np.roll(np.flip(v, arg), 1, axis=arg)
        moved_psi = psi.with_values(move_sites(psi.values), renormalize=False)
        moved_u = fl.LiftField(u.grid, u.pair, move_sites(u.values), renormalize=False)
    sign = -1 if kind == "reflect" else 1
    whitehead, cs, linking, e_map, e_potential = _plain_charges_and_energies(moved_psi, moved_u)
    assert linking == sign * expected[2]
    for got, want in ((whitehead, sign * expected[0]), (cs, sign * expected[1]),
                      (e_map, expected[3]), (e_potential, expected[4])):
        assert abs(got - want) <= 1e-12 * abs(want)


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
        ("chern_simons", 2.65), ("whitehead", 2.6), ("linking", 1.5)])
    def test_transient_memory(self, route, budget):
        psi, u = fl.make_ansatz("hopf", Grid(32), 1)
        fn, field = {"chern_simons": (tp.chern_simons_from_lift, u),
                     "whitehead": (tp.whitehead_charge, psi),
                     "linking": (tp.linking_charge, psi)}[route]
        assert self._peak_in_forms(fn, field) <= budget


def test_charge_report_json():
    import json

    report = tp.ChargeReport(cs_value=0.98, whitehead_value=1.01,
                             linking_value=1)
    payload = json.loads(json.dumps(report.as_dict()))
    assert set(payload) == {"cs", "whitehead", "linking", "rounded", "deviation"}
    assert payload["rounded"] == [1]
    assert np.isclose(payload["deviation"], 0.02)


def test_routes_that_round_differently_have_no_verdict():
    report = tp.ChargeReport(cs_value=0.0, linking_value=1)
    for read in (lambda r: r.rounded, tp.ChargeReport.as_dict, str):
        with pytest.raises(HopfionError, match="chern-simons 0, linking 1"):
            read(report)


def test_linking_decides_the_verdict():
    # the float routes round to the exact linking integer, which is the verdict
    report = tp.ChargeReport(cs_value=-0.4, whitehead_value=0.3, linking_value=0)
    assert report.rounded == [0]
    assert report.max_deviation == 0.4
    assert tp.ChargeReport().rounded == []
