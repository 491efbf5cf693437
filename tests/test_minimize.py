import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_cp1_map
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import cli, energy, minimize
from hopfion.energy import descent_energy
from hopfion.errors import RoughFieldError
from hopfion.lattice import Grid, component_major, forward_diff_symbols
from hopfion.minimize import RelaxConfig, relax
from hopfion.topology import whitehead_charge


class TestConfig:
    def test_defaults_valid(self):
        cfg = RelaxConfig()
        assert cfg.max_iters == 2000
        assert minimize.STEP_INIT == 0.2 and energy.A_MAX == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_iters=0),
        dict(grad_tol=0.0),
        dict(grad_tol=1.5),
        dict(grad_tol=float("nan")),
        dict(charge_check_every=0.5),
        dict(checkpoint_every=-1),
        dict(checkpoint_every=2.5),
        dict(charge_check_every=-25),
        dict(max_iters=2.5),
        dict(max_iters=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RelaxConfig(**kwargs)


class TestRelax:
    def test_constant_start_terminates_immediately(self, grid12):
        run = relax(fl.constant_map(grid12), RelaxConfig(max_iters=10))
        assert run.termination == "converged"
        assert len(run.history) == 1
        assert run.history[0][4] == 0.0

    def test_null_sector_decay(self, rng):
        grid = Grid(32)
        pert = fl.act(
            fl.LiftField(grid, alg.su2_u1(),
                         alg.qexp(0.05 * rng.standard_normal((32, 32, 32, 3)))),
            fl.constant_map(grid))
        run = relax(pert, RelaxConfig(max_iters=500, grad_tol=1e-2,
                                      charge_check_every=0))
        energies = run.energies()
        assert energies[-1] <= 1e-3 * energies[0]

    def test_strict_descent_and_constraint(self, rng):
        grid = Grid(16)
        psi0 = smooth_cp1_map(grid, rng, amplitude=0.5)
        run = relax(psi0, RelaxConfig(max_iters=60, grad_tol=1e-6,
                                      charge_check_every=0))
        energies = run.energies()
        assert all(b < a for a, b in zip(energies, energies[1:]))
        norms = np.linalg.norm(run.final_psi.values, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_max_iters_termination(self, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        run = relax(psi0, RelaxConfig(max_iters=3, grad_tol=1e-12,
                                      charge_check_every=0))
        assert run.termination == "max_iters"
        assert run.history[-1][0] == 3

    @pytest.mark.parametrize("first_nan", [0, 1])
    def test_nan_energy_diverges(self, rng, monkeypatch, first_nan):
        # call 0 is the initial energy, every later call a trial energy
        calls = []

        def energy(psi, **kwargs):
            calls.append(psi)
            if len(calls) > first_nan:
                return float("nan"), float("nan")
            return descent_energy(psi, **kwargs)

        monkeypatch.setattr(minimize, "descent_energy", energy)
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        run = relax(psi0, RelaxConfig(max_iters=5, charge_check_every=0))
        assert run.termination == "diverged"
        assert len(calls) == first_nan + 1
        assert len(run.history) == 1

    def test_deterministic_history(self, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        cfg = RelaxConfig(max_iters=40, grad_tol=1e-9, charge_check_every=10)
        run1 = relax(psi0, cfg)
        run2 = relax(psi0, cfg)
        assert run1.history == run2.history

    def test_history_independent_of_blas_threads(self):
        # a BLAS dot product splits its sum over the threads: descend's
        # inner products must not depend on the thread caps
        script = ("from hopfion import fields, minimize; from hopfion.lattice import Grid; "
                  "psi, _ = fields.make_ansatz('hopf', Grid(24), 1); "
                  "cfg = minimize.RelaxConfig(max_iters=30, charge_check_every=0); "
                  "print(repr(minimize.relax(psi, cfg).history))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True, timeout=300).stdout)
        assert outs[0] == outs[1] and outs[0].count("HistoryRow") == 31

    def test_rotation_equivariance(self, rng):
        # relaxing the rotated field equals rotating the relaxed field: the
        # energy, its gradient and the L-BFGS inner products are rotation
        # invariant
        grid = Grid(12)
        psi0 = smooth_cp1_map(grid, rng, amplitude=0.4)
        g = alg.random_unit_quaternions(rng)
        rotated = psi0.with_values(alg.qrotate(g, psi0.values))
        cfg = RelaxConfig(max_iters=50, grad_tol=1e-12, charge_check_every=0)
        run_a = relax(psi0, cfg)
        run_b = relax(rotated, cfg)
        moved = alg.qrotate(g, run_a.final_psi.values)
        assert np.max(np.abs(moved - run_b.final_psi.values)) < 1e-8

    def test_sobolev_metric_iterations(self, rng):
        # the Sobolev start H0 = gamma (I - kappa Lap_h)^-1 converges in 33
        # iterations; the flat H0 = gamma I took 109 on this input
        psi, _ = fl.make_ansatz("hopf", Grid(24), 1)
        g = alg.random_unit_quaternions(rng)
        run = relax(psi.with_values(alg.qrotate(g, psi.values)))
        assert run.termination == "converged" and run.history[-1].iter <= 40
        assert abs(run.charges()[-1][1] - 1.0) <= 0.05

    def test_topology_barrier_stalls(self, monkeypatch):
        # at n = 16 the charge-1 relaxation reaches descent_energy's
        # admissibility wall, where every longer step is refused; the run
        # must stop there, not creep along the wall.  It stalls after 10
        # iterations and 52 evaluations, at Whitehead charge 1.097179
        calls = []

        def energy(psi, **kwargs):
            calls.append(None)
            return descent_energy(psi, **kwargs)

        monkeypatch.setattr(minimize, "descent_energy", energy)
        psi0, _ = fl.make_ansatz("hopf", Grid(16), 1)
        run = relax(psi0, RelaxConfig())
        energies = run.energies()
        assert run.termination == "stalled" and run.history[-1].iter == 10
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert abs(whitehead_charge(run.final_psi) - 1.097179) <= 1e-6
        assert len(calls) == 52

    def test_barrier_stop_independent_of_rounding(self, monkeypatch):
        # the two-loop direction scaled by 1 + k 1e-15 stands for another
        # rounding of the same run; where the run stops must not depend on
        # it (every k of -15..15 stops alike; k = -1, 5 and 15 are the ones
        # a rounding-dependent stop left with no Hopf charge defined)
        two_loop = minimize._two_loop
        outcomes = set()
        for k in (-11, -1, 0, 5, 15):
            monkeypatch.setattr(minimize, "_two_loop",
                                lambda *a, k=k: two_loop(*a) * (1.0 + k * 1e-15))
            psi0, _ = fl.make_ansatz("hopf", Grid(16), 1)
            run = relax(psi0, RelaxConfig(charge_check_every=0))
            charge = round(whitehead_charge(run.final_psi), 6)
            outcomes.add((run.termination, run.history[-1].iter, charge))
        assert outcomes == {("stalled", 10, 1.097179)}

    @pytest.mark.parametrize("n", [8, 12])
    def test_inadmissible_start_refused(self, n):
        # the coarse hopf maps have triangles of 5.5 and 5.7 rad, beyond the wall
        psi0, _ = fl.make_ansatz("hopf", Grid(n), 1)
        with pytest.raises(RoughFieldError, match=f"inadmissible start at n = {n}:"):
            relax(psi0)

    def test_refused_start_not_differentiated(self, monkeypatch):
        # the infinite objective alone refuses the start: no gradient of it
        calls = []
        gradient = minimize.descent_gradient

        def counting(*args, **kwargs):
            calls.append(None)
            return gradient(*args, **kwargs)

        monkeypatch.setattr(minimize, "descent_gradient", counting)
        psi0, _ = fl.make_ansatz("hopf", Grid(8), 1)
        with pytest.raises(RoughFieldError, match="inadmissible start at n = 8:"):
            relax(psi0)
        assert len(calls) == 0

    def test_checkpoint_callback(self, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.4)
        seen = []
        relax(psi0, RelaxConfig(max_iters=10, grad_tol=1e-12, checkpoint_every=4,
                                charge_check_every=0),
              checkpoint_cb=lambda it, psi: seen.append(it))
        assert seen == [4, 8]

    def test_traced_peak(self):
        # 10 iterations of the n = 24 hopf ansatz, the L-BFGS pairs full: at
        # most 24 (n, n, n, 3) float arrays seen by tracemalloc (22.7
        # measured; 30.4 while the gradient formed a slot's corners together),
        # under the CLI's estimate of relax's bytes per site
        psi0, _ = fl.make_ansatz("hopf", Grid(24), 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            relax(psi0, RelaxConfig(max_iters=10, charge_check_every=0))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / psi0.values.nbytes <= 24.0
        assert peak / 24 ** 3 < cli._SITE_BYTES["relax"]

    def test_charge_monitor_cadence(self, monkeypatch):
        # the charge runs on the cadence rows only, and the gradient once per
        # accepted point: the counts the benchmark's traced relax checks
        counts = {"whitehead_charge": 0, "descent_gradient": 0}

        def counting(name):
            original = getattr(minimize, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(minimize, name, counting(name))
        psi0, _ = fl.make_ansatz("hopf", Grid(24), 1)
        run = relax(psi0, RelaxConfig(max_iters=20, grad_tol=1e-9,
                                      charge_check_every=10))
        iters = [it for it, _ in run.charges()]
        assert iters == [0, 10, 20]
        assert len(run.history) == 21
        assert counts == {"whitehead_charge": 3, "descent_gradient": 21}


def _descend(objective, gradient, x0, project=lambda x, v: v, max_iters=100, tol=1e-10,
             precondition=lambda v: v):
    """minimize.descend on R^n; returns (termination, objective values seen)."""
    seen = []

    def on_step(it, x, terms, grad, step):
        seen.append(sum(terms))
        return "converged" if np.linalg.norm(grad) <= tol else None

    _, termination = minimize.descend(objective, gradient, x0, retract=lambda x, v: x + v,
                                      project=project, step_init=0.2, max_iters=max_iters,
                                      on_step=on_step, precondition=precondition)
    return termination, seen


class TestDescend:
    def test_quasi_newton_on_ill_conditioned_quadratic(self):
        # curvatures 1..100: the best fixed gradient step contracts the
        # error by 0.98 per step, about 1400 steps to |grad| <= 1e-10; L-BFGS
        # takes 77
        k = np.linspace(1.0, 100.0, 20)
        termination, seen = _descend(lambda x: (0.5 * float(np.dot(k * x, x)),),
                                     lambda x: k * x, np.ones(20), max_iters=100)
        assert termination == "converged"
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_exact_preconditioner(self):
        # P the inverse Hessian: the first step has the Newton direction and
        # gamma = 1 after it, so the second step is the exact minimizer
        k = np.linspace(1.0, 100.0, 20)
        termination, seen = _descend(lambda x: (0.5 * float(np.dot(k * x, x)),),
                                     lambda x: k * x, np.ones(20), max_iters=100,
                                     precondition=lambda v: v / k)
        assert termination == "converged" and len(seen) <= 4

    def test_kink_stalls_instead_of_creeping(self):
        # |x| at 1e-6 from its kink: only steps of 2^-17 of the first trial
        # or less descend, more halvings than a line search may take
        termination, seen = _descend(lambda x: (float(np.abs(x).sum()),), np.sign,
                                     np.full(1, 1e-6))
        assert termination == "stalled" and seen == [1e-6]

    def test_no_step_without_decrease(self):
        # a gradient too small to move the objective at float precision: the
        # Armijo bound rounds to f itself, and an equal value is no descent
        termination, seen = _descend(lambda x: (1.0,), lambda x: np.full(4, 1e-30),
                                     np.zeros(4), tol=0.0)
        assert termination == "stalled" and seen == [1.0]


class TestSobolev:
    """relax's preconditioner P = (I - kappa Lap_h)^-1, per component."""

    grid = Grid(12)

    def _symbol(self, k):
        n, h = self.grid.n, self.grid.h
        lap = sum(2.0 - 2.0 * np.cos(2.0 * np.pi * km / n) for km in k) / h ** 2
        return 1.0 / (1.0 + minimize.SOBOLEV_KAPPA * lap)

    def test_plane_wave_scaled_by_symbol(self):
        n = self.grid.n
        x = np.indices((n, n, n))
        for k in [(1, 0, 0), (2, 3, 5), (6, 6, 6)]:
            wave = np.cos(2.0 * np.pi * np.tensordot(k, x, axes=1) / n + 0.3)
            v = wave[..., None] * np.array([1.0, -2.0, 0.5])
            out = minimize._sobolev(self.grid)(v)
            assert np.max(np.abs(out - self._symbol(k) * v)) <= 1e-14

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, component_major])
    def test_rounds_as_one_transform_over_the_grid_axes(self, rng, layout):
        # per component, as the whole (n, n, n, 3) array transformed over its
        # grid axes, into a C-order array
        v = layout(rng.standard_normal((12, 12, 12, 3)))
        _, S = forward_diff_symbols(self.grid)
        S[0, 0, 0] = 0.0
        symbol = (1.0 / (1.0 + minimize.SOBOLEV_KAPPA * S))[..., None]
        axes = (0, 1, 2)
        whole = np.fft.irfftn(np.fft.rfftn(v, axes=axes) * symbol, v.shape[:3], axes)
        out = minimize._sobolev(self.grid)(v)
        assert out.flags.c_contiguous and np.array_equal(out, whole)

    def test_constant_unchanged(self):
        v = np.broadcast_to(np.array([0.3, -1.2, 2.0]), (12, 12, 12, 3))
        assert np.max(np.abs(minimize._sobolev(self.grid)(v) - v)) <= 1e-14

    def test_symmetric_positive(self, rng):
        P = minimize._sobolev(self.grid)
        u, v = rng.standard_normal((2, 12, 12, 12, 3))
        upv, vpu = float(np.sum(u * P(v))), float(np.sum(v * P(u)))
        assert abs(upv - vpu) <= 1e-12
        assert float(np.sum(u * P(u))) > 0

    def test_commutes_with_rotation(self, rng):
        P = minimize._sobolev(self.grid)
        g = alg.random_unit_quaternions(rng)
        v = rng.standard_normal((12, 12, 12, 3))
        assert np.max(np.abs(P(alg.qrotate(g, v)) - alg.qrotate(g, P(v)))) <= 1e-14

