import numpy as np
import pytest

from conftest import smooth_cp1_map
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import minimize
from hopfion.energy import descent_energy
from hopfion.lattice import Grid
from hopfion.minimize import RelaxConfig, RelaxRun, charge_guard, relax


class TestConfig:
    def test_defaults_valid(self):
        cfg = RelaxConfig()
        assert cfg.step_rule == "barzilai_borwein"

    @pytest.mark.parametrize("kwargs", [
        dict(max_iters=0),
        dict(grad_tol=0.0),
        dict(grad_tol=1.5),
        dict(step_init=-1.0),
        dict(step_rule="newton"),
        dict(step_cap=-0.1),
        dict(step_cap=float("inf")),
        dict(scale_dirichlet=-1.0),
        dict(scale_skyrme=float("nan")),
        dict(checkpoint_every=-1),
        dict(checkpoint_every=2.5),
        dict(charge_check_every=-25),
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

    def test_fixed_rule_runs(self, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.3)
        run = relax(psi0, RelaxConfig(max_iters=20, step_rule="fixed",
                                      step_init=0.05, charge_check_every=0))
        assert run.history[-1][0] >= 1

    def test_rotation_equivariance(self, rng):
        # deterministic (fixed) schedule: relaxing the rotated field equals
        # rotating the relaxed field
        grid = Grid(12)
        psi0 = smooth_cp1_map(grid, rng, amplitude=0.4)
        g = alg.random_unit_quaternions(rng)
        rotated = psi0.with_values(alg.qrotate(g, psi0.values))
        cfg = RelaxConfig(max_iters=50, step_rule="fixed", step_init=0.05,
                          grad_tol=1e-12, charge_check_every=0)
        run_a = relax(psi0, cfg)
        run_b = relax(rotated, cfg)
        moved = alg.qrotate(g, run_a.final_psi.values)
        assert np.max(np.abs(moved - run_b.final_psi.values)) < 1e-8

    def test_checkpoint_callback(self, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.4)
        seen = []
        relax(psi0, RelaxConfig(max_iters=10, grad_tol=1e-12, checkpoint_every=4,
                                charge_check_every=0),
              checkpoint_cb=lambda it, psi: seen.append(it))
        assert seen == [4, 8]

    def test_charge_monitor_cadence(self):
        psi0, _ = fl.make_ansatz("hopf", Grid(16), 1)
        run = relax(psi0, RelaxConfig(max_iters=20, grad_tol=1e-9,
                                      charge_check_every=10))
        iters = [it for it, _ in run.charges()]
        assert iters == [0, 10, 20]


class TestChargeGuard:
    def _fake_run(self, charges):
        history = [(it * 10, 1.0, 0.5, 0.5, 0.1, 0.1, c) for it, c in enumerate(charges)]
        return RelaxRun(history, None, "converged")

    def test_steady_history_unflagged(self):
        assert charge_guard(self._fake_run([1.0, 0.99, 1.01, 0.98])) == []

    def test_jump_flagged(self):
        run = self._fake_run([1.0, 1.02, 0.1, 0.08])
        assert charge_guard(run) == [20]

    def test_missing_estimates_skipped(self):
        run = self._fake_run([1.0, None, 0.97])
        assert charge_guard(run) == []

    def test_too_short(self):
        assert charge_guard(self._fake_run([1.0])) == []
