"""Constrained relaxation of CP1-valued maps with charge monitoring.

The optimizer moves the map itself: tangent gradient step followed by
pointwise renormalization back to the sphere.  Optimizing over the map
rather than over a lift sidesteps the gauge degeneracy of lift
representations entirely; topological diagnostics for lifts remain
available in the topology module.

The objective is the topology-protecting discretization of the energy
(descent_energy): chordal Dirichlet term plus the plaquette-area quartic
term, which charges lattice-scale topology changes their full continuum
price and keeps the monitored charge stable at moderate resolution.  The
default step rule is Barzilai-Borwein with an Armijo backtracking
safeguard and a per-site displacement cap, so every accepted step strictly
decreases the objective.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .energy import descent_energy, descent_gradient
from .errors import ConfigError, FluxObstructionError
from .topology import whitehead_charge

STEP_FLOOR = 1e-14
ARMIJO_C = 1e-4


@dataclass
class RelaxConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-3          # relative to the initial gradient norm
    step_init: float = 0.2
    step_rule: str = "barzilai_borwein"   # or 'fixed', 'backtracking'
    checkpoint_every: int = 0       # 0 disables
    charge_check_every: int = 25    # 0 disables
    step_cap: float = 0.2           # max per-site displacement per step
    scale_dirichlet: float = 1.0
    scale_skyrme: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not (0.0 < self.grad_tol < 1.0):
            raise ConfigError("grad_tol must lie in (0, 1)")
        if self.step_init <= 0:
            raise ConfigError("step_init must be positive")
        if self.step_rule not in ("fixed", "barzilai_borwein", "backtracking"):
            raise ConfigError(f"unknown step rule '{self.step_rule}'")
        for name in ("step_cap", "scale_dirichlet", "scale_skyrme"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")
        for name in ("checkpoint_every", "charge_check_every"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ConfigError(f"{name} must be an integer >= 0")


@dataclass
class RelaxRun:
    history: list            # rows (iter, energy, dirichlet, skyrme, grad_norm, step, charge)
    final_psi: object
    termination: str
    config: RelaxConfig = field(repr=False, default=None)

    HISTORY_COLUMNS = ("iter", "energy", "dirichlet", "skyrme",
                       "grad_norm", "step", "charge")

    def charges(self):
        return [(row[0], row[6]) for row in self.history if row[6] is not None]

    def energies(self):
        return [row[1] for row in self.history]


def _charge_estimate(psi):
    try:
        return whitehead_charge(psi)
    except FluxObstructionError:
        return None


def relax(psi0, cfg=None, checkpoint_cb=None):
    """Minimize the descent objective from psi0; returns the full run record."""
    cfg = cfg if cfg is not None else RelaxConfig()
    psi = psi0
    scales = dict(scale_dirichlet=cfg.scale_dirichlet, scale_skyrme=cfg.scale_skyrme)

    e2, e4 = descent_energy(psi, split=True, **scales)
    energy = e2 + e4
    grad = descent_gradient(psi, **scales)
    gnorm = float(np.linalg.norm(grad))
    gnorm0 = gnorm if gnorm > 0 else 1.0

    history = []
    termination = "max_iters"

    def log(it, gn, st):
        charge = _charge_estimate(psi) if (
            cfg.charge_check_every and it % cfg.charge_check_every == 0) else None
        history.append((it, energy, e2, e4, gn, st, charge))

    log(0, gnorm, 0.0)
    if not np.isfinite(energy):
        return RelaxRun(history, psi, "diverged", cfg)
    if gnorm == 0.0:
        return RelaxRun(history, psi, "converged", cfg)

    prev_vals = None
    prev_grad = None
    step = cfg.step_init

    for it in range(1, cfg.max_iters + 1):
        if cfg.step_rule == "barzilai_borwein" and prev_vals is not None:
            ds = psi.values - prev_vals
            dg = grad - prev_grad
            denom = float(np.sum(ds * dg))
            step = float(np.sum(ds * ds)) / denom if abs(denom) > 1e-300 else cfg.step_init
            if not np.isfinite(step) or step <= 0:
                step = cfg.step_init
        else:
            step = cfg.step_init
        gmax = float(np.max(np.linalg.norm(grad, axis=-1)))
        if cfg.step_cap and gmax > 0:
            step = min(step, cfg.step_cap / gmax)

        prev_vals = psi.values
        prev_grad = grad
        g2 = gnorm * gnorm

        if cfg.step_rule == "fixed":
            trial = psi.with_values(psi.values - step * grad)
            trial_e2, trial_e4 = descent_energy(trial, split=True, **scales)
        else:
            while step >= STEP_FLOOR:
                trial = psi.with_values(psi.values - step * grad)
                trial_e2, trial_e4 = descent_energy(trial, split=True, **scales)
                # a non-finite trial fails Armijo at every step; report it as diverged
                if (not np.isfinite(trial_e2 + trial_e4)
                        or trial_e2 + trial_e4 <= energy - ARMIJO_C * step * g2):
                    break
                step *= 0.5
            else:
                termination = "stalled"
                break

        if not np.isfinite(trial_e2 + trial_e4):
            termination = "diverged"
            break

        psi = trial
        e2, e4 = trial_e2, trial_e4
        energy = e2 + e4
        grad = descent_gradient(psi, **scales)
        gnorm = float(np.linalg.norm(grad))
        log(it, gnorm, step)

        if checkpoint_cb is not None and cfg.checkpoint_every and it % cfg.checkpoint_every == 0:
            checkpoint_cb(it, psi)

        if gnorm <= cfg.grad_tol * gnorm0:
            termination = "converged"
            break

    return RelaxRun(history, psi, termination, cfg)


def charge_guard(run, threshold=0.25):
    """Iterations where adjacent charge estimates jump by more than threshold.

    A flagged pair is evidence of lattice-scale topology change; it is a
    warning, not a failure.
    """
    charges = run.charges()
    if len(charges) < 2:
        return []
    flagged = []
    for (_, c0), (it1, c1) in zip(charges, charges[1:]):
        if c0 is None or c1 is None:
            continue
        if abs(c1 - c0) > threshold:
            flagged.append(it1)
    return flagged
