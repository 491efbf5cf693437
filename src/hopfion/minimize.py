"""Constrained relaxation of CP1-valued maps with charge monitoring.

The optimizer moves the map itself, a point of the product of spheres
(one per site), not a lift, so the gauge degeneracy of lifts never enters.
The objective is descent_energy: the chordal Dirichlet term plus the
plaquette-area quartic term, +inf beyond its admissibility wall
(energy.A_MAX), so no accepted point changes the lattice charge; relax
refuses a start beyond the wall with RoughFieldError.  The
method is Riemannian L-BFGS (Absil, Mahony & Sepulchre 2008, ch. 4 and 8;
Huang, Gallivan & Absil 2015): two-loop directions (Nocedal & Wright
2006, ch. 7) projected onto the tangent space, retraction by pointwise
renormalization and a monotone Armijo line search with halving, so every
accepted step strictly decreases the objective.
relax starts L-BFGS from the Sobolev metric gamma (I - kappa Lap_h)^-1
(Neuberger 1997, LNM 1670); from the flat gamma I its iterations grow with n.
descend runs that loop for any objective; relax is its one caller.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import A_MAX, descent_energy, descent_gradient
from .errors import ConfigError, FluxObstructionError, RoughFieldError
from .lattice import empty_component_major, flat_inner, forward_diff_symbols
from .topology import whitehead_charge

ARMIJO_C = 1e-4
# (s, y) pairs kept by L-BFGS; m = 3 and 8 were measured against it
MEMORY = 5
# A line search gives up after this many halvings of its first trial step.
# The converging hopf relaxations (n = 24, 32; charge 1, 2) halve at most
# once; ten means the model misses the objective by three orders of
# magnitude, as where every longer step meets the admissibility wall.
MAX_HALVINGS = 10
# kappa of relax's preconditioner (I - kappa Lap_h)^-1, a length^2 on the default
# period 2 pi (sqrt = 0.77, 3.0 h at n = 24).  Objective evaluations / iterations of
# the charge-1 hopf ansatz at n = 24, 32, 48 (final energies equal to 5e-6):
# 0.2: 35/33 39/36 42/40; 0.4: 32/28 32/30 36/32; 0.6: 28/26 29/27 33/29;
# 0.8: 28/24 31/28 32/28, fewer iterations but no fewer evaluations.
SOBOLEV_KAPPA = 0.6
# descend's H0 = STEP_INIT * P before any pair
STEP_INIT = 0.2


@dataclass
class RelaxConfig:
    """Each field is the config key optimizer.<name> and its default."""

    max_iters: int = 2000
    grad_tol: float = 1e-3          # relative to the initial gradient norm
    checkpoint_every: int = 0       # 0 disables
    charge_check_every: int = 25    # 0 disables

    def __post_init__(self):
        if not (0.0 < self.grad_tol < 1.0):
            raise ConfigError("grad_tol must lie in (0, 1)")
        for name, low in (("max_iters", 1), ("checkpoint_every", 0), ("charge_check_every", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}")


class HistoryRow(NamedTuple):
    """One history row: the state after iteration iter and the step taken to it.

    step is the accepted line-search step along the search direction (1 is
    the full quasi-Newton step; 0 in row 0).
    """

    iter: int
    energy: float
    dirichlet: float
    skyrme: float
    grad_norm: float
    step: float
    charge: float | None     # None off the charge-monitor cadence


@dataclass
class RelaxRun:
    history: list            # HistoryRow per iteration, from 0
    final_psi: object
    termination: str
    config: RelaxConfig = field(repr=False, default=None)

    def charges(self):
        return [(row.iter, row.charge) for row in self.history if row.charge is not None]

    def energies(self):
        return [row.energy for row in self.history]


def _charge_estimate(psi):
    try:
        return whitehead_charge(psi)
    except FluxObstructionError:
        return None


def descend(objective, gradient, x, *, retract, project, max_iters, on_step, precondition,
            quadratic):
    """Riemannian L-BFGS with a monotone Armijo line search; returns (x, termination).

    objective(x) gives the terms whose sum is minimized and gradient(x) the
    gradient of that sum, an array tangent at x.  retract(x, v) is the point
    reached from x along the array v, and project(x, v) the part of v
    tangent at x.  on_step(it, x, terms, grad, step) sees the start (it 0,
    step 0) and every accepted step; a true return value ends the run as
    that termination.  precondition(v) applies a symmetric positive-definite
    P to an array v shaped like the gradient, and quadratic(v) gives v.Pv.

    objective and gradient are called in pairs: gradient(x) follows
    objective(x) on the start and on every accepted trial, with no other
    objective call between, so an objective may form the gradient in its own
    pass and hand it to the gradient call (energy.descent_energy does).

    The direction is the two-loop product H grad over the last MEMORY pairs
    (s = the accepted step, y = the change of the gradient), projected at
    x; a pair is kept only when s.y > 0.  H0 is STEP_INIT * P with no pairs
    and gamma P after, with gamma = s.y / quadratic(y) of the newest pair,
    so P runs once per iteration.  Once the
    direction is formed a full memory evicts its oldest pair, before the
    line search: every exit but acceptance returns, and acceptance appends
    at most one pair, so the line search's trials run with one pair fewer
    held and the same pairs result.  The trial step along the direction
    starts at 1 and is halved up to MAX_HALVINGS times until the Armijo
    test on the slope grad.d passes; when it fails the run has "stalled";
    a trial objective of +inf fails it.
    The direction always descends, so there is nothing to retry: with P
    positive definite and s.y > 0 for every kept pair H is positive
    definite, and the slope of the tangent grad is grad.H grad > 0.  A NaN
    objective, or a non-finite one at x, ends the run as "diverged" at the
    last finite point; a non-finite start is not differentiated, and
    on_step sees it with grad None.
    """
    terms = objective(x)
    f = sum(terms)
    if not np.isfinite(f):
        on_step(0, x, terms, None, 0.0)
        return x, "diverged"
    g = gradient(x)
    stop = on_step(0, x, terms, g, 0.0)
    if stop:
        return x, stop

    pairs = deque()    # (s, y, 1 / s.y, s.y / y.Py), flat, oldest first
    for it in range(1, max_iters + 1):
        d = project(x, _two_loop(g, pairs, precondition))
        # the trial passes set the peak memory, so the evicted pair goes
        # before them; every exit but acceptance returns
        if len(pairs) == MEMORY:
            pairs.popleft()
        found = _line_search(objective, retract, x, f, g, d)
        if found is None:
            return x, "stalled"
        step, trial, trial_terms = found
        if not np.isfinite(sum(trial_terms)):
            return x, "diverged"
        x, terms, f = trial, trial_terms, sum(trial_terms)
        d *= -step
        g_new = gradient(x)
        s, y = d.ravel(), (g_new - g).ravel()
        sy = flat_inner(s, y)
        if sy > 0:
            rho = 1.0 / sy
            pairs.append((s, y, rho, 1.0 / (rho * quadratic(y.reshape(g.shape)))))
        g = g_new
        stop = on_step(it, x, terms, g, step)
        if stop:
            return x, stop
    return x, "max_iters"


def _two_loop(g, pairs, precondition):
    """The L-BFGS product H g; H0 is STEP_INIT * P with no pairs, the newest gamma * P after."""
    q = g.ravel().copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * flat_inner(s, q)
        q -= a * y
        alphas.append(a)
    scale = pairs[-1][3] if pairs else STEP_INIT
    q = scale * precondition(q.reshape(g.shape)).ravel()
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        q += (a - rho * flat_inner(y, q)) * s
    return q.reshape(g.shape)


def _line_search(objective, retract, x, f, g, d):
    """Armijo halving from step 1 along -d: (step, point, terms), or None."""
    slope = flat_inner(g.ravel(), d.ravel())
    if not slope > 0:
        return None
    step = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = retract(x, (-step) * d)
        terms = objective(trial)
        f_trial = sum(terms)
        # a NaN trial fails Armijo at every step; report it as diverged.
        # "<" keeps the descent strict where the Armijo term rounds away
        if math.isnan(f_trial) or f_trial < f - ARMIJO_C * step * slope:
            return step, trial, terms
        step *= 0.5
    return None


def relax(psi0, cfg=None, checkpoint_cb=None):
    """Minimize the descent objective from psi0; returns the full run record."""
    cfg = cfg if cfg is not None else RelaxConfig()
    history = []
    gnorm0 = 1.0

    def on_step(it, psi, terms, grad, step):
        nonlocal gnorm0
        e2, e4 = terms
        if it == 0 and math.isinf(e4):
            raise RoughFieldError(
                f"inadmissible start at n = {psi.grid.n}: a plaquette triangle has "
                f"|area| >= A_MAX = {A_MAX}, so no charge is protected; refine the grid")
        gnorm = math.nan if grad is None else math.sqrt(flat_inner(grad.ravel(), grad.ravel()))
        if it == 0 and gnorm > 0:
            gnorm0 = gnorm
        charge = _charge_estimate(psi) if (
            cfg.charge_check_every and it % cfg.charge_check_every == 0) else None
        history.append(HistoryRow(it, e2 + e4, e2, e4, gnorm, step, charge))
        if checkpoint_cb is not None and cfg.checkpoint_every and it \
                and it % cfg.checkpoint_every == 0:
            checkpoint_cb(it, psi)
        if gnorm <= cfg.grad_tol * gnorm0:
            return "converged"
        return None

    psi, termination = descend(
        descent_energy, descent_gradient, psi0,
        # the sum is laid out like the values, so the constructor's norm reads contiguous blocks
        retract=lambda psi, v: psi.with_values(
            np.add(psi.values, v, out=empty_component_major(psi.values.shape))),
        project=_tangent, max_iters=cfg.max_iters,
        on_step=on_step, precondition=_sobolev(psi0.grid), quadratic=_sobolev_form(psi0.grid))
    return RelaxRun(history, psi, termination, cfg)


def _sobolev(grid):
    """v -> (I - SOBOLEV_KAPPA Lap_h)^-1 v, C order, by a real FFT of each component's view."""
    symbol = _sobolev_symbol(grid)
    axes = (0, 1, 2)
    return lambda v: np.stack([np.fft.irfftn(np.fft.rfftn(v[..., k]) * symbol, v.shape[:3], axes)
                               for k in range(v.shape[-1])], axis=-1)


def _sobolev_form(grid):
    """v -> v.Pv for _sobolev's P by Parseval: sum_k w_k sigma_k |v_k|^2 / n^3 over rfftn's half.

    sigma is P's symbol; w = 1 on the self-conjugate planes k_2 = 0 and n / 2
    (even n) and 2 elsewhere, where a mode stands for its conjugate too.
    """
    w = np.where(2 * np.arange(grid.n // 2 + 1) % grid.n == 0, 1.0, 2.0)
    # repeated for the (real, imaginary) pairs of each spectrum's float64 view
    sw = np.repeat(_sobolev_symbol(grid) * w / grid.n ** 3, 2, axis=-1)
    return lambda v: sum(float(np.einsum("ijk,ijk,ijk->", sw, f, f)) for f in (
        np.fft.rfftn(v[..., k]).view(np.float64) for k in range(v.shape[-1])))


def _sobolev_symbol(grid):
    """P's symbol 1 / (1 + SOBOLEV_KAPPA S) on the rfftn half spectrum, 1 at k = 0."""
    _, S = forward_diff_symbols(grid)
    S[0, 0, 0] = 0.0
    return 1.0 / (1.0 + SOBOLEV_KAPPA * S)


def _tangent(psi, v):
    """v minus its component along the unit site vectors of psi."""
    # a C-order copy: einsum rounds differently on the component-major
    # values, and the relax history is pinned to its C-order rounding
    p = np.ascontiguousarray(psi.values)
    return v - np.einsum("...i,...i->...", v, p)[..., None] * p

