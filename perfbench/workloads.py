"""The three benchmark workloads: relax, analyze and check.

Each workload has a set-up step (build the seeded inputs and write them
as snapshots), a timed step (the work a user waits for) and a check step
(verify the timed step's outputs, outside the timing).  Library calls go
through module attributes (`hio.read_snapshot`, not a saved reference) so
that a traced run sees every call.

Imported only after the thread caps are set, because it imports numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from hopfion import algebra, cli, fields, minimize
from hopfion import io as hio
from hopfion.lattice import Grid

CHARGE_TOL = 0.05
UNIT_NORM_TOL = 1e-12


class Checks:
    """Counts correctness checks; every failure is named."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def generic_rotation(seed):
    """A uniformly random unit quaternion g from the seed."""
    return algebra.random_unit_quaternions(np.random.default_rng(seed))


def axis_rotation(seed):
    """g in {+-1, +-i, +-j, +-k} from the seed, with R_g as exact sign flips.

    R_g is the identity or a half turn about a coordinate axis, which
    negates the two other components; negation is exact, so the relaxation
    of R_g psi is R_g applied to the relaxation of psi, bit for bit.
    """
    idx = int(np.random.default_rng(seed).integers(8))
    g = np.zeros(4)
    g[idx % 4] = -1.0 if idx >= 4 else 1.0
    signs = np.ones(3)
    if idx % 4:
        signs[[a for a in range(3) if a != idx % 4 - 1]] = -1.0
    return g, signs


def run_cli(argv):
    """hopfion.cli.main in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed check, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _last_json(text):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def _close(value, target):
    return value is not None and math.isfinite(value) and abs(value - target) <= CHARGE_TOL


# ---------------------------------------------------------------------------
# relax: time to a hopfion
# ---------------------------------------------------------------------------

class Relax:
    """Charge-1 hopf ansatz at n = 24 relaxed with the default RelaxConfig."""

    n = 24
    charges = (1,)
    checkpoint_every = 50

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rotation, self.signs = axis_rotation(seed)
        self.input_path = os.path.join(workdir, "relax-in.psi.hopf")
        self.first_history = None

    def provenance(self):
        return {"n": self.n, "charges": list(self.charges),
                "rotation": self.rotation.tolist(), "rotation_family": "axis"}

    def setup(self):
        grid = Grid(self.n)
        psi, _ = fields.make_ansatz("hopf", grid, self.charges[0])
        rotated = fields.MapField(grid, psi.pair, psi.values * self.signs,
                                  renormalize=False)
        hio.write_snapshot(self.input_path, rotated, extra_meta={"ansatz": "hopf"})

    def run(self):
        outdir = os.path.join(self.workdir, "relax-out")
        os.makedirs(outdir, exist_ok=True)
        _, psi0 = hio.read_snapshot(self.input_path)
        cfg = minimize.RelaxConfig(checkpoint_every=self.checkpoint_every)

        def checkpoint(it, psi):
            hio.write_snapshot(os.path.join(outdir, f"checkpoint-{it:06d}.hopf"),
                               psi, extra_meta={"iteration": it})

        run = minimize.relax(psi0, cfg, checkpoint_cb=checkpoint)
        hio.write_history_csv(os.path.join(outdir, "history.csv"), run)
        final = os.path.join(outdir, "final.psi.hopf")
        hio.write_snapshot(final, run.final_psi, extra_meta={"termination": run.termination})
        return {"run": run, "final": final, "history_csv": os.path.join(outdir, "history.csv")}

    def check(self, out, checks):
        run = out["run"]
        q = self.charges[0]
        checks.expect("relax.converged", run.termination == "converged")
        energies = run.energies()
        checks.expect("relax.strict_descent",
                      all(b < a for a, b in zip(energies, energies[1:])))
        charges = [c for _, c in run.charges() if c is not None]
        checks.expect("relax.final_charge", bool(charges) and _close(charges[-1], q))
        _, back = hio.read_snapshot(out["final"])
        checks.expect("relax.snapshot_bit_exact",
                      np.array_equal(back.values, run.final_psi.values))
        norms = np.linalg.norm(back.values, axis=-1)
        checks.expect("relax.unit_norm", float(np.max(np.abs(norms - 1.0))) <= UNIT_NORM_TOL)
        with open(out["history_csv"], encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        checks.expect("relax.history_csv_rows", rows == len(run.history))
        if self.first_history is None:
            self.first_history = run.history
        else:
            checks.expect("relax.deterministic", run.history == self.first_history)

    def info(self, out):
        run = out["run"]
        return {"iters": run.history[-1][0], "history_rows": len(run.history),
                "monitored_rows": sum(1 for row in run.history
                                      if row[0] % run.config.charge_check_every == 0),
                "termination": run.termination}

    @staticmethod
    def same_result(a, b):
        return a["run"].history == b["run"].history


# ---------------------------------------------------------------------------
# analyze: charges, energy and export of large snapshots through the CLI
# ---------------------------------------------------------------------------

class Analyze:
    """hopf, energy and export on n = 48 charge-1 and charge-2 snapshots."""

    n = 48
    charges = (1, 2)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rotation = generic_rotation(seed)

    def provenance(self):
        return {"n": self.n, "charges": list(self.charges),
                "rotation": self.rotation.tolist(), "rotation_family": "generic"}

    def _path(self, q, what):
        return os.path.join(self.workdir, f"analyze-q{q}.{what}")

    def setup(self):
        grid = Grid(self.n)
        g = np.broadcast_to(self.rotation, (self.n,) * 3 + (4,))
        for q in self.charges:
            _, u = fields.make_ansatz("hopf", grid, q)
            ug = fields.LiftField(grid, u.pair, algebra.qmul(g, u.values))
            psi = fields.act(ug, fields.constant_map(grid))
            hio.write_snapshot(self._path(q, "psi.hopf"), psi, extra_meta={"ansatz": "hopf"})
            hio.write_snapshot(self._path(q, "lift.hopf"), ug, extra_meta={"ansatz": "hopf"})

    def run(self):
        out = {}
        for q in self.charges:
            psi, lift = self._path(q, "psi.hopf"), self._path(q, "lift.hopf")
            out[q] = {
                "hopf": run_cli(["hopf", "--map", psi, "--lift", lift, "--json"]),
                "energy": run_cli(["energy", "--map", psi, "--json"]),
                "export": run_cli(["export", "--in", psi, "--out", self._path(q, "export")]),
            }
        return out

    def check(self, out, checks):
        for q in self.charges:
            code, text = out[q]["hopf"]
            charge = (_last_json(text) if code == 0 else None) or {}
            cs = charge.get("cs") or [None]
            checks.expect(f"analyze.q{q}.cs", _close(cs[0], q))
            checks.expect(f"analyze.q{q}.whitehead", _close(charge.get("whitehead"), q))
            checks.expect(f"analyze.q{q}.linking", charge.get("linking") == q)
            code, text = out[q]["energy"]
            energy = _last_json(text) if code == 0 else None
            checks.expect(f"analyze.q{q}.energy_finite", energy is not None and all(
                isinstance(energy.get(k), float) and math.isfinite(energy[k])
                for k in ("dirichlet", "skyrme", "total")))
            code, _ = out[q]["export"]
            sites = self.n ** 3
            checks.expect(f"analyze.q{q}.vtk_rows",
                          code == 0 and _vtk_rows(self._path(q, "export.vtk")) == sites)
            checks.expect(f"analyze.q{q}.csv_rows",
                          code == 0 and _csv_rows(self._path(q, "export.density.csv")) == sites)

    def info(self, out):
        return {}

    @staticmethod
    def same_result(a, b):
        return all(a[q]["hopf"] == b[q]["hopf"] and a[q]["energy"] == b[q]["energy"]
                   for q in a)


def _vtk_rows(path):
    """Data rows of the single VECTORS block written for a map snapshot."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VECTORS"):
                return sum(1 for row in handle if row.strip())
    return None


def _csv_rows(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


# ---------------------------------------------------------------------------
# check: the identity and invariant suites through the CLI
# ---------------------------------------------------------------------------

class Check:
    """hopfion check --sizes 16,32,64 on the suite's default inputs; one check per row.

    The suite generates its own inputs, so the benchmark seed cannot rotate
    them.  The command is the end-to-end check run as the roadmap defines
    it, without --seed: on many other suite seeds the identity
    flat_quartic_iii_symmetric misses its order budget (see the README).
    """

    sizes = "16,32,64"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.json_out = os.path.join(workdir, "check.json")

    def provenance(self):
        return {"n": [int(n) for n in self.sizes.split(",")], "charges": [],
                "suite_seed": "default"}

    def setup(self):
        pass

    def run(self):
        if os.path.exists(self.json_out):
            os.unlink(self.json_out)
        code, _ = run_cli(["check", "--sizes", self.sizes, "--json-out", self.json_out])
        rows = None
        if os.path.exists(self.json_out):
            with open(self.json_out, encoding="utf-8") as handle:
                rows = json.load(handle)
        return {"code": code, "rows": rows}

    def check(self, out, checks):
        if not out["rows"]:
            checks.expect("check.rows_written", False)
            return
        for row in out["rows"]:
            checks.expect(f"check.{row['name']}", row["passed"] is True)

    def info(self, out):
        return {"rows": len(out["rows"] or ()), "exit_code": out["code"]}

    @staticmethod
    def same_result(a, b):
        return a["rows"] == b["rows"]


WORKLOADS = {"relax": Relax, "analyze": Analyze, "check": Check}
