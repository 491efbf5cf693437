"""Command-line surface.

Exit codes: 0 success, 1 failed check budgets, 2 malformed input
(snapshot, config, arguments) or an output path that cannot be written,
3 numerical failure.  Output directories are checked before the work
starts.  A standard output closed by its reader ends the command quietly
with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as hio
from .algebra import cp1_point_of
from .energy import energy_map
from .errors import ConfigError, HopfionError, RoughFieldError
from .fields import make_ansatz
from .gauge import identity_suite
from .lattice import Grid
from .minimize import _charge_estimate, relax
from .suites import invariant_suite
from .topology import ChargeReport, chern_simons_from_lift, linking_charge, whitehead_charge


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfion",
        description="Faddeev-Skyrme energies, Hopf charges and relaxation on T^3")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ansatz", help="write a charged initial configuration")
    p.add_argument("--kind", default="hopf", choices=["constant", "hopf", "great_circle"])
    p.add_argument("--charge", type=int, default=None, help="hopf only (default 1)")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float, default=Grid.length)
    p.add_argument("--out", default="ansatz", help="output prefix")

    p = sub.add_parser("energy", help="print the energy report of a map snapshot")
    p.add_argument("--map", required=True)
    p.add_argument("--variant", default="coisotropy",
                   choices=["coisotropy", "cross_product", "isotropic_skyrme"])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("hopf", help="print the charge report (all available routes)")
    p.add_argument("--map", default=None)
    p.add_argument("--lift", default=None)
    p.add_argument("--skip-linking", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("relax", help="minimize from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("check", help="run identity and invariant suites")
    p.add_argument("--sizes", default="16,32,64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)

    p = sub.add_parser("export", help="snapshot to VTK legacy ASCII + density CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None, help="output prefix (default: input stem)")

    p = sub.add_parser("info", help="print a snapshot header")
    p.add_argument("path")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    try:
        code = _dispatch(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (hopfion info x | head -1), which is not
        # malformed input; the interpreter's exit-time flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (hio.SnapshotError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HopfionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _require_output_dir(path):
    """ConfigError (exit 2) unless the directory that will hold path exists.

    A directory test only, with no trial write, so that it costs an export
    nothing.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")


def _read_field(path, kind):
    """The field of the snapshot at path; a SnapshotError (exit 2) unless it is a kind."""
    meta, obj = hio.read_snapshot(path)
    if meta["kind"] != kind:
        raise hio.SnapshotError(f"{path} holds a {meta['kind']} snapshot, not {kind}")
    return obj


# peak bytes per grid site, a margin over the measured peaks: ansatz about 170,
# relax 551 with its L-BFGS pairs full (n = 48, 64), check 334 (n = 64, check
# --sizes 16,32,64 with its passes in x-slabs; 1.24 times it), traced
_SITE_BYTES = {"ansatz": 256, "relax": 768, "check": 416}


def _require_memory(command, n):
    """ConfigError (exit 2), before any array is made, unless n^3 sites fit in memory."""
    need = _SITE_BYTES[command] * n ** 3
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"a grid of n = {n} needs about {need / 2 ** 30:.3g} GiB, "
                          f"more than the {have / 2 ** 30:.3g} GiB of memory here")


def _initial_fields(command, kind, n, length, charge):
    """make_ansatz on Grid(n, length); a bad value is a ConfigError (exit 2)."""
    _require_memory(command, n)
    try:
        return make_ansatz(kind, Grid(n, length), charge)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _dispatch(args):
    if args.command == "ansatz":
        _require_output_dir(args.out)
        psi, u = _initial_fields("ansatz", args.kind, args.n, args.length, args.charge)
        # the charge of the map written: make_ansatz's 1 on hopf, 0 on the other kinds
        charge = int(args.kind == "hopf") if args.charge is None else args.charge
        meta = {"ansatz": args.kind, "charge": charge}
        hio.write_snapshot(args.out + ".psi.hopf", psi, extra_meta=meta)
        hio.write_snapshot(args.out + ".lift.hopf", u, extra_meta=meta)
        print(f"wrote {args.out}.psi.hopf and {args.out}.lift.hopf")
        return 0

    if args.command == "energy":
        psi = _read_field(args.map, "map_s2")
        _print_report(energy_map(psi, variant=args.variant), args.json)
        return 0

    if args.command == "hopf":
        if args.map is None and args.lift is None:
            raise ConfigError("need --map and/or --lift")
        u = None if args.lift is None else _read_field(args.lift, "lift_su2")
        psi = None if args.map is None else _read_field(args.map, "map_s2")
        if u is not None and psi is not None:
            _require_lift_of(u, psi, args)
        cs_value = None if u is None else chern_simons_from_lift(u)
        del u  # the map's routes run without the lift
        report = ChargeReport(
            cs_value=cs_value,
            whitehead_value=None if psi is None else whitehead_charge(psi),
            linking_value=None if psi is None or args.skip_linking else linking_charge(psi))
        _print_report(report, args.json)
        return 0

    if args.command == "relax":
        return _run_relax(args)

    if args.command == "check":
        return _run_check(args)

    if args.command == "export":
        stem = args.out or os.path.splitext(args.input)[0]
        _require_output_dir(stem)
        meta, obj = hio.read_snapshot(args.input)
        hio.export_vtk(stem + ".vtk", meta, obj)
        hio.export_density_csv(stem + ".density.csv", obj)
        print(f"wrote {stem}.vtk and {stem}.density.csv")
        return 0

    if args.command == "info":
        meta, _ = hio.read_snapshot(args.path)
        print(json.dumps(meta, indent=2, sort_keys=True))
        return 0


def _print_report(report, as_json):
    print(report)
    if as_json:
        print(json.dumps(report.as_dict()))


def _require_lift_of(u, psi, args):
    """SnapshotError (exit 2) unless psi = u i u^-1 on one grid, to within 1e-10."""
    if u.grid != psi.grid:
        raise hio.SnapshotError(f"{args.lift} is on {u.grid} but {args.map} on {psi.grid}")
    moved = cp1_point_of(u.values)
    moved -= psi.values
    residual = max(float(moved.max()), -float(moved.min()))
    if residual > 1e-10:
        raise hio.SnapshotError(f"{args.lift} is not a lift of {args.map}: "
                                f"max |u i u^-1 - psi| = {residual:.3e} > 1e-10")


def _run_relax(args):
    cfgmap = hio.load_config(args.config)
    # the lift is not kept: relax needs only the map
    psi0 = _initial_fields("relax", cfgmap["ansatz.kind"], cfgmap["grid.n"],
                           cfgmap["grid.length"], cfgmap["ansatz.charge"])[0]
    cfg = hio.relax_config(cfgmap)
    outdir = cfgmap["output.dir"]
    created = not os.path.isdir(outdir)
    os.makedirs(outdir, exist_ok=True)   # before the relaxation: an OSError exits 2

    def checkpoint(it, psi):
        hio.write_snapshot(os.path.join(outdir, f"checkpoint-{it:06d}.hopf"),
                           psi, extra_meta={"iteration": it})

    try:
        run = relax(psi0, cfg, checkpoint_cb=checkpoint)
    except RoughFieldError:   # an inadmissible start (exit 3) leaves no directory behind
        if created and not os.listdir(outdir):
            os.rmdir(outdir)
        raise
    hio.write_history_csv(os.path.join(outdir, "history.csv"), run)
    hio.write_snapshot(os.path.join(outdir, "final.psi.hopf"), run.final_psi,
                       extra_meta={"termination": run.termination})
    last = run.history[-1]
    print(f"termination: {run.termination} after {last.iter} iterations; "
          f"energy {last.energy:.6f}; grad_norm {last.grad_norm:.3e}")
    charge = _charge_estimate(run.final_psi)   # the monitor's cadence may skip the last row
    print(f"final whitehead charge: {'undefined' if charge is None else f'{charge:.6f}'}")
    if charge is None:
        print(f"warning: no Hopf charge is defined on the final map at n = {psi0.grid.n}; "
              "refine the grid")
    if run.termination == "diverged":
        return 3
    return 0


def _run_check(args):
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ConfigError(f"--sizes takes comma-separated integers, not {args.sizes!r}") from None
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    _require_memory("check", max(sizes))
    if args.json_out:
        _require_output_dir(args.json_out)
    rows = identity_suite(sizes=sizes, seed=args.seed) + invariant_suite(seed=args.seed)
    if args.json_out:  # before the rows are printed, which a closed pipe may cut short
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump([r.as_dict() for r in rows], handle, indent=2)
    width = max(len(r.name) for r in rows)
    failed = 0
    for r in rows:
        res = "  ".join(f"{v:.3e}" if n == 0 else f"n={n}: {v:.3e}"
                        for n, v in sorted(r.residuals.items()))
        order = "" if r.fitted_order is None else f"  order {r.fitted_order:+.2f}"
        status = "ok" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{r.name:<{width}}  [{r.kind}] {res}{order}  {status}")
    print(f"{len(rows) - failed}/{len(rows)} identities within budget")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
