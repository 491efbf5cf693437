"""Command-line surface.

Heavy imports happen inside main() so that HOPF_THREADS can cap the BLAS
and OpenMP pools before numpy comes up.  Exit codes: 0 success, 1 failed
check budgets, 2 malformed input (snapshot, config, arguments) or an
output path that cannot be written, 3 numerical failure.  Output
directories are checked before the work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _cap_threads():
    cap = os.environ.get("HOPF_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfion",
        description="Faddeev-Skyrme energies, Hopf charges and relaxation on T^3")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ansatz", help="write a charged initial configuration")
    p.add_argument("--kind", default="hopf",
                   choices=["constant", "hopf", "ball_degree", "great_circle"])
    p.add_argument("--charge", type=int, default=1)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float, default=None)
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

    p = sub.add_parser("degree", help="lift-degree route only")
    p.add_argument("--lift", required=True)
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
    _cap_threads()
    args = _build_parser().parse_args(argv)

    from . import io as hio
    from .errors import ConfigError, HopfionError

    try:
        return _dispatch(args)
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
    from .errors import ConfigError

    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")


def _read_field(path, kind):
    """The field of the snapshot at path; a SnapshotError (exit 2) unless it is a kind."""
    from . import io as hio

    meta, obj = hio.read_snapshot(path)
    if meta["kind"] != kind:
        raise hio.SnapshotError(f"{path} holds a {meta['kind']} snapshot, not {kind}")
    return obj


def _initial_fields(kind, n, length, charge):
    """make_ansatz on Grid(n, length); a bad value is a ConfigError (exit 2)."""
    from .errors import ConfigError
    from .fields import make_ansatz
    from .lattice import Grid

    try:
        return make_ansatz(kind, Grid(n, length), charge)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _dispatch(args):
    import numpy as np

    from . import io as hio

    if args.command == "ansatz":
        _require_output_dir(args.out)
        length = args.length if args.length is not None else 2.0 * np.pi
        psi, u = _initial_fields(args.kind, args.n, length, args.charge)
        meta = {"ansatz": args.kind, "charge": args.charge}
        hio.write_snapshot(args.out + ".psi.hopf", psi, extra_meta=meta)
        hio.write_snapshot(args.out + ".lift.hopf", u, extra_meta=meta)
        print(f"wrote {args.out}.psi.hopf and {args.out}.lift.hopf")
        return 0

    if args.command == "energy":
        from .energy import energy_map

        psi = _read_field(args.map, "map_s2")
        report = energy_map(psi, variant=args.variant)
        print(report)
        if args.json:
            print(json.dumps(report.as_dict()))
        return 0

    if args.command == "hopf":
        from .topology import ChargeReport, chern_simons_from_lift, linking_charge, whitehead_charge

        if args.map is None and args.lift is None:
            print("error: need --map and/or --lift", file=sys.stderr)
            return 2
        report = ChargeReport()
        if args.lift:
            u = _read_field(args.lift, "lift_su2")
            report.cs_value = chern_simons_from_lift(u).cs_value
        if args.map:
            psi = _read_field(args.map, "map_s2")
            report.whitehead_value = whitehead_charge(psi)
            if not args.skip_linking:
                report.linking_value = linking_charge(psi)
        _print_charge(report, args.json)
        return 0

    if args.command == "degree":
        from .topology import chern_simons_from_lift

        u = _read_field(args.lift, "lift_su2")
        report = chern_simons_from_lift(u)
        _print_charge(report, args.json)
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

    return 2


def _print_charge(report, as_json):
    import numpy as np

    if report.cs_value is not None:
        print(f"chern-simons: {np.array2string(report.cs_value, precision=6)}")
    if report.whitehead_value is not None:
        print(f"whitehead:    {report.whitehead_value:.6f}")
    if report.linking_value is not None:
        print(f"linking:      {report.linking_value}")
    print(f"rounded:      {[int(v) for v in report.rounded]}   "
          f"max deviation {report.max_deviation:.3e}")
    if as_json:
        print(report.to_json())


def _run_relax(args):
    from . import io as hio
    from .minimize import charge_guard, relax

    cfgmap = hio.load_config(args.config)
    psi0, _ = _initial_fields(cfgmap["ansatz.kind"], cfgmap["grid.n"],
                              cfgmap["grid.length"], cfgmap["ansatz.charge"])
    cfg = hio.relax_config(cfgmap)
    outdir = cfgmap["output.dir"]
    os.makedirs(outdir, exist_ok=True)   # before the relaxation: an OSError exits 2

    def checkpoint(it, psi):
        hio.write_snapshot(os.path.join(outdir, f"checkpoint-{it:06d}.hopf"),
                           psi, extra_meta={"iteration": it})

    run = relax(psi0, cfg, checkpoint_cb=checkpoint if cfg.checkpoint_every else None)
    hio.write_history_csv(os.path.join(outdir, "history.csv"), run)
    hio.write_snapshot(os.path.join(outdir, "final.psi.hopf"), run.final_psi,
                       extra_meta={"termination": run.termination})
    flagged = charge_guard(run)
    last = run.history[-1]
    print(f"termination: {run.termination} after {last.iter} iterations; "
          f"energy {last.energy:.6f}; grad_norm {last.grad_norm:.3e}")
    if flagged:
        print(f"warning: charge jumps flagged at iterations {flagged}")
    if run.termination == "diverged":
        return 3
    return 0


def _run_check(args):
    from .errors import ConfigError
    from .gauge import identity_suite
    from .suites import invariant_suite

    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ConfigError(f"--sizes takes comma-separated integers, not {args.sizes!r}") from None
    if args.json_out:
        _require_output_dir(args.json_out)
    rows = identity_suite(sizes=sizes, seed=args.seed) + invariant_suite(seed=args.seed)
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
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump([r.as_dict() for r in rows], handle, indent=2)
    print(f"{len(rows) - failed}/{len(rows)} identities within budget")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
