"""hopfion benchmark: one workload, one seed, one fresh process per run.

    python3 perfbench/run.py --workload relax --seed 3 --seconds 30 --trace 0

Untraced runs (--trace 0) time the workload with the library unmodified
and report the end-to-end metrics.  Traced runs (--trace 1) run the
workload once untraced, then once with every public hopfion function
wrapped by spans.Tracer, and report the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
the provenance.  Spans and the full result go to
.perfbench_out/<workload>-seed<seed>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("HOPF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, hopfion; print(time.perf_counter() - t)")

# (name, unit, better) of the end-to-end metrics of an untraced run
END_TO_END = (("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("pass_frac", "ratio", "higher"))

# per-layer metrics reported by a traced run; names match BENCHMARK.json
CALLS = ("algebra.spherical_triangle_area", "energy.descent_energy",
         "energy.descent_gradient", "energy.energy_map", "energy.energy_potential",
         "topology.triple_trace_wedge", "topology.whitehead_charge",
         "lattice.d", "lattice.wedge", "fields.pure_gauge_potential",
         "fields.pullback_coisotropy", "io.write_snapshot", "io.read_snapshot")
SELF = ("algebra.spherical_triangle_area", "energy.descent_energy",
        "energy.descent_gradient", "energy.energy_map", "energy.energy_potential",
        "minimize.relax", "topology.triple_trace_wedge", "topology.whitehead_charge",
        "topology.linking_charge", "topology.preimage_curves",
        "topology.area_flux_2form", "topology.solve_vector_potential",
        "lattice.d", "lattice.wedge", "gauge.coset_curvature",
        "gauge.projector_derivative_wedge", "gauge.project_par", "gauge.project_perp",
        "fields.pure_gauge_potential", "fields.pullback_coisotropy",
        "fields.make_ansatz", "io.write_snapshot", "io.read_snapshot",
        "io.export_vtk", "io.export_density_csv", "io.write_history_csv", "cli.main")
TOTAL = ("topology.chern_simons_from_lift", "gauge.identity_suite",
         "suites.invariant_suite")
BYTES = ("io.write_snapshot", "io.read_snapshot", "io.export_vtk", "io.export_density_csv")


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    from spans import MODULES

    names = [(f"{f}.calls", "count", "lower") for f in CALLS]
    names += [(f"{f}.self_s", "s", "lower") for f in SELF]
    names += [(f"{f}.total_s", "s", "lower") for f in TOTAL]
    names += [("algebra.spherical_triangle_area.bytes_computed", "B", "lower")]
    names += [(f"{f}.bytes", "B", "lower") for f in BYTES]
    names += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    names += [("minimize.iters", "count", "lower"), ("minimize.accept_ratio", "ratio", "higher"),
              ("minimize.s_per_iter", "s", "lower"), ("trace.wall_s", "s", "lower"),
              ("trace.overhead_frac", "ratio", "lower"), ("trace.unattributed_s", "s", "lower")]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("relax", "analyze", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads():
    """HOPF_THREADS and the pool caps it implies, set before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc


def import_seconds():
    """numpy + hopfion import time in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def provenance(args, workload):
    import numpy as np

    import hopfion

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=30)
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except OSError:
        git = None
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **workload.provenance(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "hopfion": hopfion.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_describe": git,
    }


def measure(workload, checks, seconds):
    """Set up SETUP_SAMPLES times, then start timed steps until `seconds` have passed."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - start)
    walls = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        out = workload.run()
        walls.append(time.perf_counter() - start)
        workload.check(out, checks)
        if time.perf_counter() - begin >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
              "peak_rss_mb": rss_mb,
              "pass_frac": (checks.attempted - len(checks.failed)) / checks.attempted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, {"walls": walls, "setups": setups, **workload.info(out)}


def measure_traced(workload, checks, run_id, span_path):
    """One untraced and one traced pass over set-up and the timed step."""
    from spans import MODULES, SpanStats, Tracer

    start = time.perf_counter()
    workload.setup()
    plain = workload.run()
    untraced = time.perf_counter() - start
    workload.check(plain, checks)

    tracer = Tracer(run_id)
    tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        traced_out = workload.run()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.dump(span_path)
    workload.check(traced_out, checks)

    stats = SpanStats(tracer.spans)
    info = workload.info(traced_out)
    m = {}
    for f in CALLS:
        m[f"{f}.calls"] = stats.calls[f]
    for f in SELF:
        m[f"{f}.self_s"] = stats.self_s[f]
    for f in TOTAL:
        m[f"{f}.total_s"] = stats.total[f]
    m["algebra.spherical_triangle_area.bytes_computed"] = \
        stats.nbytes["algebra.spherical_triangle_area"]
    for f in BYTES:
        m[f"{f}.bytes"] = stats.nbytes[f]
    for mod in MODULES:
        m[f"{mod}.self_s"] = stats.module_self(mod)
    iters = info.get("iters", 0)
    energy_evals = stats.calls_under("minimize.relax", "energy.descent_energy")
    m["minimize.iters"] = iters
    m["minimize.accept_ratio"] = iters / energy_evals if energy_evals else 0.0
    m["minimize.s_per_iter"] = stats.total["minimize.relax"] / iters if iters else 0.0
    m["trace.wall_s"] = traced
    m["trace.overhead_frac"] = traced / untraced - 1.0
    m["trace.unattributed_s"] = traced - stats.root_time()

    # the tracer must change nothing and see everything
    checks.expect("trace.same_result", workload.same_result(plain, traced_out))
    covered = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["trace.unattributed_s"]
    checks.expect("trace.self_times_sum_to_wall",
                  abs(covered - traced) <= 1e-9 * traced and m["trace.unattributed_s"] >= 0)
    if iters:
        checks.expect("trace.gradient_calls",
                      stats.calls_under("minimize.relax", "energy.descent_gradient")
                      == iters + 1)
        checks.expect("trace.whitehead_calls",
                      stats.calls_under("minimize.relax", "topology.whitehead_charge")
                      == info["monitored_rows"])
    units = {name: unit for name, unit, _ in per_layer_names()}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in m.items()}
    counts = {"energy_evals": energy_evals,
              "gradient_evals": stats.calls["energy.descent_gradient"],
              "spans": len(tracer.spans), "untraced_s": untraced, **info}
    return metrics, counts


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hopfion" / "__init__.py").is_file():
        print(f"error: hopfion sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Checks

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = rundir / "work"
    shutil.rmtree(rundir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    checks = Checks()
    if args.trace:
        metrics, counts = measure_traced(workload, checks, rundir.name,
                                         str(rundir / "spans.jsonl"))
    else:
        metrics, counts = measure(workload, checks, args.seconds)
    shutil.rmtree(workdir)

    failed = len(checks.failed)
    record = {**provenance(args, workload), **counts,
              "attempted": checks.attempted, "failed": failed,
              "fail_frac": failed / checks.attempted, "failed_checks": checks.failed}
    result = {"correct": failed == 0, "attempted": checks.attempted,
              "failed": failed, "metrics": metrics}
    with open(rundir / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": record, "result": result}, handle, indent=2)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
