"""Self-test of the benchmark's own checks; exits 0 only when all hold.

    python3 perfbench/selftest.py

- A wrong answer is counted: a constant map labelled charge 1 fails the
  analyze and relax checks, and a failed identity row fails the check
  workload.
- A missed wrapper binding makes the tracer fail loudly.
- BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main():
    failures = []

    def expect(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import hopfion.gauge
    import hopfion.lattice
    import workloads
    from spans import Tracer

    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    class ConstantRelax(workloads.Relax):
        n = 16

        def setup(self):
            psi, _ = workloads.fields.make_ansatz("constant", workloads.Grid(self.n))
            workloads.hio.write_snapshot(self.input_path, psi)

    class ConstantAnalyze(workloads.Analyze):
        n = 16
        charges = (1,)

        def setup(self):
            psi, u = workloads.fields.make_ansatz("constant", workloads.Grid(self.n))
            workloads.hio.write_snapshot(self._path(1, "psi.hopf"), psi)
            workloads.hio.write_snapshot(self._path(1, "lift.hopf"), u)

    for cls in (ConstantAnalyze, ConstantRelax):
        wrong = cls(0, str(workdir))
        wrong.setup()
        checks = workloads.Checks()
        wrong.check(wrong.run(), checks)
        expect(f"{cls.__name__}: a constant map labelled charge 1 is counted as wrong "
               f"({len(checks.failed)}/{checks.attempted} failed: {checks.failed})",
               len(checks.failed) > 0)

    checks = workloads.Checks()
    workloads.Check(0, str(workdir)).check(
        {"rows": [{"name": "a", "passed": True}, {"name": "b", "passed": False}]}, checks)
    expect("Check: a failed identity row is counted", checks.failed == ["check.b"])

    tracer = Tracer("selftest")
    tracer.install()
    original = hopfion.gauge.d.__wrapped_by_tracer__
    hopfion.gauge.d = original
    try:
        tracer.verify()
        expect("Tracer: a missed binding raises", False)
    except RuntimeError as exc:
        expect(f"Tracer: a missed binding raises ({exc})", "hopfion.gauge.d" in str(exc))
    expect("Tracer: uninstall restores the originals",
           hopfion.lattice.d is original and hopfion.gauge.d is original)

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect("BENCHMARK.json per_layer matches run.py", declared == run.per_layer_names())
    expect("BENCHMARK.json end_to_end matches run.py",
           [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END))

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
