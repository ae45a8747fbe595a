"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They cover the tracer's rebinding and restore, that tracing leaves the
program's ``report.json`` unchanged, that failures are counted once per
scenario, and that scenario generation is a pure function of the seed.
Exit code 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _run_cli(scenario: str, out: str) -> bytes:
    import vopt.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = vopt.cli.main(["run", scenario, "--out", out])
    assert rc in (0, 1), rc
    with open(os.path.join(out, "report.json"), "rb") as fh:
        return fh.read()


def test_tracer_restores_every_binding():
    import vopt.cli  # noqa: F401 - loads every module the CLI uses
    from vopt import random_time, suites
    before_table = dict(suites.SUITE_FUNCTIONS)
    before_methods = (vars(random_time.ExtendedSpace)["f_condexp"],
                      vars(random_time.ExtendedSpace)["g_condexp"])
    before_proj = {name: vars(m).get("projections") for name, m in sys.modules.items()
                   if name.startswith("vopt") and "projections" in vars(m)}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.absent == [], tr.absent
        assert all(getattr(f, "__perfbench_wrapped__", False)
                   for f in suites.SUITE_FUNCTIONS.values())
        assert getattr(random_time.ExtendedSpace.f_condexp, "__perfbench_wrapped__", False)
        assert all(getattr(vars(sys.modules[n])["projections"], "__perfbench_wrapped__",
                           False) for n in before_proj)
    finally:
        tr.restore()
    assert tr.restored()
    assert suites.SUITE_FUNCTIONS == before_table
    assert all(suites.SUITE_FUNCTIONS[k] is v for k, v in before_table.items())
    assert (vars(random_time.ExtendedSpace)["f_condexp"],
            vars(random_time.ExtendedSpace)["g_condexp"]) == before_methods
    assert all(vars(sys.modules[n])["projections"] is f for n, f in before_proj.items())


def test_missing_function_is_reported_absent():
    targets = dict(tracing.TARGETS)
    targets["european"] = targets["european"] + ["penalized_ladder_removed"]
    targets["no_such_layer"] = ["anything"]
    tr = tracing.Tracer(targets)
    tr.install()
    tr.restore()
    assert tr.restored()
    assert tr.absent == ["european.penalized_ladder_removed", "no_such_layer.anything"]
    row = tr.iteration_metrics(1.0)
    assert row["european.penalized_ladder_removed.calls"] == 0


def test_traced_report_is_byte_identical_on_paper():
    os.makedirs(SCRATCH, exist_ok=True)
    scenario = os.path.join(SCRATCH, "paper.json")
    with open(scenario, "w") as fh:
        fh.write(workloads.scenario_text("paper", workloads.default_seed("paper")))
    plain = _run_cli(scenario, os.path.join(SCRATCH, "plain"))
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = _run_cli(scenario, os.path.join(SCRATCH, "traced"))
    finally:
        tr.restore()
    assert tr.restored()
    assert traced == plain
    row = tr.iteration_metrics(1.0)
    assert row["random_time.projections.calls"] > 0
    assert row["suites.suite_measure_change.calls"] == 1


def test_same_seed_same_scenario_bytes():
    for name in workloads.WORKLOADS:
        a = workloads.scenario_text(name, 7)
        assert a == workloads.scenario_text(name, 7), name
        assert a != workloads.scenario_text(name, 8), name


def test_failures_counted_once_per_scenario():
    """attempted/failed do not grow with the number of iterations, and a
    crash marks all of its scenario's suites failed."""
    import json
    import run

    class FakeCli:
        crash = False

        def main(self, argv):
            if self.crash:
                raise RuntimeError("boom")
            os.makedirs(argv[3], exist_ok=True)
            suites = [{"suite": "a", "passed": True, "max_residual": 0.0, "tolerance": 1.0},
                      {"suite": "b", "passed": False, "max_residual": 2.0, "tolerance": 1.0}]
            with open(os.path.join(argv[3], "report.json"), "w") as fh:
                json.dump({"suites": suites}, fh)
            return 1

    os.makedirs(SCRATCH, exist_ok=True)
    scenarios = []
    for j in range(2):
        scenarios.append(os.path.join(SCRATCH, f"fake-{j}.json"))
        with open(scenarios[-1], "w") as fh:
            json.dump({"suites": ["a", "b", "c"]}, fh)
    cli = FakeCli()
    loop = run.Loop(cli, scenarios, os.path.join(SCRATCH, "fake-out"))
    for k in range(5):
        loop.iterate(k % 2)
    assert loop.covered() and not loop.problems, loop.problems
    assert (loop.attempted, loop.failed) == (4, 2)
    cli.crash = True
    loop.iterate(1)
    assert len(loop.problems) == 1
    assert (loop.attempted, loop.failed) == (5, 4)   # scenario 1: its 3 listed suites


def test_default_seed_gives_packaged_paper_scenario():
    packaged = os.path.join(ROOT, "src", "vopt", "scenarios", "paper_regression.json")
    with open(packaged) as fh:
        assert workloads.scenario_text("paper", workloads.PAPER_DEFAULT_SEED) == fh.read()


def main() -> int:
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
