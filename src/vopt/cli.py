"""Command-line front end: run scenario suites, parameter sweeps, oracles.

    vopt run <scenario.json> [--out DIR]
    vopt sweep <scenario.json> --param delta_scale --values 0.5 1 2 [--out DIR]
    vopt sweep <scenario.json> --param penalty_top --values 16 1024 [--out DIR]
    vopt oracle <scenario.json> [--out DIR]

Exit code 0 iff every selected suite's residual is within its tolerance,
1 if a suite failed and 2 if the scenario is malformed; ``run`` on an empty
suite list exits 2, since it would pass having checked nothing.
``VOPT_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import reports
from .errors import ScenarioError, TreeError
from .european import ReducedHazard, penalized_european
from .scenario import Scenario, parse_scenario
from .suites import RunReport, run_suites


# Files a run writes only when their solve or suite ran; a run that does not
# write one removes the copy an earlier run left in the same directory.
CONDITIONAL_ARTIFACTS = ("values_game.csv", "strategies_game.csv",
                         "trace_duality.json", "trace_dirac.json")


def _emit_run_artifacts(sc: Scenario, report: RunReport, out_dir: str) -> None:
    written = set()

    def emit(name: str, text: str) -> None:
        reports.write_text(os.path.join(out_dir, name), text)
        written.add(name)

    emit("report.json", reports.to_json(report.to_dict()) + "\n")
    emit("bundle.csv", reports.bundle_csv(sc.cox_form))
    emit("values_constrained_snell.csv",
         reports.process_csv(sc.snell.value, "constrained_snell"))
    emit("values_american_upper.csv", reports.process_csv(sc.upper.value, "american_upper"))
    try:
        game = sc.game
        emit("values_game.csv", reports.process_csv(game.value, "game_value"))
        emit("strategies_game.csv", reports.strategy_csv(sc.tree, {
            "maximizer": game.sigma_star.stop, "minimizer": game.tau_star.stop}))
    except TreeError:
        pass  # P <= R fails off the game hypothesis; suite reports it

    for res in report.results:
        if res.name == "european-duality" and "gap_trace" in res.details:
            emit("trace_duality.json", reports.to_json(reports.convergence_trace(
                "n", res.details["ladder"], res.details["gap_trace"])) + "\n")
        if res.name == "dirac-convergence" and "trace" in res.details:
            emit("trace_dirac.json", reports.to_json(res.details["trace"]) + "\n")

    for name in CONDITIONAL_ARTIFACTS:
        if name not in written:
            try:
                os.remove(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass


def _print_report(report: RunReport) -> None:
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name:24s} residual {res.max_residual:.3e} "
              f"(tol {res.tolerance:.0e}, {res.elapsed:.2f}s)")
    print("all suites passed" if report.passed else "SUITE FAILURES PRESENT")


def cmd_run(args) -> int:
    sc = parse_scenario(args.scenario)
    if args.out:
        sc.output_dir = args.out
    if not sc.suites:
        raise ScenarioError("suites: empty list, nothing to check")
    report = run_suites(sc)
    _emit_run_artifacts(sc, report, sc.output_dir)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    sc = parse_scenario(args.scenario)
    out_dir = args.out or sc.output_dir
    rows = []
    for value in args.values:
        mod = _scaled_scenario(sc, args.param, value)
        snell = mod.snell.value.values
        pen = penalized_european(mod.penalty_ladder[-1], mod.payoff, mod.hazard_delta)
        gap = float(np.max(np.abs(snell - pen.value.values)))
        rows.append({"param": args.param, "value": float(value),
                     "root_value": float(snell[0]),
                     "duality_gap_at_top": gap})
    reports.write_text(os.path.join(out_dir, "sweep.json"),
                       reports.to_json({"sweep": rows}) + "\n")
    lines = ["param,value,root_value,duality_gap_at_top"]
    for r in rows:
        lines.append(f"{r['param']},{reports.fmt(r['value'])},"
                     f"{reports.fmt(r['root_value'])},{reports.fmt(r['duality_gap_at_top'])}")
    reports.write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    for r in rows:
        print(f"{args.param}={r['value']:g}: root {r['root_value']:.12g}, "
              f"gap {r['duality_gap_at_top']:.3e}")
    return 0


def _scaled_scenario(sc: Scenario, param: str, value: float) -> Scenario:
    """A new scenario with one input changed; its cached solves start empty."""
    if param == "delta_scale":
        return dataclasses.replace(
            sc, hazard_delta=ReducedHazard(sc.tree, sc.hazard_delta.delta * value))
    if param == "penalty_top":
        return dataclasses.replace(
            sc, penalty_ladder=[n for n in sc.penalty_ladder if n <= value] or [int(value)])
    raise ScenarioError(f"unknown sweep parameter {param!r} "
                        "(use delta_scale or penalty_top)")


def cmd_oracle(args) -> int:
    sc = parse_scenario(args.scenario)
    if args.out:
        sc.output_dir = args.out
    sc.suites = ["oracle-equivalence"]
    report = run_suites(sc)
    reports.write_text(os.path.join(sc.output_dir, "oracle.json"),
                       reports.to_json(report.to_dict()) + "\n")
    _print_report(report)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="vopt",
                                 description="exact finite-model checks for "
                                             "vulnerable-option pricing")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario's verification suites")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun the duality gap over a parameter grid")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", nargs="+", type=float, required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_or = sub.add_parser("oracle", help="enumeration oracles only")
    p_or.add_argument("scenario")
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(func=cmd_oracle)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
