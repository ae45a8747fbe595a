"""End-to-end tests of the ``vopt`` command line: exit codes and artifacts."""

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import vopt
from vopt import american, european, random_time, suites
from vopt.cli import _scaled_scenario, main
from vopt.european import ReducedHazard, constrained_snell
from vopt.scenario import parse_scenario

PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"

SUITES_IN_ORDER = ["projections-identities", "martingale-transforms", "measure-change",
                   "european-duality", "dirac-convergence", "rbsde-vs-optstop",
                   "american-upper", "game-duality", "oracle-equivalence"]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    code = main(["run", str(PACKAGED), "--out", str(out)])
    return code, out


def test_golden_run_passes_all_suites_in_order(golden_run, capsys):
    code, out = golden_run
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == SUITES_IN_ORDER
    assert all(s["passed"] for s in report["suites"])


def test_report_has_no_backend_key_and_is_byte_stable(golden_run, tmp_path, capsys):
    _, out = golden_run
    first = (out / "report.json").read_bytes()
    assert "kernel_backend" not in json.loads(first)
    assert main(["run", str(PACKAGED), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


# SHA-256 of the packaged scenario's value, strategy and bundle tables.  Each
# is built from elementwise arithmetic, bincount, reduceat, cumsum and cumprod
# only (no BLAS, no transcendental function), printed with '%.17g'.  The
# report's residuals also pass through np.sin, np.cos and np.dot in a few
# suites, so its digest is that of one numpy build (2.4 on x86-64): a
# different build may move a last digit there without any change here.
GOLDEN_SHA256 = {
    "values_constrained_snell.csv":
        "3797f9a7753ca215c15f0d0cab0004c401885c8f82f02eb81d83583df881099a",
    "values_american_upper.csv":
        "e11e0589f3bbbf2ac8e762a90bf7b6067d1459b0d33097c1b2dcaff9c905c6fd",
    "values_game.csv": "49f6a8dc7986228f33541f129875168a05e61e911361acf09467bf7958abc030",
    "strategies_game.csv": "217a19878a0f13fc25fd76f76d0d6a464086a73335142aa26c3305388d77ecca",
    "bundle.csv": "336d69a4c225f75c85d62f0b009536d5d36f350bf85197eb432135abf11d9ea3",
    # every suite's residual digits, so a changed residual shows
    "report.json": "fdc1c887a1f2ef90b905e77a2e9987888469e36a359fc2c411e26b970871c410",
}


def test_golden_tables_are_byte_stable(golden_run):
    _, out = golden_run
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


def _set(path, value):
    """Edit of the packaged scenario: set the entry at ``path`` to ``value``."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _rename(section, old, new):
    """Edit of the packaged scenario: rename the key ``old`` of ``section``."""
    def edit(raw):
        raw.setdefault(section, {})[new] = raw[section].pop(old, 1)
    return edit


NAN, INF = float("nan"), float("inf")
BAD_INPUTS = {
    "negative payoff": _set(["payoff", "P", "by_level", 1, 0], -0.5),
    "nan delta": _set(["hazard", "delta", "by_level", 2, 1], NAN),
    "infinite delta": _set(["hazard", "delta", "by_level", 2, 1], INF),
    "nan h": _set(["hazard", "h", "by_level", 1, 1], NAN),
    "nan zf_leaves": _set(["tree", "zf_leaves", 3], NAN),
    "nan grid time": _set(["tree", "times", 2], NAN),
    "infinite grid time": _set(["tree", "times", 3], INF),
    "nan edge probability": _set(["tree", "p"], [[[0.5, 0.5]], [[NAN, 0.5], [0.5, 0.5]],
                                                 [[0.5, 0.5]] * 4]),
    "fractional penalty level": _set(["penalty_ladder"], [1, 2.5, 4]),
    "non-numeric penalty level": _set(["penalty_ladder"], [1, "x"]),
    "non-numeric phi count": _set(["phi", "count"], "ten"),
    "negative phi count": _set(["phi", "count"], -3),
    "null random_family instances": _set(["random_family", "instances"], None),
    # wrong-typed sections
    "phi not an object": _set(["phi"], [1]),
    "hazard not an object": _set(["hazard"], [1]),
    "payoff not an object": _set(["payoff"], [1]),
    "random_family not an object": _set(["random_family"], [1]),
    "output not an object": _set(["output"], "dir"),
    "tolerances a list": _set(["tolerances"], [1, 2]),
    "tolerances a string": _set(["tolerances"], "x"),
    "null suites": _set(["suites"], None),
    "suites a string": _set(["suites"], "european-duality"),
    # values that parse but would crash a suite or disarm a check
    "empty penalty ladder": _set(["penalty_ladder"], []),
    "negative phi seed": _set(["phi", "seed"], -1),
    "negative random_family seed": _set(["random_family", "seed"], -1),
    "random_family max_periods 0": _set(["random_family", "max_periods"], 0),
    "random_family max_branching 1": _set(["random_family", "max_branching"], 1),
    "unknown tolerance": _set(["tolerances", "identiy"], 1e-12),
    "infinite tolerance": _set(["tolerances", "identity"], INF),
    "string terminal_absorption": _set(["hazard", "terminal_absorption"], "no"),
    "name not a string": _set(["name"], [1]),
    "unknown top-level key": _set(["sutes"], []),
    # node tables hold real numbers: no booleans, no numeric strings
    "boolean payoff": _set(["payoff", "P"], True),
    "string payoff": _set(["payoff", "R"], "0.5"),
    "boolean constant": _set(["payoff", "R"], {"constant": True}),
    "string constant": _set(["hazard", "delta"], {"constant": "0.5"}),
    "boolean by_level entry": _set(["payoff", "P", "by_level", 2, 1], True),
    "string by_level entry": _set(["hazard", "h", "by_level", 1, 0], "0.2"),
    "string by_level row": _set(["hazard", "h", "by_level", 3], "0.0"),
    "by_level not a list": _set(["payoff", "P"], {"by_level": 5}),
    # a misspelt key inside a section would fall back to its default
    "unknown tree key": _rename("tree", "zf_leaves", "zf_leafs"),
    "unknown hazard key": _rename("hazard", "delta", "dleta"),
    "unknown payoff key": _rename("payoff", "R", "r"),
    "unknown phi key": _rename("phi", "count", "cout"),
    "unknown random_family key": _rename("random_family", "instances", "instance"),
    "unknown output key": _rename("output", "dir", "directory"),
}
# the scenario key that the error of each of these cases must name first
NAMED_KEY = {
    "phi not an object": "phi", "hazard not an object": "hazard",
    "payoff not an object": "payoff", "random_family not an object": "random_family",
    "output not an object": "output", "tolerances a list": "tolerances",
    "tolerances a string": "tolerances", "null suites": "suites",
    "suites a string": "suites", "empty penalty ladder": "penalty_ladder",
    "negative phi seed": "phi.seed", "negative random_family seed": "random_family.seed",
    "random_family max_periods 0": "random_family.max_periods",
    "random_family max_branching 1": "random_family.max_branching",
    "unknown tolerance": "tolerances.identiy", "infinite tolerance": "tolerances.identity",
    "string terminal_absorption": "hazard.terminal_absorption",
    "name not a string": "name", "unknown top-level key": "sutes",
    "boolean payoff": "payoff.P", "string payoff": "payoff.R",
    "boolean constant": "payoff.R.constant", "string constant": "hazard.delta.constant",
    "boolean by_level entry": "payoff.P.by_level[2][1]",
    "string by_level entry": "hazard.h.by_level[1][0]",
    "string by_level row": "hazard.h.by_level[3]",
    "by_level not a list": "payoff.P.by_level", "unknown tree key": "tree.zf_leafs",
    "unknown hazard key": "hazard.dleta", "unknown payoff key": "payoff.r",
    "unknown phi key": "phi.cout", "unknown random_family key": "random_family.instance",
    "unknown output key": "output.directory",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_malformed_input_exits_2(case, tmp_path, capsys):
    raw = copy.deepcopy(json.loads(PACKAGED.read_text()))
    BAD_INPUTS[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ")
    if case in NAMED_KEY:
        assert err.startswith(f"scenario error: {NAMED_KEY[case]}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    ("unknown hazard key",
     "hazard.dleta: unknown key (known: timing, terminal_absorption, h, delta)"),
    ("by_level not a list", "payoff.P.by_level: expected a list of levels")])
def test_section_errors_name_the_key(case, message, tmp_path, capsys):
    raw = json.loads(PACKAGED.read_text())
    BAD_INPUTS[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def test_empty_suite_list_exits_2(tmp_path, capsys):
    raw = json.loads(PACKAGED.read_text())
    raw["suites"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "scenario error: suites: empty list, nothing to check\n"
    assert not (tmp_path / "out").exists()


def test_rerun_into_same_directory_removes_artifacts_it_does_not_write(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(PACKAGED), "--out", str(out)]) == 0
    conditional = ["values_game.csv", "strategies_game.csv",
                   "trace_duality.json", "trace_dirac.json"]
    assert all((out / name).exists() for name in conditional)
    raw = json.loads(PACKAGED.read_text())
    raw["payoff"] = {"P": 2.0, "R": 1.0}
    raw["suites"] = ["game-duality"]
    path = tmp_path / "off_hypothesis.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert not [name for name in conditional if (out / name).exists()]
    assert json.loads((out / "report.json").read_text())["passed"] is False


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(PACKAGED), "--threads", "2"])
    assert exc.value.code == 2


# -- vopt sweep and vopt oracle --------------------------------------------------

def test_sweep_writes_json_and_csv(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", str(PACKAGED), "--param", "delta_scale", "--values", "1", "2",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep.json"]
    rows = json.loads((out / "sweep.json").read_text())["sweep"]
    assert [(r["param"], r["value"]) for r in rows] == [("delta_scale", 1.0),
                                                         ("delta_scale", 2.0)]
    assert rows[0]["root_value"] == pytest.approx(0.9, abs=1e-12)
    assert all(0.0 <= r["duality_gap_at_top"] <= 1e-5 for r in rows)
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,root_value,duality_gap_at_top"
    assert [line.split(",")[:2] for line in lines[1:]] == [["delta_scale", "1"],
                                                           ["delta_scale", "2"]]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["delta_scale=1", "delta_scale=2"]


def test_sweep_penalty_top(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", str(PACKAGED), "--param", "penalty_top", "--values", "4", "1024",
                 "--out", str(out)]) == 0
    gaps = [r["duality_gap_at_top"] for r in
            json.loads((out / "sweep.json").read_text())["sweep"]]
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("scale", [2.0, 0.0])
def test_rescaled_scenario_solves_afresh(scale):
    # the constrained Snell envelope reads only the support of delta, so a
    # factor of 2 leaves it unchanged and a factor of 0 moves it
    sc = parse_scenario(str(PACKAGED))
    first = sc.snell
    mod = _scaled_scenario(sc, "delta_scale", scale)
    fresh = constrained_snell(sc.payoff, ReducedHazard(sc.tree, sc.hazard_delta.delta * scale))
    assert mod.snell is not first and sc.snell is first
    assert np.array_equal(mod.snell.value.values, fresh.value.values)
    assert np.array_equal(mod.snell.value.values, first.value.values) == (scale != 0.0)


def _count_calls(monkeypatch, *targets) -> dict:
    """Calls of each (module, name) target, counted through every vopt
    namespace that binds it."""
    calls = {}
    for module, name in targets:
        real = getattr(module, name)
        calls[name] = 0

        def counting(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("vopt") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_run_solves_each_limit_problem_once(tmp_path, monkeypatch, capsys):
    # the suites and the written tables share one solve of each limit problem
    calls = _count_calls(monkeypatch, (european, "constrained_snell"),
                         (american, "american_upper_price"),
                         (american, "constrained_dynkin_game"))
    assert main(["run", str(PACKAGED), "--out", str(tmp_path)]) == 0
    assert calls == dict.fromkeys(calls, 1)


def test_solver_suites_build_no_atoms(tmp_path, monkeypatch, capsys):
    # bundle.csv comes from the closed form on every run, so a run whose suites
    # read no atoms builds none, and writes the same bundle.csv as a full run
    calls = _count_calls(monkeypatch, (random_time, "cox_extend"),
                         (random_time, "projections"))
    raw = json.loads(PACKAGED.read_text())
    raw["suites"] = ["european-duality", "dirac-convergence", "rbsde-vs-optstop",
                     "american-upper", "game-duality"]
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"cox_extend": 0, "projections": 0}
    digest = hashlib.sha256((tmp_path / "out" / "bundle.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256["bundle.csv"]


@pytest.mark.parametrize("param", ["h_scale", "nonsense"])
def test_sweep_unknown_parameter_exits_2(param, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", str(PACKAGED), "--param", param, "--values", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"scenario error: unknown sweep parameter "
                                       f"'{param}' (use delta_scale or penalty_top)\n")
    assert not out.exists()


def test_oracle_writes_one_suite_report(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", str(PACKAGED), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["oracle.json"]
    report = json.loads((out / "oracle.json").read_text())
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == ["oracle-equivalence"]
    assert report["suites"][0]["details"]["instances"] == 9
    assert capsys.readouterr().out.splitlines()[-1] == "all suites passed"


def test_oracle_exits_1_on_a_failing_suite(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(suites, "evaluate_stopping", lambda *a, **k: float("nan"))
    assert main(["oracle", str(PACKAGED), "--out", str(tmp_path)]) == 1
    assert '"passed": false' in (tmp_path / "oracle.json").read_text()
    assert capsys.readouterr().out.splitlines()[-1] == "SUITE FAILURES PRESENT"


def test_oracle_malformed_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["oracle", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("scenario error: ")
    assert not (tmp_path / "out").exists()


def test_run_report_with_nan_and_inf_residuals_is_json(tmp_path, monkeypatch, capsys):
    # a NaN residual and a suite that raised (recorded as inf) are written as
    # NaN and Infinity, which json.loads reads back
    raw = json.loads(PACKAGED.read_text())
    raw["suites"] = ["european-duality", "oracle-equivalence"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))

    def nan_residual(sc):
        return suites.SuiteResult("european-duality", False, float("nan"), 1e-5, 0.0)

    def raises(sc):
        raise RuntimeError("boom")

    monkeypatch.setitem(suites.SUITE_FUNCTIONS, "european-duality", nan_residual)
    monkeypatch.setitem(suites.SUITE_FUNCTIONS, "oracle-equivalence", raises)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    text = (out / "report.json").read_text()
    assert '"max_residual": NaN,' in text and '"max_residual": Infinity,' in text
    report = json.loads(text)
    assert math.isnan(report["suites"][0]["max_residual"])
    assert report["suites"][1]["max_residual"] == math.inf
    assert report["suites"][1]["details"]["error"] == "RuntimeError: boom"
