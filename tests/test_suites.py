"""Suite-level aggregation: residuals that are not finite must fail the suite."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import vopt
from vopt import american, cli, european, filtration, instances, random_time, scenario, suites
from vopt.filtration import AdaptedProcess
from vopt.random_time import projections
from vopt.scenario import parse_scenario, scenario_from_dict

PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"


def test_nan_residual_after_finite_one_fails_suite(monkeypatch):
    sc = parse_scenario(str(PACKAGED))
    real = suites.rbsde_vs_weighted_optstop
    calls = []

    def nan_on_second_family_instance(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 3:  # the scenario instance is call 1
            rep = dataclasses.replace(rep, max_diff=math.nan)
        return rep

    monkeypatch.setattr(suites, "rbsde_vs_weighted_optstop", nan_on_second_family_instance)
    res = suites.suite_rbsde_vs_optstop(sc)
    assert len(calls) == 1 + sc.family["instances"]
    assert math.isnan(res.max_residual)
    assert not res.passed


def test_worst_propagates_nan_and_inf():
    assert suites._worst(0.0, 1e-13, 2e-14) == 1e-13
    assert math.isnan(suites._worst(0.0, math.nan, 1.0))
    assert suites._worst(1e-15, math.inf) == math.inf


@pytest.mark.parametrize("suite, solver", [
    ("suite_european_duality", "penalized_european"),
    ("suite_american_upper", "penalized_american_upper"),
])
def test_nan_in_ladder_breaks_monotonicity(monkeypatch, suite, solver):
    # a NaN at one node of a middle rung: neither the last rung's gap nor the
    # oracle sees it, so only the monotonicity check can fail the suite
    sc = parse_scenario(str(PACKAGED))
    real = getattr(suites, solver)

    def nan_at_rung_64(n, *args, **kwargs):
        rep = real(n, *args, **kwargs)
        if n == 64:
            vals = rep.value.values.copy()
            vals[1] = math.nan
            rep = dataclasses.replace(rep, value=AdaptedProcess(rep.value.tree, vals))
        return rep

    assert 64 in sc.penalty_ladder[1:-1]
    monkeypatch.setattr(suites, solver, nan_at_rung_64)
    res = getattr(suites, suite)(sc)
    assert res.details["monotone"] is False
    assert not res.passed


@pytest.mark.parametrize("suite", ["suite_european_duality", "suite_american_upper"])
def test_capped_enumeration_is_reported(suite):
    # binary N=6 tree with delta = 1 everywhere: every node may stop, so the
    # stopping times outnumber the enumeration cap and the oracle is skipped;
    # the details must say so instead of showing only a zero gap
    sc = scenario_from_dict({
        "tree": {"times": [0, 1, 2, 3, 4, 5, 6], "branching": 2, "p": "uniform"},
        "hazard": {"delta": 1.0},
        "payoff": {"P": 0.5, "R": 1.0},
        "suites": ["european-duality", "american-upper"],
    })
    res = getattr(suites, suite)(sc)
    assert res.details["enumeration_gap"] == 0.0
    assert res.details["enumeration"].startswith("skipped: ")
    assert "cap" in res.details["enumeration"]


def test_scenario_extension_is_built_once_and_never_written(monkeypatch, tmp_path):
    real = scenario.cox_extend
    built = []
    monkeypatch.setattr(scenario, "cox_extend",
                        lambda *a, **k: built.append(1) or real(*a, **k))
    sc = parse_scenario(str(PACKAGED))
    sc.suites = ["projections-identities", "martingale-transforms", "measure-change"]
    report = suites.run_suites(sc)
    cli._emit_run_artifacts(sc, report, str(tmp_path))
    assert report.passed
    assert len(built) == 1
    fresh = projections(real(sc.tree, sc.hazard_h))
    for key, value in vars(fresh).items():
        shared = getattr(sc.bundle, key)
        if key != "ext":
            a, b = getattr(value, "values", value), getattr(shared, "values", shared)
            assert a.tobytes() == b.tobytes(), key
    for key in ("leaf_row", "theta", "prob", "node_at", "stopped_node"):
        assert getattr(fresh.ext, key).tobytes() == getattr(sc.bundle.ext, key).tobytes()


def test_oracle_suite_counts_each_tree_and_mask_once(monkeypatch):
    real = filtration.count_stopping_times
    seen = []

    def counting(tree, allowed=None, cap=filtration.DEFAULT_ENUM_CAP):
        seen.append((id(tree), None if allowed is None else bytes(np.asarray(allowed))))
        return real(tree, allowed, cap)

    for mod in (filtration, suites):
        monkeypatch.setattr(mod, "count_stopping_times", counting)
    sc = parse_scenario(str(PACKAGED))
    res = suites.suite_oracle_equivalence(sc)
    assert res.passed and res.details["instances"] == 9
    # per instance: the cap check before the reward is drawn, with every node
    # allowed, then one enumeration per problem: all nodes, then the support
    assert len(seen) == 3 * 9
    trees = [tree for tree, _ in seen]
    assert trees == [tree for tree in trees[::3] for _ in range(3)]
    assert len(set(trees)) == 9
    everywhere = [allowed is None or allowed == b"\x01" * len(allowed) for _, allowed in seen]
    assert everywhere[0::3] == everywhere[1::3] == [True] * 9


def test_rbsde_suite_reports_the_gap_it_measures(monkeypatch):
    # one route shifted by 1e-9 at the root: the suite fails on the gap it
    # measured, held against tolerances.rbsde, and reports no error
    sc = parse_scenario(str(PACKAGED))
    sc.suites = ["rbsde-vs-optstop"]
    real = american.reflected_gbsde_solve

    def shifted(*args, **kwargs):
        rep = real(*args, **kwargs)
        vals = rep.value.values.copy()
        vals[0] += 1e-9
        return dataclasses.replace(rep, value=AdaptedProcess(rep.value.tree, vals))

    monkeypatch.setattr(american, "reflected_gbsde_solve", shifted)
    (res,) = suites.run_suites(sc).results
    assert "error" not in res.details
    assert res.tolerance == sc.tolerances["rbsde"]
    assert res.max_residual == pytest.approx(1e-9, rel=1e-4)
    assert not res.passed


def test_family_is_built_once_per_run(monkeypatch, tmp_path):
    # the three suites that walk the random family share one (tree, bundle)
    # list: each family extension and its projections are built once a run
    counts = {"random_tree": 0, "random_extension": 0, "projections": 0}
    for name in counts:
        real = getattr(instances if name != "projections" else random_time, name)

        def counting(*a, _real=real, _name=name, **k):
            # the tilted projections of each Q^phi control are not counted
            if _name != "projections" or (len(a) < 2 and k.get("weights") is None):
                counts[_name] += 1
            return _real(*a, **k)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("vopt") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    sc = parse_scenario(str(PACKAGED))
    sc.suites = ["projections-identities", "martingale-transforms", "measure-change"]
    report = suites.run_suites(sc)
    cli._emit_run_artifacts(sc, report, str(tmp_path))
    assert report.passed
    n = sc.family["instances"]
    assert [r.details.get("instances") for r in report.results[:2]] == [n + 1, n + 1]
    # one projections call per family instance, plus the scenario's own bundle
    assert counts == {"random_tree": n, "random_extension": n, "projections": n + 1}


def test_measure_change_catches_a_mark_that_moves_pre_default_values(monkeypatch):
    # mutant: each post-default mark also scales the default intensity.  Every
    # assembly stays self-consistent (its residual is at rounding level) and
    # every density admissible, but the pre-default values now move with the
    # mark, which only the comparison across marks sees
    sc = parse_scenario(str(PACKAGED))
    assert suites.suite_measure_change(sc).passed
    real = random_time.full_price_assembly
    residuals = []

    def leaky(bundle, payoff, sigma=None, lam=1.0, phi_pr=None, **kw):
        lam = AdaptedProcess(lam.tree, lam.values * (1.0 + 0.1 * float(np.mean(phi_pr))))
        rep = real(bundle, payoff, sigma, lam, phi_pr, **kw)
        residuals.append(rep.residual)
        return rep

    monkeypatch.setattr(random_time, "full_price_assembly", leaky)
    res = suites.suite_measure_change(sc)
    assert "error" not in res.details
    assert len(residuals) == 3 and max(residuals) <= res.tolerance
    assert not res.passed and res.max_residual > 1e3 * res.tolerance


SIGN_CHANGE = {
    # binary N = 2, nu stops at the root: its gap (0.3 n - 1) / ((1 + 0.3 n)(1 + n))
    # changes sign between n = 2 and 4 and grows from n = 4 to 8
    "tree": {"times": [0, 1, 2], "branching": 2, "p": "uniform"},
    "hazard": {"delta": {"by_level": [[1.0], [0.3, 0.3], [0.0] * 4]}},
    "payoff": {"P": 0.0, "R": {"by_level": [[1.0], [2.0, 2.0], [0.0] * 4]}},
    "suites": ["dirac-convergence"],
}


def test_dirac_suite_passes_a_gap_that_changes_sign():
    res = suites.suite_dirac_convergence(scenario_from_dict(SIGN_CHANGE))
    gaps = res.details["trace"]["gaps"]
    assert gaps[3] > gaps[2]          # n = 4 -> 8: |gap| does not shrink at every rung
    assert res.details["rate_excess"] <= 0.0
    assert res.passed


@pytest.mark.parametrize("raw", [SIGN_CHANGE, None], ids=["sign-change", "packaged"])
def test_dirac_suite_fails_a_solve_that_drops_the_recovery(monkeypatch, raw):
    sc = parse_scenario(str(PACKAGED)) if raw is None else scenario_from_dict(raw)
    assert suites.suite_dirac_convergence(sc).passed
    real = european._implicit_step

    def no_recovery(kind, e, r, a):
        return e / (1.0 + a) if kind == "linear" else real(kind, e, r, a)

    monkeypatch.setattr(european, "_implicit_step", no_recovery)
    res = suites.suite_dirac_convergence(sc)
    assert res.details["rate_excess"] > sc.tolerances["identity"]
    assert not res.passed


def test_european_duality_catches_a_penalty_step_wrong_at_small_n(monkeypatch):
    # mutant: the penalty branch halves its level while n delta < 64.  Every
    # rung still rises and the top rung (n = 2^20) is exact, so only the
    # comparison with sup_over_phi, built from the linear step, sees it
    sc = parse_scenario(str(PACKAGED))
    assert suites.suite_european_duality(sc).passed
    real = european._implicit_step

    def weak_penalty(kind, e, r, a):
        if kind == "penalty_up":
            a = np.where(a < 64.0, 0.5 * a, a)
        return real(kind, e, r, a)

    monkeypatch.setattr(european, "_implicit_step", weak_penalty)
    res = suites.suite_european_duality(sc)
    assert res.details["monotone"] and res.details["gap_trace"][-1] <= res.tolerance
    assert not res.passed and res.max_residual > 1e3 * res.tolerance
