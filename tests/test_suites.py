"""Suite-level aggregation: residuals that are not finite must fail the suite."""

import dataclasses
import math
from pathlib import Path

import pytest

import vopt
from vopt import suites
from vopt.filtration import AdaptedProcess
from vopt.scenario import parse_scenario

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
