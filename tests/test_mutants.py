"""Mutation audit: every check can fail.

Each test plants one defect in a fast path and runs the packaged scenario's
suites: the suite that guards the path must fail.  A defect is planted by
compiling the module's source with one passage replaced, and rebinding the
function that holds the passage, in every ``vopt`` namespace that binds it,
to the compiled copy.
"""

import dataclasses
import inspect
import sys
import types
from pathlib import Path

import pytest

import vopt
from vopt import measure_change, random_time
from vopt.scenario import parse_scenario
from vopt.suites import run_suites

PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"


def plant(monkeypatch, module, *edits):
    """Replace each ``old`` of ``edits`` (once each, all in one function of
    ``module``) by its ``new``, and bind the mutated function wherever the
    original is bound."""
    fns = {name: fn for name, fn in vars(module).items()
           if inspect.isfunction(fn) and fn.__module__ == module.__name__}
    hit = {name for name, fn in fns.items() for old, _ in edits
           if old in inspect.getsource(fn)}
    assert len(hit) == 1, hit
    (name,) = hit
    src = inspect.getsource(module)
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    mutant = types.ModuleType(module.__name__)
    mutant.__package__ = "vopt"
    exec(compile(src, module.__file__, "exec"), vars(mutant))
    for mod in [m for n, m in sys.modules.items() if n == "vopt" or n.startswith("vopt.")]:
        if vars(mod).get(name) is fns[name]:
            monkeypatch.setattr(mod, name, vars(mutant)[name])


def failing_suites(suites=None):
    sc = parse_scenario(str(PACKAGED))
    if suites is not None:
        sc = dataclasses.replace(sc, suites=suites)
    return [r.name for r in run_suites(sc).results if not r.passed]


def test_packaged_scenario_passes_unmutated():
    assert failing_suites() == []


DENSITY_MUTANTS = {
    "eta without the jump factor": [
        ("* at(jump, dn) * mf[dn]", "* mf[dn]")],
    "eta without the market factor": [
        ("* at(jump, dn) * mf[dn]", "* at(jump, dn)"),
        ("eta = at(surv * mf, ext.node_at)", "eta = at(surv, ext.node_at)")],
    "compensated default under the reference measure": [
        ("ext.g_martingale_residual(ind - lam_r[ext.stopped_node], q)",
         "ext.g_martingale_residual(ind - lam_r[ext.stopped_node])")],
}


@pytest.mark.parametrize("mutant", list(DENSITY_MUTANTS))
def test_measure_change_catches(mutant, monkeypatch):
    plant(monkeypatch, measure_change, *DENSITY_MUTANTS[mutant])
    assert failing_suites(["measure-change"]) == ["measure-change"]


def test_dAp_read_at_the_node_fails_a_suite(monkeypatch):
    # for a predictable integrand dA^p and dA^o have the same conditional
    # expectations, so the key lemma and identity i cannot tell them apart:
    # identity vi (G = E(-Gamma)E(N)) and the pre-default transform can
    plant(monkeypatch, random_time,
          ("dAp[1:] = M[up, ku] / mass[up]",
           "dAp[1:] = M[np.arange(1, tree.n_nodes), ku] / mass[1:]"))
    assert failing_suites() == ["projections-identities", "martingale-transforms"]


def test_closed_form_with_decision_hazard_read_at_the_node_fails_a_suite(monkeypatch):
    # bundle.csv's route: the step into a node must read the parent's hazard
    plant(monkeypatch, random_time,
          ('h[1:] = hz.h[up] if hz.timing == "decision"',
           'h[1:] = hz.h[1:] if hz.timing == "decision"'))
    assert failing_suites() == ["projections-identities"]


def test_cox_extend_with_decision_hazard_read_at_the_child_fails_a_suite(monkeypatch):
    # the atoms then follow an arrival-timed law: the assembly's decision-timing
    # guard and the closed form both catch it
    plant(monkeypatch, random_time,
          ("step_h = hz.h[paths[:, :-1]]", "step_h = hz.h[paths[:, 1:]]"))
    assert failing_suites() == ["projections-identities", "measure-change"]
