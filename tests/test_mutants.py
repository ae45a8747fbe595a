"""Mutation audit: every check can fail.

Each test plants one defect in a fast path and runs the packaged scenario's
suites: the suite that guards the path must fail.  A defect is planted by
compiling the module's source with one passage replaced, and rebinding the
function that holds the passage to the compiled copy: a module-level
function in every ``vopt`` namespace that binds it, a method, static method
or cached property on its class.
"""

import dataclasses
import inspect
import sys
import types
from pathlib import Path

import pytest

import vopt
from vopt import american, european, measure_change, random_time
from vopt.american import american_upper_problem, brute_force_game
from vopt.european import european_upper_problem
from vopt.filtration import brute_force_snell_root
from vopt.scenario import parse_scenario
from vopt.suites import run_suites

PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"


def functions_of(module):
    """(owner, name, function) of every function written in ``module``: its
    module-level functions (owner: the module), and the methods, static
    methods and cached properties of its classes (owner: the class)."""
    def own(fn):
        return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__

    for name, obj in vars(module).items():
        if own(obj):
            yield module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                fn = getattr(member, "func", getattr(member, "__func__", member))
                if own(fn):
                    yield obj, attr, fn


def plant(monkeypatch, module, *edits):
    """Replace each ``old`` of ``edits`` (once each, all in one function of
    ``module``) by its ``new``, and bind the mutated function wherever the
    original is bound."""
    hit = [(owner, name, fn) for owner, name, fn in functions_of(module)
           if any(old in inspect.getsource(fn) for old, _ in edits)]
    assert len(hit) == 1, [name for _, name, _ in hit]
    ((owner, name, fn),) = hit
    src = inspect.getsource(module)
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    mutant = types.ModuleType(module.__name__)
    mutant.__package__ = "vopt"
    exec(compile(src, module.__file__, "exec"), vars(mutant))
    if owner is not module:     # classes are shared: rebind on the class
        monkeypatch.setattr(owner, name, vars(vars(mutant)[owner.__name__])[name])
        return
    for mod in [m for n, m in sys.modules.items() if n == "vopt" or n.startswith("vopt.")]:
        if vars(mod).get(name) is fn:
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
        ("ind - np.take(lam[b], ext.stopped_node, axis=-1), qphi[b]))",
         "ind - np.take(lam[b], ext.stopped_node, axis=-1)))")],
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


def test_pG_as_an_unweighted_sibling_mean_fails_a_suite(monkeypatch):
    # pG = E[G_k | F_{k-1}] weighs each sibling by its mass.  On the scenario's
    # own tree (uniform P) siblings have equal masses, so an unweighted mean
    # agrees there; identity vi (G = E(-Gamma)E(N)) on the random family does not
    plant(monkeypatch, random_time,
          ("pG[1:] = S[up, ku + 1] / mass[up]",
           "pG[1:] = (np.add.reduceat(G[1:], tree.first_child[:tree.level_start[n]] - 1)"
           " / tree.n_children[:tree.level_start[n]])[up]"))
    assert failing_suites() == ["projections-identities"]


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


def test_stacked_cell_ids_without_the_row_offset_fail_a_suite(monkeypatch):
    # every row of a block then sums into the first row's cells
    plant(monkeypatch, random_time,
          ("return cells + (np.arange(count, dtype=np.int64) * size)[:, None, None]",
           "return np.broadcast_to(cells, (count,) + cells.shape)"))
    assert failing_suites() == ["projections-identities", "martingale-transforms",
                                "measure-change"]


def test_g_cells_with_a_strict_default_state_fail_suites(monkeypatch):
    # theta < k for theta <= k: the default time itself is no longer in G_theta
    plant(monkeypatch, random_time,
          ("where=theta <= np.arange(n + 1)", "where=theta < np.arange(n + 1)"))
    assert failing_suites() == ["projections-identities", "martingale-transforms",
                                "measure-change"]


STOPPING_MUTANTS = {
    "support read at the child": (european, [
        ("mask = self.delta > 0.0", "mask = self.delta[self.tree.parent] > 0.0")],
        ["european-duality", "dirac-convergence", "american-upper", "game-duality"]),
    "minimizer allowed everywhere": (american, [
        ("StoppingProblem(AdaptedProcess(payoff.tree, upper), european.allowed))",
         "StoppingProblem(AdaptedProcess(payoff.tree, upper)))")],
        ["american-upper", "game-duality"]),
    "backward game's minimizer stops off the support": (american, [
        ("val = np.where(early[sl], np.minimum(upper[sl], stop_max), stop_max)",
         "val = np.minimum(upper[sl], stop_max)"),
        ("tau[sl] = early[sl] & (upper[sl] <= val)", "tau[sl] = upper[sl] <= val")],
        ["game-duality"]),
}


@pytest.mark.parametrize("mutant", list(STOPPING_MUTANTS))
def test_stopping_problems_catch(mutant, monkeypatch):
    module, edits, failing = STOPPING_MUTANTS[mutant]
    plant(monkeypatch, module, *edits)
    assert failing_suites() == failing


def test_oracles_never_call_the_fast_solves(monkeypatch):
    # the enumeration oracles pose the same problems but never solve them
    # through the envelope or the backward game
    sc = parse_scenario(str(PACKAGED))
    problems = [pose(sc.payoff, sc.hazard_delta)
                for pose in (european_upper_problem, american_upper_problem)]
    want = [brute_force_snell_root(p) for p in problems]
    game = brute_force_game(sc.payoff, sc.hazard_delta)

    def raising(*args, **kwargs):
        raise AssertionError("an oracle called a fast solve")

    for mod in [m for n, m in sys.modules.items() if n == "vopt" or n.startswith("vopt.")]:
        for name in ("snell_envelope", "constrained_dynkin_game"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, raising)
    assert [brute_force_snell_root(p) for p in problems] == want
    assert brute_force_game(sc.payoff, sc.hazard_delta) == game
    with pytest.raises(AssertionError, match="fast solve"):
        sc.snell
