"""Inputs built on different trees are refused where they meet.

Two 7-node trees: A is binary with N = 2, B branches [[3], [1, 1, 1]].  Node
ids 0..6 exist on both, so a solver that took its tree from one argument and
read arrays built on another would return a number for the wrong problem.
Coefficients (lambda, the penalty level, phi^o) are read through
``filtration.node_values`` and refused the same way.
"""

import numpy as np
import pytest

from vopt.american import (american_upper_price, brute_force_game, constrained_dynkin_game,
                           game_payoff, modified_payoff, penalized_american_lower,
                           penalized_american_upper, rbsde_vs_weighted_optstop,
                           reflected_gbsde_solve)
from vopt.errors import TreeError
from vopt.european import (PayoffSpec, ReducedHazard, constrained_snell,
                           dirac_convergence_check, penalized_european,
                           reduced_price_closed_form, reduced_price_linear, sup_over_phi)
from vopt.filtration import (AdaptedProcess, StoppingTime, build_tree, evaluate_stopping,
                             node_values, shared_tree)
from vopt.measure_change import PhiControl, density_eta, phi_pr_from_marks, validate_phi
from vopt.random_time import (HazardSpec, cox_extend, full_price_assembly, projections,
                              step_default_probs)

A = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
B = build_tree({"times": [0, 1, 2], "branching": [[3], [1, 1, 1]], "p": "uniform"})
DELTA = np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def payoff(tree):
    return PayoffSpec(AdaptedProcess(tree, np.linspace(0.2, 0.8, 7)),
                      AdaptedProcess(tree, np.linspace(0.9, 1.5, 7)))


PAY, HZ, HZ_B = payoff(A), ReducedHazard(A, DELTA), ReducedHazard(B, DELTA)
SIG, SIG_B = StoppingTime.horizon(A), StoppingTime.horizon(B)
NU, NU_B = StoppingTime(A, HZ.support_mask()), StoppingTime(B, HZ_B.support_mask())
LAM_B = AdaptedProcess(B, np.linspace(0.5, 1.5, 7))
BUNDLE = projections(cox_extend(A, HazardSpec.constant(A, 0.3)))
PHI_B = PhiControl(AdaptedProcess.constant(B, 0.1))

MIXED_CALLS = {
    "reduced_price_linear hazard": lambda: reduced_price_linear(1.0, PAY, HZ_B),
    "reduced_price_linear lambda": lambda: reduced_price_linear(LAM_B, PAY, HZ),
    "reduced_price_closed_form lambda": lambda: reduced_price_closed_form(LAM_B, PAY, HZ),
    "reduced_price_linear sigma": lambda: reduced_price_linear(1.0, PAY, HZ, SIG_B),
    "reduced_price_closed_form hazard": lambda: reduced_price_closed_form(1.0, PAY, HZ_B),
    "reduced_price_closed_form sigma": lambda: reduced_price_closed_form(1.0, PAY, HZ, SIG_B),
    "penalized_european": lambda: penalized_european(4.0, PAY, HZ_B),
    "constrained_snell": lambda: constrained_snell(PAY, HZ_B),
    "sup_over_phi": lambda: sup_over_phi(4.0, PAY, HZ_B),
    "dirac_convergence_check hazard": lambda: dirac_convergence_check(PAY, HZ_B, NU),
    "dirac_convergence_check nu": lambda: dirac_convergence_check(PAY, HZ, NU_B),
    "reflected_gbsde_solve hazard": lambda: reflected_gbsde_solve("linear", 1.0, PAY, HZ_B),
    "reflected_gbsde_solve coefficient": lambda: reflected_gbsde_solve("linear", LAM_B,
                                                                       PAY, HZ),
    "reflected_gbsde_solve obstacle": lambda: reflected_gbsde_solve(
        "linear", 1.0, PAY, HZ, obstacle=AdaptedProcess.constant(B, 0.1)),
    "penalized_american_upper": lambda: penalized_american_upper(4.0, PAY, HZ_B),
    "penalized_american_lower": lambda: penalized_american_lower(4.0, PAY, HZ_B),
    "rbsde_vs_weighted_optstop": lambda: rbsde_vs_weighted_optstop(PAY, HZ_B),
    "modified_payoff": lambda: modified_payoff(PAY, HZ_B),
    "american_upper_price": lambda: american_upper_price(PAY, HZ_B),
    "constrained_dynkin_game": lambda: constrained_dynkin_game(PAY, HZ_B),
    "brute_force_game": lambda: brute_force_game(PAY, HZ_B),
    "game_payoff sigma": lambda: game_payoff(PAY, SIG_B, SIG),
    "game_payoff tau": lambda: game_payoff(PAY, SIG, SIG_B),
    "evaluate_stopping": lambda: evaluate_stopping(PAY.P, SIG_B),
    "full_price_assembly": lambda: full_price_assembly(
        projections(cox_extend(B, HazardSpec.constant(B, 0.3))), PAY),
    "full_price_assembly lambda": lambda: full_price_assembly(BUNDLE, PAY, lam=LAM_B),
    "step_default_probs": lambda: step_default_probs(BUNDLE, LAM_B),
    "validate_phi": lambda: validate_phi(PHI_B, BUNDLE),
    "density_eta": lambda: density_eta(PHI_B, BUNDLE),
    "phi_pr_from_marks": lambda: phi_pr_from_marks(BUNDLE, np.linspace(-0.5, 0.5, 7), LAM_B),
}


@pytest.mark.parametrize("name", sorted(MIXED_CALLS))
def test_inputs_on_different_trees_are_refused(name):
    with pytest.raises(TreeError, match="different tree"):
        MIXED_CALLS[name]()


def test_the_same_calls_run_on_one_tree():
    assert reduced_price_linear(1.0, PAY, HZ, SIG).value.tree is A
    lam = AdaptedProcess(A, LAM_B.values)
    assert reduced_price_linear(lam, PAY, HZ).value.tree is A
    assert reflected_gbsde_solve("linear", lam, PAY, HZ).value.tree is A
    assert step_default_probs(BUNDLE, lam).shape == (7,)
    assert density_eta(PhiControl(AdaptedProcess.constant(A, 0.1)), BUNDLE).eta.shape[1] == 3
    assert phi_pr_from_marks(BUNDLE, np.linspace(-0.5, 0.5, 7), lam).shape == (7,)
    assert constrained_snell(PAY, HZ).value.tree is A
    assert game_payoff(PAY, SIG, SIG) == pytest.approx(float(A.node_q[A.leaves]
                                                             @ PAY.P.values[A.leaves]))


def test_node_values_fills_scalars_and_checks_arrays():
    assert np.array_equal(node_values(A, 2.5, "lambda"), np.full(7, 2.5))
    lam = AdaptedProcess(A, np.arange(7.0))
    assert node_values(A, lam, "lambda") is lam.values
    assert np.array_equal(node_values(A, [1.0] * 7, "lambda"), np.ones(7))
    with pytest.raises(TreeError, match="lambda needs one value per node"):
        node_values(A, np.ones(3), "lambda")
    with pytest.raises(TreeError, match="lambda lives on a different tree"):
        node_values(A, LAM_B, "lambda")


def test_payoff_rejects_p_and_r_on_different_trees():
    with pytest.raises(TreeError, match="different trees"):
        PayoffSpec(AdaptedProcess.constant(A, 1.0), AdaptedProcess.constant(B, 1.0))


def test_shared_tree_skips_none_and_compares_identity():
    assert shared_tree(PAY, None, HZ, SIG) is A
    twin = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    with pytest.raises(TreeError, match="ReducedHazard lives on a different tree than "
                                        "PayoffSpec"):
        shared_tree(PAY, ReducedHazard(twin, DELTA))
