"""Reflected solves, penalized American schemes, the constrained game, oracles."""

from dataclasses import dataclass

import numpy as np
import pytest

from vopt.american import (american_upper_price, american_upper_problem, brute_force_game,
                           constrained_dynkin_game, game_payoff, penalized_american_lower,
                           penalized_american_upper, rbsde_vs_weighted_optstop,
                           reflected_gbsde_solve)
from vopt.errors import EnumerationCapError, TreeError
from vopt.european import PayoffSpec, ReducedHazard
from vopt.filtration import (AdaptedProcess, StoppingProblem, backward,
                             brute_force_snell_root, build_tree, count_stopping_times,
                             snell_envelope)
from vopt.instances import random_delta_hazard, random_payoff, random_tree

TOL = 1e-12


@dataclass
class GameInstance:
    tree: object
    payoff: PayoffSpec
    hz: ReducedHazard


def random_game_instance(rng, max_periods=4, enum_cap=200_000):
    """Instance with P <= R on the support and an enumerable stopping-time set."""
    while True:
        tree = random_tree(rng, max_periods=max_periods,
                           max_branching=2 if max_periods >= 4 else 3,
                           with_density=False)
        try:
            if count_stopping_times(tree) > enum_cap:
                continue
        except EnumerationCapError:
            continue
        hz = random_delta_hazard(rng, tree)
        payoff = random_payoff(rng, tree, r_dominates=False)
        r = payoff.R.values.copy()
        mask = hz.support_mask()
        r[mask] = np.maximum(r[mask], payoff.P.values[mask])
        return GameInstance(tree, PayoffSpec(payoff.P, AdaptedProcess(tree, r)), hz)


def one_period_instance():
    # P_0 = 0.5, terminal P in {2, 0} (E = 1), R_0 = 2, delta = 0.5
    tree = build_tree({"times": [0.0, 1.0], "branching": 2, "p": "uniform"})
    pay = PayoffSpec(AdaptedProcess(tree, np.array([0.5, 2.0, 0.0])),
                     AdaptedProcess.constant(tree, 2.0))
    hz = ReducedHazard(tree, np.array([0.5, 0.0, 0.0]))
    return tree, pay, hz


# -- reflected solves ---------------------------------------------------------------

def test_reflected_zero_generator_is_snell():
    rng = np.random.default_rng(60)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    # the penalty at level 0 is no generator: each step is the continuation
    rep = reflected_gbsde_solve("penalty_up", 0.0, pay, hz)
    snell, _ = snell_envelope(StoppingProblem(pay.P))
    assert np.max(np.abs(rep.value.values - snell.values)) <= TOL
    assert rep.max_skorokhod_residual() <= TOL


def test_reflected_two_period_hand_solve():
    # binding obstacle at one interior node, worked by hand
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    P = np.array([0.0, 1.5, 0.0, 1.0, 1.0, 0.5, 0.5])
    R = np.full(7, 0.8)
    delta = np.zeros(7)
    delta[1] = 1.0   # hazard only after the up node
    pay = PayoffSpec(AdaptedProcess(tree, P), AdaptedProcess(tree, R))
    hz = ReducedHazard(tree, delta)
    rep = reflected_gbsde_solve("linear", 1.0, pay, hz)
    # up node: e = 1.0, a = 1 -> y = (1.0 + 0.8)/2 = 0.9 < P = 1.5 -> reflect
    assert rep.value.values[1] == pytest.approx(1.5, abs=TOL)
    assert rep.K_increments[1] == pytest.approx(0.6, abs=TOL)
    # down node: no hazard -> y = e = 0.5, obstacle 0 -> no reflection
    assert rep.value.values[2] == pytest.approx(0.5, abs=TOL)
    assert rep.K_increments[2] == pytest.approx(0.0, abs=TOL)
    # root: e = mean(1.5, 0.5) = 1.0, no hazard, obstacle 0
    assert rep.value.values[0] == pytest.approx(1.0, abs=TOL)
    assert rep.max_skorokhod_residual() <= TOL


def test_skorokhod_complementarity_random():
    rng = np.random.default_rng(62)
    for _ in range(10):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        for maker in (lambda: penalized_american_upper(64, pay, hz),
                      lambda: penalized_american_lower(64, pay, hz),
                      lambda: reflected_gbsde_solve("linear", 2.0, pay, hz)):
            rep = maker()
            assert rep.max_skorokhod_residual() <= TOL
            assert np.min(rep.K_increments) >= -TOL
            assert np.all(rep.value.values >= pay.P.values - TOL)


# -- equivalence with weighted optimal stopping ---------------------------------------

def test_rbsde_vs_weighted_trivial_cases():
    rng = np.random.default_rng(63)
    tree = random_tree(rng)
    pay = PayoffSpec(AdaptedProcess(tree, rng.uniform(0, 2, tree.n_nodes)),
                     AdaptedProcess.constant(tree, 0.0))
    hz = ReducedHazard(tree, np.zeros(tree.n_nodes))
    rep = rbsde_vs_weighted_optstop(pay, hz)
    snell, _ = snell_envelope(StoppingProblem(pay.P))
    assert np.max(np.abs(rep.value_rbsde.values - snell.values)) <= TOL
    assert rep.max_diff <= 1e-10


def test_rbsde_vs_weighted_random():
    rng = np.random.default_rng(64)
    for _ in range(10):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        rep = rbsde_vs_weighted_optstop(pay, hz)
        assert rep.max_diff <= 1e-10
        assert rep.skorokhod_residual <= TOL


# -- penalized schemes and their limits ------------------------------------------------

def test_penalized_upper_one_period_limit():
    tree, pay, hz = one_period_instance()
    # n -> inf: max(P_0, max(E, R_0)) = 2
    assert penalized_american_upper(2 ** 22, pay, hz).value.values[0] == \
        pytest.approx(2.0, abs=1e-5)
    up = american_upper_price(pay, hz)
    assert up.value.values[0] == pytest.approx(2.0, abs=TOL)


def test_penalized_lower_one_period_limit():
    tree, pay, hz = one_period_instance()
    # P <= R: n -> inf gives max(P_0, min(E, R_0)) = 1
    assert penalized_american_lower(2 ** 22, pay, hz).value.values[0] == \
        pytest.approx(1.0, abs=1e-5)


def test_penalized_schemes_monotone_and_ordered():
    rng = np.random.default_rng(65)
    for _ in range(6):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        prev_up, prev_lo = None, None
        for n in [1, 4, 16, 64, 512]:
            up = penalized_american_upper(n, pay, hz).value.values
            lo = penalized_american_lower(n, pay, hz).value.values
            assert np.all(lo <= up + TOL)
            if prev_up is not None:
                assert np.all(up >= prev_up - TOL)
                assert np.all(lo <= prev_lo + TOL)
            prev_up, prev_lo = up, lo


def test_penalty_never_binds_when_dominated():
    rng = np.random.default_rng(66)
    tree = random_tree(rng, with_density=False)
    snell_p = backward(tree, np.full(tree.leaves.size, 3.0))
    pay = PayoffSpec(AdaptedProcess(tree, snell_p), AdaptedProcess.constant(tree, 50.0))
    hz = random_delta_hazard(rng, tree)
    rep = penalized_american_lower(1024, pay, hz)
    assert np.max(np.abs(rep.value.values - snell_p)) <= TOL


def test_upper_price_reduces_to_snell_without_support():
    rng = np.random.default_rng(67)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = ReducedHazard(tree, np.zeros(tree.n_nodes))
    up = american_upper_price(pay, hz)
    snell, _ = snell_envelope(StoppingProblem(pay.P))
    assert np.max(np.abs(up.value.values - snell.values)) <= TOL


def test_upper_price_limit_and_oracle():
    rng = np.random.default_rng(68)
    for _ in range(5):
        tree = random_tree(rng, max_periods=4, max_branching=2)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        target = american_upper_price(pay, hz)
        pen = penalized_american_upper(2 ** 20, pay, hz)
        assert np.max(np.abs(pen.value.values - target.value.values)) <= 1e-5
        bf = brute_force_snell_root(american_upper_problem(pay, hz))
        assert target.value.values[0] == pytest.approx(bf, abs=TOL)


def test_reduced_phi_between_bounds():
    rng = np.random.default_rng(70)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    n = 8.0
    up = penalized_american_upper(n, pay, hz).value.values
    lo = penalized_american_lower(n, pay, hz).value.values
    for lam in (0.05, 1.0, 7.9):
        mid = reflected_gbsde_solve("linear", lam, pay, hz).value.values
        assert np.all(mid <= up + TOL)
        assert np.all(mid >= lo - TOL)


# -- the constrained game ------------------------------------------------------------------

def test_game_support_only_horizon_is_snell():
    rng = np.random.default_rng(71)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree, r_dominates=True)
    hz = ReducedHazard(tree, np.zeros(tree.n_nodes))
    game = constrained_dynkin_game(pay, hz)
    snell, _ = snell_envelope(StoppingProblem(pay.P))
    assert np.max(np.abs(game.value.values - snell.values)) <= TOL


def test_game_one_period_value():
    tree, pay, hz = one_period_instance()
    game = constrained_dynkin_game(pay, hz)
    assert game.value.values[0] == pytest.approx(1.0, abs=TOL)  # min(2, max(0.5, 1))
    infsup, supinf = brute_force_game(pay, hz)
    assert infsup == pytest.approx(1.0, abs=TOL)
    assert supinf == pytest.approx(1.0, abs=TOL)


def test_game_requires_dominated_promise_on_support():
    tree = build_tree({"times": [0, 1], "branching": 2, "p": "uniform"})
    pay = PayoffSpec(AdaptedProcess(tree, np.array([3.0, 1.0, 1.0])),
                     AdaptedProcess.constant(tree, 1.0))
    hz = ReducedHazard(tree, np.array([0.5, 0.0, 0.0]))
    with pytest.raises(TreeError, match="P <= R"):
        constrained_dynkin_game(pay, hz)


def test_game_equal_payoffs_settle_at_promise_on_support():
    # with R = P the minimizer can force settlement at P on every support node
    tree, pay, hz = one_period_instance()
    pay_eq = PayoffSpec(pay.P, pay.P)
    game = constrained_dynkin_game(pay_eq, hz)
    assert game.value.values[0] == pytest.approx(0.5, abs=TOL)
    infsup, supinf = brute_force_game(pay_eq, hz)
    assert infsup == pytest.approx(0.5, abs=TOL)
    assert supinf == pytest.approx(0.5, abs=TOL)


def test_game_minimax_matches_backward_and_strategies():
    rng = np.random.default_rng(72)
    for _ in range(8):
        gi = random_game_instance(rng, max_periods=3)
        game = constrained_dynkin_game(gi.payoff, gi.hz)
        infsup, supinf = brute_force_game(gi.payoff, gi.hz)
        assert supinf <= infsup + TOL
        assert abs(infsup - supinf) <= TOL
        assert game.value.values[0] == pytest.approx(infsup, abs=TOL)
        achieved = game_payoff(gi.payoff, gi.hz, game.sigma_star, game.tau_star)
        assert achieved == pytest.approx(game.value.values[0], abs=TOL)


def test_game_limit_of_penalized_lower():
    rng = np.random.default_rng(73)
    for _ in range(5):
        gi = random_game_instance(rng, max_periods=3)
        game = constrained_dynkin_game(gi.payoff, gi.hz)
        lo = penalized_american_lower(2 ** 20, gi.payoff, gi.hz)
        assert np.max(np.abs(lo.value.values - game.value.values)) <= 1e-5


def test_game_off_support_recovery_irrelevant():
    rng = np.random.default_rng(74)
    gi = random_game_instance(rng, max_periods=3)
    off = ~gi.hz.support_mask()
    r2 = gi.payoff.R.values.copy()
    r2[off] += 9.0
    pay2 = PayoffSpec(gi.payoff.P, AdaptedProcess(gi.tree, r2))
    g1 = constrained_dynkin_game(gi.payoff, gi.hz)
    g2 = constrained_dynkin_game(pay2, gi.hz)
    assert np.max(np.abs(g1.value.values - g2.value.values)) <= TOL
    u1 = american_upper_price(gi.payoff, gi.hz)
    u2 = american_upper_price(pay2, gi.hz)
    assert np.max(np.abs(u1.value.values - u2.value.values)) <= TOL
