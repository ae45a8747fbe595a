"""Reduced European pricing: linear, closed-form, penalized, constrained Snell."""

import numpy as np
import pytest

from vopt import european, filtration
from vopt.errors import HazardError
from vopt.european import (DiracTable, PayoffSpec, ReducedHazard, _implicit_backward,
                           _implicit_step, constrained_snell, dirac_convergence_check,
                           penalized_european, reduced_price_closed_form,
                           reduced_price_linear, sup_over_phi)
from vopt.filtration import (AdaptedProcess, StoppingProblem, StoppingTime, backward,
                             brute_force_snell_root, build_tree)
from vopt.instances import random_delta_hazard, random_payoff, random_tree

TOL = 1e-12


def one_period_instance():
    tree = build_tree({"times": [0.0, 1.0], "branching": 2, "p": "uniform"})
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 2.0))
    hz = ReducedHazard(tree, np.array([0.5, 0.0, 0.0]))
    return tree, pay, hz


def plain_price(tree, pay):
    return backward(tree, pay.P.values[tree.level_slice(tree.n_periods)])


# -- linear solve -------------------------------------------------------------------

def test_linear_no_hazard_is_plain_european():
    rng = np.random.default_rng(40)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = ReducedHazard(tree, np.zeros(tree.n_nodes))
    rep = reduced_price_linear(1.3, pay, hz)
    assert np.max(np.abs(rep.value.values - plain_price(tree, pay))) <= TOL


def test_linear_fixed_point_constant_payoffs():
    rng = np.random.default_rng(41)
    tree = random_tree(rng)
    pay = PayoffSpec(AdaptedProcess.constant(tree, 0.8), AdaptedProcess.constant(tree, 0.8))
    hz = random_delta_hazard(rng, tree)
    for lam in (0.1, 1.0, 7.5):
        rep = reduced_price_linear(lam, pay, hz)
        assert np.max(np.abs(rep.value.values - 0.8)) <= TOL


def test_linear_one_period_hand_value():
    tree, pay, hz = one_period_instance()
    rep = reduced_price_linear(2.0, pay, hz)
    assert rep.value.values[0] == pytest.approx(1.5, abs=TOL)  # (1 + 2*0.5*2)/(1+1)


def test_linear_rejects_bad_inputs():
    tree, pay, hz = one_period_instance()
    with pytest.raises(ValueError, match="positive"):
        reduced_price_linear(0.0, pay, hz)
    with pytest.raises(HazardError):
        ReducedHazard(tree, np.array([-0.1, 0.0, 0.0]))


def test_value_bounded_by_payoffs():
    rng = np.random.default_rng(42)
    for _ in range(5):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        rep = reduced_price_linear(2.0, pay, hz)
        assert rep.value.values.max() <= pay.bound() + TOL
        assert rep.value.values.min() >= -TOL


def test_implicit_step_solves_each_generator():
    # y = e + f(y) delta with a = coeff * delta, for every supported generator
    rng = np.random.default_rng(44)
    e, r = rng.uniform(0, 2, 50), rng.uniform(0, 2, 50)
    coeff, delta = 3.0, rng.uniform(0, 1.5, 50)
    a = coeff * delta
    gens = {"linear": lambda y: coeff * (r - y),
            "penalty_up": lambda y: coeff * np.maximum(r - y, 0.0),
            "penalty_down": lambda y: -coeff * np.maximum(y - r, 0.0)}
    for kind, f in gens.items():
        y = _implicit_step(kind, e, r, a)
        assert np.max(np.abs(y - (e + f(y) * delta))) <= TOL
    with pytest.raises(ValueError, match="not solvable"):
        _implicit_step("quadratic", e, r, a)


# -- closed form ----------------------------------------------------------------------

def test_closed_form_equals_linear_everywhere():
    rng = np.random.default_rng(43)
    for _ in range(6):
        tree = random_tree(rng, max_periods=3)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        lam = AdaptedProcess(tree, rng.uniform(0.2, 3.0, tree.n_nodes))
        closed = reduced_price_closed_form(lam, pay, hz)
        lin = reduced_price_linear(lam, pay, hz)
        assert np.max(np.abs(closed.value.values - lin.value.values)) <= TOL



@pytest.mark.parametrize("seed", [1, 3, 6, 9, 12, 13, 18, 25, 26, 29, 32, 39])
def test_closed_form_stops_at_sigma(seed):
    # sigma stopping before T at the support nodes: each path's sum must end
    # at the first stop node below the node valued
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 4, 3)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    sigma = StoppingTime(tree, hz.support_mask())
    closed = reduced_price_closed_form(1.0, pay, hz, sigma=sigma)
    lin = reduced_price_linear(1.0, pay, hz, sigma=sigma)
    assert np.max(np.abs(closed.value.values - lin.value.values)) <= TOL
    # at the first stop node of each path the value is the payoff there
    first = sigma.stop_nodes_per_path()
    assert np.array_equal(closed.value.values[first], pay.P.values[first])

def test_closed_form_calls_nothing_of_the_recursion(monkeypatch):
    # the closed form is the independent route european-duality checks the
    # recursion against: it returns the same sum with every backward solve
    # made to raise
    rng = np.random.default_rng(44)
    tree = random_tree(rng, 4, 3)
    pay, hz = random_payoff(rng, tree), random_delta_hazard(rng, tree)
    lam = AdaptedProcess(tree, rng.uniform(0.2, 3.0, tree.n_nodes))
    sigma = StoppingTime(tree, hz.support_mask())
    want = [reduced_price_closed_form(lam, pay, hz, s).value.values for s in (None, sigma)]

    def raising(*args, **kwargs):
        raise AssertionError("the closed form called the recursion")

    for mod, name in ((european, "reduced_price_linear"), (european, "_implicit_backward"),
                      (european, "_implicit_step"), (european, "backward"),
                      (filtration, "backward")):
        monkeypatch.setattr(mod, name, raising)
    got = [reduced_price_closed_form(lam, pay, hz, s).value.values for s in (None, sigma)]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    with pytest.raises(AssertionError, match="recursion"):
        reduced_price_linear(lam, pay, hz)


def test_closed_form_limits():
    tree, pay, hz = one_period_instance()
    tiny = reduced_price_closed_form(1e-9, pay, hz)
    assert tiny.value.values[0] == pytest.approx(1.0, abs=1e-8)   # -> E_Q[P_T]
    big = reduced_price_closed_form(1e7, pay, hz)
    assert big.value.values[0] == pytest.approx(2.0, abs=1e-6)    # -> R_0


# -- penalized scheme -------------------------------------------------------------------

def test_penalized_one_period_values():
    tree, pay, hz = one_period_instance()
    for n, expect in [(1, (1 + 0.5 * 1 * 2) / 1.5), (4, (1 + 0.5 * 4 * 2) / 3.0)]:
        rep = penalized_european(n, pay, hz)
        assert rep.value.values[0] == pytest.approx(expect, abs=TOL)
    assert penalized_european(2 ** 22, pay, hz).value.values[0] == \
        pytest.approx(2.0, abs=1e-5)


def test_penalized_inactive_when_reward_below_price():
    # R below the martingale-closed P: penalty never binds
    rng = np.random.default_rng(44)
    tree = random_tree(rng, with_density=False)
    pv = backward(tree, np.full(tree.leaves.size, 2.0))
    pay = PayoffSpec(AdaptedProcess(tree, pv), AdaptedProcess.constant(tree, 1.0))
    hz = random_delta_hazard(rng, tree)
    for n in (1, 16, 1024):
        rep = penalized_european(n, pay, hz)
        assert np.max(np.abs(rep.value.values - pv)) <= TOL


def test_penalized_monotone_in_n():
    rng = np.random.default_rng(45)
    for _ in range(6):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        prev = None
        for n in [1, 2, 4, 8, 32, 128, 1024]:
            val = penalized_european(n, pay, hz).value.values
            if prev is not None:
                assert np.all(val >= prev - TOL)
            prev = val


# -- constrained Snell envelope ------------------------------------------------------------

def test_constrained_snell_no_support_is_plain():
    rng = np.random.default_rng(47)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = ReducedHazard(tree, np.zeros(tree.n_nodes))
    rep = constrained_snell(pay, hz)
    assert np.max(np.abs(rep.value.values - plain_price(tree, pay))) <= TOL


def test_constrained_snell_one_period():
    tree, pay, hz = one_period_instance()
    rep = constrained_snell(pay, hz)
    assert rep.value.values[0] == pytest.approx(2.0, abs=TOL)  # max(R_0, E[P_T])
    assert rep.tau_star.stop[0]


def test_constrained_snell_equals_enumeration():
    rng = np.random.default_rng(48)
    for _ in range(8):
        tree = random_tree(rng, max_periods=4, max_branching=2)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        rep = constrained_snell(pay, hz)
        reward = pay.R.values.copy()
        term = tree.level_slice(tree.n_periods)
        reward[term] = pay.P.values[term]
        bf = brute_force_snell_root(StoppingProblem(AdaptedProcess(tree, reward),
                                                    hz.support_mask()))
        assert rep.value.values[0] == pytest.approx(bf, abs=TOL)


def test_duality_penalized_converges_to_constrained_snell():
    rng = np.random.default_rng(49)
    for _ in range(6):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        snell = constrained_snell(pay, hz).value.values
        gaps = [float(np.max(np.abs(
            penalized_european(2 ** k, pay, hz).value.values - snell)))
            for k in range(0, 21, 4)]
        assert all(b <= a + TOL for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5


# -- sup over tilts ---------------------------------------------------------------------------

def test_sup_over_phi_equals_penalized():
    rng = np.random.default_rng(50)
    for _ in range(5):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        for n in (1, 4, 16):
            sup = sup_over_phi(n, pay, hz)
            pen = penalized_european(n, pay, hz)
            assert np.max(np.abs(sup.value.values - pen.value.values)) <= TOL


def grid_sup(n, pay, hz, points=64):
    """Reference for ``sup_over_phi``: at each node the best linear step over a
    geometric grid of tilts in [2^-6, n].  Too slow for a suite (13-19 ms a
    call on a 16,383-node tree); returns the values and the winning tilts."""
    lams = np.geomspace(2.0 ** -6, n, points)
    lam_star = np.zeros(pay.tree.n_nodes)

    def step(e, r, d, sl):
        vals = np.stack([_implicit_step("linear", e, r, lam * d) for lam in lams])
        lam_star[sl] = lams[np.argmax(vals, axis=0)]
        return np.max(vals, axis=0)

    return _implicit_backward(pay, hz, step, None), lam_star


def test_sup_over_phi_matches_a_grid_scan():
    tree, pay, hz = one_period_instance()
    closed = sup_over_phi(4, pay, hz)
    grid, grid_star = grid_sup(4, pay, hz)
    assert closed.value.values[0] == pytest.approx(5 / 3, abs=TOL)
    assert closed.lambda_star[0] == grid_star[0] == 4.0
    assert abs(grid[0] - closed.value.values[0]) <= 1e-6
    rng = np.random.default_rng(53)
    for _ in range(5):
        tree = random_tree(rng)
        pay = random_payoff(rng, tree)
        hz = random_delta_hazard(rng, tree)
        closed = sup_over_phi(4, pay, hz)
        # no grid tilt beats the two ends of the range
        assert np.all(grid_sup(4, pay, hz)[0] <= closed.value.values + TOL)
        # R falling by 1 a period from 10 tops every continuation (P <= 2):
        # the top tilt wins at every node carrying hazard
        high = PayoffSpec(pay.P, AdaptedProcess(tree, 10.0 - tree.level_of))
        closed = sup_over_phi(4, high, hz)
        grid, grid_star = grid_sup(4, high, hz)
        inner = slice(0, int(tree.level_start[tree.n_periods]))
        live = hz.delta[inner] > 0.0
        assert np.max(np.abs(grid - closed.value.values)) <= TOL
        assert np.all(closed.lambda_star[inner][live] == 4.0)
        assert np.all(grid_star[inner][live] == 4.0)


def test_sup_attained_at_vanishing_tilt_when_r_small():
    rng = np.random.default_rng(51)
    tree = random_tree(rng, with_density=False)
    pv = backward(tree, np.full(tree.leaves.size, 3.0))
    pay = PayoffSpec(AdaptedProcess(tree, pv), AdaptedProcess.constant(tree, 0.5))
    hz = random_delta_hazard(rng, tree)
    sup = sup_over_phi(8, pay, hz)
    assert np.max(np.abs(sup.value.values - pv)) <= TOL


# -- comparison and localization invariants -----------------------------------------------------

def test_comparison_in_recovery():
    rng = np.random.default_rng(52)
    tree = random_tree(rng)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    bumped = PayoffSpec(pay.P, AdaptedProcess(tree, pay.R.values + 0.25))
    for n in (1, 64):
        lo = penalized_european(n, pay, hz).value.values
        hi = penalized_european(n, bumped, hz).value.values
        assert np.all(hi >= lo - TOL)
    assert np.all(constrained_snell(bumped, hz).value.values
                  >= constrained_snell(pay, hz).value.values - TOL)


def test_off_support_recovery_is_ignored():
    rng = np.random.default_rng(53)
    tree = random_tree(rng, max_periods=3)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    off = ~hz.support_mask()
    r2 = pay.R.values.copy()
    r2[off] += 17.0
    pay2 = PayoffSpec(pay.P, AdaptedProcess(tree, r2))
    assert np.max(np.abs(constrained_snell(pay, hz).value.values
                         - constrained_snell(pay2, hz).value.values)) <= TOL
    assert np.max(np.abs(penalized_european(32, pay, hz).value.values
                         - penalized_european(32, pay2, hz).value.values)) <= TOL


# -- dirac convergence -------------------------------------------------------------------------

def test_dirac_exact_at_horizon():
    tree, pay, hz = one_period_instance()
    nu = StoppingTime.horizon(tree)
    table = dirac_convergence_check(pay, hz, nu)
    assert max(table.gaps) <= TOL


def test_dirac_one_period_geometric_gap():
    tree, pay, hz = one_period_instance()
    nu = StoppingTime(tree, np.ones(tree.n_nodes, dtype=bool))
    table = dirac_convergence_check(pay, hz, nu)
    # |E - R| / (1 + 0.5 n), explicit geometric decay
    for n, gap in zip(table.levels, table.gaps):
        assert gap == pytest.approx(1.0 / (1.0 + 0.5 * n), abs=TOL)
    assert all(b < a for a, b in zip(table.gaps, table.gaps[1:]))
    # |E - R| = 1 = B / 2: each gap is half its bound, the last rung closest
    assert table.rate_excess == pytest.approx(-1.0 / 8193.0, abs=TOL)
    assert table.gaps[-1] == pytest.approx(1.0 / 8193.0, abs=TOL)


def sign_change_instance():
    """Binary N = 2: delta 1 at the root and 0.3 at time 1, R_0 = 1, R = 2 at
    time 1, P_T = 0.  At the root gap_n = (0.3 n - 1) / ((1 + 0.3 n)(1 + n)):
    negative below n = 10/3, positive above, and growing from n = 4 to 8."""
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    pay = PayoffSpec(AdaptedProcess.constant(tree, 0.0),
                     AdaptedProcess(tree, [1.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
    hz = ReducedHazard(tree, np.array([1.0, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0]))
    return tree, pay, hz


def test_dirac_gap_changes_sign_inside_the_rate_bound():
    tree, pay, hz = sign_change_instance()
    nu = StoppingTime(tree, hz.support_mask())       # stops at the root
    table = dirac_convergence_check(pay, hz, nu)
    signed = [reduced_price_linear(float(n), pay, hz).value.values[0] - 1.0
              for n in table.levels]
    for n, gap, s in zip(table.levels, table.gaps, signed):
        assert s == pytest.approx((0.3 * n - 1.0) / ((1.0 + 0.3 * n) * (1.0 + n)), abs=TOL)
        assert gap == abs(s)
        assert gap <= pay.bound() / (1.0 + n)
    assert signed[1] < 0.0 < signed[2]                # n = 2 -> 4
    assert table.gaps[3] > table.gaps[2]              # n = 4 -> 8: not monotone
    assert table.rate_excess <= 0.0
    assert table.gaps[-1] <= 1e-4


def test_dirac_rejects_off_support_stop():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 2.0))
    delta = np.zeros(tree.n_nodes)
    delta[1] = 0.5  # only one time-1 node carries mass
    hz = ReducedHazard(tree, delta)
    nu = StoppingTime(tree, np.ones(tree.n_nodes, dtype=bool))  # stops at the root
    with pytest.raises(ValueError, match="support"):
        dirac_convergence_check(pay, hz, nu)


def test_hazard_budget_clipped_with_warning():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    with pytest.warns(RuntimeWarning, match="clipping"):
        hz = ReducedHazard(tree, np.full(tree.n_nodes, 900.0))
    assert hz.delta.max() <= 1e3
