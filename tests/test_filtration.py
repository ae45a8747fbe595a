"""Trees, conditional expectations, Doob decomposition, Snell envelopes."""

import numpy as np
import pytest

from vopt.errors import EnumerationCapError, TreeError
from vopt.filtration import (AdaptedProcess, StoppingTime, TimeGrid, backward,
                             brute_force_snell_root, build_tree, condexp,
                             count_stopping_times, doob_decomposition,
                             enumerate_stopping_times, evaluate_stopping, forward,
                             martingale_residual, snell_envelope)
from vopt.instances import random_tree

TOL = 1e-12


def one_period(p=(0.5, 0.5), q=None, zf=None):
    spec = {"times": [0.0, 1.0], "branching": 2, "p": [[list(p)]]}
    if q is not None:
        spec["q"] = [[list(q)]]
    if zf is not None:
        spec["zf_leaves"] = list(zf)
    return build_tree(spec)


# -- build_tree ---------------------------------------------------------------

def test_symmetric_coin():
    tree = one_period()
    assert tree.n_nodes == 3
    assert np.allclose(tree.q_edge[1:], [0.5, 0.5])


def test_density_reweighting():
    # P = (1/2, 1/2), Z^F terminal (3/2, 1/2) -> Q = (3/4, 1/4)
    tree = one_period(zf=(1.5, 0.5))
    assert np.allclose(tree.q_edge[1:], [0.75, 0.25], atol=TOL)
    assert np.allclose(tree.density_zf()[1:], [1.5, 0.5], atol=TOL)


def test_probabilities_must_sum_to_one():
    with pytest.raises(TreeError, match="do not sum to 1"):
        one_period(p=(0.6, 0.5))


def test_zero_probability_rejected():
    with pytest.raises(TreeError, match="zero/negative"):
        one_period(p=(1.0, 0.0))


def test_grid_validation():
    with pytest.raises(TreeError):
        TimeGrid(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(TreeError):
        TimeGrid(np.array([0.1, 1.0]))


# -- condexp -----------------------------------------------------------------

def test_condexp_constant_invariant():
    tree = one_period(zf=(1.5, 0.5))
    assert condexp(tree, np.array([3.7, 3.7]), 0, "Q")[0] == pytest.approx(3.7, abs=TOL)


def test_condexp_weighted_average():
    tree = one_period(zf=(1.5, 0.5))
    assert condexp(tree, np.array([2.0, 0.0]), 0, "Q")[0] == pytest.approx(1.5, abs=TOL)


def test_condexp_symmetry():
    tree = one_period()
    assert condexp(tree, np.array([1.0, -1.0]), 0, "P")[0] == pytest.approx(0.0, abs=TOL)


def test_tower_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree = random_tree(rng)
        term = rng.uniform(-2.0, 2.0, tree.leaves.size)
        closed = backward(tree, term)
        # composing one-step conditional expectations = one-shot path expectation
        direct = float(np.dot(tree.node_q[tree.leaves], term))
        assert closed[0] == pytest.approx(direct, abs=TOL)


def test_forward_accumulates_along_paths():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tree = random_tree(rng)
        x = rng.uniform(0.5, 1.5, tree.n_nodes)
        paths = tree.path_nodes()
        sums = forward(tree, x, np.add, 0.25)
        prods = forward(tree, x, np.multiply, 1.0)
        for k in range(tree.n_periods + 1):
            seg = x[paths[:, 1:k + 1]]
            assert np.allclose(sums[paths[:, k]], 0.25 + seg.sum(axis=1), rtol=0, atol=TOL)
            assert np.allclose(prods[paths[:, k]], seg.prod(axis=1), rtol=TOL, atol=0)
        first_stop = forward(tree, np.arange(tree.n_nodes),
                             lambda up, own: np.where(x[up] > 1.0, up, own), 0)
        stopped = StoppingTime(tree, (x > 1.0) | StoppingTime.horizon(tree).stop)
        assert np.array_equal(first_stop[tree.leaves], stopped.stop_nodes_per_path())



def test_martingale_residual_propagates_nan():
    # one NaN node after finite residuals: the built-in max dropped it
    rng = np.random.default_rng(12)
    tree = random_tree(rng, max_periods=3)
    x = backward(tree, rng.uniform(0.0, 1.0, tree.leaves.size))
    assert martingale_residual(tree, x) <= TOL
    x[tree.leaves[-1]] = np.nan
    assert np.isnan(martingale_residual(tree, x))

# -- Doob decomposition -------------------------------------------------------

def test_doob_martingale_case():
    rng = np.random.default_rng(2)
    tree = random_tree(rng)
    x = AdaptedProcess.from_terminal(tree, rng.uniform(0, 2, tree.leaves.size), "Q")
    n, b = doob_decomposition(x)
    assert np.max(np.abs(b.values)) <= TOL
    assert np.max(np.abs(n.values - x.values)) <= TOL


def test_doob_deterministic_drift():
    rng = np.random.default_rng(3)
    tree = random_tree(rng)
    k_of = tree.level_of.astype(float)
    x = AdaptedProcess(tree, 10.0 - k_of)
    n, b = doob_decomposition(x)
    assert np.max(np.abs(b.values - k_of)) <= TOL
    assert np.max(np.abs(n.values - 10.0)) <= TOL


def test_doob_rejects_submartingale():
    tree = one_period()
    x = AdaptedProcess(tree, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(TreeError, match="not a supermartingale"):
        doob_decomposition(x)


def test_doob_names_first_violating_level():
    # binary uniform two-period tree: nodes 0 | 1 2 | 3 4 5 6
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    x = np.array([1.0, 1.0, 1.0, 1.5, 1.5, 0.5, 0.2])     # level-1 drops -0.5 and 0.65
    with pytest.raises(TreeError, match=r"at level 1 \(violation -0\.5\)"):
        doob_decomposition(AdaptedProcess(tree, x))
    x[0] = 0.0                                             # level 0 now fails first
    with pytest.raises(TreeError, match=r"at level 0 \(violation -1\)"):
        doob_decomposition(AdaptedProcess(tree, x))


def test_doob_properties_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(rng)
        reward = AdaptedProcess(tree, rng.uniform(0, 3, tree.n_nodes))
        value, _ = snell_envelope(reward, "Q")
        n, b = doob_decomposition(value)
        assert martingale_residual(tree, n.values, "Q") <= TOL
        # B nondecreasing and predictable by construction; increases only on contact
        for k in range(1, tree.n_periods + 1):
            nodes = tree.level_nodes(k)
            par = tree.parent[nodes]
            inc = b.values[nodes] - b.values[par]
            assert np.all(inc >= -TOL)
            grows = inc > TOL
            assert np.all(np.abs(value.values[par][grows] - reward.values[par][grows]) <= TOL)


# -- Snell envelope and stopping oracles ---------------------------------------

def test_snell_monotone_reward_stops_at_horizon():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    reward = AdaptedProcess(tree, tree.level_of.astype(float))
    value, tau = snell_envelope(reward, "Q")
    assert value.values[0] == pytest.approx(2.0, abs=TOL)
    assert tau.stop_levels().min() == tree.n_periods


def test_snell_immediate_stop():
    tree = one_period()
    reward = AdaptedProcess(tree, np.array([10.0, 2.0, 0.0]))
    value, tau = snell_envelope(reward, "Q")
    assert value.values[0] == pytest.approx(10.0, abs=TOL)
    assert tau.stop[0]
    # a tie between reward and continuation stops
    _, tau = snell_envelope(AdaptedProcess(tree, np.array([1.0, 2.0, 0.0])), "Q")
    assert tau.stop[0]


def test_snell_equals_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(8):
        tree = random_tree(rng, max_periods=4, max_branching=2)
        reward = AdaptedProcess(tree, rng.uniform(0, 3, tree.n_nodes))
        mask = rng.random(tree.n_nodes) < 0.6
        mask |= StoppingTime.horizon(tree).stop
        value, tau = snell_envelope(reward, "Q", mask)
        assert value.values[0] == pytest.approx(
            brute_force_snell_root(reward, "Q", mask), abs=TOL)
        assert evaluate_stopping(reward, tau, "Q") == pytest.approx(
            value.values[0], abs=TOL)
        # supermartingale dominating the masked reward
        ce_ok = all(np.all(condexp(tree, value.values, k, "Q")
                           <= value.at_level(k) + TOL)
                    for k in range(tree.n_periods))
        assert ce_ok
        assert np.all(value.values[mask] >= reward.values[mask] - TOL)


def test_snell_mask_must_include_terminals():
    tree = one_period()
    mask = np.array([True, True, False])
    with pytest.raises(TreeError, match="terminal"):
        snell_envelope(AdaptedProcess.constant(tree, 1.0), "Q", mask)


def test_stopping_time_counts():
    tree1 = one_period()
    assert count_stopping_times(tree1) == 2            # stop at 0, or run to T
    assert count_stopping_times(tree1, StoppingTime.horizon(tree1).stop) == 1
    tree3 = build_tree({"times": [0, 1, 2, 3], "branching": 2, "p": "uniform"})
    # c(node) = 1 + prod over children c(child): 1 -> 2 -> 5 -> 26
    assert count_stopping_times(tree3) == 26
    assert len(enumerate_stopping_times(tree3)) == 26


def test_enumeration_cap():
    tree = build_tree({"times": [0, 1, 2, 3, 4], "branching": 3, "p": "uniform"})
    with pytest.raises(EnumerationCapError):
        count_stopping_times(tree, cap=1000)


def test_evaluate_stopping_examples():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    reward = AdaptedProcess(tree, np.arange(tree.n_nodes, dtype=float))
    root_stop = StoppingTime.from_stop_nodes(tree, [0])
    assert evaluate_stopping(reward, root_stop, "Q") == pytest.approx(0.0, abs=TOL)
    horizon = StoppingTime.horizon(tree)
    chain = backward(tree, reward.values[tree.level_slice(2)])[0]
    assert evaluate_stopping(reward, horizon, "Q") == pytest.approx(chain, abs=TOL)
    # arbitrary stop set vs hand path-sum
    tau = StoppingTime.from_stop_nodes(tree, [1])
    hand = 0.5 * reward.values[1] + 0.5 * (0.5 * reward.values[5] + 0.5 * reward.values[6])
    assert evaluate_stopping(reward, tau, "Q") == pytest.approx(hand, abs=TOL)


def test_stopping_time_requires_terminal_stop():
    tree = one_period()
    with pytest.raises(TreeError, match="terminal"):
        StoppingTime(tree, np.array([True, False, False]))
