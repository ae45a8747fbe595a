"""Trees, conditional expectations, Doob decomposition, Snell envelopes."""

import re

import numpy as np
import pytest

import vopt.filtration as filtration
from vopt.errors import EnumerationCapError, IdentityError, TreeError
from vopt.filtration import (AdaptedProcess, StoppingProblem, StoppingTime, TimeGrid,
                             backward, brute_force_snell_root, build_tree, condexp,
                             count_stopping_times, doob_decomposition,
                             evaluate_stopping, forward, martingale_residual,
                             snell_envelope)
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
    x = AdaptedProcess(tree, backward(tree, rng.uniform(0, 2, tree.leaves.size), measure="Q"))
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
        value, _ = snell_envelope(StoppingProblem(reward))
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
    value, tau = snell_envelope(StoppingProblem(reward))
    assert value.values[0] == pytest.approx(2.0, abs=TOL)
    assert tau.stop_levels().min() == tree.n_periods


def test_snell_immediate_stop():
    tree = one_period()
    reward = AdaptedProcess(tree, np.array([10.0, 2.0, 0.0]))
    value, tau = snell_envelope(StoppingProblem(reward))
    assert value.values[0] == pytest.approx(10.0, abs=TOL)
    assert tau.stop[0]
    # a tie between reward and continuation stops
    _, tau = snell_envelope(StoppingProblem(AdaptedProcess(tree, np.array([1.0, 2.0, 0.0]))))
    assert tau.stop[0]


def test_snell_equals_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(8):
        tree = random_tree(rng, max_periods=4, max_branching=2)
        reward = AdaptedProcess(tree, rng.uniform(0, 3, tree.n_nodes))
        mask = rng.random(tree.n_nodes) < 0.6
        mask |= StoppingTime.horizon(tree).stop
        problem = StoppingProblem(reward, mask)
        value, tau = snell_envelope(problem)
        assert value.values[0] == pytest.approx(brute_force_snell_root(problem), abs=TOL)
        assert evaluate_stopping(reward, tau) == pytest.approx(
            value.values[0], abs=TOL)
        # supermartingale dominating the masked reward
        ce_ok = all(np.all(condexp(tree, value.values, k, "Q")
                           <= value.values[tree.level_slice(k)] + TOL)
                    for k in range(tree.n_periods))
        assert ce_ok
        assert np.all(value.values[mask] >= reward.values[mask] - TOL)


def test_snell_mask_must_include_terminals():
    tree = one_period()
    mask = np.array([True, True, False])
    with pytest.raises(TreeError, match="terminal"):
        StoppingProblem(AdaptedProcess.constant(tree, 1.0), mask)


def test_stop_masks_need_one_flag_per_node():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    reward = AdaptedProcess(tree, np.arange(tree.n_nodes, dtype=float))
    for mask in (np.ones(5, dtype=bool), np.ones(9, dtype=bool), "Q"):
        shape = np.shape(mask)
        msg = rf"^stop mask has shape {re.escape(str(shape))}, tree has 7 nodes$"
        for call in (lambda: StoppingProblem(reward, mask),
                     lambda: count_stopping_times(tree, mask)):
            with pytest.raises(TreeError, match=msg):
                call()


def test_stopping_time_counts():
    tree1 = one_period()
    assert count_stopping_times(tree1) == 2            # stop at 0, or run to T
    assert count_stopping_times(tree1, StoppingTime.horizon(tree1).stop) == 1
    tree3 = build_tree({"times": [0, 1, 2, 3], "branching": 2, "p": "uniform"})
    # c(node) = 1 + prod over children c(child): 1 -> 2 -> 5 -> 26
    assert count_stopping_times(tree3) == 26
    # the enumeration oracle lists 26 distinct stopping times
    rows = filtration._enumerate_stop_nodes(tree3, np.ones(tree3.n_nodes, dtype=bool),
                                            filtration.DEFAULT_ENUM_CAP)
    assert np.unique(rows, axis=0).shape == (26, tree3.leaves.size)


def test_enumeration_cap():
    tree = build_tree({"times": [0, 1, 2, 3, 4], "branching": 3, "p": "uniform"})
    with pytest.raises(EnumerationCapError):
        count_stopping_times(tree, cap=1000)


def test_evaluate_stopping_examples():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    reward = AdaptedProcess(tree, np.arange(tree.n_nodes, dtype=float))
    root_stop = StoppingTime(tree, np.ones(tree.n_nodes, dtype=bool))
    assert evaluate_stopping(reward, root_stop) == pytest.approx(0.0, abs=TOL)
    horizon = StoppingTime.horizon(tree)
    chain = backward(tree, reward.values[tree.level_slice(2)])[0]
    assert evaluate_stopping(reward, horizon) == pytest.approx(chain, abs=TOL)
    # arbitrary stop set vs hand path-sum
    tau = StoppingTime(tree, horizon.stop | (np.arange(tree.n_nodes) == 1))
    hand = 0.5 * reward.values[1] + 0.5 * (0.5 * reward.values[5] + 0.5 * reward.values[6])
    assert evaluate_stopping(reward, tau) == pytest.approx(hand, abs=TOL)


def test_stopping_time_requires_terminal_stop():
    tree = one_period()
    with pytest.raises(TreeError, match="terminal"):
        StoppingTime(tree, np.array([True, False, False]))


# -- build_tree against a per-row build -----------------------------------------

def ref_build(spec):
    """(parent, first_child, p_edge, q_edge) filled node by node and row by row."""
    n = len(spec["times"]) - 1
    b = spec.get("branching", 2)
    counts, size = [], 1
    for k in range(n):
        lv = b if isinstance(b, int) else b[k]
        row = [lv] * size if isinstance(lv, int) else list(lv)
        counts.append(row)
        size = sum(row)
    level_start = np.cumsum([0, 1] + [sum(c) for c in counts])
    parent = np.full(level_start[-1], -1, dtype=np.int64)
    first_child = np.full(level_start[-1], -1, dtype=np.int64)
    for k, cnt in enumerate(counts):
        s = level_start[k + 1]
        for i, c in enumerate(cnt):
            v = level_start[k] + i
            first_child[v] = s
            parent[s:s + c] = v
            s += c

    def edges(p):
        edge = np.ones(level_start[-1])
        for k, cnt in enumerate(counts):
            rows = [[1.0 / c] * c for c in cnt] if p == "uniform" else p[k]
            pos = level_start[k + 1]
            for row in rows:
                row = np.asarray(row, dtype=float)
                edge[pos:pos + row.size] = row / row.sum()
                pos += row.size
        return edge

    p_edge = edges(spec.get("p", "uniform"))
    q_edge = edges(spec["q"]) if "q" in spec else p_edge
    return parent, first_child, p_edge, q_edge


def random_rows(rng, counts):
    out = []
    for cnt in counts:
        lvl = []
        for c in cnt:
            raw = rng.uniform(0.05, 1.0, c)
            lvl.append((raw / raw.sum()).tolist())
        out.append(lvl)
    return out


def random_specs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    times = np.linspace(0.0, 1.0, n + 1).tolist()
    ragged, size = [], 1
    for _ in range(n):
        row = rng.integers(1, 4, size).tolist()
        ragged.append(row)
        size = sum(row)
    per_level = rng.integers(1, 4, n).tolist()
    return [
        {"times": times, "branching": int(rng.integers(1, 4)), "p": "uniform"},
        {"times": times, "branching": per_level, "p": "uniform"},
        {"times": times, "branching": ragged},
        {"times": times, "branching": ragged, "p": random_rows(rng, ragged),
         "q": random_rows(rng, ragged)},
        {"times": times, "branching": ragged, "p": "uniform", "q": random_rows(rng, ragged)},
    ]


@pytest.mark.parametrize("seed", range(8))
def test_build_tree_equals_per_row_build(seed):
    for spec in random_specs(seed):
        tree = build_tree(spec)
        for got, want in zip((tree.parent, tree.first_child, tree.p_edge, tree.q_edge),
                             ref_build(spec)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_uniform_edges_per_branching_value():
    tree = build_tree({"times": [0, 1, 2], "branching": [[7], [1, 2, 3, 5, 6, 7, 3]]})
    for v in range(1, tree.n_nodes):
        c = int(tree.n_children[tree.parent[v]])
        row = np.array([1.0 / c] * c)
        assert tree.p_edge[v] == (row / row.sum())[0]


TREE_ERRORS = {
    "grid start": ({"times": [0.5, 1.0]}, "time grid must start at t_0 = 0"),
    "levels described": ({"times": [0, 1, 2], "branching": [2]},
                         "branching must describe 2 levels"),
    "branching entries": ({"times": [0, 1, 2], "branching": [[2], [1]]},
                          "branching list at level 1 has 1 entries, level has 2 nodes"),
    "zero branching": ({"times": [0, 1, 2], "branching": [[2], [1, 0]]},
                       "dangling node at level 1 (zero branching)"),
    "p rows": ({"times": [0, 1], "p": [[[0.5, 0.5], [0.5, 0.5]]]},
               "p[level 0] has 2 rows, expected 1"),
    "p entries": ({"times": [0, 1], "p": [[[1.0]]]},
                  "p[level 0][node 0] has 1 entries, branching is 2"),
    "p sum": ({"times": [0, 1, 2], "branching": [[1], [2]], "p": [[[1.0]], [[0.5, 0.6]]]},
              "p[level 1][node 0]: probabilities do not sum to 1 (got 1.1)"),
    "p zero": ({"times": [0, 1], "p": [[[1.0, 0.0]]]},
               "p[level 0][node 0]: zero/negative probability (breaks measure equivalence)"),
    "q sum": ({"times": [0, 1], "p": "uniform", "q": [[[0.3, 0.6]]]},
              "q[level 0][node 0]: probabilities do not sum to 1 (got 0.9)"),
    "q and zf": ({"times": [0, 1], "q": [[[0.3, 0.7]]], "zf_leaves": [1.0, 1.0]},
                 "give either q or zf_leaves, not both"),
    "zf length": ({"times": [0, 1], "zf_leaves": [1.0]},
                  "zf_leaves must have one value per terminal node"),
    "zf sign": ({"times": [0, 1], "zf_leaves": [1.0, 0.0]},
                "density Z^F must be strictly positive"),
}


@pytest.mark.parametrize("case", list(TREE_ERRORS))
def test_build_tree_error_messages(case):
    spec, message = TREE_ERRORS[case]
    with pytest.raises(TreeError) as exc:
        build_tree(spec)
    assert str(exc.value) == message


def ref_validation_error(tree, p, q):
    """The first TreeError of a per-level check of the edges p and q: each
    measure finite, then positive, then its sibling sums level by level."""
    for name, edge in (("P", p), ("Q", q)):
        if not np.all(np.isfinite(edge)):
            v = int(np.flatnonzero(~np.isfinite(edge))[0])
            return f"{name}-probability of edge into node {v} is not finite"
        if np.any(edge <= 0.0):
            v = int(np.flatnonzero(edge <= 0.0)[0])
            return (f"{name}-probability of edge into node {v} is not strictly "
                    "positive (breaks measure equivalence)")
        for k in range(tree.n_periods):
            for v in tree.level_nodes(k):
                total = float(np.sum(edge[tree.children(v)]))
                if abs(total - 1.0) > 1e-9:
                    return (f"probabilities do not sum to 1 under {name} at node {v} "
                            f"(level {k}, sum {total:.12g})")
    return None


@pytest.mark.parametrize("seed", range(8))
def test_tree_validation_raises_the_per_level_error(seed):
    rng = np.random.default_rng(seed)
    for spec in random_specs(seed):
        tree = build_tree(spec)
        for _ in range(6):
            edges = [tree.p_edge.copy(), tree.q_edge.copy()]
            for _ in range(int(rng.integers(1, 3))):
                edge = edges[int(rng.integers(2))]
                v = int(rng.integers(1, tree.n_nodes))
                edge[v] = rng.choice([edge[v] * 1.5, np.nan, 0.0, -edge[v], edge[v]])
            if rng.random() < 0.3:
                edges[1] = edges[0].copy()     # Q = P
            want = ref_validation_error(tree, *edges)
            args = (tree.grid, tree.parent, tree.first_child, tree.n_children, *edges,
                    tree.level_start)
            if want is None:
                filtration.FiniteTree(*args)
                continue
            with pytest.raises(TreeError) as exc:
                filtration.FiniteTree(*args)
            assert str(exc.value) == want


# -- the array constructor behind build_tree and random_tree ----------------------

def nested_random_spec(rng, max_periods, max_branching, with_density):
    """The nested-list spec of a random tree, drawn one row at a time: the
    draws of ``random_tree`` in the layout of a scenario's ``tree`` section."""
    n = int(rng.integers(1, max_periods + 1))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, n))])
    branching, size = [], 1
    for _ in range(n):
        row = [int(rng.integers(2, max_branching + 1)) for _ in range(size)]
        branching.append(row)
        size = sum(row)
    p = []
    for row in branching:
        lvl = []
        for c in row:
            raw = rng.uniform(0.2, 1.0, c)
            lvl.append(list(raw / raw.sum()))
        p.append(lvl)
    spec = {"times": times, "branching": branching, "p": p}
    if with_density:
        spec["zf_leaves"] = rng.uniform(0.4, 1.8, size)
    return spec


TREE_ARRAYS = ("parent", "first_child", "n_children", "p_edge", "q_edge", "level_start",
               "level_of", "leaves", "node_p", "node_q")


def assert_same_tree(got, want):
    assert got.grid.times.tobytes() == want.grid.times.tobytes()
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("max_branching", [2, 3, 5, 9])
def test_random_tree_equals_the_build_of_its_nested_spec(max_branching):
    # row.sum() adds rows of 8 or more entries in blocks, not left to right
    for seed in range(30):
        for with_density in (True, False):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_tree(rng, 3, max_branching, with_density)
            assert_same_tree(got, build_tree(nested_random_spec(ref, 3, max_branching,
                                                                with_density)))
            assert rng.random() == ref.random()      # the same draws were taken


def test_reweighted_tree_equals_a_fresh_tree_on_its_q_edges():
    rng = np.random.default_rng(5)
    for _ in range(20):
        base = random_tree(rng, with_density=False)
        tree = filtration.reweight_by_density(base, rng.uniform(0.4, 1.8, base.leaves.size))
        fresh = filtration.FiniteTree(tree.grid, tree.parent, tree.first_child,
                                      tree.n_children, tree.p_edge, tree.q_edge,
                                      tree.level_start)
        for name in ("node_p", "node_q", "q_edge", "level_of"):
            assert getattr(tree, name).tobytes() == getattr(fresh, name).tobytes(), name
        for name in ("parent", "first_child", "p_edge", "node_p", "level_of", "leaves"):
            assert getattr(tree, name) is getattr(base, name), name
        assert base.q_edge is base.p_edge


def hand_built(n_children, edge=(1.0, 0.5, 0.5, 1.0, 1.0)):
    """A two-period tree 0 -> (1, 2), 1 -> 3, 2 -> 4, with the given
    children counts and edges."""
    return filtration.FiniteTree(TimeGrid(np.array([0.0, 1.0, 2.0])),
                                 np.array([-1, 0, 0, 1, 2]), np.array([1, 3, 4, -1, -1]),
                                 np.array(n_children), np.array(edge), np.array(edge),
                                 np.array([0, 1, 3, 5]))


def test_hand_built_structure_errors():
    assert hand_built([2, 1, 1, 0, 0]).n_nodes == 5
    with pytest.raises(TreeError) as exc:
        hand_built([2, 1, 1, 1, 0])
    assert str(exc.value) == "terminal node with children"
    with pytest.raises(TreeError) as exc:
        hand_built([2, 1, 0, 0, 0])
    assert str(exc.value) == "dangling node at level 1 (no children)"
    # node 1 holds both children of level 2 and node 2 none: the sibling sums
    # would read a child offset of -2
    edge = np.array([1.0, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(TreeError) as exc:
        filtration.FiniteTree(TimeGrid(np.array([0.0, 1.0, 2.0])),
                              np.array([-1, 0, 0, 1, 1]), np.array([1, 3, -1, -1, -1]),
                              np.array([2, 2, 0, 0, 0]), edge, edge, np.array([0, 1, 3, 5]))
    assert str(exc.value) == "dangling node at level 1 (no children)"
    # the edges are checked before the structure
    with pytest.raises(TreeError) as exc:
        hand_built([2, 1, 0, 0, 0], (1.0, 0.5, 0.5, 1.0, 0.0))
    assert str(exc.value) == ("P-probability of edge into node 4 is not strictly positive "
                              "(breaks measure equivalence)")


def ref_row_error(spec):
    """The first row error of a walk over the spec's p rows, then its q
    rows, level by level and node by node."""
    counts = []
    for k in range(len(spec["times"]) - 1):
        lv = spec["branching"][k]
        counts.append([lv] * (1 if k == 0 else sum(counts[-1])) if isinstance(lv, int) else lv)
    for label in ("p", "q"):
        given = spec.get(label)
        if given is None or given == "uniform":
            continue
        for k, cnt in enumerate(counts):
            rows = given[k]
            if len(rows) != len(cnt):
                return f"{label}[level {k}] has {len(rows)} rows, expected {len(cnt)}"
            for i, (row, c) in enumerate(zip(rows, cnt)):
                row = np.asarray(row, dtype=float)
                if row.size != c:
                    return f"{label}[level {k}][node {i}] has {row.size} entries, branching is {c}"
                if abs(row.sum() - 1.0) > 1e-9:
                    return (f"{label}[level {k}][node {i}]: probabilities do not sum to 1 "
                            f"(got {row.sum():.12g})")
                if np.any(row <= 0.0):
                    return (f"{label}[level {k}][node {i}]: zero/negative probability "
                            "(breaks measure equivalence)")
    return None


def corrupt(rng, rows):
    """One random layout or value fault in a copy of per-level rows."""
    rows = [[list(r) for r in lvl] for lvl in rows]
    k = int(rng.integers(len(rows)))
    i = int(rng.integers(len(rows[k])))
    fault = int(rng.integers(5))
    if fault == 0:
        rows[k].append(list(rows[k][i]))            # one row too many
    elif fault == 1:
        rows[k][i] = rows[k][i] + [0.1]             # one entry too many
    elif fault == 2:
        rows[k][i][0] *= 1.5                        # sum off 1
    elif fault == 3 and len(rows[k][i]) > 1:        # a zero weight, the sum kept
        rows[k][i][0] += rows[k][i][-1]
        rows[k][i][-1] = 0.0
    else:
        rows[k][i] = rows[k][i][:-1] or [2.0]       # one entry too few
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_build_tree_raises_the_first_row_error_of_the_spec(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        spec = random_specs(seed)[3]
        for label in ("p", "q"):
            for _ in range(int(rng.integers(0, 3))):
                spec[label] = corrupt(rng, spec[label])
        want = ref_row_error(spec)
        if want is None:
            build_tree(spec)
            continue
        with pytest.raises(TreeError) as exc:
            build_tree(spec)
        assert str(exc.value) == want


# -- count_stopping_times against a recursive count -------------------------------

def ref_count(tree, allowed):
    """c(v) = [v allowed] + prod over children c(w), in Python ints."""
    def c(v):
        if tree.n_children[v] == 0:
            return 1
        prod = 1
        for w in tree.children(v):
            prod *= c(int(w))
        return prod + int(bool(allowed[v]))
    return c(0)


def ref_first_over_cap(tree, allowed, cap):
    """The node the count must name: levels from N-1 down, nodes ascending."""
    counts = {int(v): 1 for v in tree.leaves}
    for k in range(tree.n_periods - 1, -1, -1):
        for v in tree.level_nodes(k):
            prod = 1
            for w in tree.children(v):
                prod *= counts[int(w)]
            counts[int(v)] = prod + int(bool(allowed[v]))
            if counts[int(v)] > cap:
                return int(v)
    return None


@pytest.mark.parametrize("seed", range(10))
def test_count_equals_recursive_count(seed):
    rng = np.random.default_rng(seed)
    for spec in random_specs(seed)[:3]:
        tree = build_tree(spec)
        allowed = rng.random(tree.n_nodes) < rng.uniform(0.0, 1.0)
        for cap in (2 ** 53 - 1, 1000, 50):
            exact = ref_count(tree, allowed)
            node = ref_first_over_cap(tree, allowed, cap)
            if node is None:
                assert count_stopping_times(tree, allowed, cap) == exact
            else:
                with pytest.raises(EnumerationCapError) as exc:
                    count_stopping_times(tree, allowed, cap)
                assert str(exc.value) == (f"stopping-time count exceeds cap {cap} "
                                          f"at node {node}")


def test_count_is_exact_at_the_cap():
    tree = build_tree({"times": [0, 1, 2, 3, 4], "branching": 3, "p": "uniform"})
    exact = ref_count(tree, np.ones(tree.n_nodes, dtype=bool))   # 730 ** 3 + 1
    assert exact == 389017001
    assert count_stopping_times(tree, cap=exact) == exact
    with pytest.raises(EnumerationCapError, match="at node 0$"):
        count_stopping_times(tree, cap=exact - 1)


def test_count_past_exact_floats_is_capped_at_the_same_node():
    # counts by level from the leaves: 1, 2, 9, 730, 730**3 + 1, then about
    # 6e25 at node 1, past what float64 holds exactly
    tree = build_tree({"times": list(range(7)), "branching": 3, "p": "uniform"})
    assert ref_first_over_cap(tree, np.ones(tree.n_nodes, dtype=bool), 2 ** 53 - 1) == 1
    with pytest.raises(EnumerationCapError, match="at node 1$"):
        count_stopping_times(tree, cap=2 ** 53 - 1)


def test_count_rejects_a_cap_past_exact_floats():
    tree = one_period()
    assert count_stopping_times(tree, cap=2 ** 53 - 1) == 2
    with pytest.raises(ValueError, match="2\\*\\*53"):
        count_stopping_times(tree, cap=2 ** 53)


def test_enumeration_rows_are_checked_against_the_count(monkeypatch):
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    real = filtration.count_stopping_times
    monkeypatch.setattr(filtration, "count_stopping_times",
                        lambda *a, **k: real(*a, **k) + 1)
    with pytest.raises(IdentityError, match="enumerated 5 stopping times"):
        filtration._enumerate_stop_nodes(tree, np.ones(tree.n_nodes, dtype=bool),
                                         filtration.DEFAULT_ENUM_CAP)
