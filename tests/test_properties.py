"""Property tests of the two projection primitives of ExtendedSpace and of the
closed-form reduced price."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vopt.european import reduced_price_closed_form, reduced_price_linear
from vopt.filtration import AdaptedProcess, StoppingTime
from vopt.instances import (random_delta_hazard, random_extension, random_payoff,
                            random_tree)

TOL = 1e-12

instances = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from(["cox", "kernel"]),
                      st.booleans())
props = settings(max_examples=30, deadline=None)


def build(seed, kind, tilted):
    """A random extension, a measure on its atoms and a generator for test data."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branching=3)
    ext = random_extension(rng, tree, kind)
    w = ext.prob * rng.uniform(0.2, 5.0, ext.n_atoms) if tilted else ext.prob
    return ext, w / w.sum(), rng


def bayes_f(ext, x, w):
    """E[x_k | F_k] per node by walking each atom's leaf up to the root."""
    tree = ext.base
    num = [0.0] * tree.n_nodes
    den = [0.0] * tree.n_nodes
    for a in range(ext.n_atoms):
        v = int(tree.leaves[ext.leaf_row[a]])
        for k in range(tree.n_periods, -1, -1):
            num[v] += w[a] * x[a, k]
            den[v] += w[a]
            v = int(tree.parent[v])
    return np.array(num) / np.array(den)


@props
@given(instances)
def test_f_condexp_is_the_bayes_sum(inst):
    ext, w, rng = build(*inst)
    x = rng.uniform(-1.0, 1.0, (ext.n_atoms, ext.base.n_periods + 1))
    assert np.allclose(ext.f_condexp(x, w), bayes_f(ext, x, w), rtol=0, atol=TOL)
    # one value per atom is the same variable at every time
    x1 = x[:, 0]
    cols = np.repeat(x1[:, None], ext.base.n_periods + 1, axis=1)
    assert np.array_equal(ext.f_condexp(x1, w), ext.f_condexp(cols, w))


@props
@given(instances)
def test_tower_g_then_f(inst):
    ext, w, rng = build(*inst)
    x = rng.uniform(-1.0, 1.0, (ext.n_atoms, ext.base.n_periods + 1))
    assert np.allclose(ext.f_condexp(ext.g_condexp(x, w), w), ext.f_condexp(x, w),
                       rtol=0, atol=TOL)


@props
@given(instances)
def test_g_condexp_keeps_g_measurable(inst):
    ext, w, rng = build(*inst)
    n = ext.base.n_periods
    # any function of (node at k, theta if theta <= k else "alive")
    table = rng.uniform(-1.0, 1.0, (ext.base.n_nodes, n + 2))
    ks = np.arange(n + 1)
    state = np.where(ext.theta[:, None] <= ks, ext.theta[:, None], n + 1)
    x = table[ext.node_at, state]
    assert np.allclose(ext.g_condexp(x, w), x, rtol=0, atol=TOL)


# -- the closed-form oracle against the backward recursion ----------------------

def pathwise_price(lam_v, pay, hz, tree, stop):
    """Each node's value as an explicit sum over the leaf paths below it, each
    path's sum ending at its first stop node; a stop node above fixes the value."""
    a = lam_v * hz.delta
    pv, rv, q = pay.P.values, pay.R.values, tree.q_edge
    paths = tree.path_nodes()
    n = tree.n_periods
    out = np.empty(tree.n_nodes)
    for u in range(tree.n_nodes):
        k = int(tree.level_of[u])
        rows = np.flatnonzero(paths[:, k] == u)
        above = [v for v in paths[rows[0], :k + 1] if stop[v]]
        if above:
            out[u] = pv[above[0]]
            continue
        total = 0.0
        for row in rows:
            disc, value = 1.0, 0.0
            for j in range(k, n):
                v, nxt = paths[row, j], paths[row, j + 1]
                value += disc * a[v] / (1.0 + a[v]) * rv[v]
                disc /= 1.0 + a[v]
                if stop[nxt]:
                    break
            total += float(np.prod(q[paths[row, k + 1:]])) * (value + disc * pv[nxt])
        out[u] = total
    return out


@props
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.9), st.booleans())
def test_closed_form_equals_linear_under_random_sigma(seed, p_stop, scalar_lam):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=4, max_branching=3)
    pay = random_payoff(rng, tree)
    hz = random_delta_hazard(rng, tree)
    lam_v = (np.full(tree.n_nodes, rng.uniform(0.05, 50.0)) if scalar_lam
             else rng.uniform(0.05, 5.0, tree.n_nodes))
    lam = float(lam_v[0]) if scalar_lam else AdaptedProcess(tree, lam_v)
    stop = rng.random(tree.n_nodes) < p_stop
    stop[tree.leaves] = True
    sigma = StoppingTime(tree, stop)
    closed = reduced_price_closed_form(lam, pay, hz, tree, sigma)   # asserts 1e-12 inside
    lin = reduced_price_linear(lam, pay, hz, tree, sigma)
    assert np.max(np.abs(closed.value.values - lin.value.values)) <= TOL
    assert np.max(np.abs(closed.value.values
                         - pathwise_price(lam_v, pay, hz, tree, stop))) <= TOL
