"""Property tests of the two projection primitives of ExtendedSpace."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vopt.instances import random_extension, random_tree

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
