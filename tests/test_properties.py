"""Property tests of the two projection primitives of ExtendedSpace, the
mass-table projections, the key lemma, the density eta^phi, the
closed-form reduced price and the closed form of a Cox random time."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vopt.european import reduced_price_closed_form, reduced_price_linear
from vopt.filtration import AdaptedProcess, StoppingTime, forward
from vopt.instances import (random_delta_hazard, random_extension, random_payoff,
                            random_phi, random_tree)
from vopt.measure_change import density_eta
from vopt.random_time import (BUNDLE_COLUMNS, HazardSpec, cox_closed_form, cox_extend,
                              key_lemma, projections)

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


# -- the cached cell layout and masses against uncached bincounts ---------------

def sums(ext, ids, v, size):
    """Per-id sums of v (per atom, or per atom and time), in atom order."""
    flat = np.broadcast_to(v.reshape(ext.n_atoms, -1), ids.shape).ravel()
    return np.bincount(ids.ravel(), weights=flat, minlength=size)


def ref_f(ext, x, w):
    """E[x_k | F_k] with the numerator and the cell masses summed afresh."""
    v = w[:, None] * x if x.ndim == 2 else w * x
    size = ext.base.n_nodes
    return sums(ext, ext.node_at, v, size) / sums(ext, ext.node_at, w, size)


def ref_g(ext, x, w):
    """E[x_k | G_k] with the cell ids and masses rebuilt for x's columns."""
    n = ext.base.n_periods
    cols = n + 1 if x.ndim == 1 else x.shape[1]
    theta = ext.theta[:, None]
    cells = ext.node_at[:, :cols] * (n + 1) + np.where(theta <= np.arange(cols), theta, 0)
    size = ext.base.n_nodes * (n + 1)
    v = w[:, None] * x if x.ndim == 2 else w * x
    num, den = sums(ext, cells, v, size), sums(ext, cells, w, size)
    return np.divide(num, den, out=np.zeros(size), where=den > 0.0)[cells]


def weight_kinds(ext, rng):
    """None, the space's own array, an equal copy of it and a tilted measure,
    each with the array the reference should use."""
    tilt = ext.prob * rng.uniform(0.2, 5.0, ext.n_atoms)
    return [(None, ext.prob), (ext.prob, ext.prob), (ext.prob.copy(), ext.prob),
            (tilt / tilt.sum(), tilt / tilt.sum())]


@props
@given(instances)
def test_primitives_equal_uncached_bincounts(inst):
    ext, _, rng = build(*inst)
    n = ext.base.n_periods
    x2 = rng.uniform(-1.0, 1.0, (ext.n_atoms, n + 1))
    for _ in range(2):      # the second pass reads the filled caches
        for weights, w in weight_kinds(ext, rng):
            for x in (x2[:, 0], x2):
                assert np.array_equal(ext.f_condexp(x, weights), ref_f(ext, x, w))
            for x in (x2[:, 0], x2, x2[:, :n], x2[:, :1]):
                assert np.array_equal(ext.g_condexp(x, weights), ref_g(ext, x, w))


def key_lemma_at(bundle, xv, t, variant):
    """E[X_theta | G_t] for one t, from uncached per-t projections."""
    ext, tree = bundle.ext, bundle.ext.base
    w = bundle.weights
    d_int = (bundle.dAp if variant == "predictable" else bundle.dAo).values
    paths = tree.path_nodes()
    contrib = xv[paths[:, 1:]] * d_int[paths[:, 1:]]
    tail = np.concatenate([np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((paths.shape[0], 1))], axis=1)
    sentinel = xv[tree.leaves] * bundle.G.values[tree.leaves]
    pre_num = ref_f(ext, (tail[:, t] + sentinel)[ext.leaf_row], w)
    node = ext.node_at[:, t]
    x_theta = xv[ext.default_node]
    return np.where(ext.theta <= t, x_theta, pre_num[node] / bundle.G.values[node])


@props
@given(instances)
def test_key_lemma_columns_equal_per_time_reference(inst):
    ext, w, rng = build(*inst)
    tree = ext.base
    bundle = projections(ext, w if inst[2] else None)
    x = rng.uniform(0.0, 3.0, tree.n_nodes)
    xp = x.copy()
    xp[1:] = x[tree.parent[1:]]
    for variant, xv in (("optional", x), ("predictable", xp)):
        out = key_lemma(bundle, AdaptedProcess(tree, xv), variant)
        assert out.shape == (ext.n_atoms, tree.n_periods + 1)
        for t in range(tree.n_periods + 1):
            assert np.array_equal(out[:, t], key_lemma_at(bundle, xv, t, variant))


# -- the mass-table projections against exact rational sums ---------------------

FIELDS = ("G", "Gtilde", "dAo", "dAp", "pG", "m", "n")


def exact_projections(ext, w):
    """Every F-projection of the bundle as exact Fractions of the float atom
    masses: M[v][j] is the mass through node v with theta = t_j (N+1: after T)."""
    tree = ext.base
    n = tree.n_periods
    lvl, par = tree.level_of, tree.parent
    M = [[Fraction(0)] * (n + 2) for _ in range(tree.n_nodes)]
    for a in range(ext.n_atoms):
        for v in ext.node_at[a]:
            M[v][min(int(ext.theta[a]), n + 1)] += Fraction(float(w[a]))
    mass = [sum(row) for row in M]
    out = {"G": [sum(M[v][lvl[v] + 1:]) / mass[v] for v in range(tree.n_nodes)],
           "Gtilde": [sum(M[v][lvl[v]:]) / mass[v] for v in range(tree.n_nodes)],
           "dAo": [M[v][lvl[v]] / mass[v] for v in range(tree.n_nodes)]}
    out["dAp"] = [Fraction(0)] + [M[par[v]][lvl[v]] / mass[par[v]]
                                  for v in range(1, tree.n_nodes)]
    out["pG"] = [out["G"][0]] + [sum(M[par[v]][lvl[v] + 1:]) / mass[par[v]]
                                 for v in range(1, tree.n_nodes)]
    for name, inc in (("m", "dAo"), ("n", "dAp")):
        acc = [Fraction(0)] * tree.n_nodes
        for v in range(tree.n_nodes):
            acc[v] = out[inc][v] + (acc[par[v]] if v else 0)
        num = [Fraction(0)] * tree.n_nodes
        for row, path in enumerate(tree.path_nodes()):
            leaf = path[-1]
            for v in path:
                num[v] += mass[leaf] * (acc[leaf] + out["G"][leaf])
        out[name] = [num[v] / mass[v] for v in range(tree.n_nodes)]
    return out


def condexp_projections(ext, w):
    """The same fields, each from its own per-atom ``f_condexp`` pass."""
    tree = ext.base
    n = tree.n_periods
    theta, ks, up = ext.theta[:, None], np.arange(n + 1), tree.parent[1:]
    G = ext.f_condexp(theta > ks, w)
    out = {"G": G, "Gtilde": ext.f_condexp(theta >= ks, w),
           "dAo": ext.f_condexp(theta == ks, w),
           "dAp": np.zeros(tree.n_nodes), "pG": np.full(tree.n_nodes, G[0])}
    out["dAp"][1:] = ext.f_condexp(theta == ks + 1, w)[up]
    out["pG"][1:] = ext.f_condexp(G[ext.node_at[:, np.minimum(ks + 1, n)]], w)[up]
    leaves = tree.leaves
    for name, inc in (("m", "dAo"), ("n", "dAp")):
        acc = forward(tree, out[inc], np.add, 0.0)
        out[name] = ext.f_condexp((acc[leaves] + G[leaves])[ext.leaf_row], w)
    return out


@props
@given(instances)
def test_mass_table_is_no_less_accurate_than_condexp(inst):
    ext, w, _ = build(*inst)
    bundle = projections(ext, w if inst[2] else None)
    exact = exact_projections(ext, w)
    direct = condexp_projections(ext, w)
    for name in FIELDS:
        table = getattr(bundle, name).values
        for v, ex in enumerate(exact[name]):
            err_table = abs(Fraction(float(table[v])) - ex)
            err_direct = abs(Fraction(float(direct[name][v])) - ex)
            slack = 4 * Fraction(float(np.spacing(abs(float(ex)))))
            assert err_table <= err_direct + slack, (name, v)


# -- eta^phi against the state-table construction --------------------------------

def eta_reference(phi, bundle):
    """eta^phi from a per-step state table (survival factor before theta, jump
    factor at theta, 1 after), its cumulative product along each atom's path,
    the market factor stopped at theta and the mark from theta on."""
    ext = bundle.ext
    n = ext.base.n_periods
    phi_o, dgt = phi.phi_o.values, bundle.dGammaTilde
    factors = np.stack([1.0 - phi_o * dgt, 1.0 + phi_o * (1.0 - dgt), np.ones(ext.base.n_nodes)])
    ks = np.arange(1, n + 1)
    theta = ext.theta[:, None]
    state = (ks >= theta).astype(np.int8) + (ks > theta)
    eta = np.ones((ext.n_atoms, n + 1))
    np.cumprod(factors[state, ext.node_at[:, 1:]], axis=1, out=eta[:, 1:])
    eta *= bundle.market_factor[ext.stopped_node]
    np.multiply(eta, 1.0 + phi.phi_pr_atoms(ext)[:, None], out=eta,
                where=np.arange(n + 1) >= theta)
    return eta


@props
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["cox", "kernel"]))
def test_density_eta_equals_the_state_table_product(seed, kind):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branching=3)
    bundle = projections(random_extension(rng, tree, kind))
    for with_pr in (False, True):
        phi = random_phi(rng, bundle, with_pr)
        assert np.array_equal(density_eta(phi, bundle).eta, eta_reference(phi, bundle))


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
    closed = reduced_price_closed_form(lam, pay, hz, sigma)   # asserts 1e-12 inside
    lin = reduced_price_linear(lam, pay, hz, sigma)
    assert np.max(np.abs(closed.value.values - lin.value.values)) <= TOL
    assert np.max(np.abs(closed.value.values
                         - pathwise_price(lam_v, pay, hz, tree, stop))) <= TOL


# -- the closed form of a Cox random time against its atoms ----------------------

cox_cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from(["decision", "arrival"]),
                      st.booleans())


def cox_routes(seed, timing, absorb, h_max):
    """The closed form and the atom route of one Cox random time on a random
    tree (N <= 4, branching <= 3, non-uniform P)."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=4, max_branching=3)
    hz = HazardSpec(rng.uniform(0.0, h_max, tree.n_nodes), timing=timing,
                    terminal_absorption=absorb)
    return cox_closed_form(tree, hz), projections(cox_extend(tree, hz))


@props
@given(cox_cases)
def test_cox_closed_form_equals_the_atom_route(case):
    form, bundle = cox_routes(*case, h_max=0.9)
    for name in BUNDLE_COLUMNS:
        assert np.allclose(getattr(form, name), getattr(bundle, name).values,
                           rtol=0, atol=TOL), name


@props
@given(cox_cases)
def test_cox_closed_form_without_hazard_is_the_atom_route_bitwise(case):
    form, bundle = cox_routes(*case, h_max=0.0)
    for name in BUNDLE_COLUMNS:
        assert getattr(form, name).tobytes() == getattr(bundle, name).values.tobytes(), name
