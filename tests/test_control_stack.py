"""A stack of Q^phi controls against a per-control reference, bitwise.

The reference is the per-control path the stack replaced, kept here as it
was: one control's admissibility check, its density, the survival tables
rebuilt under its measure and the three rules, one control at a time.  The
stacked Bayes-sum oracles of ``ExtendedSpace`` are checked the same way,
row by row against a call on that row alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vopt.errors import AdmissibilityError, HazardError, IdentityError
from vopt.instances import random_extension, random_phi, random_tree
from vopt.measure_change import (G_under_phi, PhiControl, compensated_default_residual,
                                 density_eta, hazard_under_phi)
from vopt.random_time import _BLOCK_CELLS, HazardSpec, cox_extend, projections

TOL = 1e-12

cases = settings(max_examples=30, deadline=None)
stacks = (st.integers(0, 2 ** 32 - 1), st.sampled_from(["cox", "kernel"]), st.integers(1, 12))


def ref_forward(tree, incr, combine, root):
    out = np.empty_like(incr)
    out[0] = root
    for k in range(1, tree.n_periods + 1):
        sl = tree.level_slice(k)
        out[sl] = combine(out[tree.parent[sl]], incr[sl])
    return out


def ref_children_mean(tree, w, x):
    up = tree.parent[1:]
    tot = np.bincount(up, weights=w[1:], minlength=tree.n_nodes)
    num = np.bincount(up, weights=(w * x)[1:], minlength=tree.n_nodes)
    return np.divide(num, tot, out=np.zeros_like(num), where=tot > 0)


def ref_violations(bundle, phi_o, marks, tol=TOL):
    ext, tree = bundle.ext, bundle.ext.base
    n = tree.n_periods
    dgt = bundle.dGammaTilde
    phi_pr = np.where(ext.theta <= n, marks[ext.default_node], 0.0)
    viol = []
    default = ext.theta <= n
    bad = default & (phi_pr <= -1.0)
    if np.any(bad):
        a = int(np.flatnonzero(bad)[0])
        viol.append(f"phi^(pr) > -1 violated at atom {a} (value {phi_pr[a]:.6g})")
    dnode = ext.default_node
    jump = 1.0 + phi_o[dnode] * (1.0 - dgt[dnode])
    bad = default & (jump <= 0.0)
    if np.any(bad):
        a = int(np.flatnonzero(bad)[0])
        viol.append(f"phi^(o) > -G~/G violated at atom {a} (default factor {jump[a]:.6g})")
    surv = 1.0 - phi_o * dgt
    bad_nodes = np.flatnonzero((dgt > 0.0) & (surv <= 0.0))
    if bad_nodes.size:
        v = int(bad_nodes[0])
        viol.append(f"phi^(o) dGamma~ < 1 violated at node {v} (survival factor {surv[v]:.6g})")
    w = tree.p_edge * bundle.market_factor * (1.0 + phi_o * (1.0 - dgt)) * bundle.dAo.values
    off = np.abs(ref_children_mean(tree, w, marks))
    bad_nodes = np.flatnonzero(off > tol)
    if bad_nodes.size:
        lvl = tree.level_slice(int(tree.level_of[bad_nodes[0]]))
        u = lvl.start + int(np.argmax(off[lvl]))
        viol.append(f"phi^(pr) not conditionally centered below node {u} "
                    f"(weighted mean {float(np.max(off[lvl])):.3g})")
    return viol


def ref_density(bundle, phi_o, marks, tol=TOL):
    """(eta, q^phi, dLambda) of one control, or the error the density raises."""
    viol = ref_violations(bundle, phi_o, marks, tol)
    if viol:
        raise AdmissibilityError("; ".join(viol))
    ext, tree = bundle.ext, bundle.ext.base
    n = tree.n_periods
    dgt, mf = bundle.dGammaTilde, bundle.market_factor
    jump = 1.0 + phi_o * (1.0 - dgt)
    surv = ref_forward(tree, 1.0 - phi_o * dgt, np.multiply, 1.0)
    dn = ext.default_node
    phi_pr = np.where(ext.theta <= n, marks[dn], 0.0)
    post = surv[tree.parent[dn]] * jump[dn] * mf[dn] * (1.0 + phi_pr)
    eta = (surv * mf)[ext.node_at]
    np.copyto(eta, post[:, None], where=ext.theta[:, None] <= np.arange(n + 1))
    if np.any(eta <= 0.0):
        raise IdentityError("eta^phi not strictly positive despite admissible control")
    if np.max(np.abs(eta[:, 0] - 1.0)) > tol:
        raise IdentityError("eta_0 != 1")
    total = float(np.dot(ext.prob, eta[:, n]))
    if abs(total - 1.0) > 1e-10:
        raise IdentityError(f"E[eta_T] = {total:.15g} != 1")
    r = ext.g_martingale_residual(eta)
    if r > 1e-10:
        raise IdentityError(f"eta^phi is not a martingale (residual {r:.3g})")
    return eta, ext.prob * eta[:, n], jump * dgt


def ref_tilted(ext, w):
    """G, G~, dA^o and Gamma~ under the atom measure w, from its mass table."""
    tree = ext.base
    n = tree.n_periods
    cols = n + 2
    M = np.empty((tree.n_nodes, cols))
    M[tree.level_slice(n)] = np.bincount(ext.leaf_row * cols + np.minimum(ext.theta, n + 1),
                                         weights=w, minlength=tree.leaves.size * cols
                                         ).reshape(-1, cols)
    for k in range(n - 1, -1, -1):
        M[tree.level_slice(k)] = tree.sum_over_children(k, M[tree.level_slice(k + 1)])
    S = np.cumsum(M[:, ::-1], axis=1)[:, ::-1]
    mass = S[:, 0]
    v, k = np.arange(tree.n_nodes), tree.level_of
    G, Gt, dAo = S[v, k + 1] / mass, S[v, k] / mass, M[v, k] / mass
    return G, Gt, dAo, ref_forward(tree, dAo / Gt, np.add, 0.0)


def ref_rules(bundle, phi_o, marks, tol=TOL):
    """One control's density and its four residuals: the hazard rule's two,
    the G rule's and the compensated default's; or the error the density or
    a mark on the default support raises."""
    eta, qphi, d_lambda = ref_density(bundle, phi_o, marks, tol)
    ext, tree = bundle.ext, bundle.ext.base
    if not np.all(np.abs(marks * bundle.dAo.values) <= tol):
        raise AdmissibilityError("hazard transformation rule needs a post-default mark "
                                 "that vanishes on the default support")
    G, Gt, dAo, Gamt = ref_tilted(ext, qphi)
    lam = ref_forward(tree, d_lambda, np.add, 0.0)
    r_main = float(np.max(np.abs(lam - Gamt)))
    r_dual = float(np.max(np.abs(dAo - Gt * d_lambda)))
    formula = tree.density_zf() * ref_forward(tree, 1.0 + -d_lambda, np.multiply, 1.0) \
        / ext.f_condexp(eta)
    r_g = float(np.max(np.abs(G - formula)))
    r_c = ext.g_martingale_residual(ext.indicator() - lam[ext.stopped_node], qphi)
    return (eta, qphi, d_lambda), (r_main, r_dual, r_g, r_c)


def stack_rules(bundle, phi):
    """The stack's densities and its four residuals per control."""
    dens = density_eta(phi, bundle)
    hz, g = hazard_under_phi(dens), G_under_phi(dens)
    residuals = (hz.two_route_residual, hz.dual_projection_residual, g.two_route_residual,
                 compensated_default_residual(dens))
    return (dens.eta, dens.qphi, dens.d_lambda), residuals


def outcome(fn, *args):
    """What ``fn`` returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except (AdmissibilityError, IdentityError) as e:
        return type(e), str(e)


def ref_outcome(fn, bundle, rows):
    """The stack a per-control loop gives, or the first error it raises."""
    out = []
    for phi_o, marks in rows:
        got = outcome(fn, bundle, phi_o, marks)
        if isinstance(got[0], type):
            return got
        out.append(got)
    return out


def instance(seed, kind):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_periods=3, max_branching=3)
    return rng, projections(random_extension(rng, tree, kind))


def rows_of(phi, n_nodes):
    marks = np.zeros(n_nodes) if phi.phi_pr is None else phi.phi_pr
    return list(zip(phi.phi_o, np.broadcast_to(marks, phi.phi_o.shape)))


def assert_rows_equal(stacked, per_row):
    """Every array of every control bitwise equal (a NaN residual equals NaN)."""
    for r, row in enumerate(per_row):
        for got, want in zip(stacked, row):
            assert np.array_equal(np.asarray(got)[r], want, equal_nan=True)


@cases
@given(*stacks)
def test_stack_draws_as_many_single_controls(seed, kind, count):
    rng, bundle = instance(seed, kind)
    for with_pr in (False, True):
        start = rng.bit_generator.state
        stack = random_phi(rng, bundle, with_pr=with_pr, count=count)
        after = rng.bit_generator.state
        rng.bit_generator.state = start
        singles = [random_phi(rng, bundle, with_pr=with_pr) for _ in range(count)]
        assert rng.bit_generator.state == after
        assert np.array_equal(stack.phi_o, [p.phi_o.values for p in singles])
        if with_pr:
            assert np.array_equal(stack.phi_pr, [p.phi_pr for p in singles])


@cases
@given(*stacks)
def test_stack_equals_the_per_control_reference(seed, kind, count):
    rng, bundle = instance(seed, kind)
    phi = random_phi(rng, bundle, with_pr=False, count=count)
    dens, residuals = stack_rules(bundle, phi)
    ref = [ref_rules(bundle, phi_o, marks) for phi_o, marks in rows_of(phi, bundle.ext.base.n_nodes)]
    assert_rows_equal(dens, [r[0] for r in ref])
    assert_rows_equal(residuals, [r[1] for r in ref])


@cases
@given(*stacks)
def test_marked_stack_equals_the_reference_or_raises_its_first_error(seed, kind, count):
    # a mark on the default support: the density as the reference builds it,
    # and the rules raise what the reference raises for the first such control
    rng, bundle = instance(seed, kind)
    phi = random_phi(rng, bundle, with_pr=True, count=count)
    rows = rows_of(phi, bundle.ext.base.n_nodes)
    dens = density_eta(phi, bundle)
    assert_rows_equal((dens.eta, dens.qphi, dens.d_lambda),
                      ref_outcome(ref_density, bundle, rows))
    want = ref_outcome(ref_rules, bundle, rows)
    got = outcome(stack_rules, bundle, phi)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert_rows_equal(got[1], [r[1] for r in want])


@cases
@given(*stacks, st.sampled_from(["survival bound", "uncentered mark"]))
def test_a_bad_control_inside_a_stack_raises_the_reference_error(seed, kind, count, defect):
    rng, bundle = instance(seed, kind)
    tree = bundle.ext.base
    count = max(count, 3)
    phi = random_phi(rng, bundle, with_pr=False, count=count)
    bad = count // 2
    phi_o, marks = phi.phi_o.copy(), np.zeros((count, tree.n_nodes))
    if defect == "survival bound":
        dgt = bundle.dGammaTilde
        phi_o[bad] = np.where(dgt > 0.0, 1.5 / np.maximum(dgt, 1e-300), phi_o[bad])
    else:
        marks[bad] = rng.uniform(-0.5, 0.5, tree.n_nodes)
    phi = PhiControl(phi_o, marks)
    rows = rows_of(phi, tree.n_nodes)
    want = ref_outcome(ref_density, bundle, rows)
    got = outcome(density_eta, phi, bundle)
    if isinstance(want[0], type):
        assert got == want
    else:   # no default mass where the defect sits: nothing to violate
        assert_rows_equal((got.eta, got.qphi, got.d_lambda), want)


def test_an_empty_stack_checks_nothing():
    rng, bundle = instance(5, "cox")
    phi = random_phi(rng, bundle, with_pr=False, count=0)
    (eta, qphi, d_lambda), residuals = stack_rules(bundle, phi)
    assert eta.shape == (0,) + bundle.ext.node_at.shape and qphi.shape == (0, bundle.ext.n_atoms)
    assert all(np.shape(r) == (0,) for r in residuals)


# -- the stacked oracles against one call per row ----------------------------------

def oracle_calls(ext, x, w):
    """f_condexp, g_condexp on full and on fewer columns, and the martingale
    residual of the stack x under w (None, one measure, or one per row)."""
    return (ext.f_condexp(x, w), ext.g_condexp(x, w), ext.g_condexp(x[..., 1:], w),
            ext.g_martingale_residual(x, w))


def per_row(ext, x, w):
    """``oracle_calls`` on each row alone, with that row's measure."""
    rows = [oracle_calls(ext, x[r], w if w is None or w.ndim == 1 else w[r])
            for r in range(len(x))]
    return [np.array([row[i] for row in rows]) for i in range(4)]


def assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert g.tobytes() == w.tobytes() or np.isnan(w).any()


def weight_stacks(ext, rng, count):
    tilt = ext.prob * rng.uniform(0.2, 5.0, (count, ext.n_atoms))
    tilt /= tilt.sum(axis=1, keepdims=True)
    return [None, ext.prob, tilt[0], tilt]


@cases
@given(*stacks)
def test_stacked_oracles_equal_one_call_per_row(seed, kind, count):
    rng, bundle = instance(seed, kind)
    ext = bundle.ext
    x = rng.uniform(-1.0, 2.0, (count, ext.n_atoms, ext.base.n_periods + 1))
    for w in weight_stacks(ext, rng, count):
        got = oracle_calls(ext, x, w)
        assert_bitwise(got, per_row(ext, x, w))
        # a NaN in one row: NaN there only, every other row bitwise unchanged
        bad = int(rng.integers(count))
        xn = x.copy()
        xn[bad, int(rng.integers(ext.n_atoms)), -1] = np.nan
        nan = oracle_calls(ext, xn, w)
        assert np.isnan(nan[3][bad])
        keep = np.arange(count) != bad
        assert_bitwise([a[keep] for a in nan], [a[keep] for a in got])


@cases
@given(*stacks)
def test_blocks_of_a_stack_equal_one_call_per_row(seed, kind, count):
    rng, bundle = instance(seed, kind)
    ext = bundle.ext
    cells = ext.n_atoms * (ext.base.n_periods + 1)
    per = max(1, _BLOCK_CELLS // cells)
    count += 2 * per            # at least three blocks
    blocks = ext.blocks(count)
    assert len(blocks) >= 3
    assert [r for b in blocks for r in range(count)[b]] == list(range(count))
    assert all(len(range(count)[b]) * cells <= max(_BLOCK_CELLS, cells) for b in blocks)
    x = rng.uniform(-1.0, 2.0, (count, ext.n_atoms, ext.base.n_periods + 1))
    for w in weight_stacks(ext, rng, count):
        got = [ext.by_blocks(count, lambda b: oracle_calls(
                   ext, x[b], w if w is None or w.ndim == 1 else w[b])[i])
               for i in range(4)]
        assert_bitwise(got, per_row(ext, x, w))


def test_one_row_larger_than_a_block_is_a_block_of_its_own():
    tree = random_tree(np.random.default_rng(3), max_periods=6, max_branching=3)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.2))
    assert ext.n_atoms * (tree.n_periods + 1) > _BLOCK_CELLS
    assert ext.blocks(3) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert ext.blocks(0) == [slice(0, 1)]


def test_stacked_zero_mass_cell_raises_for_the_first_row_that_has_one():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 3, 2)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    w = np.tile(ext.prob, (4, 1))
    w[1, ext.node_at[:, 1] == 1] = 0.0      # an empty level-1 cell in row 1
    w[2, ext.leaf_row == 0] = 0.0           # an empty leaf in row 2
    w /= w.sum(axis=1, keepdims=True)
    x = np.ones((4, ext.n_atoms, tree.n_periods + 1))

    def error(rows):
        with pytest.raises(HazardError) as exc:
            ext.f_condexp(x[rows], w[rows])
        return str(exc.value)

    assert error(1) == "F_1 cell with zero mass (measure not equivalent)"
    assert error(2) == f"F_{tree.n_periods} cell with zero mass (measure not equivalent)"
    # a stack raises what its first failing row raises alone
    for order, first in (([0, 1, 2, 3], 1), ([0, 2, 1, 3], 2), ([3, 2], 2)):
        assert error(order) == error(first)
