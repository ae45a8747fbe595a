"""Extended space construction, projections, identity lemmas, transforms."""

import numpy as np
import pytest

from vopt.errors import HazardError, IdentityError
from vopt.filtration import AdaptedProcess, StoppingTime, backward, build_tree
from vopt.instances import (random_extension, random_hazard_h, random_payoff,
                            random_tree)
from vopt.random_time import (INF, ExtendedSpace, HazardSpec, IdentityReport, cox_extend,
                              extend_with_kernel, full_price_assembly,
                              jeulin_yor_transform, key_lemma, pre_default_transform,
                              projections, verify_lemma21)
from vopt.european import PayoffSpec, ReducedHazard, reduced_price_linear

TOL = 1e-12


def one_period(**kw):
    return build_tree({"times": [0.0, 1.0], "branching": 2, "p": "uniform", **kw})


# -- cox_extend ----------------------------------------------------------------

def test_no_default():
    tree = one_period()
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.0))
    assert np.all(ext.theta == INF)
    b = projections(ext)
    assert np.max(np.abs(b.G.values - 1.0)) <= TOL
    assert np.max(np.abs(b.GammaTilde.values)) <= TOL
    assert np.max(np.abs(b.m.values)) == pytest.approx(1.0, abs=TOL)  # m = A^o_inf = 1
    assert np.max(np.abs(ext.indicator())) == 0.0


def test_half_hazard_one_period():
    tree = one_period()
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.5))
    # P(theta = t_1) = 0.5; G_0 = 1, G_1 = 0.5 on every path
    mass_t1 = ext.prob[ext.theta == 1].sum()
    assert mass_t1 == pytest.approx(0.5, abs=TOL)
    b = projections(ext)
    assert b.G.values[0] == pytest.approx(1.0, abs=TOL)
    assert np.allclose(b.G.values[1:], 0.5, atol=TOL)
    # Gamma~_{t_1} = dA^o / G~ = 0.5 / 1
    assert np.allclose(b.Gtilde.values[1:], 1.0, atol=TOL)
    assert np.allclose(b.GammaTilde.values[1:], 0.5, atol=TOL)


def test_path_dependent_arrival_hazard_four_atoms():
    # hazard read on arrival: 0.2 after up, 0.8 after down
    tree = one_period()
    h = np.array([0.0, 0.2, 0.8])
    ext = cox_extend(tree, HazardSpec(h, timing="arrival"))
    table = {(int(ext.node_at[a, 1]), int(min(ext.theta[a], 2))): ext.prob[a]
             for a in range(ext.n_atoms)}
    assert len(table) == 4
    assert table[(1, 1)] == pytest.approx(0.5 * 0.2, abs=TOL)
    assert table[(1, 2)] == pytest.approx(0.5 * 0.8, abs=TOL)   # survives past T
    assert table[(2, 1)] == pytest.approx(0.5 * 0.8, abs=TOL)
    assert table[(2, 2)] == pytest.approx(0.5 * 0.2, abs=TOL)


def test_hazard_range_validation():
    tree = one_period()
    with pytest.raises(HazardError):
        HazardSpec.constant(tree, 1.0)
    with pytest.raises(HazardError):
        HazardSpec.constant(tree, -0.1)


def test_kernel_extension_marginal_matches_tree():
    rng = np.random.default_rng(9)
    tree = random_tree(rng)
    ext = random_extension(rng, tree, kind="kernel")
    leaf_mass = np.zeros(tree.leaves.size)
    np.add.at(leaf_mass, ext.leaf_row, ext.prob)
    assert np.allclose(leaf_mass, tree.node_p[tree.leaves], atol=TOL)


# -- projections and identity lemmas -------------------------------------------

def test_independent_hazard_gives_deterministic_g_and_constant_m():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    b = projections(ext)
    for k in range(3):
        lvl = b.G.values[tree.level_slice(k)]
        assert np.max(np.abs(lvl - lvl[0])) <= TOL
    # m has zero increments
    assert np.max(np.abs(b.m.values - b.m.values[0])) <= TOL


def test_lemma_identities_random_instances():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        rep = verify_lemma21(projections(ext))
        assert rep.passed(TOL), rep.residuals


def test_lemma_identities_negative_control():
    rng = np.random.default_rng(11)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    b = projections(ext)
    b.Ao.values[-1] += 1e-6
    rep = verify_lemma21(b)
    assert not rep.passed(TOL)
    assert any(f.startswith("i:") for f in rep.failures(TOL))
    assert rep.residuals["i: G = m - A^o"] == pytest.approx(1e-6, rel=1e-6)


def test_scaling_sanity_high_hazard():
    tree = build_tree({"times": [0, 1, 2, 3], "branching": 2, "p": "uniform"})
    eps = 0.05
    ext = cox_extend(tree, HazardSpec.constant(tree, 1.0 - eps))
    b = projections(ext)
    assert np.allclose(b.G.values[tree.level_slice(3)], eps ** 3, atol=TOL)


# -- key lemma ------------------------------------------------------------------

def test_key_lemma_constant():
    rng = np.random.default_rng(12)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    c = AdaptedProcess.constant(tree, 2.5)
    for t in range(tree.n_periods + 1):
        out = key_lemma(ext, c, t, "optional")
        assert np.allclose(out, 2.5, atol=TOL)
        out = key_lemma(ext, c, t, "predictable")
        assert np.allclose(out, 2.5, atol=TOL)


def test_key_lemma_expected_capped_default_time():
    # X_t = t, theta independent with h = 0.5 over 2 periods -> E[theta ^ T]
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.5))
    x = AdaptedProcess(tree, tree.grid.times[tree.level_of])
    out = key_lemma(ext, x, 0, "predictable")
    # theta = 1 w.p. 1/2, theta = 2 w.p. 1/4, after-T (reads t = 2) w.p. 1/4
    assert np.allclose(out, 0.5 * 1 + 0.25 * 2 + 0.25 * 2, atol=TOL)


def test_key_lemma_pre_default_part_at_zero():
    rng = np.random.default_rng(13)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    b = projections(ext)
    x = AdaptedProcess(tree, rng.uniform(0, 2, tree.n_nodes))
    out = key_lemma(ext, x, 0, "optional")
    # at t = 0 the pre-default value is G_0^{-1} E[integral of X dA^o + X_T G_T]
    paths = tree.path_nodes()
    leg = (x.values[paths[:, 1:]] * b.dAo.values[paths[:, 1:]]).sum(axis=1)
    leg += x.values[tree.leaves] * b.G.values[tree.leaves]
    direct = float(np.dot(tree.node_p[tree.leaves], leg)) / b.G.values[0]
    assert out[0] == pytest.approx(direct, abs=1e-11)


def test_key_lemma_rejects_unpredictable_input():
    rng = np.random.default_rng(14)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    x = AdaptedProcess(tree, rng.uniform(0, 1, tree.n_nodes))
    with pytest.raises(ValueError, match="predictable"):
        key_lemma(ext, x, 0, "predictable")



@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_key_lemma_nan_input_raises():
    # a NaN residual used to slip past the `err > tol` and `spread > tol` checks
    rng = np.random.default_rng(15)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    vals = rng.uniform(0, 1, tree.n_nodes)
    vals[tree.leaves[0]] = np.nan
    with pytest.raises(IdentityError):
        key_lemma(ext, AdaptedProcess(tree, vals), 0, "optional")
    with pytest.raises(ValueError, match="predictable"):
        key_lemma(ext, AdaptedProcess(tree, vals), 0, "predictable")

# -- martingale transforms -------------------------------------------------------

def _p_martingale(rng, tree):
    return AdaptedProcess(tree, backward(
        tree, rng.uniform(-1.0, 2.0, tree.leaves.size), measure="P"))


def test_transform_trivial_for_independent_time():
    rng = np.random.default_rng(15)
    tree = random_tree(rng)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.4))
    b = projections(ext)
    m = _p_martingale(rng, tree)
    out = jeulin_yor_transform(ext, m, b)
    n = tree.n_periods
    stop_idx = np.minimum(ext.theta[:, None], np.arange(n + 1)[None, :])
    stopped = m.values[np.take_along_axis(ext.node_at, stop_idx, axis=1)]
    assert np.max(np.abs(out - stopped)) <= TOL  # zero bracket: M^theta itself


def test_transform_constant_input():
    rng = np.random.default_rng(16)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    out = jeulin_yor_transform(ext, AdaptedProcess.constant(tree, 3.0))
    assert np.max(np.abs(out - 3.0)) <= TOL
    out = pre_default_transform(ext, AdaptedProcess.constant(tree, 3.0))
    assert np.max(np.abs(out - 3.0)) <= TOL


def test_transforms_are_martingales_on_correlated_instances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        b = projections(ext)
        m = _p_martingale(rng, tree)
        jy = jeulin_yor_transform(ext, m, b)
        assert ext.g_martingale_residual(jy) <= TOL
        # constant after theta
        n = tree.n_periods
        for a in range(ext.n_atoms):
            th = min(ext.theta[a], n)
            assert np.max(np.abs(jy[a, th:] - jy[a, th])) <= TOL
        pd = pre_default_transform(ext, m, b)
        assert ext.g_martingale_residual(pd) <= TOL


def test_transform_rejects_non_martingale():
    rng = np.random.default_rng(18)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    bad = AdaptedProcess(tree, rng.uniform(0, 1, tree.n_nodes))
    with pytest.raises(ValueError, match="martingale"):
        jeulin_yor_transform(ext, bad)



def test_g_martingale_residual_propagates_nan():
    rng = np.random.default_rng(19)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    M = AdaptedProcess(tree, backward(tree, rng.uniform(-1.0, 2.0, tree.leaves.size),
                                      measure="P"))
    x = jeulin_yor_transform(ext, M)
    assert ext.g_martingale_residual(x) <= TOL
    x[-1, -1] = np.nan
    assert np.isnan(ext.g_martingale_residual(x))


def test_identity_report_nan_fails():
    rep = IdentityReport({"a": 0.0, "b": np.nan, "c": 1e-13})
    assert np.isnan(rep.max_residual)
    assert not rep.passed()
    assert rep.failures() == ["b"]

# -- full price assembly ----------------------------------------------------------

def test_assembly_constant_payoffs():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.7), AdaptedProcess.constant(tree, 1.7))
    rep = full_price_assembly(ext, pay)
    assert np.max(np.abs(rep.values - 1.7)) <= TOL


def test_assembly_no_default_reduces_to_european():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform",
                       "zf_leaves": [1.2, 0.8, 1.1, 0.9]})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.0))
    rng = np.random.default_rng(19)
    pay = random_payoff(rng, tree)
    rep = full_price_assembly(ext, pay)
    plain = backward(tree, pay.P.values[tree.level_slice(2)])
    assert np.max(np.abs(rep.values[:, 0] - plain[0])) <= TOL


def test_assembly_one_period_hand_value():
    tree = one_period()
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.25))
    pay = PayoffSpec(AdaptedProcess(tree, np.array([0.0, 1.0, 3.0])),
                     AdaptedProcess.constant(tree, 1.4))
    rep = full_price_assembly(ext, pay)
    # default in (0, t_1] w.p. 0.25 pays R at the decision node (= 1.4),
    # survival pays E_Q[P_T] = 2
    assert rep.values[0, 0] == pytest.approx(0.25 * 1.4 + 0.75 * 2.0, abs=TOL)
    # on atoms that defaulted, the price sits at the recovery
    defaulted = ext.theta == 1
    assert np.allclose(rep.values[defaulted, 1], 1.4, atol=TOL)


def test_assembly_matches_direct_with_sigma_and_tilt():
    rng = np.random.default_rng(20)
    for _ in range(8):
        tree = random_tree(rng, max_periods=3)
        ext = cox_extend(tree, random_hazard_h(rng, tree, h_max=0.6, timing="decision"))
        pay = random_payoff(rng, tree)
        lam = AdaptedProcess(tree, rng.uniform(0.3, 2.5, tree.n_nodes))
        sig = StoppingTime(tree, (pay.P.values > 1.2) | StoppingTime.horizon(tree).stop)
        rep = full_price_assembly(ext, pay, sigma=sig, lam=lam)
        assert rep.residual <= TOL


def test_assembly_rejects_arrival_timed_hazard():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    h = np.zeros(tree.n_nodes)
    h[1], h[2] = 0.2, 0.7   # hazard loads on the contemporaneous move
    ext = cox_extend(tree, HazardSpec(h, timing="arrival"))
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 2.0))
    with pytest.raises(HazardError, match="decision-timed"):
        full_price_assembly(ext, pay)


def test_assembly_consistent_with_reduced_module():
    # the effective-odds hazard handed to the European solver reproduces the
    # assembled pre-default values exactly
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.4))
    rng = np.random.default_rng(21)
    pay = random_payoff(rng, tree)
    rep = full_price_assembly(ext, pay, lam=1.5)
    hz = ReducedHazard(tree, rep.delta_effective)
    again = reduced_price_linear(1.0, pay, hz, tree)
    assert np.max(np.abs(again.value.values - rep.reduced.values)) <= TOL
