"""Extended space construction, projections, identity lemmas, transforms."""

import warnings

import numpy as np
import pytest

from vopt import random_time
from vopt.errors import HazardError, TreeError
from vopt.filtration import AdaptedProcess, StoppingTime, backward, build_tree
from vopt.instances import (random_extension, random_hazard_h, random_payoff,
                            random_tree)
from vopt.random_time import (INF, BUNDLE_COLUMNS, ExtendedSpace, HazardSpec, IdentityReport,
                              cox_closed_form, cox_extend, extend_with_kernel, full_price_assembly,
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


# -- cox_closed_form -----------------------------------------------------------

def test_cox_closed_form_one_period_hand_values():
    # h = 0.3 at the root: G = 0.7, G~ = 1, dA^o = dA^p = 0.3 at both children;
    # m = n = A + G = 1 everywhere; without absorption all mass defaults at t_1
    tree = one_period()
    form = cox_closed_form(tree, HazardSpec.constant(tree, 0.3))
    assert np.allclose(form.G, [1.0, 0.7, 0.7], rtol=0, atol=TOL)
    assert np.allclose(form.Gtilde, 1.0, rtol=0, atol=TOL)
    assert np.allclose(form.Ao, [0.0, 0.3, 0.3], rtol=0, atol=TOL)
    assert np.allclose(form.Gamma, form.Ap, rtol=0, atol=TOL)
    assert np.allclose(form.m, 1.0, rtol=0, atol=TOL)
    cut = cox_closed_form(tree, HazardSpec.constant(tree, 0.3, terminal_absorption=False))
    assert np.array_equal(cut.G, [1.0, 0.0, 0.0])
    assert np.array_equal(cut.Ao, [0.0, 1.0, 1.0])
    with pytest.raises(HazardError, match="one value per node"):
        cox_closed_form(tree, HazardSpec(np.zeros(2)))


def test_cox_closed_form_and_the_atom_route_do_not_call_each_other(monkeypatch):
    tree = random_tree(np.random.default_rng(3), 3, 3)
    hz = random_hazard_h(np.random.default_rng(4), tree, timing="decision")
    bundle = projections(cox_extend(tree, hz))

    def forbidden(*a, **k):
        raise AssertionError("called")

    for name in ("cox_extend", "projections", "survival_tables", "ExtendedSpace"):
        monkeypatch.setattr(random_time, name, forbidden)
    form = random_time.cox_closed_form(tree, hz)
    monkeypatch.undo()
    monkeypatch.setattr(random_time, "cox_closed_form", forbidden)
    again = random_time.projections(random_time.cox_extend(tree, hz))
    for name in BUNDLE_COLUMNS:
        assert np.allclose(getattr(form, name), getattr(bundle, name).values, rtol=0, atol=TOL)
        assert np.array_equal(getattr(again, name).values, getattr(bundle, name).values)


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
        assert rep.max_residual <= TOL, rep.residuals


def test_lemma_identities_negative_control():
    rng = np.random.default_rng(11)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    b = projections(ext)
    b.Ao.values[-1] += 1e-6
    rep = verify_lemma21(b)
    assert not rep.max_residual <= TOL
    assert any(k.startswith("i:") and not v <= TOL for k, v in rep.residuals.items())
    assert rep.residuals["i: G = m - A^o"] == pytest.approx(1e-6, rel=1e-6)


def test_scaling_sanity_high_hazard():
    tree = build_tree({"times": [0, 1, 2, 3], "branching": 2, "p": "uniform"})
    eps = 0.05
    ext = cox_extend(tree, HazardSpec.constant(tree, 1.0 - eps))
    b = projections(ext)
    assert np.allclose(b.G.values[tree.level_slice(3)], eps ** 3, atol=TOL)


def test_extension_keeps_its_own_read_only_atom_arrays():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, 3, 2)
    base = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    given = {"leaf_row": base.leaf_row.copy(), "theta": base.theta.copy(),
             "prob": base.prob.copy()}
    ext = ExtendedSpace(tree, **given)
    for key, arr in given.items():
        assert arr.flags.writeable and not getattr(ext, key).flags.writeable
        arr[0] = 1          # the caller's array stays the caller's
        assert getattr(ext, key)[0] == getattr(base, key)[0]
        with pytest.raises(ValueError):
            getattr(ext, key)[0] = 1


def test_extension_rejects_non_finite_atom_probability():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, 3, 2)
    base = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    for bad in (np.nan, np.inf):
        prob = base.prob.copy()
        prob[2] = bad
        with pytest.raises(TreeError, match="atom 2 probability is not finite"):
            ExtendedSpace(tree, base.leaf_row, base.theta, prob)


def test_zero_mass_cell_raises_on_every_call():
    # the own-measure masses are cached; a zero-mass F cell still raises
    # every time, with or without the cache
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 3, 2)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    w = ext.prob.copy()
    w[ext.leaf_row == 0] = 0.0
    w /= w.sum()
    own = ExtendedSpace(tree, ext.leaf_row, ext.theta, w)
    x = np.ones(ext.n_atoms)
    msg = rf"^F_{tree.n_periods} cell with zero mass \(measure not equivalent\)$"
    for _ in range(2):
        for space, weights in ((ext, w), (own, None), (own, own.prob)):
            with pytest.raises(HazardError, match=msg):
                space.f_condexp(x, weights)


def test_projections_zero_mass_message_and_no_warning():
    # a zero-mass leaf, then a zero-mass level-1 subtree: projections raises
    # the f_condexp message for the first empty cell, before any division
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 3, 2)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    for empty, k in ((ext.leaf_row == 0, tree.n_periods), (ext.node_at[:, 1] == 1, 1)):
        w = ext.prob.copy()
        w[empty] = 0.0
        w /= w.sum()
        own = ExtendedSpace(tree, ext.leaf_row, ext.theta, w)
        msg = rf"^F_{k} cell with zero mass \(measure not equivalent\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for space, weights in ((ext, w), (own, None)):
                with pytest.raises(HazardError, match=msg):
                    space.f_condexp(np.ones(ext.n_atoms), weights)
            with pytest.raises(HazardError, match=msg):
                projections(own)


def test_compensated_default_martingales_are_built_on_first_use():
    rng = np.random.default_rng(5)
    for _ in range(5):
        tree = random_tree(rng, 3, 3)
        ext = random_extension(rng, tree)
        b = projections(ext)
        assert "mG" not in vars(b) and "nG" not in vars(b)
        for mg, hazard in ((b.mG, b.GammaTilde), (b.nG, b.Gamma)):
            assert mg.shape == (ext.n_atoms, tree.n_periods + 1)
            assert np.array_equal(mg, ext.indicator() - hazard.values[ext.stopped_node])
            assert ext.g_martingale_residual(mg) <= TOL
        assert b.mG is b.mG


# -- key lemma ------------------------------------------------------------------

def test_key_lemma_constant():
    rng = np.random.default_rng(12)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    b = projections(ext)
    c = AdaptedProcess.constant(tree, 2.5)
    for variant in ("optional", "predictable"):
        out = key_lemma(b, c, variant)
        assert out.shape == (ext.n_atoms, tree.n_periods + 1)
        assert np.allclose(out, 2.5, atol=TOL)


def test_key_lemma_expected_capped_default_time():
    # X_t = t, theta independent with h = 0.5 over 2 periods -> E[theta ^ T]
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.5))
    x = AdaptedProcess(tree, tree.grid.times[tree.level_of])
    out = key_lemma(projections(ext), x, "predictable")[:, 0]
    # theta = 1 w.p. 1/2, theta = 2 w.p. 1/4, after-T (reads t = 2) w.p. 1/4
    assert np.allclose(out, 0.5 * 1 + 0.25 * 2 + 0.25 * 2, atol=TOL)


def test_key_lemma_pre_default_part_at_zero():
    rng = np.random.default_rng(13)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    b = projections(ext)
    x = AdaptedProcess(tree, rng.uniform(0, 2, tree.n_nodes))
    out = key_lemma(b, x, "optional")[:, 0]
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
        key_lemma(projections(ext), x, "predictable")


def test_key_lemma_reads_the_bundle_measure():
    # the extension and its measure come from the bundle: on the same atoms
    # under a tilted measure the formula still matches the direct
    # G_t-expectation, and differs from the value under the first extension's
    # measure
    rng = np.random.default_rng(16)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    w = ext.prob * rng.uniform(0.2, 5.0, ext.n_atoms)
    tilted = projections(ExtendedSpace(tree, ext.leaf_row, ext.theta, w / w.sum()))
    x = AdaptedProcess(tree, rng.uniform(0, 2, tree.n_nodes))
    out = key_lemma(tilted, x, "optional")
    direct = tilted.ext.g_condexp(x.values[ext.default_node])
    assert np.max(np.abs(out - direct)) <= TOL
    assert out[0, 0] == pytest.approx(float(np.dot(tilted.ext.prob,
                                                   x.values[ext.default_node])), abs=1e-12)
    assert abs(out[0, 0] - key_lemma(projections(ext), x, "optional")[0, 0]) > 1e-6


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_key_lemma_nan_input_reaches_the_gap():
    # a NaN input shows in the table, so the gap to the direct conditional
    # expectation is NaN and fails any `gap <= tol`; the predictable variant's
    # input check reads `not spread <= tol`, so NaN raises there
    rng = np.random.default_rng(15)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    vals = rng.uniform(0, 1, tree.n_nodes)
    vals[tree.leaves[0]] = np.nan
    b = projections(ext)
    out = key_lemma(b, AdaptedProcess(tree, vals), "optional")
    assert np.isnan(np.max(np.abs(out - ext.g_condexp(vals[ext.default_node]))))
    with pytest.raises(ValueError, match="predictable"):
        key_lemma(b, AdaptedProcess(tree, vals), "predictable")


def test_key_lemma_messages():
    rng = np.random.default_rng(22)
    tree = random_tree(rng, max_periods=3)
    b = projections(random_extension(rng, tree))
    x = AdaptedProcess.constant(tree, 1.0)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        key_lemma(b, x, "bogus")
    # without terminal absorption G_N = 0: the check covers every level
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3, terminal_absorption=False))
    msg = "^G = 0 encountered in the key lemma at a live cell$"
    with pytest.raises(HazardError, match=msg):
        key_lemma(projections(ext), x, "optional")

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
    out = jeulin_yor_transform(b, m)
    n = tree.n_periods
    stop_idx = np.minimum(ext.theta[:, None], np.arange(n + 1)[None, :])
    stopped = m.values[np.take_along_axis(ext.node_at, stop_idx, axis=1)]
    assert np.max(np.abs(out - stopped)) <= TOL  # zero bracket: M^theta itself


def test_transform_constant_input():
    rng = np.random.default_rng(16)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    out = jeulin_yor_transform(projections(ext), AdaptedProcess.constant(tree, 3.0))
    assert np.max(np.abs(out - 3.0)) <= TOL
    out = pre_default_transform(projections(ext), AdaptedProcess.constant(tree, 3.0))
    assert np.max(np.abs(out - 3.0)) <= TOL


def test_transforms_are_martingales_on_correlated_instances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        b = projections(ext)
        m = _p_martingale(rng, tree)
        jy = jeulin_yor_transform(b, m)
        assert ext.g_martingale_residual(jy) <= TOL
        # constant after theta
        n = tree.n_periods
        for a in range(ext.n_atoms):
            th = min(ext.theta[a], n)
            assert np.max(np.abs(jy[a, th:] - jy[a, th])) <= TOL
        pd = pre_default_transform(b, m)
        assert ext.g_martingale_residual(pd) <= TOL


def test_transform_rejects_non_martingale():
    rng = np.random.default_rng(18)
    tree = random_tree(rng)
    ext = random_extension(rng, tree)
    bad = AdaptedProcess(tree, rng.uniform(0, 1, tree.n_nodes))
    with pytest.raises(ValueError, match="martingale"):
        jeulin_yor_transform(projections(ext), bad)



def test_g_martingale_residual_propagates_nan():
    rng = np.random.default_rng(19)
    tree = random_tree(rng, max_periods=3)
    ext = random_extension(rng, tree)
    M = AdaptedProcess(tree, backward(tree, rng.uniform(-1.0, 2.0, tree.leaves.size),
                                      measure="P"))
    x = jeulin_yor_transform(projections(ext), M)
    assert ext.g_martingale_residual(x) <= TOL
    x[-1, -1] = np.nan
    assert np.isnan(ext.g_martingale_residual(x))


def test_identity_report_nan_fails():
    rep = IdentityReport({"a": 0.0, "b": np.nan, "c": 1e-13})
    assert np.isnan(rep.max_residual)
    assert not rep.max_residual <= TOL

# -- full price assembly ----------------------------------------------------------

def test_assembly_constant_payoffs():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.3))
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.7), AdaptedProcess.constant(tree, 1.7))
    rep = full_price_assembly(projections(ext), pay)
    assert np.max(np.abs(rep.values - 1.7)) <= TOL
    assert rep.residual <= TOL


def test_assembly_no_default_reduces_to_european():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform",
                       "zf_leaves": [1.2, 0.8, 1.1, 0.9]})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.0))
    rng = np.random.default_rng(19)
    pay = random_payoff(rng, tree)
    rep = full_price_assembly(projections(ext), pay)
    plain = backward(tree, pay.P.values[tree.level_slice(2)])
    assert np.max(np.abs(rep.values[:, 0] - plain[0])) <= TOL
    assert rep.residual <= TOL


def test_assembly_one_period_hand_value():
    tree = one_period()
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.25))
    pay = PayoffSpec(AdaptedProcess(tree, np.array([0.0, 1.0, 3.0])),
                     AdaptedProcess.constant(tree, 1.4))
    rep = full_price_assembly(projections(ext), pay)
    # default in (0, t_1] w.p. 0.25 pays R at the decision node (= 1.4),
    # survival pays E_Q[P_T] = 2
    assert rep.values[0, 0] == pytest.approx(0.25 * 1.4 + 0.75 * 2.0, abs=TOL)
    # on atoms that defaulted, the price sits at the recovery
    defaulted = ext.theta == 1
    assert np.allclose(rep.values[defaulted, 1], 1.4, atol=TOL)
    assert rep.residual <= TOL


def test_assembly_matches_direct_with_sigma_and_tilt():
    rng = np.random.default_rng(20)
    for _ in range(8):
        tree = random_tree(rng, max_periods=3)
        ext = cox_extend(tree, random_hazard_h(rng, tree, h_max=0.6, timing="decision"))
        pay = random_payoff(rng, tree)
        lam = AdaptedProcess(tree, rng.uniform(0.3, 2.5, tree.n_nodes))
        sig = StoppingTime(tree, (pay.P.values > 1.2) | StoppingTime.horizon(tree).stop)
        rep = full_price_assembly(projections(ext), pay, sigma=sig, lam=lam)
        assert rep.residual <= TOL


def test_assembly_rejects_arrival_timed_hazard():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    h = np.zeros(tree.n_nodes)
    h[1], h[2] = 0.2, 0.7   # hazard loads on the contemporaneous move
    ext = cox_extend(tree, HazardSpec(h, timing="arrival"))
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 2.0))
    with pytest.raises(HazardError, match="decision-timed"):
        full_price_assembly(projections(ext), pay)


def test_decision_timing_is_measured_once_per_extension(monkeypatch):
    import vopt.random_time as rt
    spreads = []
    group_spread = rt._group_spread
    monkeypatch.setattr(rt, "_group_spread", lambda *a: spreads.append(1) or group_spread(*a))
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    h = np.zeros(tree.n_nodes)
    h[1], h[2] = 0.2, 0.7
    pay = PayoffSpec(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 2.0))
    bad = projections(cox_extend(tree, HazardSpec(h, timing="arrival")))
    for _ in range(3):      # the error is raised, with its message, on every call
        with pytest.raises(HazardError) as err:
            full_price_assembly(bad, pay)
        assert str(err.value) == ("assembly requires a decision-timed hazard: the "
                                  "conditional default mass at t_1 varies within a "
                                  "time-0 node (spread 0.5)")
    assert len(spreads) == 1
    good = projections(cox_extend(tree, HazardSpec(h)))
    for lam in (0.5, 1.0, 2.0):
        assert full_price_assembly(good, pay, lam=lam).residual <= TOL
    assert len(spreads) == 2


def test_assembly_consistent_with_reduced_module():
    # the effective-odds hazard handed to the European solver reproduces the
    # assembled pre-default values exactly
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.4))
    rng = np.random.default_rng(21)
    pay = random_payoff(rng, tree)
    rep = full_price_assembly(projections(ext), pay, lam=1.5)
    hz = ReducedHazard(tree, rep.delta_effective)
    again = reduced_price_linear(1.0, pay, hz)
    assert np.max(np.abs(again.value.values - rep.reduced.values)) <= TOL
    assert rep.residual <= TOL
