"""Admissibility, densities, and the transformation rules under Q^phi."""

from pathlib import Path

import numpy as np
import pytest

import vopt
from vopt import suites
from vopt.errors import AdmissibilityError
from vopt.filtration import AdaptedProcess, build_tree, forward
from vopt.instances import (random_extension, random_hazard_h, random_payoff, random_phi,
                            random_tree)
from vopt.measure_change import (G_under_phi, PhiControl, compensated_default_residual,
                                 density_eta, hazard_under_phi, phi_pr_from_marks,
                                 validate_phi)
from vopt.random_time import (ExtendedSpace, HazardSpec, cox_extend, full_price_assembly,
                              projections)
from vopt.scenario import parse_scenario

TOL = 1e-12


def one_period_ext(h=0.5, zf=None):
    spec = {"times": [0.0, 1.0], "branching": 2, "p": "uniform"}
    if zf is not None:
        spec["zf_leaves"] = list(zf)
    tree = build_tree(spec)
    return tree, cox_extend(tree, HazardSpec.constant(tree, h))


def zero_phi(tree):
    return PhiControl(AdaptedProcess.constant(tree, 0.0))


def under_phi(b, phi):
    """The density of Q^phi; the survival tables its rules read are the
    projections rebuilt under it."""
    dens = density_eta(phi, b)
    tilted = projections(ExtendedSpace(b.ext.base, b.ext.leaf_row, b.ext.theta, dens.qphi))
    for name in ("G", "Gtilde", "dAo", "GammaTilde"):
        assert np.array_equal(getattr(dens.tilted, name), getattr(tilted, name).values)
    return dens


def test_bundle_factors_are_built_once_read_only_and_equal_the_formulas():
    # dGamma~ and Z^F / E(N~) are read by every Q^phi control on a bundle
    rng = np.random.default_rng(41)
    for _ in range(4):
        tree = random_tree(rng, max_periods=3)
        b = projections(random_extension(rng, tree))
        for name in ("dGammaTilde", "market_factor"):
            assert getattr(b, name) is getattr(b, name)
            assert not getattr(b, name).flags.writeable
        up = tree.parent[1:]
        gt, m, G = b.GammaTilde.values, b.m.values, b.G.values
        assert np.array_equal(b.dGammaTilde, np.r_[0.0, gt[1:] - gt[up]])
        e_nt = forward(tree, 1.0 + np.r_[0.0, (m[1:] - m[up]) / G[up]], np.multiply, 1.0)
        assert np.array_equal(b.market_factor, tree.density_zf() / e_nt)


def test_density_projection_is_built_on_first_use(monkeypatch):
    # only the G-rule reads E[eta | F]: the assembly densities never build it
    f_condexp = ExtendedSpace.f_condexp
    calls = []
    monkeypatch.setattr(ExtendedSpace, "f_condexp",
                        lambda self, *a, **kw: calls.append(1) or f_condexp(self, *a, **kw))
    rng = np.random.default_rng(43)
    for _ in range(4):
        tree = random_tree(rng, max_periods=3)
        b = projections(cox_extend(tree, random_hazard_h(rng, tree, timing="decision")))
        lam = AdaptedProcess(tree, rng.uniform(0.5, 2.0, tree.n_nodes))
        assert full_price_assembly(b, random_payoff(rng, tree), lam=lam).residual <= TOL
        assert not calls
        dens = density_eta(random_phi(rng, b), b)
        assert not calls and "eta_o_proj" not in vars(dens)
        proj = dens.eta_o_proj
        assert dens.eta_o_proj is proj and len(calls) == 1
        assert not proj.flags.writeable
        assert np.array_equal(proj, f_condexp(b.ext, dens.eta))
        calls.clear()


# -- validate_phi -----------------------------------------------------------------

def test_identity_control_is_valid():
    tree, ext = one_period_ext()
    assert validate_phi(zero_phi(tree), projections(ext)).ok


def test_phi_pr_floor_violation():
    tree, ext = one_period_ext()
    marks = np.zeros(tree.n_nodes)
    marks[1], marks[2] = -1.0, 1.0
    rep = validate_phi(PhiControl(AdaptedProcess.constant(tree, 0.0), marks),
                       projections(ext))
    assert not rep.ok
    assert any("phi^(pr) > -1" in v for v in rep.violations)


def test_phi_o_boundary_rejected():
    # exact discrete boundary phi^(o) = -G~/G at a default atom
    tree, ext = one_period_ext(h=0.5)
    b = projections(ext)
    ratio = b.Gtilde.values / b.G.values
    phi = PhiControl(AdaptedProcess(tree, -ratio))
    rep = validate_phi(phi, b)
    assert not rep.ok
    assert any("-G~/G" in v for v in rep.violations)
    # just inside the boundary is fine
    phi_in = PhiControl(AdaptedProcess(tree, -0.999 * ratio))
    assert validate_phi(phi_in, b).ok


def test_phi_o_boundary_approaches_minus_one_on_fine_grids():
    # with vanishing per-step hazard the strict-positivity bound -G~/G tends
    # to -1, the continuous-hazard condition
    tree = build_tree({"times": list(np.linspace(0, 1, 9)), "branching": 1,
                       "p": [[[1.0]]] * 8})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.01))
    b = projections(ext)
    dgt = b.dGammaTilde
    live = dgt > 0
    bound = -b.Gtilde.values[live] / b.G.values[live]
    assert np.max(np.abs(bound + 1.0)) < 0.02
    rep = validate_phi(PhiControl(AdaptedProcess(tree, bound.min() * np.ones(tree.n_nodes))),
                       b)
    assert not rep.ok


def test_survival_factor_violation():
    tree, ext = one_period_ext(h=0.5)
    # phi^(o) dGamma~ >= 1 kills positivity on the pre-default interval
    phi = PhiControl(AdaptedProcess.constant(tree, 2.0))
    rep = validate_phi(phi, projections(ext))
    assert not rep.ok
    assert any("dGamma~ < 1" in v for v in rep.violations)


PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"


def packaged_bundle():
    return parse_scenario(str(PACKAGED)).bundle


def test_nan_phi_o_is_a_violation_at_its_node():
    b = packaged_bundle()
    phi_o = np.zeros(b.ext.base.n_nodes)
    phi_o[3] = np.nan
    phi = PhiControl(AdaptedProcess(b.ext.base, phi_o))
    rep = validate_phi(phi, b)
    assert not rep.ok and rep.violations == ["phi^(o) is not finite at node 3"]
    with pytest.raises(AdmissibilityError, match="not finite at node 3"):
        density_eta(phi, b)


def test_nan_phi_pr_is_a_violation_at_its_node():
    b = packaged_bundle()
    marks = np.zeros(b.ext.base.n_nodes)
    marks[5] = np.nan
    phi = PhiControl(AdaptedProcess.constant(b.ext.base, 0.0), marks)
    rep = validate_phi(phi, b)
    assert not rep.ok and rep.violations == ["phi^(pr) is not finite at node 5"]
    with pytest.raises(AdmissibilityError, match="not finite at node 5"):
        density_eta(phi, b)


def test_nan_residual_fails_the_suite(monkeypatch):
    # the rules return the NaN they measure, and it fails the suite's
    # `residual <= tol`: NaN never passes
    b = packaged_bundle()
    dens = density_eta(zero_phi(b.ext.base), b)
    dens.d_lambda = dens.d_lambda.copy()
    dens.d_lambda[4] = np.nan
    assert np.isnan(hazard_under_phi(dens).two_route_residual)
    assert np.isnan(G_under_phi(dens).two_route_residual)
    real = suites.density_eta

    def nan_at_the_last_node(phi, bundle):
        dens = real(phi, bundle)
        dens.d_lambda = dens.d_lambda.copy()
        dens.d_lambda[..., -1] = np.nan
        return dens

    monkeypatch.setattr(suites, "density_eta", nan_at_the_last_node)
    res = suites.suite_measure_change(parse_scenario(str(PACKAGED)))
    assert np.isnan(res.max_residual) and not res.passed
    assert "error" not in res.details


def test_cap_enforced():
    tree, ext = one_period_ext()
    phi = PhiControl(AdaptedProcess.constant(tree, 0.5), cap=1.0)
    rep = validate_phi(phi, projections(ext))
    assert not rep.ok and any("cap" in v for v in rep.violations)


# -- density -----------------------------------------------------------------------

def test_identity_density():
    tree, ext = one_period_ext()
    dens = density_eta(zero_phi(tree), projections(ext))
    assert np.max(np.abs(dens.eta - 1.0)) <= TOL
    assert np.allclose(dens.qphi, ext.prob, atol=TOL)


def test_density_hand_value_one_period():
    # independent theta, phi^(o) = 1: on {theta = t_1} eta = 1 + (1 - dGamma~)
    tree, ext = one_period_ext(h=0.5)
    b = projections(ext)
    dens = density_eta(PhiControl(AdaptedProcess.constant(tree, 1.0)), b)
    dgt = b.dGammaTilde[1]
    on_default = ext.theta == 1
    assert np.allclose(dens.eta[on_default, 1], 1.0 + (1.0 - dgt), atol=TOL)
    assert np.allclose(dens.eta[~on_default, 1], 1.0 - dgt, atol=TOL)
    assert float(np.dot(ext.prob, dens.eta[:, -1])) == pytest.approx(1.0, abs=TOL)


def test_random_phi_is_admissible():
    # the factory no longer validates its output; density_eta does, once
    rng = np.random.default_rng(34)
    for _ in range(10):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        b = projections(ext)
        for with_pr in (False, True):
            rep = validate_phi(random_phi(rng, b, with_pr=with_pr), b)
            assert rep.ok, rep.violations


def test_density_martingale_normalisation_random():
    rng = np.random.default_rng(30)
    for _ in range(10):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        b = projections(ext)
        phi = random_phi(rng, b, with_pr=True)
        dens = density_eta(phi, b)
        assert float(np.dot(ext.prob, dens.eta[:, -1])) == pytest.approx(1.0, abs=1e-11)
        assert np.all(dens.eta > 0.0)
        assert ext.g_martingale_residual(dens.eta) <= 1e-11


def test_positivity_iff_validation():
    tree, ext = one_period_ext(h=0.5)
    b = projections(ext)
    ratio = b.Gtilde.values / b.G.values
    # inside the bounds: valid and positive
    phi_ok = PhiControl(AdaptedProcess(tree, -0.9 * ratio))
    assert validate_phi(phi_ok, b).ok
    assert np.all(density_eta(phi_ok, b).eta > 0.0)
    # beyond the bound: invalid, and the raw exponential indeed loses positivity
    phi_bad = PhiControl(AdaptedProcess(tree, -1.1 * ratio))
    assert not validate_phi(phi_bad, b).ok
    with pytest.raises(AdmissibilityError):
        density_eta(phi_bad, b)
    # and the raw exponential factor indeed loses positivity there
    dgt = b.dGammaTilde
    jump = 1.0 + (-1.1 * ratio) * (1.0 - dgt)
    assert np.any(jump[1:] <= 0.0)


# -- transformation rules ------------------------------------------------------------

def test_hazard_rule_identity_control():
    tree, ext = one_period_ext(h=0.5)
    b = projections(ext)
    rep = hazard_under_phi(under_phi(b, zero_phi(tree)))
    assert np.max(np.abs(rep.value - b.GammaTilde.values)) <= TOL
    assert max(rep.two_route_residual, rep.dual_projection_residual) <= TOL


def test_hazard_rule_hand_increment():
    # 1-period h = 0.5, phi^(o) = 1 -> dLambda = (1 + (1 - dG~)) dG~
    tree, ext = one_period_ext(h=0.5)
    b = projections(ext)
    rep = hazard_under_phi(under_phi(b, PhiControl(AdaptedProcess.constant(tree, 1.0))))
    dgt = b.dGammaTilde[1]
    assert rep.value[1] == pytest.approx((1.0 + (1.0 - dgt)) * dgt, abs=TOL)
    assert rep.two_route_residual <= TOL
    assert rep.dual_projection_residual <= TOL


def test_hazard_rule_near_continuous_limit():
    # refine the grid so dGamma~ ~ 0: Lambda ~ (1 + phi) Gamma~
    tree = build_tree({"times": list(np.linspace(0, 1, 11)), "branching": 1,
                       "p": [[[1.0]]] * 10})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.02))
    b = projections(ext)
    phi = PhiControl(AdaptedProcess.constant(tree, 0.7))
    rep = hazard_under_phi(under_phi(b, phi))
    approx = (1.0 + 0.7) * b.GammaTilde.values
    assert np.max(np.abs(rep.value - approx)) < 0.02 * approx.max()


def test_two_route_rules_random_controls():
    rng = np.random.default_rng(31)
    for _ in range(12):
        tree = random_tree(rng)
        ext = random_extension(rng, tree)
        b = projections(ext)
        for _ in range(4):
            phi = random_phi(rng, b, with_pr=False)
            dens = under_phi(b, phi)
            h_rep = hazard_under_phi(dens)
            g_rep = G_under_phi(dens)
            assert h_rep.two_route_residual <= TOL
            assert h_rep.dual_projection_residual <= TOL
            assert g_rep.two_route_residual <= TOL
            assert compensated_default_residual(dens) <= TOL


def test_g_rule_trivial_control_recovers_g():
    tree, ext = one_period_ext(h=0.3)
    b = projections(ext)
    rep = G_under_phi(under_phi(b, zero_phi(tree)))
    assert np.max(np.abs(rep.value - b.G.values)) <= TOL
    assert rep.two_route_residual <= TOL


def test_g_rule_independent_hazard_deterministic():
    tree = build_tree({"times": [0, 1, 2], "branching": 2, "p": "uniform"})
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.4))
    phi = PhiControl(AdaptedProcess.constant(tree, 0.5))
    rep = G_under_phi(under_phi(projections(ext), phi))
    # one-step survival under the tilt: 1 - (1 + 0.5(1 - 0.4)) 0.4 = 0.48
    lvl = rep.value[tree.level_slice(2)]
    assert np.allclose(lvl, 0.48 ** 2, atol=TOL)
    assert rep.two_route_residual <= TOL


def looks_pseudo_stopping(rep):
    """o(eta) equals Z^F to 1e-10: theta keeps the pseudo-stopping property."""
    return rep.pseudo_stopping_residual <= 1e-10


def test_pseudo_stopping_diagnostic():
    rng = np.random.default_rng(32)
    # product-type extension, P = Q: o(eta) = Z^F = 1 holds
    tree = random_tree(rng, max_periods=3, with_density=False)
    b = projections(cox_extend(tree, HazardSpec.constant(tree, 0.3)))
    phi = random_phi(rng, b, with_pr=False)
    rep = G_under_phi(under_phi(b, phi))
    assert looks_pseudo_stopping(rep)
    # with a nontrivial market density the stopped factor freezes at theta
    # while Z^F keeps moving, so the equality generally fails (open question:
    # reported per instance, never assumed)
    tree2 = random_tree(rng, max_periods=3, with_density=True)
    b2 = projections(cox_extend(tree2, HazardSpec.constant(tree2, 0.3)))
    phi2 = random_phi(rng, b2, with_pr=False)
    rep2 = G_under_phi(under_phi(b2, phi2))
    assert rep2.two_route_residual <= TOL   # the rule holds regardless
    assert not looks_pseudo_stopping(rep2)


def test_hazard_rule_rejects_mark_on_default_support():
    rng = np.random.default_rng(33)
    tree = random_tree(rng, max_periods=3)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.4))
    b = projections(ext)
    phi = random_phi(rng, b, with_pr=True)
    if phi.is_graph_trivial(b):
        pytest.skip("sampled mark is inert on this instance")
    dens = under_phi(b, phi)
    with pytest.raises(AdmissibilityError, match="mark"):
        hazard_under_phi(dens)
    with pytest.raises(AdmissibilityError, match="mark"):
        compensated_default_residual(dens)


def test_reduced_price_invariant_to_post_default_mark():
    rng = np.random.default_rng(34)
    tree = random_tree(rng, max_periods=3)
    ext = cox_extend(tree, HazardSpec.constant(tree, 0.35))
    b = projections(ext)
    pay = random_payoff(rng, tree)
    lam = AdaptedProcess(tree, rng.uniform(0.5, 2.0, tree.n_nodes))
    phi_arrival = np.zeros(tree.n_nodes)
    phi_arrival[1:] = lam.values[tree.parent[1:]] - 1.0
    results = []
    for _ in range(3):
        marks = phi_pr_from_marks(b, rng.uniform(-0.7, 0.7, tree.n_nodes), phi_arrival)
        rep = full_price_assembly(b, pay, lam=lam, phi_pr=marks)
        assert rep.residual <= TOL
        results.append(rep.values.copy())
    for other in results[1:]:
        assert np.max(np.abs(results[0] - other)) <= TOL
