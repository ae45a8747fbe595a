"""Verification suites: identity checks, duality sweeps, oracle comparisons.

Each suite runs on the scenario instance (plus the optional randomized family
for the batch identity checks) and returns its worst residual against the
scenario tolerances.  Suites run one after another in declaration order, and
the report leaves timings out, so it is byte-stable across runs.  A NaN or
infinite residual fails its suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .american import (brute_force_game, game_payoff, modified_payoff,
                       penalized_american_lower, penalized_american_upper,
                       rbsde_vs_weighted_optstop)
from .errors import EnumerationCapError, TreeError
from .european import (dirac_convergence_check, penalized_european,
                       reduced_price_closed_form, sup_over_phi)
from .filtration import (DEFAULT_ENUM_CAP, AdaptedProcess, StoppingTime, backward,
                         brute_force_snell_root, _enumerate_stop_nodes,
                         evaluate_stopping, snell_envelope)
from .instances import random_delta_hazard, random_payoff, random_phi, random_tree
from .measure_change import (G_under_phi, compensated_default_residual, density_eta,
                             hazard_under_phi, phi_pr_from_marks)
from .random_time import (jeulin_yor_transform, key_lemma, pre_default_transform,
                          projections, verify_lemma21)
from .scenario import Scenario


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # timings stay out of the artifact so reports are byte-stable
        return {"suite": self.name, "passed": bool(self.passed),
                "max_residual": float(self.max_residual),
                "tolerance": float(self.tolerance), "details": self.details}


@dataclass
class RunReport:
    scenario: str
    results: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "passed": bool(self.passed),
                "suites": [r.to_dict() for r in self.results]}


def _worst(*residuals: float) -> float:
    """Largest residual; NaN as soon as any residual is NaN.

    The built-in ``max`` keeps the first argument when a later one is NaN
    (``max(0.0, nan) == 0.0``), so a NaN arriving after a finite residual
    would be dropped.  A NaN result fails every ``residual <= tol`` check.
    """
    return float(np.max(residuals))


def _family_instances(sc: Scenario):
    """(tree, projection bundle) of the scenario instance first, then of the
    seeded random family; both are built once a run and shared."""
    yield sc.tree, sc.bundle
    yield from sc.family_bundles


def suite_projections_identities(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    worst = 0.0
    count = 0
    rng = np.random.default_rng(sc.phi_seed)
    for tree, bundle in _family_instances(sc):
        rep = verify_lemma21(bundle)
        # the mass-table G, G~ and dA^o against the direct per-atom Bayes sums
        theta, ks = bundle.ext.theta[:, None], np.arange(tree.n_periods + 1)
        worst = _worst(worst, rep.max_residual, *(
            float(np.max(np.abs(bundle.ext.f_condexp(ind) - proj.values)))
            for ind, proj in ((theta > ks, bundle.G), (theta >= ks, bundle.Gtilde),
                              (theta == ks, bundle.dAo))))
        x = AdaptedProcess(tree, rng.uniform(0.0, 3.0, tree.n_nodes))
        xp = np.empty(tree.n_nodes)
        xp[0] = x.values[0]
        xp[1:] = x.values[tree.parent[1:]]
        key_lemma(bundle, x, "optional", tol=tol)
        key_lemma(bundle, AdaptedProcess(tree, xp), "predictable", tol=tol)
        count += 1
    return SuiteResult("projections-identities", worst <= tol, worst, tol, 0.0,
                       {"instances": count})


def suite_martingale_transforms(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    worst = 0.0
    rng = np.random.default_rng(sc.phi_seed + 1)
    count = 0
    for tree, bundle in _family_instances(sc):
        ext = bundle.ext
        M = AdaptedProcess(tree, backward(
            tree, rng.uniform(-1.0, 2.0, tree.leaves.size), measure="P"))
        worst = _worst(worst, ext.g_martingale_residual(jeulin_yor_transform(bundle, M)),
                       ext.g_martingale_residual(pre_default_transform(bundle, M)))
        count += 1
    return SuiteResult("martingale-transforms", worst <= tol, worst, tol, 0.0,
                       {"instances": count})


def _qphi_residuals(bundle, phi, tol: float) -> tuple[float, ...]:
    """The Q^phi rules for one control: its density and the projections
    rebuilt under it are built once and shared by the three checks."""
    dens = density_eta(phi, bundle)
    tilted = projections(bundle.ext, dens.qphi)
    hz_rep = hazard_under_phi(dens, tilted, tol=tol)
    g_rep = G_under_phi(dens, tilted, tol=tol)
    return (hz_rep.two_route_residual, hz_rep.dual_projection_residual,
            g_rep.two_route_residual, compensated_default_residual(dens))


def suite_measure_change(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    rng = np.random.default_rng(sc.phi_seed + 2)
    worst = 0.0
    details: dict = {"controls": 0}
    for tree, bundle in _family_instances(sc):
        for _ in range(sc.phi_count):
            phi = random_phi(rng, bundle, with_pr=False)
            worst = _worst(worst, *_qphi_residuals(bundle, phi, tol))
            details["controls"] += 1
    # post-default marks: the density stays an exact martingale and the
    # pre-default option values E^{Q^phi}[payoff | G_k] on theta > k, read
    # from the direct conditional expectation under each mark's measure, are
    # invariant to the mark.  Uses the vulnerable payoff itself: recovery
    # read at the decision node is what makes the invariance exact.
    from .random_time import full_price_assembly
    bundle = sc.bundle
    ext = bundle.ext
    lam = AdaptedProcess(sc.tree, 1.0 + 0.4 * np.cos(np.arange(sc.tree.n_nodes)))
    phi_o_arrival = np.zeros(sc.tree.n_nodes)
    phi_o_arrival[1:] = lam.values[sc.tree.parent[1:]] - 1.0
    pre = ext.theta[:, None] > np.arange(sc.tree.n_periods + 1)
    base = None
    for _ in range(3):
        marks = phi_pr_from_marks(bundle, rng.uniform(-0.7, 0.7, sc.tree.n_nodes),
                                  phi_o_arrival)
        rep = full_price_assembly(bundle, sc.payoff, lam=lam, phi_pr=marks)
        worst = _worst(worst, rep.residual)
        if base is None:
            base = rep.direct[pre]
        else:
            worst = _worst(worst, float(np.max(np.abs(rep.direct[pre] - base))))
        details["controls"] += 1
    return SuiteResult("measure-change", worst <= tol, worst, tol, 0.0, details)


def _penalty_ladder(sc: Scenario, solve, target: np.ndarray) -> tuple[list[float], bool]:
    """Sup gaps of ``solve(n, ...)`` to ``target`` per rung, and whether values rise."""
    tol_id = sc.tolerances["identity"]
    gaps = []
    prev = None
    mono_ok = True
    for n in sc.penalty_ladder:
        val = solve(n, sc.payoff, sc.hazard_delta).value.values
        if prev is not None and not np.all(val >= prev - tol_id):
            mono_ok = False
        prev = val
        gaps.append(float(np.max(np.abs(target - val))))
    return gaps, mono_ok


def suite_european_duality(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["duality"]
    tol_id = sc.tolerances["identity"]
    tree, payoff, hz = sc.tree, sc.payoff, sc.hazard_delta
    snell = sc.snell
    gaps, mono_ok = _penalty_ladder(sc, penalized_european, snell.value.values)
    worst = gaps[-1]
    for n in (1, 4, 16):
        sup = sup_over_phi(n, payoff, hz).value.values
        pen = penalized_european(n, payoff, hz).value.values
        worst = _worst(worst, float(np.max(np.abs(sup - pen))))
    lam = 1.0 + 0.5 * np.sin(np.arange(tree.n_nodes))   # deterministic tilt
    reduced_price_closed_form(AdaptedProcess(tree, lam), payoff, hz)  # asserts 1e-12
    oracle_gap = 0.0
    skipped = {}
    try:
        reward = AdaptedProcess(tree, payoff.stop_reward())
        bf = brute_force_snell_root(reward, "Q", hz.support_mask())
        oracle_gap = abs(bf - snell.value.values[0])
    except EnumerationCapError as e:
        skipped = {"enumeration": f"skipped: {e}"}
    worst = _worst(worst, oracle_gap)
    passed = worst <= tol and mono_ok and oracle_gap <= tol_id
    return SuiteResult("european-duality", passed, worst, tol, 0.0,
                       {"monotone": mono_ok, "gap_trace": gaps,
                        "ladder": list(sc.penalty_ladder),
                        "enumeration_gap": oracle_gap, **skipped})


def suite_dirac_convergence(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["dirac"]
    hz = sc.hazard_delta
    # stop at the first support node: the earliest time termination mass exists
    nu = StoppingTime(sc.tree, hz.support_mask())
    table = dirac_convergence_check(sc.payoff, hz, nu)
    worst = table.gaps[-1]
    # every rung within its rate bound, up to rounding; the last rung within tol
    passed = worst <= tol and table.rate_excess <= sc.tolerances["identity"]
    return SuiteResult("dirac-convergence", passed, worst, tol, 0.0,
                       {"rate_excess": table.rate_excess, "trace": table.to_trace()})


def suite_rbsde_vs_optstop(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["rbsde"]
    tol_id = sc.tolerances["identity"]
    rng = np.random.default_rng(sc.phi_seed + 3)
    rep = rbsde_vs_weighted_optstop(sc.payoff, sc.hazard_delta, tol=tol)
    worst, sk = rep.max_diff, rep.skorokhod_residual
    count = 1
    if sc.family:
        for _ in range(sc.family["instances"]):
            tree = random_tree(rng, sc.family["max_periods"], sc.family["max_branching"])
            rep = rbsde_vs_weighted_optstop(random_payoff(rng, tree),
                                            random_delta_hazard(rng, tree), tol=tol)
            worst = _worst(worst, rep.max_diff)
            sk = _worst(sk, rep.skorokhod_residual)
            count += 1
    return SuiteResult("rbsde-vs-optstop", worst <= tol and sk <= tol_id, worst, tol,
                       0.0, {"instances": count, "skorokhod": sk})


def suite_american_upper(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["duality"]
    tol_id = sc.tolerances["identity"]
    payoff, hz = sc.payoff, sc.hazard_delta
    target = sc.upper
    gaps, mono_ok = _penalty_ladder(sc, penalized_american_upper, target.value.values)
    worst = gaps[-1]
    oracle_gap = 0.0
    skipped = {}
    try:
        bf = brute_force_snell_root(modified_payoff(payoff, hz), "Q")
        oracle_gap = abs(bf - target.value.values[0])
    except EnumerationCapError as e:
        skipped = {"enumeration": f"skipped: {e}"}
    passed = worst <= tol and mono_ok and oracle_gap <= tol_id
    return SuiteResult("american-upper", passed, _worst(worst, oracle_gap), tol, 0.0,
                       {"monotone": mono_ok, "gap_trace": gaps,
                        "enumeration_gap": oracle_gap, **skipped})


def suite_game_duality(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["game"]
    tol_id = sc.tolerances["identity"]
    payoff, hz = sc.payoff, sc.hazard_delta
    try:
        game = sc.game
    except TreeError as e:
        return SuiteResult("game-duality", False, np.inf, tol, 0.0,
                           {"error": str(e), "hint": "game needs P <= R on the support"})
    lower = penalized_american_lower(sc.penalty_ladder[-1], payoff, hz)
    worst_pen = float(np.max(np.abs(game.value.values - lower.value.values)))
    details: dict = {"penalized_gap": worst_pen}
    worst_exact = 0.0
    try:
        bf = brute_force_game(payoff, hz)
        worst_exact = _worst(abs(bf.infsup - bf.supinf),
                             abs(bf.infsup - game.value.values[0]))
        achieved = game_payoff(payoff, game.sigma_star, game.tau_star)
        worst_exact = _worst(worst_exact, abs(achieved - game.value.values[0]))
        details.update({"infsup": bf.infsup, "supinf": bf.supinf,
                        "strategies_achieve": achieved})
    except EnumerationCapError as e:
        details["enumeration"] = f"skipped: {e}"
    passed = worst_pen <= tol and worst_exact <= tol_id
    return SuiteResult("game-duality", passed, _worst(worst_pen, worst_exact), tol, 0.0,
                       details)


def suite_oracle_equivalence(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    rng = np.random.default_rng(sc.phi_seed + 4)
    worst = 0.0
    count = 0
    specs = [(sc.tree, random_payoff(rng, sc.tree), sc.hazard_delta)]
    if sc.family:
        for _ in range(min(sc.family["instances"], 8)):
            tree = random_tree(rng, min(sc.family["max_periods"], 3), 2)
            specs.append((tree, random_payoff(rng, tree), random_delta_hazard(rng, tree)))
    for tree, payoff, hz in specs:
        # each enumeration checks its row count against the counting formula
        masks = (np.ones(tree.n_nodes, dtype=bool), hz.support_mask())
        try:
            stop_nodes = [_enumerate_stop_nodes(tree, m, DEFAULT_ENUM_CAP) for m in masks]
        except EnumerationCapError:
            continue
        reward = AdaptedProcess(tree, rng.uniform(0.0, 3.0, tree.n_nodes))
        w = tree.node_probs("Q")[tree.leaves]
        for mask, mat in zip(masks, stop_nodes):
            val, tau = snell_envelope(reward, "Q", mask)
            bf = float(np.max(reward.values[mat] @ w))
            worst = _worst(worst, abs(val.values[0] - bf),
                           abs(evaluate_stopping(reward, tau, "Q") - val.values[0]))
        count += 1
    return SuiteResult("oracle-equivalence", worst <= tol, worst, tol, 0.0,
                       {"instances": count})


SUITE_FUNCTIONS = {
    "projections-identities": suite_projections_identities,
    "martingale-transforms": suite_martingale_transforms,
    "measure-change": suite_measure_change,
    "european-duality": suite_european_duality,
    "dirac-convergence": suite_dirac_convergence,
    "rbsde-vs-optstop": suite_rbsde_vs_optstop,
    "american-upper": suite_american_upper,
    "game-duality": suite_game_duality,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suites(sc: Scenario) -> RunReport:
    """Execute the selected suites in declaration order."""
    results = []
    for name in sc.suites:
        t0 = time.perf_counter()
        try:
            res = SUITE_FUNCTIONS[name](sc)
        except Exception as e:  # identity errors inside ops count as failures
            res = SuiteResult(name, False, np.inf, sc.tolerances["identity"], 0.0,
                              {"error": f"{type(e).__name__}: {e}"})
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return RunReport(sc.name, results)
