"""Verification suites: identity checks, duality sweeps, oracle comparisons.

Each suite runs on the scenario instance (plus the optional randomized family
for the batch identity checks) and returns its worst residual against the
scenario tolerances.  The routes under check return what they measured (a
table, a value process, a residual) and never judge it: each suite holds
every residual it measures against the scenario's tolerance itself, so a
failed check reports its gap, not an error.  Suites run one after another in
declaration order, and the report leaves timings out, so it is byte-stable
across runs.  A NaN or infinite residual fails its suite.

``measure-change`` draws the ``phi.count`` random controls of each instance
as one stack (``random_phi(..., count=)``, in the generator order of single
draws) and checks them together: one density build, one set of survival
tables under the K tilted measures and one pass of each rule, each row
bitwise what its control gives alone.  The martingale residuals and
E[eta | F] behind those checks are the per-atom Bayes sums of
``ExtendedSpace``, the independent route the stacked arithmetic is checked
against; they run once per block of controls, and so do the three indicator
projections and the two key-lemma expectations of ``projections-identities``
and the two transform residuals of ``martingale-transforms``.

The stopping suites check each price bound on its one ``StoppingProblem``.
``european-duality`` and ``american-upper`` run the enumeration leg,
``brute_force_snell_root`` (reported as skipped past the cap), on
``european_upper_problem`` and ``american_upper_problem``; ``game-duality``
runs ``brute_force_game`` and ``game_payoff`` on ``game_problems``; and
``oracle-equivalence`` runs ``snell_envelope``, ``brute_force_snell_root``
and ``evaluate_stopping`` on random rewards.  No oracle calls a fast solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .american import (american_upper_problem, brute_force_game, game_payoff,
                       penalized_american_lower, penalized_american_upper,
                       rbsde_vs_weighted_optstop)
from .errors import EnumerationCapError, TreeError
from .european import (dirac_convergence_check, european_upper_problem, penalized_european,
                       reduced_price_closed_form, reduced_price_linear, sup_over_phi)
from .filtration import (AdaptedProcess, StoppingProblem, StoppingTime, backward,
                         brute_force_snell_root, count_stopping_times, evaluate_stopping,
                         snell_envelope)
from .instances import random_delta_hazard, random_payoff, random_phi, random_tree
from .measure_change import (G_under_phi, compensated_default_residual, density_eta,
                             hazard_under_phi, phi_pr_from_marks)
from .random_time import (BUNDLE_COLUMNS, cox_closed_form, jeulin_yor_transform,
                          key_lemma, pre_default_transform, verify_lemma21)
from .reports import convergence_trace
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


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """Same-shaped arrays on a leading stack axis; one array is not copied."""
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _family_instances(sc: Scenario):
    """(tree, projection bundle) of the scenario instance first, then of the
    seeded random family; both are built once a run and shared."""
    yield sc.tree, sc.bundle
    yield from sc.family_bundles


def suite_projections_identities(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    # the scenario's atom route against the closed form that bundle.csv is
    # written from: a third route, independent of projections and f_condexp.
    # The suite builds its own copy, freed on return, rather than reading
    # sc.cox_form: kept alive through the later suites, that copy raised the
    # `extension` peak RSS by about 0.1 MB.
    form, own = cox_closed_form(sc.tree, sc.hazard_h), sc.bundle
    worst = _worst(*(float(np.max(np.abs(getattr(own, name).values - getattr(form, name))))
                     for name in BUNDLE_COLUMNS))
    count = 0
    rng = np.random.default_rng(sc.phi_seed)
    for tree, bundle in _family_instances(sc):
        rep = verify_lemma21(bundle)
        # the mass-table G, G~ and dA^o against the direct per-atom Bayes sums
        ext = bundle.ext
        theta, ks = ext.theta[:, None], np.arange(tree.n_periods + 1)
        events = (np.greater, np.greater_equal, np.equal)    # theta > k, >= k, == k
        direct = ext.by_blocks(3, lambda b: ext.f_condexp(
            _stack([event(theta, ks) for event in events[b]])))
        worst = _worst(worst, rep.max_residual, *(
            float(np.max(np.abs(got - proj.values)))
            for got, proj in zip(direct, (bundle.G, bundle.Gtilde, bundle.dAo))))
        # the key lemma of an adapted X and of the predictable X read at the
        # parent, against the direct E[X_theta | G_t] of each
        x = rng.uniform(0.0, 3.0, tree.n_nodes)
        xp = np.empty(tree.n_nodes)
        xp[0] = x[0]
        xp[1:] = x[tree.parent[1:]]
        lemmas = ((x, "optional"), (xp, "predictable"))
        at_theta = ext.by_blocks(2, lambda b: ext.g_condexp(_stack([
            np.broadcast_to(v[ext.default_node][:, None], ext.node_at.shape)
            for v, _ in lemmas[b]])))
        worst = _worst(worst, *(
            float(np.max(np.abs(key_lemma(bundle, AdaptedProcess(tree, v), variant) - want)))
            for (v, variant), want in zip(lemmas, at_theta)))
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
        transforms = (jeulin_yor_transform, pre_default_transform)
        worst = _worst(worst, *ext.by_blocks(2, lambda b: ext.g_martingale_residual(
            _stack([transform(bundle, M) for transform in transforms[b]]))))
        count += 1
    return SuiteResult("martingale-transforms", worst <= tol, worst, tol, 0.0,
                       {"instances": count})


def _qphi_residuals(bundle, phi) -> np.ndarray:
    """The four Q^phi residuals of every control in the stack ``phi``, one
    column per control: its densities, and the survival tables rebuilt under
    them, are built once and shared by the three checks."""
    dens = density_eta(phi, bundle)
    hz_rep = hazard_under_phi(dens)
    g_rep = G_under_phi(dens)
    return np.array([hz_rep.two_route_residual, hz_rep.dual_projection_residual,
                     g_rep.two_route_residual, compensated_default_residual(dens)])


def suite_measure_change(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["identity"]
    rng = np.random.default_rng(sc.phi_seed + 2)
    worst = 0.0
    details: dict = {"controls": 0}
    for tree, bundle in _family_instances(sc):
        phi = random_phi(rng, bundle, with_pr=False, count=sc.phi_count)
        worst = _worst(worst, *_qphi_residuals(bundle, phi).ravel())
        details["controls"] += sc.phi_count
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


def _enumeration_leg(problem: StoppingProblem, root_value: float) -> tuple[float, dict]:
    """|enumerated root value - ``root_value``| of a stopping problem, and the
    details of an enumeration skipped at the cap (a zero gap then)."""
    try:
        return abs(brute_force_snell_root(problem) - root_value), {}
    except EnumerationCapError as e:
        return 0.0, {"enumeration": f"skipped: {e}"}


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
    lam = AdaptedProcess(tree, 1.0 + 0.5 * np.sin(np.arange(tree.n_nodes)))  # fixed tilt
    closed_gap = float(np.max(np.abs(reduced_price_closed_form(lam, payoff, hz).value.values
                                     - reduced_price_linear(lam, payoff, hz).value.values)))
    oracle_gap, skipped = _enumeration_leg(european_upper_problem(payoff, hz),
                                           snell.value.values[0])
    worst = _worst(worst, closed_gap, oracle_gap)
    passed = worst <= tol and mono_ok and _worst(closed_gap, oracle_gap) <= tol_id
    return SuiteResult("european-duality", passed, worst, tol, 0.0,
                       {"monotone": mono_ok, "gap_trace": gaps,
                        "ladder": list(sc.penalty_ladder),
                        "closed_form_gap": closed_gap, "enumeration_gap": oracle_gap,
                        **skipped})


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
                       {"rate_excess": table.rate_excess,
                        "trace": convergence_trace("n", table.levels, table.gaps)})


def suite_rbsde_vs_optstop(sc: Scenario) -> SuiteResult:
    tol = sc.tolerances["rbsde"]
    tol_id = sc.tolerances["identity"]
    rng = np.random.default_rng(sc.phi_seed + 3)
    rep = rbsde_vs_weighted_optstop(sc.payoff, sc.hazard_delta)
    worst, sk = rep.max_diff, rep.skorokhod_residual
    count = 1
    if sc.family:
        for _ in range(sc.family["instances"]):
            tree = random_tree(rng, sc.family["max_periods"], sc.family["max_branching"])
            rep = rbsde_vs_weighted_optstop(random_payoff(rng, tree),
                                            random_delta_hazard(rng, tree))
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
    oracle_gap, skipped = _enumeration_leg(american_upper_problem(payoff, hz),
                                           target.value.values[0])
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
        infsup, supinf = brute_force_game(payoff, hz)
        worst_exact = _worst(abs(infsup - supinf), abs(infsup - game.value.values[0]))
        achieved = game_payoff(payoff, hz, game.sigma_star, game.tau_star)
        worst_exact = _worst(worst_exact, abs(achieved - game.value.values[0]))
        details.update({"infsup": infsup, "supinf": supinf,
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
        # a reward is drawn only for a tree whose enumeration fits the cap;
        # stopping anywhere counts the most stopping times
        try:
            count_stopping_times(tree)
        except EnumerationCapError:
            continue
        reward = AdaptedProcess(tree, rng.uniform(0.0, 3.0, tree.n_nodes))
        for mask in (None, hz.support_mask()):
            problem = StoppingProblem(reward, mask)
            val, tau = snell_envelope(problem)
            root = val.values[0]
            worst = _worst(worst, abs(root - brute_force_snell_root(problem)),
                           abs(evaluate_stopping(reward, tau) - root))
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
