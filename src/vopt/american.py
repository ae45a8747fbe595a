"""Reduced pricing of vulnerable American options.

Reflected backward solves with an implicit one-step generator and a lower
obstacle, the penalized upper/lower schemes whose limits are an optimal
stopping problem with a modified payoff and a constrained zero-sum stopping
game, and exhaustive enumeration oracles for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError, HazardError, IdentityError, TreeError
from .filtration import (DEFAULT_ENUM_CAP, AdaptedProcess, FiniteTree, StoppingTime,
                         _enumerate_stop_nodes, _vals, backward, forward, snell_envelope)
from .european import EuroSolveReport, PayoffSpec, ReducedHazard, _martingale_increments


@dataclass
class ReflectedSolveReport:
    """Solution of a reflected backward solve: value, reflection increments,
    and the complementarity residuals (value - obstacle) * dK."""

    value: AdaptedProcess
    K_increments: np.ndarray = field(repr=False)
    skorokhod_residuals: np.ndarray = field(repr=False)
    martingale_increments: np.ndarray = field(repr=False, default=None)

    def max_skorokhod_residual(self) -> float:
        return float(np.max(np.abs(self.skorokhod_residuals)))


@dataclass
class GameValueReport:
    value: AdaptedProcess
    sigma_star: StoppingTime            # maximizer, unconstrained
    tau_star: StoppingTime              # minimizer, support-constrained
    infsup: float
    supinf: float


# --------------------------------------------------------------------------
# Reflected solves
# --------------------------------------------------------------------------

def _implicit_step(kind: str, e: np.ndarray, r: np.ndarray, a: np.ndarray,
                   lam: np.ndarray | None = None) -> np.ndarray:
    """Closed-form solution of y = e + f(y) * delta for the supported generators."""
    if kind == "none":
        return e
    if kind == "linear":        # f = lam (r - y); a carries lam * delta
        return (e + a * r) / (1.0 + a)
    if kind == "penalty_up":    # f = n (r - y)^+
        return np.where(r > e, (e + a * r) / (1.0 + a), e)
    if kind == "penalty_down":  # f = -n (y - r)^+
        return np.where(r < e, (e + a * r) / (1.0 + a), e)
    raise ValueError(f"generator not solvable in one implicit step: {kind!r}")


def reflected_gbsde_solve(generator: str, coeff, payoff: PayoffSpec,
                          hz: ReducedHazard, tree: FiniteTree,
                          obstacle: AdaptedProcess | None = None
                          ) -> ReflectedSolveReport:
    """Backward reflected solve: implicit generator step, then reflection.

    ``generator`` is one of 'none', 'linear', 'penalty_up', 'penalty_down'
    with scalar-or-process coefficient ``coeff`` (lambda or the penalty
    level).  The obstacle defaults to the promised payoff P; terminal value
    is P_T.  The reflection increment dK = value - unreflected-step is
    nonnegative by construction and charges only nodes where the value sits
    on the obstacle, which is re-verified and reported as residuals.
    """
    if obstacle is None:
        obstacle = payoff.P
    obs = obstacle.values
    coeff_v = np.full(tree.n_nodes, float(coeff)) if np.isscalar(coeff) else _vals(coeff)
    if generator in ("linear",) and np.any(coeff_v <= 0.0):
        raise ValueError("lambda must be strictly positive")

    dk = np.zeros(tree.n_nodes)
    cont = np.zeros(tree.n_nodes)

    def step(sl, e):
        cont[sl] = e
        y = _implicit_step(generator, e, payoff.R.values[sl], coeff_v[sl] * hz.delta[sl])
        val = np.maximum(obs[sl], y)
        dk[sl] = val - y
        return val

    v = backward(tree, payoff.P.values, step)
    resid = (v - obs) * dk
    return ReflectedSolveReport(AdaptedProcess(tree, v), dk, resid,
                                _martingale_increments(tree, v, cont))


def penalized_american_upper(n: float, payoff: PayoffSpec, hz: ReducedHazard,
                             tree: FiniteTree) -> ReflectedSolveReport:
    """Reflected solve with generator n (R - y)^+ above the obstacle P."""
    return reflected_gbsde_solve("penalty_up", n, payoff, hz, tree)


def penalized_american_lower(n: float, payoff: PayoffSpec, hz: ReducedHazard,
                             tree: FiniteTree) -> ReflectedSolveReport:
    """Reflected solve with generator -n (y - R)^+ above the obstacle P."""
    return reflected_gbsde_solve("penalty_down", n, payoff, hz, tree)


def american_reduced_price_phi(lam, payoff: PayoffSpec, hz: ReducedHazard,
                               tree: FiniteTree) -> ReflectedSolveReport:
    """Reflected solve with the linear generator lam (R - y), obstacle P."""
    return reflected_gbsde_solve("linear", lam, payoff, hz, tree)


def phi_sweep_extrema(n: float, payoff: PayoffSpec, hz: ReducedHazard,
                      tree: FiniteTree):
    """Per-node sup and inf over lam in (0, n] of the linear reflected solve.

    The implicit step is monotone in lam with the sign of R minus the
    continuation, so the per-node argmax (argmin) is n or the vanishing-lam
    limit; the sweep therefore reproduces the penalized upper (lower) scheme
    exactly, which callers assert.
    """
    pv, rv = payoff.P.values, payoff.R.values

    def step_up(sl, e):
        r, a = rv[sl], n * hz.delta[sl]
        return np.maximum(pv[sl], np.where(r > e, (e + a * r) / (1.0 + a), e))

    def step_lo(sl, e):
        r, a = rv[sl], n * hz.delta[sl]
        return np.maximum(pv[sl], np.where(r < e, (e + a * r) / (1.0 + a), e))

    return (AdaptedProcess(tree, backward(tree, pv, step_up)),
            AdaptedProcess(tree, backward(tree, pv, step_lo)))


# --------------------------------------------------------------------------
# Equivalence with the survival-weighted optimal stopping problem
# --------------------------------------------------------------------------

@dataclass
class RbsdeCompareReport:
    value_weighted: AdaptedProcess
    value_rbsde: AdaptedProcess
    max_diff: float
    skorokhod_residual: float


def _survival_from_delta(tree: FiniteTree, hz: ReducedHazard):
    """Resolvent survival account G = prod 1/(1 + delta) and its dA^o increments."""
    G = forward(tree, 1.0 / (1.0 + hz.delta[tree.parent]), np.multiply, 1.0)
    dAo = np.zeros(tree.n_nodes)
    dAo[1:] = G[tree.parent[1:]] - G[1:]
    return G, dAo


def rbsde_vs_weighted_optstop(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree,
                              tol: float = 1e-10) -> RbsdeCompareReport:
    """Two routes to the reduced American value, compared node-wise.

    (a) survival-weighted optimal stopping: Snell envelope of
    xi = P G + (R . dA^o) deflated by G; (b) the reflected solve with the
    linear unit generator.  Exact agreement is a theorem in this discrete
    model; disagreement beyond ``tol`` raises.
    """
    G, dAo = _survival_from_delta(tree, hz)
    if np.any(G <= 0.0):
        raise HazardError("survival account hit zero")
    # recovery is collected at the decision node of each step
    racc = forward(tree, payoff.R.values[tree.parent] * dAo, np.add, 0.0)
    xi = AdaptedProcess(tree, payoff.P.values * G + racc)
    snell, _ = snell_envelope(xi, "Q")
    weighted = (snell.values - racc) / G

    rb = reflected_gbsde_solve("linear", 1.0, payoff, hz, tree)
    diff = float(np.max(np.abs(weighted - rb.value.values)))
    if diff > tol:
        raise IdentityError(f"weighted-stopping and reflected routes disagree by {diff:.3g}")
    return RbsdeCompareReport(AdaptedProcess(tree, weighted), rb.value, diff,
                              rb.max_skorokhod_residual())


# --------------------------------------------------------------------------
# Limit problems: modified-payoff Snell envelope and the constrained game
# --------------------------------------------------------------------------

def modified_payoff(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree
                    ) -> AdaptedProcess:
    """zeta^u: max(P, R on the support) before T, P at T."""
    mask = hz.support_mask()
    zeta = np.where(mask, np.maximum(payoff.P.values, payoff.R.values), payoff.P.values)
    term = tree.level_slice(tree.n_periods)
    zeta[term] = payoff.P.values[term]
    return AdaptedProcess(tree, zeta)


def american_upper_price(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree
                         ) -> EuroSolveReport:
    """Snell envelope (all stopping times) of the modified payoff zeta^u."""
    value, tau = snell_envelope(modified_payoff(payoff, hz, tree), "Q")
    return EuroSolveReport(value, np.zeros(tree.n_nodes), tau_star=tau)


def constrained_dynkin_game(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree
                            ) -> GameValueReport:
    """Zero-sum stopping game: maximizer stops anywhere for P, minimizer stops
    on the hazard support for P-or-R (ties settle on the minimizer).

    Requires P <= R on the support (the game's standing hypothesis); backward
    induction with V_T = P_T, V = min(P v R, max(P, E)) on support nodes and
    max(P, E) elsewhere.  Earliest optimal strategies for both players.
    """
    mask = hz.support_mask()
    term = tree.level_slice(tree.n_periods)
    pv, rv = payoff.P.values, payoff.R.values
    early = mask.copy()
    early[term] = False
    if np.any(pv[early] > rv[early]):
        v = int(np.flatnonzero(early & (pv > rv))[0])
        raise TreeError(f"P <= R violated on the hazard support at node {v}")

    upper = np.maximum(pv, rv)
    sig = np.zeros(tree.n_nodes, dtype=bool)
    tau = np.zeros(tree.n_nodes, dtype=bool)

    def step(sl, e):
        stop_max = np.maximum(pv[sl], e)
        val = np.where(early[sl], np.minimum(upper[sl], stop_max), stop_max)
        sig[sl] = pv[sl] >= val
        tau[sl] = early[sl] & (upper[sl] <= val)
        return val

    v = backward(tree, pv, step)
    game = GameValueReport(AdaptedProcess(tree, v),
                           StoppingTime(tree, sig | StoppingTime.horizon(tree).stop),
                           StoppingTime(tree, tau | StoppingTime.horizon(tree).stop),
                           float(v[0]), float(v[0]))
    return game


def game_payoff(payoff: PayoffSpec, tree: FiniteTree, sigma: StoppingTime,
                tau: StoppingTime, measure: str = "Q") -> float:
    """Exact E[X(sigma, tau)]: P at sigma if tau comes later, else P v R at tau
    (P at the horizon)."""
    pv, rv = payoff.P.values, payoff.R.values
    upper = np.maximum(pv, rv)
    term = tree.level_slice(tree.n_periods)
    upper[term] = pv[term]
    s_lvl = sigma.stop_levels()
    t_lvl = tau.stop_levels()
    s_node = sigma.stop_nodes_per_path()
    t_node = tau.stop_nodes_per_path()
    pay = np.where(t_lvl <= s_lvl, upper[t_node], pv[s_node])
    w = tree.node_probs(measure)[tree.leaves]
    return float(np.dot(w, pay))


def brute_force_game(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree,
                     cap: int = DEFAULT_ENUM_CAP, pair_cap: int = 50_000_000
                     ) -> GameValueReport:
    """Exhaustive inf-sup and sup-inf over enumerated stopping-time pairs.

    The maximizer ranges over all stopping times, the minimizer over
    support-valued ones.  Both orders must agree with each other and with the
    backward-induction value (checked by the caller).  The payoff of a pair
    is the minimizer's P-or-R on paths where tau <= sigma, else the
    maximizer's P at sigma; the scan keeps, per row and per column, the
    running minimum and maximum over the pairs.
    """
    all_mask = np.ones(tree.n_nodes, dtype=bool)
    sup_mask = hz.support_mask()
    sig_nodes = _enumerate_stop_nodes(tree, all_mask, cap)
    tau_nodes = _enumerate_stop_nodes(tree, sup_mask | StoppingTime.horizon(tree).stop, cap)
    if sig_nodes.shape[0] * tau_nodes.shape[0] > pair_cap:
        raise EnumerationCapError(
            f"{sig_nodes.shape[0]} x {tau_nodes.shape[0]} stopping-time pairs "
            f"exceed the cap {pair_cap}")

    lvl = tree.level_of
    pv, rv = payoff.P.values, payoff.R.values
    upper = np.maximum(pv, rv)
    upper[tree.level_slice(tree.n_periods)] = pv[tree.level_slice(tree.n_periods)]
    sig_lvl = lvl[sig_nodes].astype(np.int64)
    tau_lvl = lvl[tau_nodes].astype(np.int64)
    pay_sig = pv[sig_nodes]
    pay_tau = upper[tau_nodes]
    w = tree.node_q[tree.leaves]

    row_min = np.full(sig_lvl.shape[0], np.inf)
    col_max = np.empty(tau_lvl.shape[0])
    base = pay_sig * w
    for j in range(tau_lvl.shape[0]):
        vals = np.where(tau_lvl[j] <= sig_lvl, pay_tau[j] * w, base).sum(axis=1)
        col_max[j] = vals.max()
        np.minimum(row_min, vals, out=row_min)
    infsup = float(col_max.min())
    supinf = float(row_min.max())
    sigma = StoppingTime.from_stop_nodes(tree, np.unique(sig_nodes[int(row_min.argmax())]))
    tau = StoppingTime.from_stop_nodes(tree, np.unique(tau_nodes[int(col_max.argmin())]))
    value = AdaptedProcess.constant(tree, 0.5 * (supinf + infsup))
    return GameValueReport(value, sigma, tau, infsup, supinf)
