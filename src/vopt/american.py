"""Reduced pricing of vulnerable American options.

Reflected backward solves with the promised payoff as lower obstacle, the
penalized upper/lower schemes whose limits are the Snell envelope of zeta^u
and a constrained zero-sum stopping game, and exhaustive enumeration oracles
for both.  zeta^u, the game and its oracle read :func:`game_problems`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError, HazardError, TreeError
from .filtration import (DEFAULT_ENUM_CAP, AdaptedProcess, StoppingProblem, StoppingTime,
                         _enumerate_stop_nodes, backward, forward, node_values, shared_tree,
                         snell_envelope)
from .european import (EuroSolveReport, PayoffSpec, ReducedHazard, _implicit_step,
                       european_upper_problem)


@dataclass
class ReflectedSolveReport:
    """Solution of a reflected backward solve: value, reflection increments,
    and the complementarity residuals (value - obstacle) * dK."""

    value: AdaptedProcess
    K_increments: np.ndarray = field(repr=False)
    skorokhod_residuals: np.ndarray = field(repr=False)

    def max_skorokhod_residual(self) -> float:
        return float(np.max(np.abs(self.skorokhod_residuals)))


@dataclass
class GameValueReport:
    value: AdaptedProcess
    sigma_star: StoppingTime            # maximizer, unconstrained
    tau_star: StoppingTime              # minimizer, support-constrained


# --------------------------------------------------------------------------
# Reflected solves
# --------------------------------------------------------------------------

def reflected_gbsde_solve(generator: str, coeff, payoff: PayoffSpec,
                          hz: ReducedHazard) -> ReflectedSolveReport:
    """Backward reflected solve: implicit generator step, then reflection.

    ``generator`` is one of 'linear', 'penalty_up', 'penalty_down' with
    scalar-or-process coefficient ``coeff`` (lambda or the penalty level).
    The obstacle is the promised payoff P; terminal value is P_T.  The
    reflection increment dK = value - unreflected-step is nonnegative by
    construction and charges only nodes where the value sits on the
    obstacle, which is re-verified and reported as residuals.
    """
    tree = shared_tree(payoff, hz)
    obs = payoff.P.values
    coeff_v = node_values(tree, coeff, "coefficient")
    if generator == "linear" and np.any(coeff_v <= 0.0):
        raise ValueError("lambda must be strictly positive")

    dk = np.zeros(tree.n_nodes)

    def step(sl, e):
        y = _implicit_step(generator, e, payoff.R.values[sl], coeff_v[sl] * hz.delta[sl])
        val = np.maximum(obs[sl], y)
        dk[sl] = val - y
        return val

    v = backward(tree, payoff.P.values, step)
    resid = (v - obs) * dk
    return ReflectedSolveReport(AdaptedProcess(tree, v), dk, resid)


def penalized_american_upper(n: float, payoff: PayoffSpec, hz: ReducedHazard
                             ) -> ReflectedSolveReport:
    """Reflected solve with generator n (R - y)^+ above the obstacle P."""
    return reflected_gbsde_solve("penalty_up", n, payoff, hz)


def penalized_american_lower(n: float, payoff: PayoffSpec, hz: ReducedHazard
                             ) -> ReflectedSolveReport:
    """Reflected solve with generator -n (y - R)^+ above the obstacle P."""
    return reflected_gbsde_solve("penalty_down", n, payoff, hz)


# --------------------------------------------------------------------------
# Equivalence with the survival-weighted optimal stopping problem
# --------------------------------------------------------------------------

@dataclass
class RbsdeCompareReport:
    value_weighted: AdaptedProcess
    value_rbsde: AdaptedProcess
    max_diff: float
    skorokhod_residual: float


def _survival_from_delta(hz: ReducedHazard):
    """Resolvent survival account G = prod 1/(1 + delta) and its dA^o increments."""
    tree = hz.tree
    G = forward(tree, 1.0 / (1.0 + hz.delta[tree.parent]), np.multiply, 1.0)
    dAo = np.zeros(tree.n_nodes)
    dAo[1:] = G[tree.parent[1:]] - G[1:]
    return G, dAo


def rbsde_vs_weighted_optstop(payoff: PayoffSpec, hz: ReducedHazard) -> RbsdeCompareReport:
    """Two routes to the reduced American value, compared node-wise.

    (a) survival-weighted optimal stopping: Snell envelope of
    xi = P G + (R . dA^o) deflated by G; (b) the reflected solve with the
    linear unit generator.  Exact agreement is a theorem in this discrete
    model; ``max_diff`` is the largest node-wise gap, as measured, for the
    caller to hold against its tolerance.
    """
    tree = shared_tree(payoff, hz)
    G, dAo = _survival_from_delta(hz)
    if np.any(G <= 0.0):
        raise HazardError("survival account hit zero")
    # recovery is collected at the decision node of each step
    racc = forward(tree, payoff.R.values[tree.parent] * dAo, np.add, 0.0)
    xi = AdaptedProcess(tree, payoff.P.values * G + racc)
    snell, _ = snell_envelope(StoppingProblem(xi))
    weighted = (snell.values - racc) / G

    rb = reflected_gbsde_solve("linear", 1.0, payoff, hz)
    diff = float(np.max(np.abs(weighted - rb.value.values)))
    return RbsdeCompareReport(AdaptedProcess(tree, weighted), rb.value, diff,
                              rb.max_skorokhod_residual())


# --------------------------------------------------------------------------
# Limit problems: the game's two stopping problems, zeta^u and the game
# --------------------------------------------------------------------------

def game_problems(payoff: PayoffSpec, hz: ReducedHazard
                  ) -> tuple[StoppingProblem, StoppingProblem]:
    """(maximizer, minimizer) of the constrained Dynkin game.  The maximizer
    is paid P and may stop anywhere.  The minimizer pays P v R, P at the
    horizon, and may stop where :func:`european_upper_problem` may: only on
    the hazard's right support."""
    european = european_upper_problem(payoff, hz)
    upper = np.maximum(payoff.P.values, european.reward.values)
    return (StoppingProblem(payoff.P),
            StoppingProblem(AdaptedProcess(payoff.tree, upper), european.allowed))


def american_upper_problem(payoff: PayoffSpec, hz: ReducedHazard) -> StoppingProblem:
    """The upper American price's problem: zeta^u, the minimizer's reward of
    :func:`game_problems` where it may stop and P elsewhere, stopped anywhere."""
    _, minimizer = game_problems(payoff, hz)
    zeta = np.where(minimizer.allowed, minimizer.reward.values, payoff.P.values)
    return StoppingProblem(AdaptedProcess(payoff.tree, zeta))


def american_upper_price(payoff: PayoffSpec, hz: ReducedHazard) -> EuroSolveReport:
    """Snell envelope of :func:`american_upper_problem`."""
    value, tau = snell_envelope(american_upper_problem(payoff, hz))
    return EuroSolveReport(value, tau_star=tau)


def constrained_dynkin_game(payoff: PayoffSpec, hz: ReducedHazard) -> GameValueReport:
    """Zero-sum stopping game of :func:`game_problems`, by backward induction:
    V_T = P_T, V = min(P v R, max(P, E)) where the minimizer may stop and
    max(P, E) elsewhere (ties settle on the minimizer).  Requires P <= R where
    the minimizer may stop before the horizon (the game's standing
    hypothesis).  Earliest optimal strategies for both players.
    """
    maximizer, minimizer = game_problems(payoff, hz)
    tree = payoff.tree
    pv, upper = maximizer.reward.values, minimizer.reward.values
    early = minimizer.allowed.copy()
    early[tree.level_slice(tree.n_periods)] = False
    bad = early & (pv > payoff.R.values)
    if bad.any():
        raise TreeError(f"P <= R violated on the hazard support at node {int(bad.argmax())}")

    sig = maximizer.allowed.copy()        # the horizon stops; the sweep sets the rest
    tau = minimizer.allowed.copy()

    def step(sl, e):
        stop_max = np.maximum(pv[sl], e)
        val = np.where(early[sl], np.minimum(upper[sl], stop_max), stop_max)
        sig[sl] = pv[sl] >= val
        tau[sl] = early[sl] & (upper[sl] <= val)
        return val

    v = backward(tree, pv, step)
    return GameValueReport(AdaptedProcess(tree, v), StoppingTime(tree, sig),
                           StoppingTime(tree, tau))


def game_payoff(payoff: PayoffSpec, hz: ReducedHazard, sigma: StoppingTime,
                tau: StoppingTime) -> float:
    """Exact E^Q[X(sigma, tau)] for the problems of :func:`game_problems`: the
    minimizer's reward at tau if tau comes no later than sigma, else the
    maximizer's at sigma."""
    tree = shared_tree(payoff, hz, sigma, tau)
    maximizer, minimizer = game_problems(payoff, hz)
    pay = np.where(tau.stop_levels() <= sigma.stop_levels(),
                   minimizer.reward.values[tau.stop_nodes_per_path()],
                   maximizer.reward.values[sigma.stop_nodes_per_path()])
    return float(np.dot(tree.node_q[tree.leaves], pay))


def brute_force_game(payoff: PayoffSpec, hz: ReducedHazard, cap: int = DEFAULT_ENUM_CAP,
                     pair_cap: int = 50_000_000) -> tuple[float, float]:
    """(inf-sup, sup-inf), exhaustive over enumerated stopping-time pairs.

    Each player ranges over the stopping times allowed by its problem of
    :func:`game_problems`.  Both orders must agree with each other and with
    the backward-induction value (checked by the caller).  The payoff of a
    pair is the minimizer's reward on paths where tau <= sigma, else the
    maximizer's; the scan keeps, per row and per column, the running
    minimum and maximum over the pairs.
    """
    maximizer, minimizer = game_problems(payoff, hz)
    tree = payoff.tree
    sig_nodes = _enumerate_stop_nodes(tree, maximizer.allowed, cap)
    tau_nodes = _enumerate_stop_nodes(tree, minimizer.allowed, cap)
    if sig_nodes.shape[0] * tau_nodes.shape[0] > pair_cap:
        raise EnumerationCapError(
            f"{sig_nodes.shape[0]} x {tau_nodes.shape[0]} stopping-time pairs "
            f"exceed the cap {pair_cap}")

    sig_lvl, tau_lvl = tree.level_of[sig_nodes], tree.level_of[tau_nodes]
    pay_tau = minimizer.reward.values[tau_nodes]
    w = tree.node_q[tree.leaves]

    row_min = np.full(sig_lvl.shape[0], np.inf)
    col_max = np.empty(tau_lvl.shape[0])
    base = maximizer.reward.values[sig_nodes] * w
    for j in range(tau_lvl.shape[0]):
        vals = np.where(tau_lvl[j] <= sig_lvl, pay_tau[j] * w, base).sum(axis=1)
        col_max[j] = vals.max()
        np.minimum(row_min, vals, out=row_min)
    return float(col_max.min()), float(row_min.max())
