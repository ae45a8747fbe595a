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
from .filtration import (DEFAULT_ENUM_CAP, AdaptedProcess, StoppingTime,
                         _enumerate_stop_nodes, backward, forward, node_values, shared_tree,
                         snell_envelope)
from .european import EuroSolveReport, PayoffSpec, ReducedHazard, _implicit_step


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
    infsup: float
    supinf: float


# --------------------------------------------------------------------------
# Reflected solves
# --------------------------------------------------------------------------

def reflected_gbsde_solve(generator: str, coeff, payoff: PayoffSpec,
                          hz: ReducedHazard, obstacle: AdaptedProcess | None = None
                          ) -> ReflectedSolveReport:
    """Backward reflected solve: implicit generator step, then reflection.

    ``generator`` is one of 'none', 'linear', 'penalty_up', 'penalty_down'
    with scalar-or-process coefficient ``coeff`` (lambda or the penalty
    level).  The obstacle defaults to the promised payoff P; terminal value
    is P_T.  The reflection increment dK = value - unreflected-step is
    nonnegative by construction and charges only nodes where the value sits
    on the obstacle, which is re-verified and reported as residuals.
    """
    tree = shared_tree(payoff, hz, obstacle)
    if obstacle is None:
        obstacle = payoff.P
    obs = obstacle.values
    coeff_v = node_values(tree, coeff, "coefficient")
    if generator in ("linear",) and np.any(coeff_v <= 0.0):
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


def rbsde_vs_weighted_optstop(payoff: PayoffSpec, hz: ReducedHazard,
                              tol: float = 1e-10) -> RbsdeCompareReport:
    """Two routes to the reduced American value, compared node-wise.

    (a) survival-weighted optimal stopping: Snell envelope of
    xi = P G + (R . dA^o) deflated by G; (b) the reflected solve with the
    linear unit generator.  Exact agreement is a theorem in this discrete
    model; disagreement beyond ``tol`` raises.
    """
    tree = shared_tree(payoff, hz)
    G, dAo = _survival_from_delta(hz)
    if np.any(G <= 0.0):
        raise HazardError("survival account hit zero")
    # recovery is collected at the decision node of each step
    racc = forward(tree, payoff.R.values[tree.parent] * dAo, np.add, 0.0)
    xi = AdaptedProcess(tree, payoff.P.values * G + racc)
    snell, _ = snell_envelope(xi)
    weighted = (snell.values - racc) / G

    rb = reflected_gbsde_solve("linear", 1.0, payoff, hz)
    diff = float(np.max(np.abs(weighted - rb.value.values)))
    if diff > tol:
        raise IdentityError(f"weighted-stopping and reflected routes disagree by {diff:.3g}")
    return RbsdeCompareReport(AdaptedProcess(tree, weighted), rb.value, diff,
                              rb.max_skorokhod_residual())


# --------------------------------------------------------------------------
# Limit problems: modified-payoff Snell envelope and the constrained game
# --------------------------------------------------------------------------

def modified_payoff(payoff: PayoffSpec, hz: ReducedHazard) -> AdaptedProcess:
    """zeta^u: max(P, R on the support) before T, P at T."""
    tree = shared_tree(payoff, hz)
    mask = hz.support_mask()
    zeta = np.where(mask, np.maximum(payoff.P.values, payoff.R.values), payoff.P.values)
    term = tree.level_slice(tree.n_periods)
    zeta[term] = payoff.P.values[term]
    return AdaptedProcess(tree, zeta)


def american_upper_price(payoff: PayoffSpec, hz: ReducedHazard) -> EuroSolveReport:
    """Snell envelope (all stopping times) of the modified payoff zeta^u."""
    value, tau = snell_envelope(modified_payoff(payoff, hz))
    return EuroSolveReport(value, tau_star=tau)


def constrained_dynkin_game(payoff: PayoffSpec, hz: ReducedHazard) -> GameValueReport:
    """Zero-sum stopping game: maximizer stops anywhere for P, minimizer stops
    on the hazard support for P-or-R (ties settle on the minimizer).

    Requires P <= R on the support (the game's standing hypothesis); backward
    induction with V_T = P_T, V = min(P v R, max(P, E)) on support nodes and
    max(P, E) elsewhere.  Earliest optimal strategies for both players.
    """
    tree = shared_tree(payoff, hz)
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
    return GameValueReport(AdaptedProcess(tree, v),
                           StoppingTime(tree, sig | StoppingTime.horizon(tree).stop),
                           StoppingTime(tree, tau | StoppingTime.horizon(tree).stop),
                           float(v[0]), float(v[0]))


def game_payoff(payoff: PayoffSpec, sigma: StoppingTime, tau: StoppingTime) -> float:
    """Exact E^Q[X(sigma, tau)]: P at sigma if tau comes later, else P v R at
    tau (P at the horizon)."""
    tree = shared_tree(payoff, sigma, tau)
    pv, rv = payoff.P.values, payoff.R.values
    upper = np.maximum(pv, rv)
    term = tree.level_slice(tree.n_periods)
    upper[term] = pv[term]
    s_lvl = sigma.stop_levels()
    t_lvl = tau.stop_levels()
    s_node = sigma.stop_nodes_per_path()
    t_node = tau.stop_nodes_per_path()
    pay = np.where(t_lvl <= s_lvl, upper[t_node], pv[s_node])
    return float(np.dot(tree.node_q[tree.leaves], pay))


def brute_force_game(payoff: PayoffSpec, hz: ReducedHazard, cap: int = DEFAULT_ENUM_CAP,
                     pair_cap: int = 50_000_000) -> GameValueReport:
    """Exhaustive inf-sup and sup-inf over enumerated stopping-time pairs.

    The maximizer ranges over all stopping times, the minimizer over
    support-valued ones.  Both orders must agree with each other and with the
    backward-induction value (checked by the caller).  The payoff of a pair
    is the minimizer's P-or-R on paths where tau <= sigma, else the
    maximizer's P at sigma; the scan keeps, per row and per column, the
    running minimum and maximum over the pairs.
    """
    tree = shared_tree(payoff, hz)
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
