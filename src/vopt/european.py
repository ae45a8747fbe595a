"""Reduced (pre-default) pricing of vulnerable European options.

The hazard enters through per-step increments delta of the optional hazard
account, read at the decision node of each step.  All backward solvers use
the implicit step value = (E + a R) / (1 + a) with a = lambda * delta: it is
unconditionally stable in the penalty level and solves the linear generator
lambda (R - y) d(hazard) in closed form.  The matching "discount" is the
resolvent product 1 / prod(1 + a), so the closed-form route telescopes
exactly against the recursion.  Every solver reads its tree from its inputs
(payoff, hazard, stopping times, coefficient processes), which must all live
on the same tree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import HazardError, IdentityError, TreeError
from .filtration import (AdaptedProcess, FiniteTree, StoppingTime, backward, forward,
                         node_values, shared_tree, snell_envelope)

DELTA_BUDGET_CAP = 1e3


@dataclass
class ReducedHazard:
    """Per-step hazard increments delta_{k+1} >= 0, stored at the time-k node.

    A node at time k < N belongs to the right support iff its step carries
    hazard mass (delta > 0); the horizon always belongs to it.  The total
    per-path hazard budget is capped (boundedness assumption); inputs above
    the cap are clipped with a warning.
    """

    tree: FiniteTree
    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if d.shape != (self.tree.n_nodes,):
            raise HazardError("delta needs one value per node")
        if not np.all(np.isfinite(d)):
            raise HazardError(f"delta at node {int(np.flatnonzero(~np.isfinite(d))[0])} "
                              "is not finite")
        if np.any(d < 0.0):
            raise HazardError("delta < 0")
        totals = forward(self.tree, d[self.tree.parent], np.add, 0.0)
        if np.any(totals > DELTA_BUDGET_CAP):
            warnings.warn(f"cumulative hazard exceeds {DELTA_BUDGET_CAP:g}; clipping",
                          RuntimeWarning, stacklevel=2)
            scale = DELTA_BUDGET_CAP / float(np.max(totals))
            d = d * scale
        self.delta = d

    def support_mask(self) -> np.ndarray:
        """Nodes where stopping is enabled: delta > 0 before T, everything at T."""
        mask = self.delta > 0.0
        mask[self.tree.level_slice(self.tree.n_periods)] = True
        return mask


@dataclass
class PayoffSpec:
    """Promised payoff P and recovery R; both nonnegative and bounded."""

    P: AdaptedProcess
    R: AdaptedProcess

    def __post_init__(self):
        if self.R.tree is not self.P.tree:
            raise TreeError("payoff P and R live on different trees")
        for name, proc in (("P", self.P), ("R", self.R)):
            bad = np.flatnonzero(~(np.isfinite(proc.values) & (proc.values >= 0.0)))
            if bad.size:
                raise TreeError(f"payoff {name} at node {int(bad[0])} must be nonnegative "
                                "and bounded")

    @property
    def tree(self) -> FiniteTree:
        return self.P.tree

    def bound(self) -> float:
        return float(max(self.P.values.max(), self.R.values.max()))

    def stop_reward(self) -> np.ndarray:
        """What stopping pays: R before the horizon, P at it."""
        reward = self.R.values.copy()
        term = self.tree.level_slice(self.tree.n_periods)
        reward[term] = self.P.values[term]
        return reward


@dataclass
class EuroSolveReport:
    """Value process of a European solve; ``lambda_star`` is the per-node
    maximizing tilt of :func:`sup_over_phi` and ``tau_star`` the optimal
    stopping time of a Snell-envelope solve."""

    value: AdaptedProcess
    lambda_star: np.ndarray | None = field(repr=False, default=None)
    tau_star: StoppingTime | None = None


def _lambda_values(tree: FiniteTree, lam) -> np.ndarray:
    v = node_values(tree, lam, "lambda")
    if np.any(v <= 0.0):
        raise ValueError("lambda must be strictly positive")
    return v


def _stop_masks(sigma: StoppingTime):
    """(stops_here, anchor) for an exercise horizon: ``anchor[v]`` is the node
    whose value ``v`` carries, the first stop node above it or ``v`` itself."""
    stops = sigma.stop.copy()
    anchor = forward(sigma.tree, np.arange(sigma.tree.n_nodes),
                     lambda up, own: np.where(stops[up], up, own), 0)
    return stops, anchor


def _implicit_step(kind: str, e: np.ndarray, r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Closed-form solution y of y = e + f(y) * delta for the supported generators.

    ``a`` carries the coefficient times the step hazard (lambda * delta or
    n * delta).  'linear' (f = lambda (r - y)) is y = (e + a r) / (1 + a);
    'penalty_up' (f = n (r - y)^+) takes that value where r > e and e
    elsewhere; 'penalty_down' (f = -n (y - r)^+) takes it where r < e;
    'none' returns e.  Every backward solver of the package steps through
    here; only the closed-form oracle keeps its own arithmetic.
    """
    if kind == "none":
        return e
    if kind not in ("linear", "penalty_up", "penalty_down"):
        raise ValueError(f"generator not solvable in one implicit step: {kind!r}")
    y = (e + a * r) / (1.0 + a)
    if kind == "penalty_up":
        return np.where(r > e, y, e)
    if kind == "penalty_down":
        return np.where(r < e, y, e)
    return y


def _implicit_backward(payoff: PayoffSpec, hz: ReducedHazard, step_fn,
                       sigma: StoppingTime | None):
    """Shared backward engine: implicit one-step solve, stopped at sigma.

    ``step_fn(e, r, d, sl)`` returns the pre-exercise value at the level-k
    nodes from continuation e, recovery r and step hazard d, through
    :func:`_implicit_step`.  Returns the node values of the solve stopped
    at sigma: at and below a stop node, P at the first stop node of the path.
    """
    tree = payoff.tree
    stops, anchor = _stop_masks(sigma or StoppingTime.horizon(tree))
    pv, rv, delta = payoff.P.values, payoff.R.values, hz.delta

    def step(sl, e):
        return np.where(stops[sl], pv[sl], step_fn(e, rv[sl], delta[sl], sl))

    return backward(tree, pv, step)[anchor]


def reduced_price_linear(lam, payoff: PayoffSpec, hz: ReducedHazard,
                         sigma: StoppingTime | None = None) -> EuroSolveReport:
    """Backward solve of the linear generator lambda (R - y) against the hazard.

    One step: V_k = (E + a R_k) / (1 + a), a = lambda_k delta_{k+1}; terminal
    value P; exercise horizon sigma (default T) freezes the solution at P.
    """
    tree = shared_tree(payoff, hz, sigma)
    lam_v = _lambda_values(tree, lam)

    def step(e, r, d, sl):
        return _implicit_step("linear", e, r, lam_v[sl] * d)

    return EuroSolveReport(AdaptedProcess(tree, _implicit_backward(payoff, hz, step, sigma)))


def reduced_price_closed_form(lam, payoff: PayoffSpec, hz: ReducedHazard,
                              sigma: StoppingTime | None = None) -> EuroSolveReport:
    """Direct expectation route: the payoff at the first stop of ``sigma``
    discounted by the resolvent product, plus the recovery leg collected step
    by step, summed over the paths below each node.

    One sweep over the columns of ``tree.path_nodes()`` from the leaves up.
    Each leaf path carries its pathwise value from level k: recovery
    a_k / (1 + a_k) R_k now plus 1 / (1 + a_k) times what the path holds at
    k+1 (P there if ``sigma`` stops there, else its value from k+1); and its
    Q-weight below level k.  One ``bincount`` puts the weighted sum on the
    level-k nodes.  No conditional expectation is formed, so the route is
    independent of the backward recursion; it must agree with
    ``reduced_price_linear`` node-wise to 1e-12, which is asserted.
    """
    tree = shared_tree(payoff, hz, sigma)
    lam_v = _lambda_values(tree, lam)
    stops, anchor = _stop_masks(sigma or StoppingTime.horizon(tree))
    paths = tree.path_nodes()
    n = tree.n_periods
    pv, rv = payoff.P.values, payoff.R.values

    a = lam_v * hz.delta                       # a_{k+1} read at the time-k node
    v = pv.copy()
    held = pv[paths[:, n]]                     # pathwise value from the level below
    weight = np.ones(paths.shape[0])           # Q-weight of the path below the level
    for k in range(n - 1, -1, -1):
        below, here = paths[:, k + 1], paths[:, k]
        held = np.where(stops[below], pv[below], held)
        weight *= tree.q_edge[below]
        ak = a[here]
        held = ak / (1.0 + ak) * rv[here] + held / (1.0 + ak)
        start = int(tree.level_start[k])
        sums = np.bincount(here - start, weight * held, minlength=tree.level_size(k))
        sl = tree.level_slice(k)
        v[sl] = np.where(stops[sl], pv[sl], sums)
    v = v[anchor]

    lin = reduced_price_linear(lam, payoff, hz, sigma)
    err = float(np.max(np.abs(lin.value.values - v)))
    if err > 1e-12:
        raise IdentityError(f"closed-form and recursion routes disagree by {err:.3g}")
    return EuroSolveReport(AdaptedProcess(tree, v))


def penalized_european(n: float, payoff: PayoffSpec, hz: ReducedHazard
                       ) -> EuroSolveReport:
    """Implicit step for the one-sided penalty generator n (R - y)^+."""
    tree = shared_tree(payoff, hz)
    if n < 0:
        raise ValueError("penalty level must be nonnegative")

    def step(e, r, d, sl):
        return _implicit_step("penalty_up", e, r, n * d)

    return EuroSolveReport(AdaptedProcess(tree, _implicit_backward(payoff, hz, step, None)))


def constrained_snell(payoff: PayoffSpec, hz: ReducedHazard) -> EuroSolveReport:
    """Optimal stopping constrained to the hazard's right support.

    Reward: recovery R before the horizon, promised payoff P at the horizon;
    stopping allowed only on the support mask.  Returns the value and the
    earliest optimal constrained stopping time.
    """
    tree = shared_tree(payoff, hz)
    reward = AdaptedProcess(tree, payoff.stop_reward())
    value, tau = snell_envelope(reward, "Q", hz.support_mask())
    return EuroSolveReport(value, tau_star=tau)


def sup_over_phi(n: float, payoff: PayoffSpec, hz: ReducedHazard) -> EuroSolveReport:
    """Per-node supremum of the linear solve over tilts lambda in (0, n].

    The linear step (e + a r) / (1 + a), a = lambda delta, is monotone in
    lambda, so its supremum sits at an end of the range: the step at
    lambda = n, or its lambda -> 0 limit, the continuation e.  Each node
    takes the larger, and ``lambda_star`` records the end that wins (n, or 0
    for the limit).  The result is built from the linear step alone, yet
    must equal the penalized scheme at level n node for node, which makes
    it an independent check of the penalty branch.
    """
    tree = shared_tree(payoff, hz)
    lam_star = np.zeros(tree.n_nodes)

    def step(e, r, d, sl):
        y = _implicit_step("linear", e, r, n * d)
        lam_star[sl] = np.where(y > e, n, 0.0)
        return np.maximum(y, e)

    v = _implicit_backward(payoff, hz, step, None)
    return EuroSolveReport(AdaptedProcess(tree, v), lambda_star=lam_star)


@dataclass
class DiracTable:
    """Convergence of the exponential-kernel recovery leg to a point mass;
    ``rate_excess`` is the most any gap exceeds its bound B / (1 + n delta)."""

    levels: list[int]
    gaps: list[float]
    rate_excess: float

    def to_trace(self) -> dict:
        return {"param": "n", "values": list(self.levels), "gaps": list(self.gaps)}


def dirac_convergence_check(payoff: PayoffSpec, hz: ReducedHazard, nu: StoppingTime,
                            levels=None) -> DiracTable:
    """Scaled-hazard limit: the discounted payoff started at nu collapses to
    the reward at nu as the hazard is inflated.

    For each penalty level n the reduced price with lambda = n is evaluated
    exactly by the linear recursion (``reduced_price_linear``) and compared
    at the stop nodes of nu with P_nu 1{nu = T} + R_nu 1{nu < T}.  One
    implicit step gives V^n_nu - R_nu = (E - R_nu) / (1 + n delta_nu) with E
    and R_nu in [0, B], B = ``payoff.bound()``, so every gap is at most
    B / (1 + n delta_nu) at its node.  The gap need not shrink monotonically:
    E moves with n and can cross R_nu, flipping the sign of the gap.
    """
    shared_tree(payoff, hz, nu)
    mask = hz.support_mask()
    stop_nodes = np.unique(nu.stop_nodes_per_path())
    if not np.all(mask[stop_nodes]):
        raise ValueError("nu stops outside the hazard support")
    if levels is None:
        levels = [2 ** k for k in range(15)]
    target = payoff.stop_reward()[stop_nodes]
    bound, d = payoff.bound(), hz.delta[stop_nodes]

    gaps = []
    excess = np.full(stop_nodes.size, -np.inf)
    for n in levels:
        rep = reduced_price_linear(float(n), payoff, hz)
        gap = np.abs(rep.value.values[stop_nodes] - target)
        gaps.append(float(np.max(gap)))
        excess = np.maximum(excess, gap - bound / (1.0 + n * d))
    return DiracTable(list(levels), gaps, float(np.max(excess)))
