"""Reduced (pre-default) pricing of vulnerable European options.

The hazard enters through per-step increments delta of the optional hazard
account, read at the decision node of each step.  All backward solvers use
the implicit step value = (E + a R) / (1 + a) with a = lambda * delta: it is
unconditionally stable in the penalty level and solves the linear generator
lambda (R - y) d(hazard) in closed form.  The matching "discount" is the
resolvent product 1 / prod(1 + a), so the closed-form route telescopes
exactly against the recursion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import HazardError, IdentityError, TreeError
from .filtration import (AdaptedProcess, FiniteTree, StoppingTime, _vals, backward,
                         forward, snell_envelope)

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

    @classmethod
    def constant(cls, tree: FiniteTree, delta: float) -> "ReducedHazard":
        return cls(tree, np.full(tree.n_nodes, float(delta)))

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


@dataclass
class EuroSolveReport:
    """Value process plus the martingale integrand of the backward solve."""

    value: AdaptedProcess
    martingale_increments: np.ndarray = field(repr=False)
    trace: dict | None = None
    lambda_star: np.ndarray | None = field(repr=False, default=None)
    tau_star: StoppingTime | None = None


def _lambda_values(tree: FiniteTree, lam) -> np.ndarray:
    v = np.full(tree.n_nodes, float(lam)) if np.isscalar(lam) else _vals(lam).copy()
    if v.shape != (tree.n_nodes,):
        raise TreeError("lambda needs one value per node (or a scalar)")
    if np.any(v <= 0.0):
        raise ValueError("lambda must be strictly positive")
    return v


def _stop_masks(tree: FiniteTree, sigma: StoppingTime | None):
    """(stops_here, anchor) for an exercise horizon: ``anchor[v]`` is the node
    whose value ``v`` carries, the first stop node above it or ``v`` itself."""
    if sigma is None:
        sigma = StoppingTime.horizon(tree)
    stops = sigma.stop.copy()
    anchor = forward(tree, np.arange(tree.n_nodes),
                     lambda up, own: np.where(stops[up], up, own), 0)
    return stops, anchor


def _martingale_increments(tree: FiniteTree, value: np.ndarray, cont: np.ndarray
                           ) -> np.ndarray:
    """value - E[value | parent]: the martingale integrand of a backward solve."""
    zinc = np.zeros(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    zinc[sl] = value[sl] - cont[tree.parent[sl]]
    return zinc


def _implicit_backward(tree: FiniteTree, payoff: PayoffSpec, delta: np.ndarray,
                       step_fn, sigma: StoppingTime | None):
    """Shared backward engine: implicit one-step solve, stopped at sigma.

    ``step_fn(e, r, d, sl)`` returns the pre-exercise value at the level-k
    nodes from continuation e, recovery r and step hazard d.  Returns the
    sigma-stopped value process and per-node martingale increments.
    """
    stops, anchor = _stop_masks(tree, sigma)
    pv, rv = payoff.P.values, payoff.R.values
    cont = np.zeros(tree.n_nodes)

    def step(sl, e):
        cont[sl] = e
        return np.where(stops[sl], pv[sl], step_fn(e, rv[sl], delta[sl], sl))

    v = backward(tree, pv, step)
    zinc = _martingale_increments(tree, v, cont)
    zinc[anchor != np.arange(tree.n_nodes)] = 0.0
    return v[anchor], zinc


def reduced_price_linear(lam, payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree,
                         sigma: StoppingTime | None = None) -> EuroSolveReport:
    """Backward solve of the linear generator lambda (R - y) against the hazard.

    One step: V_k = (E + a R_k) / (1 + a), a = lambda_k delta_{k+1}; terminal
    value P; exercise horizon sigma (default T) freezes the solution at P.
    """
    lam_v = _lambda_values(tree, lam)
    if np.any(hz.delta < 0.0):
        raise HazardError("delta < 0")

    def step(e, r, d, sl):
        a = lam_v[sl] * d
        return (e + a * r) / (1.0 + a)

    v, z = _implicit_backward(tree, payoff, hz.delta, step, sigma)
    return EuroSolveReport(AdaptedProcess(tree, v), z)


def reduced_price_closed_form(lam, payoff: PayoffSpec, hz: ReducedHazard,
                              tree: FiniteTree, sigma: StoppingTime | None = None,
                              check_against_linear: bool = True) -> EuroSolveReport:
    """Direct expectation route: terminal payoff discounted by the resolvent
    product plus the recovery leg collected step by step.

    Computed by exact summation over every path, each path's sum ending at
    the first stop node of ``sigma`` below the node valued (independently of
    the backward recursion); must agree with ``reduced_price_linear`` node-wise
    to 1e-12, which is asserted unless disabled.
    """
    lam_v = _lambda_values(tree, lam)
    stops, anchor = _stop_masks(tree, sigma)
    paths = tree.path_nodes()
    n = tree.n_periods

    a = lam_v * hz.delta                       # a_{k+1} read at the time-k node
    v = np.empty(tree.n_nodes)
    v[tree.level_slice(n)] = payoff.P.values[tree.level_slice(n)]
    edge_q = tree.q_edge
    # cut[row, k]: the first level below k where sigma stops on the path (<= n)
    cut = np.full((paths.shape[0], n + 1), n)
    for k in range(n - 2, -1, -1):
        cut[:, k] = np.where(stops[paths[:, k + 1]], k + 1, cut[:, k + 1])

    # suffix products along each path, assembled per level from the leaves up
    for k in range(n - 1, -1, -1):
        cut_k = cut[:, k].tolist()
        sl = tree.level_slice(k)
        nodes = tree.level_nodes(k)
        vals = np.zeros(tree.level_size(k))
        # exact sum over sub-paths: enumerate leaf segments below each node
        seg = paths[:, k]
        order = np.argsort(seg, kind="stable")
        seg_sorted = seg[order]
        bounds = np.searchsorted(seg_sorted, nodes)
        bounds = np.append(bounds, seg.size)
        for i, u in enumerate(nodes):
            rows = order[bounds[i]:bounds[i + 1]]
            acc = 0.0
            for row in rows:
                w_path = 1.0
                for j in range(k, n):
                    w_path *= edge_q[paths[row, j + 1]]
                c = cut_k[row]
                disc = 1.0
                contrib = 0.0
                for j in range(k, c):
                    here = paths[row, j]
                    aa = a[here]
                    contrib += disc * (aa / (1.0 + aa)) * payoff.R.values[here]
                    disc /= (1.0 + aa)
                contrib += disc * payoff.P.values[paths[row, c]]
                acc += w_path * contrib
            vals[i] = acc
        v[sl] = np.where(stops[sl], payoff.P.values[sl], vals)
    v = v[anchor]

    report = EuroSolveReport(AdaptedProcess(tree, v), np.zeros(tree.n_nodes))
    if check_against_linear:
        lin = reduced_price_linear(lam, payoff, hz, tree, sigma)
        err = float(np.max(np.abs(lin.value.values - v)))
        if err > 1e-12:
            raise IdentityError(f"closed-form and recursion routes disagree by {err:.3g}")
        report.martingale_increments = lin.martingale_increments
    return report


def penalized_european(n: float, payoff: PayoffSpec, hz: ReducedHazard,
                       tree: FiniteTree, sigma: StoppingTime | None = None
                       ) -> EuroSolveReport:
    """Implicit step for the one-sided penalty generator n (R - y)^+."""
    if n < 0:
        raise ValueError("penalty level must be nonnegative")

    def step(e, r, d, sl):
        a = n * d
        return np.where(r > e, (e + a * r) / (1.0 + a), e)

    v, z = _implicit_backward(tree, payoff, hz.delta, step, sigma)
    return EuroSolveReport(AdaptedProcess(tree, v), z)


def constrained_snell(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree
                      ) -> EuroSolveReport:
    """Optimal stopping constrained to the hazard's right support.

    Reward: recovery R before the horizon, promised payoff P at the horizon;
    stopping allowed only on the support mask.  Returns the value and the
    earliest optimal constrained stopping time.
    """
    reward = payoff.R.values.copy()
    term = tree.level_slice(tree.n_periods)
    reward[term] = payoff.P.values[term]
    value, tau = snell_envelope(AdaptedProcess(tree, reward), "Q", hz.support_mask())
    return EuroSolveReport(value, np.zeros(tree.n_nodes), tau_star=tau)


def sup_over_phi(n: float, payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree,
                 mode: str = "closed_form", grid_points: int = 64) -> EuroSolveReport:
    """Per-node supremum of the linear solve over tilts lambda in (0, n].

    closed_form uses the per-node maximizer (the step is monotone in lambda
    with the sign of R - E, so the argmax is n when R exceeds the
    continuation and the infimal-lambda limit otherwise); grid scans a
    geometric lambda grid.  The closed form coincides with the penalized
    scheme at level n, node for node.
    """
    if mode not in ("closed_form", "grid"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "grid":
        lams = np.geomspace(2.0 ** -6, n, grid_points)
    lam_star = np.zeros(tree.n_nodes)

    def step(e, r, d, sl):
        if mode == "closed_form":
            a = n * d
            up = (e + a * r) / (1.0 + a)
            best = np.where(r > e, up, e)
            lam_star[sl] = np.where(r > e, n, 0.0)
            return best
        vals = np.stack([(e + lam * d * r) / (1.0 + lam * d) for lam in lams])
        best = np.max(vals, axis=0)
        lam_star[sl] = lams[np.argmax(vals, axis=0)]
        return best

    v, z = _implicit_backward(tree, payoff, hz.delta, step, None)
    return EuroSolveReport(AdaptedProcess(tree, v), z, lambda_star=lam_star)


@dataclass
class DiracTable:
    """Convergence of the exponential-kernel recovery leg to a point mass."""

    levels: list[int]
    gaps: list[float]

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.gaps, self.gaps[1:]))

    def to_trace(self) -> dict:
        return {"param": "n", "values": list(self.levels), "gaps": list(self.gaps)}


def dirac_convergence_check(payoff: PayoffSpec, hz: ReducedHazard, tree: FiniteTree,
                            nu: StoppingTime, levels=None) -> DiracTable:
    """Scaled-hazard limit: the discounted payoff started at nu collapses to
    the reward at nu as the hazard is inflated.

    For each penalty level n the value P_T E_{nu,T}(-n Gamma~) + recovery leg
    is evaluated exactly (closed-form route with lambda = n, horizon from nu)
    and compared with P_nu 1{nu = T} + R_nu 1{nu < T}; the sup-norm gap over
    the stop nodes of nu must shrink monotonically.
    """
    mask = hz.support_mask()
    stop_nodes = np.unique(nu.stop_nodes_per_path())
    if not np.all(mask[stop_nodes]):
        raise ValueError("nu stops outside the hazard support")
    if levels is None:
        levels = [2 ** k for k in range(15)]
    term = tree.level_slice(tree.n_periods)
    target = payoff.R.values.copy()
    target[term] = payoff.P.values[term]

    gaps = []
    for n in levels:
        rep = reduced_price_linear(float(n), payoff, hz, tree)
        gap = float(np.max(np.abs(rep.value.values[stop_nodes] - target[stop_nodes])))
        gaps.append(gap)
    return DiracTable(list(levels), gaps)
