"""Seeded random instance factory used by the test suites and the CLI batches.

Everything is driven by a single integer seed through numpy's Generator, so
identity batches are reproducible across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError
from .european import PayoffSpec, ReducedHazard
from .filtration import AdaptedProcess, FiniteTree, build_tree, count_stopping_times
from .measure_change import PhiControl, phi_pr_from_marks, validate_phi
from .random_time import ExtendedSpace, HazardSpec, cox_extend, extend_with_kernel, projections


def random_tree(rng: np.random.Generator, max_periods: int = 4, max_branching: int = 3,
                with_density: bool = True) -> FiniteTree:
    n = int(rng.integers(1, max_periods + 1))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, n))])
    branching, size = [], 1
    for _ in range(n):
        row = [int(rng.integers(2, max_branching + 1)) for _ in range(size)]
        branching.append(row)
        size = sum(row)
    p = []
    for row in branching:
        lvl = []
        for c in row:
            raw = rng.uniform(0.2, 1.0, c)
            lvl.append(list(raw / raw.sum()))
        p.append(lvl)
    spec = {"times": times, "branching": branching, "p": p}
    if with_density:
        spec["zf_leaves"] = rng.uniform(0.4, 1.8, size)
    return build_tree(spec)


def random_payoff(rng: np.random.Generator, tree: FiniteTree, high: float = 2.0,
                  r_dominates: bool = False) -> PayoffSpec:
    p = rng.uniform(0.0, high, tree.n_nodes)
    r = rng.uniform(0.0, high, tree.n_nodes)
    if r_dominates:
        r = np.maximum(r, p)
    return PayoffSpec(AdaptedProcess(tree, p), AdaptedProcess(tree, r))


def random_hazard_h(rng: np.random.Generator, tree: FiniteTree, h_max: float = 0.9,
                    timing: str | None = None) -> HazardSpec:
    if timing is None:
        timing = "decision" if rng.random() < 0.5 else "arrival"
    return HazardSpec(rng.uniform(0.0, h_max, tree.n_nodes), timing=timing)


def random_extension(rng: np.random.Generator, tree: FiniteTree,
                     kind: str | None = None) -> ExtendedSpace:
    """Cox-type or anticipative-kernel extension (the latter makes m genuinely
    stochastic, exercising the bracket terms)."""
    if kind is None:
        kind = rng.choice(["cox", "kernel"])
    if kind == "cox":
        return cox_extend(tree, random_hazard_h(rng, tree))
    n = tree.n_periods
    raw = rng.uniform(0.0, 1.0, (tree.leaves.size, n))
    scale = rng.uniform(0.3, 0.85)
    kernel = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1e-12) * scale
    return extend_with_kernel(tree, kernel)


def random_delta_hazard(rng: np.random.Generator, tree: FiniteTree,
                        lo: float = 1.0, hi: float = 3.0,
                        p_zero: float = 0.35) -> ReducedHazard:
    d = rng.uniform(lo, hi, tree.n_nodes)
    d[rng.random(tree.n_nodes) < p_zero] = 0.0
    d[tree.level_slice(tree.n_periods)] = 0.0
    return ReducedHazard(tree, d)


def random_phi(rng: np.random.Generator, ext: ExtendedSpace, bundle=None,
               cap: float | None = None, with_pr: bool = True) -> PhiControl:
    """Admissible control with sign changes in phi^o, sampled inside the
    strict-positivity bounds of the instance.

    ``with_pr=False`` yields the graph-trivial subfamily on which the hazard
    transformation rule is an exact theorem.
    """
    if bundle is None:
        bundle = projections(ext)
    tree = ext.base
    dgt = bundle.dGammaTilde()
    ratio = bundle.Gtilde.values / np.maximum(bundle.G.values, 1e-300)
    lo = np.where(dgt > 0.0, -ratio, -4.0)
    hi = np.where(dgt > 0.0, 1.0 / np.maximum(dgt, 1e-12), 6.0)
    if cap is not None:
        hi = np.minimum(hi, cap - 1.0)
    lo_eff = 0.9 * lo
    hi_eff = np.minimum(0.9 * hi, hi - 0.05)
    hi_eff = np.maximum(hi_eff, lo_eff + 1e-6)
    phi_o = rng.uniform(lo_eff, hi_eff)
    phi_pr = None
    if with_pr:
        phi_pr = phi_pr_from_marks(ext, rng.uniform(-0.8, 0.8, tree.n_nodes),
                                   bundle, phi_o)
    phi = PhiControl(AdaptedProcess(tree, phi_o), phi_pr, cap=cap)
    rep = validate_phi(phi, ext, bundle)
    if not rep.ok:
        raise AssertionError(f"factory produced inadmissible phi: {rep.violations}")
    return phi


@dataclass
class GameInstance:
    tree: FiniteTree
    payoff: PayoffSpec
    hz: ReducedHazard


def random_game_instance(rng: np.random.Generator, max_periods: int = 4,
                         enum_cap: int = 200_000) -> GameInstance:
    """Instance with P <= R on the support and an enumerable stopping-time set."""
    while True:
        tree = random_tree(rng, max_periods=max_periods,
                           max_branching=2 if max_periods >= 4 else 3,
                           with_density=False)
        try:
            if count_stopping_times(tree) > enum_cap:
                continue
        except EnumerationCapError:
            continue
        hz = random_delta_hazard(rng, tree)
        payoff = random_payoff(rng, tree, r_dominates=False)
        r = payoff.R.values.copy()
        mask = hz.support_mask()
        r[mask] = np.maximum(r[mask], payoff.P.values[mask])
        return GameInstance(tree, PayoffSpec(payoff.P, AdaptedProcess(tree, r)), hz)
