"""Seeded random instance factory used by the test suites and the CLI batches.

Everything is driven by a single integer seed through numpy's Generator, so
identity batches are reproducible across runs and thread counts.
"""

from __future__ import annotations

import numpy as np

from .european import PayoffSpec, ReducedHazard
from .filtration import AdaptedProcess, FiniteTree, TimeGrid, row_sums, tree_from_counts
from .measure_change import PhiControl, phi_pr_from_marks
from .random_time import (ExtendedSpace, HazardSpec, ProjectionBundle, cox_extend,
                          extend_with_kernel)


def random_tree(rng: np.random.Generator, max_periods: int = 4, max_branching: int = 3,
                with_density: bool = True) -> FiniteTree:
    n = int(rng.integers(1, max_periods + 1))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, n))])
    counts, size = [], 1
    for _ in range(n):
        # one scalar draw per node: an array draw takes other values off the stream
        counts.append(np.array([int(rng.integers(2, max_branching + 1)) for _ in range(size)]))
        size = int(counts[-1].sum())
    # every row in one draw, the stream of one draw per row; each row is
    # normalised here and again by tree_from_counts
    widths = np.concatenate(counts)
    raw = rng.uniform(0.2, 1.0, int(widths.sum()))
    p = raw / np.repeat(row_sums(raw, widths), widths)
    zf = rng.uniform(0.4, 1.8, size) if with_density else None
    return tree_from_counts(TimeGrid(times), counts, p, zf_leaves=zf)


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


def random_phi(rng: np.random.Generator, bundle: ProjectionBundle,
               with_pr: bool = True, count: int | None = None) -> PhiControl:
    """Admissible control with sign changes in phi^o, sampled inside the
    strict-positivity bounds of the instance.

    ``with_pr=False`` yields the graph-trivial subfamily on which the hazard
    transformation rule is an exact theorem.  ``count`` gives a stack of that
    many controls, drawn in the generator order of as many single draws: one
    draw per control of its phi^o, then of its raw marks, in one call.  The
    control is not validated here: :func:`density_eta` checks it once, when
    its density is built.
    """
    tree = bundle.ext.base
    dgt = bundle.dGammaTilde
    ratio = bundle.Gtilde.values / np.maximum(bundle.G.values, 1e-300)
    lo = np.where(dgt > 0.0, -ratio, -4.0)
    hi = np.where(dgt > 0.0, 1.0 / np.maximum(dgt, 1e-12), 6.0)
    lo_eff = 0.9 * lo
    hi_eff = np.minimum(0.9 * hi, hi - 0.05)
    hi_eff = np.maximum(hi_eff, lo_eff + 1e-6)
    n = tree.n_nodes
    if with_pr:
        lo_eff = np.concatenate([lo_eff, np.full(n, -0.8)])
        hi_eff = np.concatenate([hi_eff, np.full(n, 0.8)])
    draw = rng.uniform(lo_eff, hi_eff, None if count is None else (count, lo_eff.size))
    phi_o = draw[..., :n]
    if count is None:
        phi_o = AdaptedProcess(tree, phi_o)
    phi_pr = phi_pr_from_marks(bundle, draw[..., n:], phi_o) if with_pr else None
    return PhiControl(phi_o, phi_pr)
