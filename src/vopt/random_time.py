"""Random times on an extended finite space and their exact projections.

A random time theta is realized on the product of the market tree's leaf
paths with the default-time values {t_1, ..., t_N, "after T"}.  On that
space every object of the reduced-form toolkit (survival processes G and
G-tilde, dual projections A^o / A^p, hazards Gamma / Gamma-tilde, the
martingales m, n and their compensated versions on the enlarged filtration)
is an exact finite sum, so the classical identities can be checked to
floating-point accuracy rather than proved.

Atom layout.  ``ExtendedSpace`` stores one atom per (leaf path, theta) pair
with positive mass: ``leaf_row`` (the leaf path), ``theta`` (1..N, or ``INF``
for "after T") and ``prob``.  ``node_at[a, k]`` is the market node of atom a
at time k; ``stopped_node[a, k] = node_at[a, min(theta_a, k)]`` is the path
frozen at default, and ``default_node[a] = node_at[a, min(theta_a, N)]`` the
node where default is declared (the leaf for "after T").  Tree node ids are
distinct across levels, which gives the two projection primitives:

- ``f_condexp(x)``: E[x_k | F_k] at every tree node, one ``bincount`` over
  ``node_at``;
- ``g_condexp(x)``: E[x_k | G_k] per atom and time, one ``bincount`` over the
  G_k cells (level-k node, default state at k) of all N+1 times.

Both add each node's or cell's atoms in atom order, and ``g_condexp`` is a
direct per-cell Bayes sum that never reads the projections it checks.

Stacks.  Both primitives and ``g_martingale_residual`` also take a stack of
K tables, shaped (K, n_atoms, cols), under one measure or one per row.  Cell
c of row r gets the id r * size + c, so one ``bincount`` sums the whole
stack; ``bincount`` adds each bin's weights in input order, so a row's bins
see the additions a call on that row alone makes, and every row is bitwise
what its own call gives (a NaN stays in its row).  Callers cut a stack into
blocks (``ExtendedSpace.blocks``) of at most ``_BLOCK_CELLS`` (atom, time)
cells and at least one row: the tiny spaces of the random family share one
call among several rows, and a space whose row exceeds the limit runs one
row a call, with the arrays of a single call.  The stacked sums read only
atoms, cell ids and weights, never the survival tables or the density
arithmetic they check.

Each space builds, on first use, the G_k cell ids of every atom at every
time, and the F- and G-cell masses of its own measure.  ``leaf_row``,
``theta`` and ``prob`` are the space's own read-only copies, so these cannot
go stale.  A call whose ``weights`` are not the array ``prob`` (a Q^phi
measure) sums its masses afresh.  The cached sums are the same ``bincount``
over the same ids, so every result is bitwise what an uncached call gives.

``projections`` reads every F-projection off one mass table per measure,
M[v, j] = mass through node v with theta = t_j (j = N+1: "after T"): one
``bincount`` over (leaf, theta), summed up the tree one level at a time.  G
and G~ are suffix sums at the node's level, dA^o its column, dA^p and pG the
parent's column and suffix; m and n are one upward sum of leaf values times
leaf masses.  ``projections-identities`` checks it against ``f_condexp``.

``cox_closed_form`` is a third route for a Cox random time, with no atoms:
G is the path product of the one-step survival probabilities 1 - h, and the
other seven columns follow by sums along paths and P-means over children.
``bundle.csv`` is written from it on every run, so a run builds atoms only
for the suites that read them, and ``projections-identities`` checks the
scenario's atom bundle against it.  It calls neither ``cox_extend`` nor
``projections``, and they never call it.

``key_lemma`` answers E[X_theta | G_t] for every t at once: one F-projection
of the tail sums of all times and one G-projection of X_theta make the whole
(atom, time) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HazardError, IdentityError, TreeError
from .filtration import (AdaptedProcess, FiniteTree, StoppingTime, _vals, backward,
                         forward, node_values)

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class HazardSpec:
    """One-step conditional default probabilities attached to tree nodes.

    ``h[v]`` is the probability that theta falls in the step associated with
    node ``v`` given survival so far and the market information at ``v``.
    With ``timing='decision'`` the value at a time-k node governs the step
    (t_k, t_{k+1}] (so the hazard is known one step ahead); with
    ``timing='arrival'`` the value at a time-(k+1) node governs that same
    step, letting default load on the contemporaneous market move.
    ``terminal_absorption=True`` leaves the residual mass on an "after T"
    atom so the survival probability at the horizon stays positive.
    """

    h: np.ndarray
    timing: str = "decision"
    terminal_absorption: bool = True

    def __post_init__(self):
        hv = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", hv)
        if self.timing not in ("decision", "arrival"):
            raise HazardError(f"unknown hazard timing {self.timing!r}")
        if not np.all(np.isfinite(hv)):
            raise HazardError(f"h at node {int(np.flatnonzero(~np.isfinite(hv))[0])} "
                              "is not finite")
        if np.any((hv < 0.0) | (hv >= 1.0)):
            raise HazardError("h outside [0, 1)")

    @classmethod
    def constant(cls, tree: FiniteTree, h: float, **kw) -> "HazardSpec":
        return cls(np.full(tree.n_nodes, float(h)), **kw)


INF = np.iinfo(np.int64).max  # sentinel theta index for "after T"
# most (atom, time) cells one stacked oracle call sums: a block's rows share
# one bincount, and a row larger than this is a block of its own
_BLOCK_CELLS = 1024


class ExtendedSpace:
    """Progressive enlargement: atoms (market leaf path, theta) with exact probabilities."""

    def __init__(self, base: FiniteTree, leaf_row: np.ndarray, theta: np.ndarray,
                 prob: np.ndarray):
        self.base = base
        # the space's own read-only copies: the layout and the cached cells
        # and masses below are computed from them
        self.leaf_row = np.array(leaf_row, dtype=np.int64)
        self.theta = np.array(theta, dtype=np.int64)
        self.prob = np.array(prob, dtype=float)
        for a in (self.leaf_row, self.theta, self.prob):
            a.flags.writeable = False
        if not (self.leaf_row.shape == self.theta.shape == self.prob.shape):
            raise TreeError("atom arrays must have identical shape")
        if not np.all(np.isfinite(self.prob)):
            raise TreeError(f"atom {int(np.flatnonzero(~np.isfinite(self.prob))[0])} "
                            "probability is not finite")
        if np.any(self.prob < 0.0):
            raise TreeError("negative atom probability")
        if abs(self.prob.sum() - 1.0) > 1e-9:
            raise TreeError(f"atom probabilities sum to {self.prob.sum():.12g}, not 1")
        bad = (self.theta < 1) | ((self.theta > base.n_periods) & (self.theta != INF))
        if np.any(bad):
            raise TreeError("theta index out of range")
        n = base.n_periods
        self.node_at = base.path_nodes()[self.leaf_row]
        self.stopped_node = np.take_along_axis(
            self.node_at, np.minimum(self.theta[:, None], np.arange(n + 1)), axis=1)
        self.default_node = self.stopped_node[:, n]
        self.n_atoms = self.prob.size

    # -- conditional-expectation machinery ------------------------------------

    def _sums(self, ids: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
        """Sum ``v`` (broadcast to the shape of ``ids``) within each id of ``ids``."""
        flat = np.broadcast_to(v, ids.shape).ravel()
        return np.bincount(ids.ravel(), weights=flat, minlength=size)

    @staticmethod
    def _row_ids(cells: np.ndarray, count: int, size: int) -> np.ndarray:
        """The ids ``cells`` of each row of a stack of ``count``, row r's
        offset by r * size (one row: ``cells`` itself, with a stack axis)."""
        if count == 1:
            return cells[None]
        return cells + (np.arange(count, dtype=np.int64) * size)[:, None, None]

    @cached_property
    def _g_cells(self) -> np.ndarray:
        """G_k cell id of every atom at every time k = 0..N."""
        n = self.base.n_periods
        theta = self.theta[:, None]
        cells = self.node_at * np.int64(n + 1)
        np.add(cells, theta, out=cells, where=theta <= np.arange(n + 1))
        return cells

    @cached_property
    def _f_mass(self) -> np.ndarray:
        """Mass of every F_k cell (tree node) under the space's own measure."""
        return self._sums(self.node_at, self.prob[:, None], self.base.n_nodes)

    @cached_property
    def _g_mass(self) -> np.ndarray:
        """Mass of every G_k cell under the space's own measure."""
        size = self.base.n_nodes * (self.base.n_periods + 1)
        return self._sums(self._g_cells, self.prob[:, None], size)

    @cached_property
    def _decision_spread(self) -> np.ndarray:
        """Per time-k node, the spread of P(theta = t_{k+1} | path) over its paths."""
        tree, n = self.base, self.base.n_periods
        default = self.theta <= n
        rows = self.leaf_row[default]
        kappa = np.bincount(rows * n + self.theta[default] - 1, minlength=tree.leaves.size * n,
                            weights=self.prob[default] / tree.node_p[tree.leaves][rows])
        # column j-1 of kappa, grouped by the time-(j-1) node of each path
        return _group_spread(tree.path_nodes()[:, :-1].ravel(), kappa, tree.n_nodes)

    def _own(self, weights) -> bool:
        return weights is None or weights is self.prob

    def _stacked(self, x, weights):
        """(x, w) with a stack axis: x as (K, n_atoms, cols), w as (K or 1,
        n_atoms, 1); and whether x came with one."""
        w = self.prob if weights is None else np.asarray(weights)
        x = np.asarray(x)
        return (x if x.ndim == 3 else x.reshape(1, self.n_atoms, -1),
                w.reshape(-1, self.n_atoms, 1), x.ndim == 3)

    def blocks(self, count: int) -> list[slice]:
        """The blocks of a stack of ``count`` rows of (atom, time) tables, each
        of at most ``_BLOCK_CELLS`` cells, or one row when a row holds more.
        An empty stack is one empty block."""
        per = max(1, _BLOCK_CELLS // (self.n_atoms * (self.base.n_periods + 1)))
        return [slice(lo, lo + per) for lo in range(0, max(count, 1), per)]

    def by_blocks(self, count: int, fn) -> np.ndarray:
        """``fn(rows)`` for each block ``rows`` of a stack of ``count`` rows,
        joined along the stack axis."""
        return np.concatenate([fn(rows) for rows in self.blocks(count)])

    def f_condexp(self, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """E[x_k | F_k] at every tree node (exact Bayes sums).

        ``x`` holds one value per atom, or one column per time k = 0..N; the
        level-k nodes get the conditional expectation of column k.  A stack
        (K, n_atoms, N+1) of such tables gives (K, n_nodes), under one measure
        or under one per row (``weights`` (K, n_atoms)).  A zero-mass cell
        raises for the first row that has one, at its first such node.
        """
        xs, ws, stacked = self._stacked(x, weights)
        count, size = xs.shape[0], self.base.n_nodes
        ids = self._row_ids(self.node_at, count, size)
        num = self._sums(ids, ws * xs, count * size).reshape(count, size)
        if self._own(weights):
            den = self._f_mass
        else:
            rows = ws.shape[0]
            den = self._sums(ids[:rows], ws, rows * size).reshape(rows, size)
        if np.any(den <= 0.0):
            k = int(self.base.level_of[np.argmax(den <= 0.0) % size])
            raise HazardError(f"F_{k} cell with zero mass (measure not equivalent)")
        out = num / den
        return out if stacked else out[0]

    def g_condexp(self, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """E[x_k | G_k] per atom and time, shape (n_atoms, N+1).

        ``x`` is shaped as for :meth:`f_condexp`, or has fewer columns (times
        0, 1, ...; the output then has as many, and the bins, which always run
        over all N+1 columns of cell ids, see the missing ones as zeros).  The
        G_k cell of an atom is its level-k node and its default state at k
        (theta if theta <= k, else 0), with id ``node * (N+1) + state``.  A
        stack (K, n_atoms, cols) gives (K, n_atoms, cols), with ``weights`` as
        for :meth:`f_condexp`.
        """
        xs, ws, stacked = self._stacked(x, weights)
        n = self.base.n_periods
        count = xs.shape[0]
        cols = n + 1 if np.ndim(x) == 1 else xs.shape[2]
        size = self.base.n_nodes * (n + 1)
        ids = self._row_ids(self._g_cells, count, size)
        buf = np.zeros(ids.shape)       # w x, then the masses of w, then the result
        np.multiply(ws, xs, out=buf[..., :cols])
        num = self._sums(ids, buf, count * size).reshape(count, size)
        den = self._g_mass
        if not self._own(weights):
            rows = ws.shape[0]
            buf[:rows] = ws
            den = self._sums(ids[:rows], buf[:rows], rows * size).reshape(rows, size)
        means = np.divide(num, den, out=np.zeros((count, size)), where=den > 0.0)
        out = np.take(means, ids, out=buf)[..., :cols]
        return out if stacked else out[0]

    def g_martingale_residual(self, x: np.ndarray, weights: np.ndarray | None = None):
        """max over k and G_k cells of |E[x_{k+1} - x_k | G_k]| for a process on
        the extension; NaN as soon as any term is NaN.  A stack (K, n_atoms,
        N+1) gives one residual per row."""
        ce = self.g_condexp(x[..., 1:], weights)   # E[x_{k+1} | G_k] in column k
        ce -= x[..., :-1]
        res = np.max(np.abs(ce, out=ce), axis=(-2, -1), initial=0.0)
        return res if np.ndim(x) == 3 else float(res)

    def indicator(self) -> np.ndarray:
        """A_t = 1{theta <= t} on atoms, shape (n_atoms, N+1)."""
        ks = np.arange(self.base.n_periods + 1)
        return (self.theta[:, None] <= ks[None, :]).astype(float)

    def sigma_levels(self, sigma: StoppingTime) -> np.ndarray:
        """Per atom, the time index at which sigma stops along the atom's path."""
        return sigma.stop_levels()[self.leaf_row]


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------

def cox_extend(tree: FiniteTree, hz: HazardSpec) -> ExtendedSpace:
    """Extend the tree by a random time with the prescribed one-step hazards.

    The joint law is the product of the market law with the conditional
    default kernel: for ``timing='decision'``,
    P(theta = t_{k+1} | path, theta > t_k) = h at the time-k node of the path.
    """
    if hz.h.shape != (tree.n_nodes,):
        raise HazardError("hazard needs one value per node")
    n = tree.n_periods
    paths = tree.path_nodes()
    if hz.timing == "decision":
        step_h = hz.h[paths[:, :-1]]          # column j drives (t_j, t_{j+1}]
    else:
        step_h = hz.h[paths[:, 1:]]
    surv = np.cumprod(1.0 - step_h, axis=1)
    kernel = np.empty((paths.shape[0], n))
    kernel[:, 0] = step_h[:, 0]
    kernel[:, 1:] = surv[:, :-1] * step_h[:, 1:]
    residual = surv[:, -1]
    if not hz.terminal_absorption:
        kernel[:, -1] += residual
        residual = np.zeros_like(residual)
    return _space_from_kernel(tree, kernel, residual)


def extend_with_kernel(tree: FiniteTree, kernel: np.ndarray) -> ExtendedSpace:
    """Extend by an arbitrary conditional law P(theta = t_j | leaf path).

    ``kernel`` has one row per leaf and one column per default time t_1..t_N;
    any residual row mass is placed on the "after T" atom.  This is the door
    to random times whose hazard anticipates the market path (m_t genuinely
    stochastic), which the product construction above cannot produce.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (tree.leaves.size, tree.n_periods):
        raise HazardError("kernel must be (n_leaves, N)")
    if np.any(kernel < 0.0):
        raise HazardError("kernel has negative mass")
    residual = 1.0 - kernel.sum(axis=1)
    if np.any(residual < -1e-12):
        raise HazardError("kernel row mass exceeds 1")
    return _space_from_kernel(tree, kernel, np.maximum(residual, 0.0))


def _space_from_kernel(tree: FiniteTree, kernel: np.ndarray, residual: np.ndarray
                       ) -> ExtendedSpace:
    n = tree.n_periods
    leaf_p = tree.node_p[tree.leaves]
    rows, thetas, probs = [], [], []
    for j in range(n):
        mass = leaf_p * kernel[:, j]
        keep = mass > 0.0
        rows.append(np.flatnonzero(keep))
        thetas.append(np.full(int(keep.sum()), j + 1, dtype=np.int64))
        probs.append(mass[keep])
    mass = leaf_p * residual
    keep = mass > 0.0
    rows.append(np.flatnonzero(keep))
    thetas.append(np.full(int(keep.sum()), INF, dtype=np.int64))
    probs.append(mass[keep])
    return ExtendedSpace(tree, np.concatenate(rows), np.concatenate(thetas),
                         np.concatenate(probs))


# --------------------------------------------------------------------------
# Projections
# --------------------------------------------------------------------------

@dataclass
class ProjectionBundle:
    """Every survival/hazard object of the reduced-form toolkit, exactly.

    All members are node-indexed processes except ``mG``/``nG`` which live on
    the extension (atom x time) and are built on first use.  ``dAo``/``dAp``
    are the per-step increments of the dual projections, stored at the time-k
    node for the step ending at t_k (the A^p increment is constant across
    siblings by construction).
    """

    ext: ExtendedSpace
    weights: np.ndarray
    G: AdaptedProcess
    Gtilde: AdaptedProcess
    Ao: AdaptedProcess
    Ap: AdaptedProcess
    dAo: AdaptedProcess
    dAp: AdaptedProcess
    Gamma: AdaptedProcess
    GammaTilde: AdaptedProcess
    m: AdaptedProcess
    n: AdaptedProcess
    pG: AdaptedProcess

    @cached_property
    def mG(self) -> np.ndarray:
        """A - Gamma~ stopped at theta: default compensated by the optional hazard."""
        return self.ext.indicator() - self.GammaTilde.values[self.ext.stopped_node]

    @cached_property
    def nG(self) -> np.ndarray:
        """A - Gamma stopped at theta: default compensated by the predictable hazard."""
        return self.ext.indicator() - self.Gamma.values[self.ext.stopped_node]

    @cached_property
    def dGammaTilde(self) -> np.ndarray:
        """Gamma~'s increment into every node (0 at the root); read-only, shared
        by every Q^phi control built on this bundle."""
        out = _increments(self.ext.base, self.GammaTilde.values)
        out.flags.writeable = False
        return out

    @cached_property
    def market_factor(self) -> np.ndarray:
        """Z^F / E(N~) at every node, with dN~ = dm / G_-; read-only, shared by
        every Q^phi control built on this bundle."""
        tree = self.ext.base
        dm = _increments(tree, self.m.values)
        g_prev = _prev_values(tree, self.G.values, 1.0)
        e_nt = _path_exponential(tree, np.divide(dm, g_prev, out=np.zeros_like(dm),
                                                 where=g_prev > 0))
        out = tree.density_zf() / e_nt
        out.flags.writeable = False
        return out


def _up_sums(tree: FiniteTree, leaf_rows: np.ndarray) -> np.ndarray:
    """Per node, the sum of the ``leaf_rows`` below it, one level at a time."""
    out = np.empty((tree.n_nodes,) + leaf_rows.shape[1:])
    out[tree.level_slice(tree.n_periods)] = leaf_rows
    for k in range(tree.n_periods - 1, -1, -1):
        out[tree.level_slice(k)] = tree.sum_over_children(k, out[tree.level_slice(k + 1)])
    return out


@dataclass
class SurvivalTables:
    """G, G~, dA^o and Gamma~ at every node under one atom measure, or under
    each measure of a stack (leading axes; the node axis is last), with the
    mass table ``M`` and its suffix sums ``S`` they are read from, shaped
    (node, measure, theta)."""

    M: np.ndarray
    S: np.ndarray
    G: np.ndarray
    Gtilde: np.ndarray
    dAo: np.ndarray
    GammaTilde: np.ndarray


def survival_tables(ext: ExtendedSpace, weights: np.ndarray | None = None) -> SurvivalTables:
    """The survival processes and the optional hazard off one mass table per
    measure: M[v, j] is the mass of the atoms through node v with theta = t_j
    (column N+1 for "after T"), from one ``bincount`` over (leaf, theta)
    summed up the tree one level at a time.  ``weights`` defaults to the
    extension's own measure; a stack of measures on leading axes shares the
    one ``bincount`` and the one upward sum, and each measure gets bitwise
    what it would get alone.
    """
    tree = ext.base
    n = tree.n_periods
    w = ext.prob if weights is None else np.asarray(weights, dtype=float)
    stack = w.shape[:-1]
    count = int(np.prod(stack))
    cols = n + 2
    # one bin per (leaf, measure, theta): leaf rows first for the upward sum
    ids = np.arange(count)[:, None] * cols + np.minimum(ext.theta, n + 1)
    ids += ext.leaf_row * (count * cols)
    leaf = np.bincount(ids.ravel(), weights=w.ravel(), minlength=tree.leaves.size * count * cols)
    M = _up_sums(tree, leaf.reshape(tree.leaves.size, -1)).reshape(tree.n_nodes, count, cols)
    S = np.cumsum(M[..., ::-1], axis=-1)[..., ::-1]     # S[v, j]: the mass with theta >= t_j
    mass = S[:, :, 0]
    if np.any(mass <= 0.0):
        k = int(tree.level_of[np.argmax(np.any(mass <= 0.0, axis=1))])
        raise HazardError(f"F_{k} cell with zero mass (measure not equivalent)")

    v, k = np.arange(tree.n_nodes), tree.level_of
    G = S[v, :, k + 1] / mass
    Gt = S[v, :, k] / mass
    dAo = M[v, :, k] / mass
    if np.any(G[tree.parent[1:]] <= 0.0):
        raise HazardError("Azema supermartingale hits zero before the horizon "
                          "(Assumption of strict positivity violated)")
    if np.any(Gt[1:] <= 0.0):
        raise HazardError("optional survival process hits zero")
    G, Gt, dAo = (x.T.reshape(stack + (tree.n_nodes,)) for x in (G, Gt, dAo))
    return SurvivalTables(M, S, G, Gt, dAo, forward(tree, dAo / Gt, np.add, 0.0))


def projections(ext: ExtendedSpace, weights: np.ndarray | None = None) -> ProjectionBundle:
    """Compute G, G~, A^o, A^p, Gamma, Gamma~, m, n, m^G, n^G on the extension.

    ``weights`` overrides the atom measure (used to redo everything under an
    equivalent measure); defaults to the extension's own measure.  Every
    F-projection is read off the mass table of :func:`survival_tables`.
    """
    tree = ext.base
    n = tree.n_periods
    w = ext.prob if weights is None else np.asarray(weights, dtype=float)
    sv = survival_tables(ext, w)
    M, S, G, dAo = sv.M[:, 0], sv.S[:, 0], sv.G, sv.dAo
    mass = S[:, 0]

    up, ku = tree.parent[1:], tree.level_of[1:]
    # read at the parent: the mass defaulting at t_k, and the mass beyond t_k,
    # which makes pG = E[G_k | F_{k-1}] the child-mass-weighted mean of G
    dAp = np.zeros(tree.n_nodes)
    dAp[1:] = M[up, ku] / mass[up]
    pG = np.empty(tree.n_nodes)
    pG[0] = G[0]
    pG[1:] = S[up, ku + 1] / mass[up]

    Ao = forward(tree, dAo, np.add, 0.0)
    Ap = forward(tree, dAp, np.add, 0.0)
    dGam = np.zeros(tree.n_nodes)
    dGam[1:] = dAp[1:] / G[up]
    Gam = forward(tree, dGam, np.add, 0.0)

    # closing martingales of the dual projections (sentinel mass G_N lives after T)
    leaves = tree.level_slice(n)
    closing = np.stack([Ao[leaves] + G[leaves], Ap[leaves] + G[leaves]], axis=1)
    m, nn = (_up_sums(tree, closing * mass[leaves, None]) / mass[:, None]).T

    P = lambda x: AdaptedProcess(tree, x)
    return ProjectionBundle(ext, w, P(G), P(sv.Gtilde), P(Ao), P(Ap), P(dAo), P(dAp),
                            P(Gam), P(sv.GammaTilde), P(m), P(nn), P(pG))


# --------------------------------------------------------------------------
# Closed form of a Cox random time
# --------------------------------------------------------------------------

BUNDLE_COLUMNS = ("G", "Gtilde", "Ao", "Ap", "Gamma", "GammaTilde", "m", "n")


@dataclass(frozen=True)
class CoxClosedForm:
    """The survival processes of a Cox random time, one value per tree node:
    the ``BUNDLE_COLUMNS`` of ``bundle.csv``."""

    tree: FiniteTree
    G: np.ndarray
    Gtilde: np.ndarray
    Ao: np.ndarray
    Ap: np.ndarray
    Gamma: np.ndarray
    GammaTilde: np.ndarray
    m: np.ndarray
    n: np.ndarray


def cox_closed_form(tree: FiniteTree, hz: HazardSpec) -> CoxClosedForm:
    """G, G~, A^o, A^p, Gamma, Gamma~, m and n of ``cox_extend(tree, hz)`` on
    the nodes, without building its atoms (the discrete form of Lando 1998).

    h is the hazard of the step into a node: the parent's for decision
    timing, the node's own for arrival timing, and 1 on the last step without
    terminal absorption.  G is the path product of 1 - h, G~ = G_-, and
    dA^o = G~ h.  dA^p is the P-mean of dA^o over the node's siblings;
    Gamma and Gamma~ sum dA^p / G_- and dA^o / G~ along the path; m and n are
    the P-backward sweeps of A^o + G and A^p + G.  Each P-mean divides by the
    P-mass of its sibling group, as the atom route divides by node masses, so
    a constant is its own mean: with h = 0 every column is bitwise that of
    ``projections(cox_extend(tree, hz))``.
    """
    if hz.h.shape != (tree.n_nodes,):
        raise HazardError("hazard needs one value per node")
    n = tree.n_periods
    up = tree.parent[1:]
    h = np.zeros(tree.n_nodes)
    h[1:] = hz.h[up] if hz.timing == "decision" else hz.h[1:]
    if not hz.terminal_absorption:
        h[tree.level_slice(n)] = 1.0
    G = forward(tree, 1.0 - h, np.multiply, 1.0)
    Gt = _prev_values(tree, G, 1.0)
    dAo = Gt * h

    # per inner node, the P-mass of its children and the P-sum of their dA^o:
    # the children of the inner nodes, in order, are the nodes 1, 2, ...
    first = tree.first_child[:int(tree.level_start[n])] - 1
    p = tree.p_edge[1:]
    child_mass = np.add.reduceat(p, first)
    dAp = np.zeros(tree.n_nodes)
    dAp[1:] = (np.add.reduceat(p * dAo[1:], first) / child_mass)[up]
    dGam = np.zeros(tree.n_nodes)
    dGam[1:] = dAp[1:] / G[up]

    Ao = forward(tree, dAo, np.add, 0.0)
    Ap = forward(tree, dAp, np.add, 0.0)
    p_mean = lambda sl, e: e / child_mass[sl]
    return CoxClosedForm(tree, G, Gt, Ao, Ap, forward(tree, dGam, np.add, 0.0),
                         forward(tree, dAo / Gt, np.add, 0.0),
                         backward(tree, Ao + G, p_mean, "P"),
                         backward(tree, Ap + G, p_mean, "P"))


# --------------------------------------------------------------------------
# Identity verification (Lemma-level report)
# --------------------------------------------------------------------------

@dataclass
class IdentityReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        """Largest residual; NaN as soon as any residual is NaN."""
        return float(np.max(list(self.residuals.values())))

    def passed(self, tol: float = IDENTITY_TOL) -> bool:
        return self.max_residual <= tol

    def failures(self, tol: float = IDENTITY_TOL) -> list[str]:
        return [k for k, v in self.residuals.items() if not v <= tol]


def _prev_values(tree: FiniteTree, x: np.ndarray, root_value: float) -> np.ndarray:
    out = np.empty(tree.n_nodes)
    out[0] = root_value
    sl = slice(1, tree.n_nodes)
    out[sl] = x[tree.parent[sl]]
    return out


def _path_exponential(tree: FiniteTree, incr: np.ndarray) -> np.ndarray:
    """Discrete stochastic exponential prod_{j<=k} (1 + dX_j) along paths."""
    return forward(tree, 1.0 + incr, np.multiply, 1.0)


def verify_lemma21(bundle: ProjectionBundle) -> IdentityReport:
    """Node-wise check of the survival-process identities.

    Additive: G = n - A^p = m - A^o, G~ = m - A^o_-, G~ - G = dA^o,
    dm = G~ - G_-.  Multiplicative (discrete stochastic exponentials):
    G = E(-Gamma~) E(N~), G~ = E(-Gamma~_-) E(N~), G = E(-Gamma) E(N) with
    dN~ = dm / G_-, dN = dn / pG.
    """
    ext, tree = bundle.ext, bundle.ext.base
    G, Gt = bundle.G.values, bundle.Gtilde.values
    Ao, Ap = bundle.Ao.values, bundle.Ap.values
    m, n = bundle.m.values, bundle.n.values

    Ao_prev = _prev_values(tree, Ao, 0.0)
    G_prev = _prev_values(tree, G, 1.0)
    m_prev = _prev_values(tree, m, m[0])
    n_prev = _prev_values(tree, n, n[0])

    sl = slice(1, tree.n_nodes)
    dN_t = np.zeros(tree.n_nodes)
    dN_t[sl] = (m[sl] - m_prev[sl]) / G_prev[sl]
    dN = np.zeros(tree.n_nodes)
    dN[sl] = (n[sl] - n_prev[sl]) / bundle.pG.values[sl]

    e_gamt = _path_exponential(tree, -bundle.dGammaTilde)
    e_gamt_prev = _prev_values(tree, e_gamt, 1.0)
    e_nt = _path_exponential(tree, dN_t)
    dGam = np.zeros(tree.n_nodes)
    dGam[sl] = bundle.Gamma.values[sl] - bundle.Gamma.values[tree.parent[sl]]
    e_gam = _path_exponential(tree, -dGam)
    e_n = _path_exponential(tree, dN)

    res = {
        "i: G = n - A^p": float(np.max(np.abs(G - (n - Ap)))),
        "i: G = m - A^o": float(np.max(np.abs(G - (m - Ao)))),
        "i: G~ = m - A^o_-": float(np.max(np.abs(Gt - (m - Ao_prev)))),
        "iii: G~ - G = dA^o": float(np.max(np.abs((Gt - G) - bundle.dAo.values))),
        "iii: dm = G~ - G_-": float(np.max(np.abs((m - m_prev) - (Gt - G_prev)))),
        "iv: G = E(-Gamma~)E(N~)": float(np.max(np.abs(G - e_gamt * e_nt))),
        "v: G~ = E(-Gamma~_-)E(N~)": float(np.max(np.abs(Gt - e_gamt_prev * e_nt))),
        "vi: G = E(-Gamma)E(N)": float(np.max(np.abs(G - e_gam * e_n))),
    }
    return IdentityReport(res)


# --------------------------------------------------------------------------
# Conditional-expectation formulas at the random time (key lemma)
# --------------------------------------------------------------------------

def _group_spread(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """max - min of ``values`` within each group id (-inf for an empty group)."""
    lo = np.full(size, np.inf)
    hi = np.full(size, -np.inf)
    np.minimum.at(lo, groups, values)
    np.maximum.at(hi, groups, values)
    return hi - lo


def _sibling_spread(tree: FiniteTree, x: np.ndarray) -> float:
    """How far x is from being predictable (constant across sibling groups)."""
    return float(np.max(_group_spread(tree.parent[1:], x[1:], tree.n_nodes), initial=0.0))


def key_lemma(bundle: ProjectionBundle, x: AdaptedProcess, variant: str = "optional",
              tol: float = IDENTITY_TOL) -> np.ndarray:
    """E[X_theta | G_t] assembled from the dual-projection formula, per atom and
    time: column t of the (n_atoms, N+1) result is the expectation given G_t.

    Pre-default cells use G_t^{-1} E[sum_{j>t} X_j dA_j + X_T G_T | F_t] with
    the optional (dA^o) or predictable (dA^p) integrator; on the "after T"
    atom X_theta is read at the horizon.  The extension and the atom measure
    are those of ``bundle``.  The result must match the direct conditional
    expectation on the extension, cell-wise at every t to ``tol`` (checked
    here; a mismatch is an implementation bug, not an input property).  One
    F-projection of the tails for all t and one G-projection of X_theta make
    the whole table.
    """
    ext = bundle.ext
    tree = ext.base
    if variant not in ("optional", "predictable"):
        raise ValueError(f"unknown variant {variant!r}")
    xv = _vals(x)
    w = bundle.weights
    if variant == "predictable":
        spread = _sibling_spread(tree, xv)
        if not spread <= tol:
            raise ValueError(
                f"predictable variant needs a predictable process (sibling spread {spread:.3g})")
        d_int = bundle.dAp.values
    else:
        d_int = bundle.dAo.values

    paths = tree.path_nodes()
    contrib = xv[paths[:, 1:]] * d_int[paths[:, 1:]]           # (leaves, N)
    tail = np.concatenate([np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((paths.shape[0], 1))], axis=1)  # column t: j > t
    sentinel = xv[tree.leaves] * bundle.G.values[tree.leaves]

    pre_num = ext.f_condexp((tail + sentinel[:, None])[ext.leaf_row], w)
    G = bundle.G.values
    if np.any(G <= 0.0):
        raise HazardError("G = 0 encountered in the key lemma at a live cell")
    x_theta = xv[ext.default_node]
    live = ext.theta[:, None] > np.arange(tree.n_periods + 1)
    out = np.where(live, pre_num[ext.node_at] / G[ext.node_at], x_theta[:, None])

    direct = ext.g_condexp(x_theta, w)
    err = float(np.max(np.abs(out - direct)))
    if not err <= tol:
        raise IdentityError(f"key lemma ({variant}) disagrees with the direct "
                            f"conditional expectation by {err:.3g}")
    return out


# --------------------------------------------------------------------------
# Martingale transforms into the enlarged filtration
# --------------------------------------------------------------------------

def _increments(tree: FiniteTree, x: np.ndarray) -> np.ndarray:
    out = np.zeros(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    out[sl] = x[sl] - x[tree.parent[sl]]
    return out


def jeulin_yor_transform(bundle: ProjectionBundle, M: AdaptedProcess,
                         tol: float = IDENTITY_TOL) -> np.ndarray:
    """Optional transform M^theta - G~^{-1} . [M, m]^theta, per atom and time.

    Input must be an (F, P)-martingale; the output is an exact martingale in
    the enlarged filtration, stopped at theta.
    """
    ext = bundle.ext
    tree = ext.base
    mv = _vals(M)
    from .filtration import martingale_residual
    r = martingale_residual(tree, mv, "P")
    if r > tol:
        raise ValueError(f"input is not a P-martingale (residual {r:.3g})")

    dM = _increments(tree, mv)
    dm = _increments(tree, bundle.m.values)
    incr = dM * dm / bundle.Gtilde.values           # bracket over G~ at the current node
    cum = forward(tree, incr, np.add, 0.0)
    return mv[ext.stopped_node] - cum[ext.stopped_node]


def pre_default_transform(bundle: ProjectionBundle, M: AdaptedProcess,
                          tol: float = IDENTITY_TOL) -> np.ndarray:
    """Strict pre-default transform M^{theta-} - G^{-1} . [M, n]^{theta-}."""
    ext = bundle.ext
    tree = ext.base
    mv = _vals(M)
    from .filtration import martingale_residual
    r = martingale_residual(tree, mv, "P")
    if r > tol:
        raise ValueError(f"input is not a P-martingale (residual {r:.3g})")

    dM = _increments(tree, mv)
    dn = _increments(tree, bundle.n.values)
    if np.any(bundle.G.values[:tree.level_start[tree.n_periods]] <= 0.0):
        raise HazardError("G = 0 before the horizon")
    incr = np.zeros(tree.n_nodes)
    live = bundle.G.values > 0.0
    incr[live] = dM[live] * dn[live] / bundle.G.values[live]
    cum = forward(tree, incr, np.add, 0.0)
    # the path frozen one step before default
    frozen = np.where(ext.theta[:, None] > np.arange(tree.n_periods + 1), ext.stopped_node,
                      tree.parent[ext.stopped_node])
    return mv[frozen] - cum[frozen]


# --------------------------------------------------------------------------
# Full (non-reduced) price assembly
# --------------------------------------------------------------------------

@dataclass
class AssemblyReport:
    """Assembled full price process, its reduced input, the direct conditional
    expectation it is checked against, and the residual of that check."""

    values: np.ndarray                 # (n_atoms, N+1)
    reduced: AdaptedProcess
    delta_effective: np.ndarray
    residual: float
    qphi: np.ndarray
    direct: np.ndarray                 # E^{Q^phi}[payoff | G_k], (n_atoms, N+1)


def _require_decision_timed(ext: ExtendedSpace, tol: float = 1e-10) -> None:
    """Check the conditional default law is read off the decision nodes.

    The per-leaf kernel P(theta = t_j | path) must be measurable with respect
    to the node at time j-1; otherwise the one-step reduced recursion is not
    the exact conditional expectation and the assembly bridge does not apply.
    """
    tree = ext.base
    spread = ext._decision_spread
    bad = np.flatnonzero(spread > tol)
    if bad.size:
        k = int(tree.level_of[bad[0]])
        raise HazardError(
            "assembly requires a decision-timed hazard: the conditional "
            f"default mass at t_{k + 1} varies within a time-{k} node "
            f"(spread {np.max(spread[tree.level_slice(k)]):.3g})")


def step_default_probs(bundle: ProjectionBundle, lam) -> np.ndarray:
    """Per decision node, the one-step default probability under the lam-tilted
    measure: dLambda = (1 + phi(1 - dGamma~)) dGamma~ with phi = lam - 1.

    Requires the hazard to be decision-timed so the step probability is known
    at the decision node.
    """
    ext, tree = bundle.ext, bundle.ext.base
    _require_decision_timed(ext)
    dgt = bundle.dGammaTilde
    lam_v = node_values(tree, lam, "lambda")
    if np.any(lam_v <= 0.0):
        raise ValueError("lambda must be strictly positive")
    inner = slice(0, int(tree.level_start[tree.n_periods]))    # the decision nodes
    x = dgt[tree.first_child[inner]]
    step = (1.0 + (lam_v[inner] - 1.0) * (1.0 - x)) * x
    if np.any(step >= 1.0) or np.any(step < 0.0):
        raise ValueError("lambda-tilted step probability outside [0, 1); "
                         "control violates the admissibility bounds")
    pi = np.zeros(tree.n_nodes)
    pi[inner] = step
    return pi


def full_price_assembly(bundle: ProjectionBundle, payoff,
                        sigma: StoppingTime | None = None, lam=1.0,
                        phi_pr: np.ndarray | None = None,
                        tol: float = IDENTITY_TOL) -> AssemblyReport:
    """Assemble the full price: reduced value before theta, recovery from theta on.

    ``bundle`` holds the projections of the extension ``bundle.ext`` under its
    own measure.  The reduced price is the backward solve from the European
    module run on the hazard written in survival-odds coordinates
    (delta = pi / (1 - pi)), which makes the implicit backward step the exact
    one-step conditional expectation on this extension.  The assembled process
    must coincide with the direct conditional expectation of the terminal
    payoff under the tilted measure on every cell (checked to ``tol``);
    recovery is sampled at the decision node of the default step, matching
    right-support semantics.
    """
    from . import measure_change as mc
    from .european import ReducedHazard, reduced_price_linear

    ext = bundle.ext
    if bundle.weights is not ext.prob and not np.array_equal(bundle.weights, ext.prob):
        raise ValueError("full_price_assembly needs the projections under the "
                         "extension's own measure")
    tree = ext.base
    n = tree.n_periods
    if sigma is None:
        sigma = StoppingTime.horizon(tree)
    pi = step_default_probs(bundle, lam)
    delta_eff = pi / (1.0 - pi)
    hz = ReducedHazard(tree, delta_eff)
    reduced = reduced_price_linear(1.0, payoff, hz, sigma).value

    lam_v = node_values(tree, lam, "lambda")
    phi_o = np.zeros(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    phi_o[sl] = lam_v[tree.parent[sl]] - 1.0
    phi = mc.PhiControl(phi_o=AdaptedProcess(tree, phi_o), phi_pr=phi_pr)
    dens = mc.density_eta(phi, bundle)
    qphi = dens.qphi

    sig_lvl = ext.sigma_levels(sigma)
    sig_node = sigma.stop_nodes_per_path()[ext.leaf_row]
    default_first = ext.theta <= sig_lvl
    dec_node = tree.parent[ext.default_node]
    terminal_pay = np.where(default_first, payoff.R.values[dec_node],
                            payoff.P.values[sig_node])

    ks = np.arange(n + 1)
    pre = ext.theta[:, None] > ks[None, :]
    assembled = np.where(pre, reduced.values[ext.node_at],
                         terminal_pay[:, None])

    direct = ext.g_condexp(terminal_pay, qphi)
    residual = float(np.max(np.abs(assembled - direct)))
    if residual > tol:
        raise IdentityError(f"full-price assembly disagrees with the direct "
                            f"conditional expectation by {residual:.3g}")
    return AssemblyReport(assembled, reduced, delta_eff, residual, qphi, direct)
