"""Finite filtered probability spaces on event trees.

Everything in this package runs on a :class:`FiniteTree`: a rooted tree whose
level-k nodes are the atoms of F_{t_k}, carrying one-step transition
probabilities under a base measure P and a pricing measure Q.  Conditional
expectations are exact probability-weighted sums over children; nothing is
sampled.  ``condexp``, ``backward`` and ``martingale_residual`` run under
either measure; the stopping layer works under Q alone, as every price bound
is a stopping problem under Q.  Trees and processes are immutable after
construction, so every operation here is a pure function and safe to call
concurrently.

Construction.  Every tree comes from one array-level constructor,
:func:`tree_from_counts`: :func:`build_tree` parses a scenario spec into its
arrays (the children of each node, level by level, and each node's row of
edge weights, laid end to end), and ``instances.random_tree`` draws them.
Structure and edges are filled by whole-array operations.  A
:class:`FiniteTree` checks its structure and each measure once, and
:func:`reweight_by_density` shares every P-side array of the tree it
reweights and checks only the new Q edges.  Each tree computes its level
slices, its ``sum_over_children`` offsets and its leaves once, at
construction.

Stopping problems.  Each price bound is posed once as a
:class:`StoppingProblem`, a reward and the nodes where stopping is allowed
(the horizon always), by ``european.european_upper_problem`` or
``american.game_problems``.  Its solve, :func:`snell_envelope`, and its
enumeration oracle, :func:`brute_force_snell_root`, read that one value;
the oracle never calls the solve.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, IdentityError, TreeError

DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid t_0 = 0 < t_1 < ... < t_N (in years)."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise TreeError("time grid needs at least one period")
        finite = np.isfinite(t)
        if not finite.all():
            raise TreeError(f"time grid entry {int(finite.argmin())} is not finite")
        if t[0] != 0.0:
            raise TreeError("time grid must start at t_0 = 0")
        if (t[1:] <= t[:-1]).any():
            raise TreeError("time grid must be strictly increasing")

    @property
    def steps(self) -> int:
        return self.times.size - 1


class FiniteTree:
    """Rooted event tree with per-edge probabilities under P and Q.

    Nodes are global integer ids, contiguous level by level (root = 0).
    Children of a node are contiguous in the next level.  ``p_edge[v]`` /
    ``q_edge[v]`` hold the one-step probability of the edge into node ``v``
    (1.0 at the root).
    """

    def __init__(self, grid: TimeGrid, parent: np.ndarray, first_child: np.ndarray,
                 n_children: np.ndarray, p_edge: np.ndarray, q_edge: np.ndarray,
                 level_start: np.ndarray):
        self.grid = grid
        self.parent = parent
        self.first_child = first_child
        self.n_children = n_children
        self.p_edge = p_edge
        self.q_edge = q_edge
        self.level_start = level_start
        self.n_periods = n = grid.steps
        bounds = level_start.tolist()
        self.n_nodes = bounds[-1]
        self._slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.level_of = np.repeat(np.arange(n + 1), [sl.stop - sl.start for sl in self._slices])
        self.leaves = np.arange(bounds[n], bounds[n + 1])
        # sum_over_children's reduceat offsets of each level's child groups
        self._child_offsets = [first_child[self._slices[k]] - bounds[k + 1] for k in range(n)]
        # Probability of reaching each node from the root, both measures in one sweep.
        if q_edge is p_edge:
            self.node_p = self.node_q = forward(self, p_edge, np.multiply, 1.0)
        else:
            self.node_p, self.node_q = forward(self, np.array((p_edge, q_edge)), np.multiply, 1.0)
        self._path_nodes: np.ndarray | None = None
        self._check_measure("P", p_edge)
        if q_edge is not p_edge and not np.array_equal(q_edge, p_edge):   # Q = P: checked once
            self._check_measure("Q", q_edge)
        if self.n_children[self._slices[n]].any():
            raise TreeError("terminal node with children")

    def _check_measure(self, name: str, edge: np.ndarray):
        """Every edge of one measure finite and positive, every inner node
        with a child, and every sibling group summing to 1; the first failing
        node is named."""
        if not ((edge > 0.0) & (edge < np.inf)).all():
            finite = np.isfinite(edge)
            if not finite.all():
                raise TreeError(f"{name}-probability of edge into node {int(finite.argmin())} "
                                "is not finite")
            raise TreeError(
                f"{name}-probability of edge into node {int((edge <= 0.0).argmax())} is not "
                "strictly positive (breaks measure equivalence)")
        # the children of the inner nodes, taken in parent order, are the nodes
        # 1, 2, ...: one reduceat over their edges sums every sibling group,
        # once every inner node has a child
        dangling = self.n_children[:self._slices[-1].start] < 1
        if dangling.any():
            raise TreeError(f"dangling node at level {int(self.level_of[dangling.argmax()])} "
                            "(no children)")
        sums = np.add.reduceat(edge[1:], self.first_child[:self._slices[-1].start] - 1)
        bad = np.abs(sums - 1.0) > 1e-9
        if bad.any():
            node = int(bad.argmax())
            raise TreeError(
                f"probabilities do not sum to 1 under {name} at node "
                f"{node} (level {int(self.level_of[node])}, sum {sums[node]:.12g})")

    # -- structure accessors ---------------------------------------------------

    def level_nodes(self, k: int) -> np.ndarray:
        sl = self._slices[k]
        return np.arange(sl.start, sl.stop)

    def level_slice(self, k: int) -> slice:
        return self._slices[k]

    def level_size(self, k: int) -> int:
        sl = self._slices[k]
        return sl.stop - sl.start

    def children(self, v: int) -> np.ndarray:
        return np.arange(self.first_child[v], self.first_child[v] + self.n_children[v])

    def edge_probs(self, measure: str) -> np.ndarray:
        if measure == "P":
            return self.p_edge
        if measure == "Q":
            return self.q_edge
        raise TreeError(f"unknown measure {measure!r} (use 'P' or 'Q')")

    def path_nodes(self) -> np.ndarray:
        """(n_leaves, N+1) matrix of the node at each time along each leaf path."""
        if self._path_nodes is None:
            n = self.n_periods
            mat = np.empty((self.leaves.size, n + 1), dtype=np.int64)
            mat[:, n] = self.leaves
            for k in range(n - 1, -1, -1):
                mat[:, k] = self.parent[mat[:, k + 1]]
            self._path_nodes = mat
        return self._path_nodes

    def sum_over_children(self, k: int, values_next: np.ndarray) -> np.ndarray:
        """Sum ``values_next`` (indexed over level k+1) over each level-k node's children."""
        return np.add.reduceat(values_next, self._child_offsets[k])

    def density_zf(self) -> np.ndarray:
        """Node values of the P->Q density martingale Z^F (= Q-path-prob / P-path-prob)."""
        return self.node_q / self.node_p


@dataclass
class AdaptedProcess:
    """A real value per tree node; the carrier for every adapted object."""

    tree: FiniteTree
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.tree.n_nodes,):
            raise TreeError(f"process has {v.shape} values, tree has {self.tree.n_nodes} nodes")
        self.values = v

    @classmethod
    def constant(cls, tree: FiniteTree, c: float) -> "AdaptedProcess":
        return cls(tree, np.full(tree.n_nodes, float(c)))


def _vals(x) -> np.ndarray:
    return x.values if isinstance(x, AdaptedProcess) else np.asarray(x, dtype=float)


def node_values(tree: FiniteTree, x, name: str) -> np.ndarray:
    """One value per node of ``tree`` from a coefficient: a scalar fills every
    node, an :class:`AdaptedProcess` must live on ``tree`` itself (the
    :func:`shared_tree` rule) and a plain array needs one value per node."""
    if np.isscalar(x):
        return np.full(tree.n_nodes, float(x))
    if isinstance(x, AdaptedProcess) and x.tree is not tree:
        raise TreeError(f"{name} lives on a different tree than the problem")
    v = _vals(x)
    if v.shape != (tree.n_nodes,):
        raise TreeError(f"{name} needs one value per node (or a scalar)")
    return v


@dataclass
class StoppingTime:
    """Stop/continue decision per node; every terminal node stops.

    Adaptedness is automatic (the decision is a function of the node).  The
    terminal-stop invariant guarantees at least one stop on every path.
    """

    tree: FiniteTree
    stop: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.stop, dtype=bool)
        if s.shape != (self.tree.n_nodes,):
            raise TreeError("stop mask has wrong length")
        if not np.all(s[self.tree.level_slice(self.tree.n_periods)]):
            raise TreeError("every terminal node must be a stop node")
        self.stop = s

    @classmethod
    def horizon(cls, tree: FiniteTree) -> "StoppingTime":
        """tau = T."""
        s = np.zeros(tree.n_nodes, dtype=bool)
        s[tree.level_slice(tree.n_periods)] = True
        return cls(tree, s)

    def stop_levels(self) -> np.ndarray:
        """Per leaf path, the time index of the first stop node."""
        paths = self.tree.path_nodes()
        hit = self.stop[paths]
        return np.argmax(hit, axis=1)

    def stop_nodes_per_path(self) -> np.ndarray:
        paths = self.tree.path_nodes()
        lv = self.stop_levels()
        return paths[np.arange(paths.shape[0]), lv]


def shared_tree(*objs) -> FiniteTree:
    """The ``.tree`` of every given object (``None`` skipped); ``TreeError`` if
    two of them are different tree objects, even trees of the same size."""
    given = [o for o in objs if o is not None]
    tree = given[0].tree
    for o in given[1:]:
        if o.tree is not tree:
            raise TreeError(f"{type(o).__name__} lives on a different tree than "
                            f"{type(given[0]).__name__}")
    return tree


# --------------------------------------------------------------------------
# Tree construction
# --------------------------------------------------------------------------

def build_tree(spec: dict) -> FiniteTree:
    """Build and validate a tree from a scenario-style description.

    Expected keys: ``times`` (grid), ``branching`` (int, per-level ints, or
    per-level per-node lists), ``p`` ("uniform" or nested per-node lists) and
    either ``q`` (same layout) or ``zf_leaves`` (terminal values of the density
    Z^F, from which Q is derived by reweighting P node-wise).  Omitting both
    sets Q = P.  The spec is parsed into the arrays of
    :func:`tree_from_counts`; errors come in the order of a walk over it: the
    branching first, then the rows of p and then of q, level by level and
    node by node.
    """
    grid = TimeGrid(np.asarray(spec["times"], dtype=float))
    counts = _branching_counts(spec.get("branching", 2), grid.steps)
    given = {"p": spec.get("p", "uniform")}
    if spec.get("q") is not None:
        given["q"] = spec["q"]
    rows = {}
    for label, g in given.items():
        rows[label], err = _flat_rows(g, counts, label)
        if err is not None:
            # the rows before a layout error are checked first
            widths, level_start = _layout(counts)
            ends = np.cumsum(widths)
            for lb, r in rows.items():
                n = widths.size if isinstance(r, str) else np.searchsorted(ends, r.size, "right")
                _edges(r, widths[:n], level_start, lb)
            raise err
    return tree_from_counts(grid, counts, rows["p"], rows.get("q"), spec.get("zf_leaves"))


def tree_from_counts(grid: TimeGrid, counts: list[np.ndarray], p, q=None,
                     zf_leaves=None) -> FiniteTree:
    """The one array-level tree constructor: :func:`build_tree` parses a
    scenario spec into its arguments and ``instances.random_tree`` draws them.

    ``counts[k]`` is the int64 array of the children of each level-k node,
    k < N, with ``counts[k + 1].size == counts[k].sum()``.  ``p`` and ``q``
    hold one row of edge weights per inner node, laid end to end in node
    order (entry v - 1 weighs the edge into node v), or ``"uniform"``; each
    row is divided by its sum.  ``q=None`` sets Q = P, which ``zf_leaves``
    then reweights (:func:`reweight_by_density`).
    """
    widths, level_start = _layout(counts)
    inner = widths.size
    n_nodes = int(level_start[-1])
    parent = np.empty(n_nodes, dtype=np.int64)
    parent[0] = -1
    parent[1:] = np.repeat(np.arange(inner), widths)
    first_child = np.full(n_nodes, -1, dtype=np.int64)
    first_child[:inner] = np.cumsum(widths) - widths + 1
    n_children = np.zeros(n_nodes, dtype=np.int64)
    n_children[:inner] = widths
    p_edge = _edges(p, widths, level_start, "p")
    q_edge = p_edge if q is None else _edges(q, widths, level_start, "q")
    tree = FiniteTree(grid, parent, first_child, n_children, p_edge, q_edge, level_start)
    if zf_leaves is None:
        return tree
    if q is not None:
        raise TreeError("give either q or zf_leaves, not both")
    return reweight_by_density(tree, np.asarray(zf_leaves, dtype=float))


def reweight_by_density(tree: FiniteTree, zf_leaves: np.ndarray) -> FiniteTree:
    """Derive Q from P by the terminal density Z^F (normalised to E_P[Z^F]=1).

    The tree returned shares every P-side array and cache of ``tree``; only
    its Q edges are new, and only they are checked.
    """
    if zf_leaves.shape != (tree.leaves.size,):
        raise TreeError("zf_leaves must have one value per terminal node")
    finite = np.isfinite(zf_leaves)
    if not finite.all():
        i = int(finite.argmin())
        raise TreeError(f"zf_leaves[{i}] (node {int(tree.leaves[i])}) is not finite")
    if (zf_leaves <= 0.0).any():
        raise TreeError("density Z^F must be strictly positive")
    z = backward(tree, zf_leaves, measure="P")
    z /= z[0]  # Z_0 = 1
    q_edge = np.ones(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    q_edge[sl] = tree.p_edge[sl] * z[sl] / z[tree.parent[sl]]
    out = copy.copy(tree)
    out.q_edge = q_edge
    out.node_q = forward(tree, q_edge, np.multiply, 1.0)
    out._check_measure("Q", q_edge)
    return out


def _branching_counts(branching, n_levels: int) -> list[np.ndarray]:
    """The children of each level-k node, k < N, as int64 arrays, from an
    int, per-level ints or per-level per-node lists.  A level with the wrong
    number of entries raises first, then a node with no child."""
    if isinstance(branching, (int, np.integer)):
        branching = [int(branching)] * n_levels
    elif len(branching) != n_levels:
        raise TreeError(f"branching must describe {n_levels} levels")
    counts, size = [], 1
    for b in branching:
        counts.append(np.full(max(size, 0), int(b), dtype=np.int64)
                      if isinstance(b, (int, np.integer))
                      else np.array([int(x) for x in b], dtype=np.int64))
        size = int(counts[-1].sum())
    size = 1
    for k, cnt in enumerate(counts):
        if cnt.size != size:
            raise TreeError(f"branching list at level {k} has {cnt.size} entries, "
                            f"level has {size} nodes")
        size = int(cnt.sum())
    low = np.concatenate(counts) < 1
    if low.any():
        k = int(np.searchsorted(np.cumsum([c.size for c in counts]), low.argmax(), "right"))
        raise TreeError(f"dangling node at level {k} (zero branching)")
    return counts


def _layout(counts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(children of each inner node in node order, level_start) of a tree."""
    sizes = [c.size for c in counts] + [int(counts[-1].sum())]
    return np.concatenate(counts), np.cumsum([0] + sizes, dtype=np.int64)


def _flat_rows(given, counts: list[np.ndarray], label: str):
    """The rows of a per-level, per-node probability spec laid end to end,
    and the first layout error (a level with the wrong number of rows, or a
    row with the wrong number of entries) or None; with an error, the rows
    before it.  ``"uniform"`` is passed through; a wrong number of levels
    raises."""
    if isinstance(given, str) and given == "uniform":
        return given, None
    if len(given) != len(counts):
        raise TreeError(f"{label} has {len(given)} levels, expected {len(counts)}")
    parts = [np.empty(0)]
    for k, cnt in enumerate(counts):
        rows = given[k]
        if len(rows) != cnt.size:
            return np.concatenate(parts), TreeError(
                f"{label}[level {k}] has {len(rows)} rows, expected {cnt.size}")
        rows = [r if isinstance(r, (list, tuple, np.ndarray)) else [r] for r in rows]
        sizes = np.fromiter(map(len, rows), np.int64, len(rows))
        bad = np.flatnonzero(sizes != cnt)
        ok = int(bad[0]) if bad.size else len(rows)
        parts.append(np.fromiter(itertools.chain.from_iterable(rows[:ok]), float,
                                 int(sizes[:ok].sum())))
        if bad.size:
            return np.concatenate(parts), TreeError(
                f"{label}[level {k}][node {ok}] has {sizes[ok]} entries, branching is {cnt[ok]}")
    return np.concatenate(parts), None


def row_sums(rows: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The sum of each row of ``rows``, rows of the given widths laid end to
    end: one ``(count, c).sum(axis=1)`` per distinct width c, which is
    bitwise ``row.sum()`` of each row (``np.add.reduceat`` is not)."""
    starts = np.cumsum(widths) - widths
    sums = np.empty(widths.size)
    for c in np.flatnonzero(np.bincount(widths)).tolist():
        at = np.flatnonzero(widths == c)
        sums[at] = rows[starts[at, None] + np.arange(c)].sum(axis=1)
    return sums


def _edges(rows, widths: np.ndarray, level_start: np.ndarray, label: str) -> np.ndarray:
    """Edge probabilities, one per node (1.0 at the root), from rows of
    weights laid end to end or ``"uniform"``: each row divided by its sum.
    The first row whose sum is off 1 by more than 1e-9, or that holds a
    weight <= 0, raises; a row's sum is checked before its signs."""
    if isinstance(rows, str):
        rows = np.repeat(1.0 / widths, widths)
    sums = row_sums(rows, widths)
    off = np.abs(sums - 1.0) > 1e-9
    low = rows <= 0.0
    if off.any() or low.any():
        first_low = np.searchsorted(np.cumsum(widths), low.argmax(), "right")
        r = int(min(off.argmax() if off.any() else widths.size,
                    first_low if low.any() else widths.size))
        k = int(np.searchsorted(level_start, r, "right")) - 1
        at = f"{label}[level {k}][node {r - int(level_start[k])}]"
        if off[r]:
            raise TreeError(f"{at}: probabilities do not sum to 1 (got {sums[r]:.12g})")
        raise TreeError(f"{at}: zero/negative probability (breaks measure equivalence)")
    edge = np.empty(rows.size + 1)
    edge[0] = 1.0
    np.divide(rows, np.repeat(sums, widths), out=edge[1:])
    return edge


# --------------------------------------------------------------------------
# Conditional expectation and friends
# --------------------------------------------------------------------------

def condexp(tree: FiniteTree, x, k: int, measure: str = "Q") -> np.ndarray:
    """E[x_{k+1} | F_k]: exact probability-weighted average over children.

    ``x`` may be a full-node array, an :class:`AdaptedProcess`, or an array
    over the level-(k+1) nodes only.  Returns values over the level-k nodes.
    """
    xv = _vals(x)
    if xv.shape == (tree.n_nodes,):
        xv = xv[tree.level_slice(k + 1)]
    elif xv.shape != (tree.level_size(k + 1),):
        raise TreeError(f"condexp at level {k}: got {xv.shape}, expected level "
                        f"{k + 1} values")
    w = tree.edge_probs(measure)[tree.level_slice(k + 1)] * xv
    return tree.sum_over_children(k, w)


def backward(tree: FiniteTree, terminal, step=None, measure: str = "Q") -> np.ndarray:
    """The level sweep behind every backward solve (full-node array out).

    Starts from the terminal values and walks the levels from N-1 down to 0.
    At each level the continuation ``e = E[value_{k+1} | F_k]`` is formed
    under ``measure`` and ``step(sl, e)`` returns the values of the level-k
    nodes ``sl``; a step records its own side outputs (stop masks, reflection
    increments, supermartingale drops).  Without a step the sweep is the
    martingale closure E[X_T | F_k].
    """
    tv = _vals(terminal)
    if tv.shape == (tree.n_nodes,):
        tv = tv[tree.level_slice(tree.n_periods)]
    out = np.empty(tree.n_nodes)
    out[tree.level_slice(tree.n_periods)] = tv
    for k in range(tree.n_periods - 1, -1, -1):
        sl = tree.level_slice(k)
        e = condexp(tree, out[tree.level_slice(k + 1)], k, measure)
        out[sl] = e if step is None else step(sl, e)
    return out


def forward(tree: FiniteTree, incr: np.ndarray, combine, root) -> np.ndarray:
    """The level sweep behind every path accumulation (full-node array out).

    ``out[0] = root`` and, level by level from the root down,
    ``out[v] = combine(out[parent(v)], incr[v])``.  The output takes the dtype
    of ``incr``.  Increments that are read at the parent node are passed as
    ``x[tree.parent]``.  The node axis is the last one: leading axes of
    ``incr`` are a batch of processes swept together, each exactly as it
    would be alone.
    """
    out = np.empty_like(np.asarray(incr))
    o, x = out.T, np.asarray(incr).T        # node axis first: one gather per level
    o[0] = root
    for k in range(1, tree.n_periods + 1):
        sl = tree.level_slice(k)
        o[sl] = combine(o[tree.parent[sl]], x[sl])
    return out


def martingale_residual(tree: FiniteTree, x, measure: str = "Q") -> float:
    """max over k and level-k nodes of |E[x_{k+1} | F_k] - x_k|; NaN as soon as
    any term is NaN."""
    xv = _vals(x)
    return float(np.max([np.max(np.abs(condexp(tree, xv, k, measure)
                                       - xv[tree.level_slice(k)]))
                         for k in range(tree.n_periods)], initial=0.0))


def doob_decomposition(x, tol: float = 1e-12):
    """Split a Q-supermartingale into x = N - B (N martingale, B predictable,
    nondecreasing).

    B is the full predictable compensator; in discrete time there is no
    separate left-jump component.  Raises if ``x`` fails the supermartingale
    check beyond ``tol``.
    """
    tree = x.tree if isinstance(x, AdaptedProcess) else None
    if tree is None:
        raise TreeError("doob_decomposition expects an AdaptedProcess")
    xv = x.values
    drop = np.zeros(tree.n_nodes)         # x_k - E[x_{k+1} | F_k]; 0 at the horizon

    def step(sl, e):                      # the sweep carries x itself
        drop[sl] = xv[sl] - e
        return xv[sl]

    backward(tree, xv, step)
    bad = np.flatnonzero(drop < -tol)
    if bad.size:
        k = int(tree.level_of[bad[0]])
        raise TreeError(f"input is not a supermartingale at level {k} "
                        f"(violation {float(np.min(drop[tree.level_slice(k)])):.3g})")
    b = forward(tree, np.maximum(drop, 0.0)[tree.parent], np.add, 0.0)
    n_mart = AdaptedProcess(tree, xv + b)
    return n_mart, AdaptedProcess(tree, b)


# --------------------------------------------------------------------------
# Optimal stopping
# --------------------------------------------------------------------------

def _stop_mask(tree: FiniteTree, allowed) -> np.ndarray:
    """The nodes where stopping is allowed, one flag per node; every node
    when ``allowed`` is None."""
    if allowed is None:
        return np.ones(tree.n_nodes, dtype=bool)
    mask = np.asarray(allowed, dtype=bool)
    if mask.shape != (tree.n_nodes,):
        raise TreeError(f"stop mask has shape {mask.shape}, tree has {tree.n_nodes} nodes")
    return mask


@dataclass(frozen=True)
class StoppingProblem:
    """Stop once, at a node of ``allowed`` (None: every node), and collect
    ``reward`` there.  The mask must allow the horizon; it is checked here."""

    reward: AdaptedProcess
    allowed: np.ndarray | None = None

    def __post_init__(self):
        tree = self.reward.tree
        mask = _stop_mask(tree, self.allowed)
        if not mask[tree.level_slice(tree.n_periods)].all():
            raise TreeError("mask excludes a terminal node")
        object.__setattr__(self, "allowed", mask)


def snell_envelope(problem: StoppingProblem):
    """Smallest Q-supermartingale dominating the reward where stopping is
    allowed: ``max(reward, E^Q[value_next])`` there, the continuation
    elsewhere, the reward at the horizon.  Returns ``(value, tau_star)``;
    ``tau_star`` stops at the earliest allowed node with reward >=
    continuation (ties stop)."""
    tree, rv, allowed = problem.reward.tree, problem.reward.values, problem.allowed
    stop = allowed.copy()                 # the horizon stops; the sweep sets the rest

    def step(sl, cont):
        ok = allowed[sl]
        stop[sl] = ok & (rv[sl] >= cont)
        return np.where(ok, np.maximum(rv[sl], cont), cont)

    value = backward(tree, rv, step)
    return AdaptedProcess(tree, value), StoppingTime(tree, stop)


def count_stopping_times(tree: FiniteTree, allowed: np.ndarray | None = None,
                         cap: int = DEFAULT_ENUM_CAP) -> int:
    """c(v) = [v allowed] + prod over children c(w); exact count, cap-checked.

    One level at a time from the leaves up, in float64.  Every count kept is
    at most ``cap`` < 2**53, so it is an exact integer; a product past the
    cap rounds to a float past the cap too, so the check stays exact.  Raises
    at the first node over the cap, levels from N-1 down and nodes ascending.
    """
    if cap >= 2 ** 53:
        raise ValueError(f"cap {cap} is not below 2**53; counts past it are not "
                         "exact in float64")
    allowed = _stop_mask(tree, allowed)
    counts = np.ones(tree.leaves.size)
    for k in range(tree.n_periods - 1, -1, -1):
        sl = tree.level_slice(k)
        offsets = tree.first_child[sl] - tree.level_start[k + 1]
        counts = np.multiply.reduceat(counts, offsets) + allowed[sl]
        over = np.flatnonzero(counts > cap)
        if over.size:
            raise EnumerationCapError(
                f"stopping-time count exceeds cap {cap} at node {sl.start + int(over[0])}")
    return int(counts[0])


def _enumerate_stop_nodes(tree: FiniteTree, allowed: np.ndarray, cap: int) -> np.ndarray:
    """(count, n_leaves) matrix: stop node per leaf path for every stopping time
    with its stop nodes in ``allowed``; the oracle behind every sup/inf over
    stopping times in the suites.

    The row count is checked against the counting formula, which also guards
    the cap before anything is built.
    """
    n = count_stopping_times(tree, allowed, cap)  # raises if too many

    def rec(v: int) -> list[np.ndarray]:
        if tree.n_children[v] == 0:
            return [np.array([v], dtype=np.int64)]
        child_lists = [rec(int(w)) for w in tree.children(v)]
        out = []
        if allowed[v]:
            width = sum(arrs[0].size for arrs in child_lists)
            out.append(np.full(width, v, dtype=np.int64))
        for combo in itertools.product(*child_lists):
            out.append(np.concatenate(combo))
        return out

    mat = np.vstack(rec(0))
    if mat.shape[0] != n:
        raise IdentityError(f"enumerated {mat.shape[0]} stopping times, the counting "
                            f"formula gives {n}")
    return mat


def evaluate_stopping(reward, tau: StoppingTime) -> float:
    """Exact E^Q[reward at the stopped node]."""
    tree = shared_tree(reward, tau)
    nodes = tau.stop_nodes_per_path()
    return float(np.dot(tree.node_q[tree.leaves], reward.values[nodes]))


def brute_force_snell_root(problem: StoppingProblem, cap: int = DEFAULT_ENUM_CAP) -> float:
    """max over all enumerated stopping times of evaluate_stopping (root value)."""
    tree = problem.reward.tree
    mat = _enumerate_stop_nodes(tree, problem.allowed, cap)
    return float(np.max(problem.reward.values[mat] @ tree.node_q[tree.leaves]))
