"""Finite filtered probability spaces on event trees.

Everything in this package runs on a :class:`FiniteTree`: a rooted tree whose
level-k nodes are the atoms of F_{t_k}, carrying one-step transition
probabilities under a base measure P and a pricing measure Q.  Conditional
expectations are exact probability-weighted sums over children; nothing is
sampled.  Trees and processes are immutable after construction, so every
operation here is a pure function and safe to call concurrently.
"""

from __future__ import annotations

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
        if not np.all(np.isfinite(t)):
            raise TreeError(f"time grid entry {int(np.flatnonzero(~np.isfinite(t))[0])} "
                            "is not finite")
        if t[0] != 0.0:
            raise TreeError("time grid must start at t_0 = 0")
        if np.any(np.diff(t) <= 0.0):
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
        self.n_periods = grid.steps
        self.n_nodes = int(level_start[-1])
        self.level_of = np.repeat(np.arange(self.n_periods + 1),
                                  np.diff(level_start).astype(int))
        # Probability of reaching each node from the root.
        self.node_p = self._path_products(p_edge)
        self.node_q = self._path_products(q_edge)
        self._path_nodes: np.ndarray | None = None
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _path_products(self, edge: np.ndarray) -> np.ndarray:
        return forward(self, edge, np.multiply, 1.0)

    def _validate(self):
        for name, edge in (("P", self.p_edge), ("Q", self.q_edge)):
            if not np.all(np.isfinite(edge)):
                v = int(np.flatnonzero(~np.isfinite(edge))[0])
                raise TreeError(f"{name}-probability of edge into node {v} is not finite")
            if np.any(edge <= 0.0):
                v = int(np.flatnonzero(edge <= 0.0)[0])
                raise TreeError(
                    f"{name}-probability of edge into node {v} is not strictly "
                    "positive (breaks measure equivalence)")
            for k in range(self.n_periods):
                sums = self.sum_over_children(k, edge[self.level_slice(k + 1)])
                bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
                if bad.size:
                    node = int(self.level_nodes(k)[bad[0]])
                    raise TreeError(
                        f"probabilities do not sum to 1 under {name} at node "
                        f"{node} (level {k}, sum {sums[bad[0]]:.12g})")
        if np.any(self.n_children[self.level_slice(self.n_periods)] != 0):
            raise TreeError("terminal node with children")
        for k in range(self.n_periods):
            if np.any(self.n_children[self.level_slice(k)] < 1):
                raise TreeError(f"dangling node at level {k} (no children)")

    # -- structure accessors ---------------------------------------------------

    def level_nodes(self, k: int) -> np.ndarray:
        return np.arange(self.level_start[k], self.level_start[k + 1])

    def level_slice(self, k: int) -> slice:
        return slice(int(self.level_start[k]), int(self.level_start[k + 1]))

    def level_size(self, k: int) -> int:
        return int(self.level_start[k + 1] - self.level_start[k])

    @property
    def leaves(self) -> np.ndarray:
        return self.level_nodes(self.n_periods)

    def children(self, v: int) -> np.ndarray:
        return np.arange(self.first_child[v], self.first_child[v] + self.n_children[v])

    def edge_probs(self, measure: str) -> np.ndarray:
        if measure == "P":
            return self.p_edge
        if measure == "Q":
            return self.q_edge
        raise TreeError(f"unknown measure {measure!r} (use 'P' or 'Q')")

    def node_probs(self, measure: str) -> np.ndarray:
        return self.node_p if measure == "P" else self.node_q

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
        offsets = (self.first_child[self.level_slice(k)] - self.level_start[k + 1]).astype(np.int64)
        return np.add.reduceat(values_next, offsets)

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

    @classmethod
    def from_stop_nodes(cls, tree: FiniteTree, nodes) -> "StoppingTime":
        s = np.zeros(tree.n_nodes, dtype=bool)
        s[np.asarray(list(nodes), dtype=int)] = True
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
    sets Q = P.
    """
    grid = TimeGrid(np.asarray(spec["times"], dtype=float))
    n = grid.steps
    counts = _normalize_branching(spec.get("branching", 2), n)
    level_sizes = [1]
    for k in range(n):
        if len(counts[k]) != level_sizes[-1]:
            raise TreeError(f"branching list at level {k} has {len(counts[k])} entries, "
                            f"level has {level_sizes[-1]} nodes")
        level_sizes.append(int(sum(counts[k])))
    level_start = np.concatenate([[0], np.cumsum(level_sizes)]).astype(np.int64)
    n_nodes = int(level_start[-1])

    parent = np.full(n_nodes, -1, dtype=np.int64)
    first_child = np.full(n_nodes, -1, dtype=np.int64)
    n_children = np.zeros(n_nodes, dtype=np.int64)
    for k in range(n):
        nodes = np.arange(level_start[k], level_start[k + 1])
        cnt = np.asarray(counts[k], dtype=np.int64)
        if np.any(cnt < 1):
            raise TreeError(f"dangling node at level {k} (zero branching)")
        first_child[nodes] = level_start[k + 1] + np.concatenate([[0], np.cumsum(cnt)[:-1]])
        n_children[nodes] = cnt
        parent[level_start[k + 1]:level_start[k + 2]] = np.repeat(nodes, cnt)

    p_edge = _edge_probs_from_spec(spec.get("p", "uniform"), counts, level_start, "p")
    if "q" in spec and spec["q"] is not None:
        q_edge = _edge_probs_from_spec(spec["q"], counts, level_start, "q")
    else:
        q_edge = p_edge.copy()

    tree = FiniteTree(grid, parent, first_child, n_children, p_edge, q_edge, level_start)

    zf = spec.get("zf_leaves")
    if zf is not None:
        if "q" in spec and spec["q"] is not None:
            raise TreeError("give either q or zf_leaves, not both")
        tree = reweight_by_density(tree, np.asarray(zf, dtype=float))
    return tree


def reweight_by_density(tree: FiniteTree, zf_leaves: np.ndarray) -> FiniteTree:
    """Derive Q from P by the terminal density Z^F (normalised to E_P[Z^F]=1)."""
    if zf_leaves.shape != (tree.leaves.size,):
        raise TreeError("zf_leaves must have one value per terminal node")
    if not np.all(np.isfinite(zf_leaves)):
        i = int(np.flatnonzero(~np.isfinite(zf_leaves))[0])
        raise TreeError(f"zf_leaves[{i}] (node {int(tree.leaves[i])}) is not finite")
    if np.any(zf_leaves <= 0.0):
        raise TreeError("density Z^F must be strictly positive")
    z = backward(tree, zf_leaves, measure="P")
    z /= z[0]  # Z_0 = 1
    q_edge = np.ones(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    q_edge[sl] = tree.p_edge[sl] * z[sl] / z[tree.parent[sl]]
    return FiniteTree(tree.grid, tree.parent, tree.first_child, tree.n_children,
                      tree.p_edge, q_edge, tree.level_start)


def _normalize_branching(branching, n_levels: int):
    if isinstance(branching, (int, np.integer)):
        counts, size = [], 1
        for _ in range(n_levels):
            counts.append([int(branching)] * size)
            size *= int(branching)
        return counts
    out, size = [], 1
    if len(branching) != n_levels:
        raise TreeError(f"branching must describe {n_levels} levels")
    for k, b in enumerate(branching):
        if isinstance(b, (int, np.integer)):
            out.append([int(b)] * size)
        else:
            out.append([int(x) for x in b])
        size = sum(out[-1])
    return out


def _edge_probs_from_spec(p, counts, level_start, label: str) -> np.ndarray:
    n_nodes = int(level_start[-1])
    edge = np.ones(n_nodes)
    uniform = isinstance(p, str) and p == "uniform"
    for k, cnt in enumerate(counts):
        pos = int(level_start[k + 1])
        if uniform:
            edge[pos:int(level_start[k + 2])] = _uniform_edges(cnt, k, label)
            continue
        rows = p[k]
        if len(rows) != len(cnt):
            raise TreeError(f"{label}[level {k}] has {len(rows)} rows, expected {len(cnt)}")
        for i, (row, c) in enumerate(zip(rows, cnt)):
            row = np.asarray(row, dtype=float)
            if row.size != c:
                raise TreeError(f"{label}[level {k}][node {i}] has {row.size} entries, "
                                f"branching is {c}")
            s = row.sum()
            if abs(s - 1.0) > 1e-9:
                raise TreeError(f"{label}[level {k}][node {i}]: probabilities do not "
                                f"sum to 1 (got {s:.12g})")
            if np.any(row <= 0.0):
                raise TreeError(f"{label}[level {k}][node {i}]: zero/negative probability "
                                "(breaks measure equivalence)")
            edge[pos:pos + c] = row / s
            pos += c
    return edge


def _uniform_edges(cnt, k: int, label: str) -> np.ndarray:
    """Edge probabilities of one level under ``"uniform"``: each row is
    ``row / row.sum()`` with ``row = [1/c] * c``, formed once per distinct
    branching value c."""
    cnt = np.asarray(cnt, dtype=np.int64)
    values, which = np.unique(cnt, return_inverse=True)
    sums = np.array([np.full(c, 1.0 / c).sum() for c in values.tolist()])
    bad = np.flatnonzero(np.abs(sums[which] - 1.0) > 1e-9)
    if bad.size:
        raise TreeError(f"{label}[level {k}][node {int(bad[0])}]: probabilities do not "
                        f"sum to 1 (got {sums[which[bad[0]]]:.12g})")
    return np.repeat((1.0 / values / sums)[which], cnt)


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
    ``x[tree.parent]``.
    """
    out = np.empty_like(np.asarray(incr))
    out[0] = root
    for k in range(1, tree.n_periods + 1):
        sl = tree.level_slice(k)
        out[sl] = combine(out[tree.parent[sl]], incr[sl])
    return out


def martingale_residual(tree: FiniteTree, x, measure: str = "Q") -> float:
    """max over k and level-k nodes of |E[x_{k+1} | F_k] - x_k|; NaN as soon as
    any term is NaN."""
    xv = _vals(x)
    return float(np.max([np.max(np.abs(condexp(tree, xv, k, measure)
                                       - xv[tree.level_slice(k)]))
                         for k in range(tree.n_periods)], initial=0.0))


def doob_decomposition(x, measure: str = "Q", tol: float = 1e-12):
    """Split a supermartingale into x = N - B (N martingale, B predictable, nondecreasing).

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

    backward(tree, xv, step, measure)
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

def snell_envelope(reward, measure: str = "Q", allowed: np.ndarray | None = None):
    """Smallest supermartingale dominating the reward on allowed nodes.

    Backward induction ``value = max(reward, E[value_next])`` at allowed
    nodes, plain continuation elsewhere; at terminal nodes value = reward.
    Returns ``(value, tau_star)`` where ``tau_star`` stops at the earliest
    allowed node with reward >= continuation (ties stop).
    """
    tree = reward.tree
    rv = reward.values
    if allowed is None:
        allowed = np.ones(tree.n_nodes, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if not np.all(allowed[tree.level_slice(tree.n_periods)]):
        raise TreeError("mask excludes a terminal node")

    stop = np.zeros(tree.n_nodes, dtype=bool)

    def step(sl, cont):
        ok = allowed[sl]
        stop[sl] = ok & (rv[sl] >= cont)
        return np.where(ok, np.maximum(rv[sl], cont), cont)

    value = backward(tree, rv, step, measure)
    return AdaptedProcess(tree, value), StoppingTime(tree, stop | StoppingTime.horizon(tree).stop)


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
    if allowed is None:
        allowed = np.ones(tree.n_nodes, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
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
    """(count, n_leaves) matrix: stop node per leaf path for every stopping time.

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


def enumerate_stopping_times(tree: FiniteTree, allowed: np.ndarray | None = None,
                             cap: int = DEFAULT_ENUM_CAP) -> list[StoppingTime]:
    """Exhaustive list of distinct stopping times with stop nodes in the mask.

    Terminal nodes are always allowed.  The oracle behind every sup/inf over
    stopping times in the test suites.
    """
    if allowed is None:
        allowed = np.ones(tree.n_nodes, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool) | StoppingTime.horizon(tree).stop
    mat = _enumerate_stop_nodes(tree, allowed, cap)
    out = []
    for row in mat:
        out.append(StoppingTime.from_stop_nodes(tree, np.unique(row)))
    return out


def evaluate_stopping(reward, tau: StoppingTime, measure: str = "Q") -> float:
    """Exact E[reward at the stopped node] under the chosen measure."""
    tree = shared_tree(reward, tau)
    nodes = tau.stop_nodes_per_path()
    w = tree.node_probs(measure)[tree.leaves]
    return float(np.dot(w, reward.values[nodes]))


def brute_force_snell_root(reward, measure: str = "Q",
                           allowed: np.ndarray | None = None,
                           cap: int = DEFAULT_ENUM_CAP) -> float:
    """max over all enumerated stopping times of evaluate_stopping (root value)."""
    tree = reward.tree
    if allowed is None:
        allowed = np.ones(tree.n_nodes, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool) | StoppingTime.horizon(tree).stop
    mat = _enumerate_stop_nodes(tree, allowed, cap)
    w = tree.node_probs(measure)[tree.leaves]
    vals = reward.values[mat] @ w
    return float(np.max(vals))
