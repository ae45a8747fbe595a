"""Random times on an extended finite space and their exact projections.

A random time theta is realized on the product of the market tree's leaf
paths with the default-time values {t_1, ..., t_N, "after T"}.  On that
space every object of the reduced-form toolkit (survival processes G and
G-tilde, dual projections A^o / A^p, hazards Gamma / Gamma-tilde, the
martingales m, n and their compensated versions on the enlarged filtration)
is an exact finite sum, so the classical identities can be checked to
floating-point accuracy rather than proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HazardError, IdentityError, TreeError
from .filtration import AdaptedProcess, FiniteTree, StoppingTime, _vals, forward

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


class ExtendedSpace:
    """Progressive enlargement: atoms (market leaf path, theta) with exact probabilities."""

    def __init__(self, base: FiniteTree, leaf_row: np.ndarray, theta: np.ndarray,
                 prob: np.ndarray):
        self.base = base
        self.leaf_row = np.asarray(leaf_row, dtype=np.int64)
        self.theta = np.asarray(theta, dtype=np.int64)
        self.prob = np.asarray(prob, dtype=float)
        if not (self.leaf_row.shape == self.theta.shape == self.prob.shape):
            raise TreeError("atom arrays must have identical shape")
        if np.any(self.prob < 0.0):
            raise TreeError("negative atom probability")
        if abs(self.prob.sum() - 1.0) > 1e-9:
            raise TreeError(f"atom probabilities sum to {self.prob.sum():.12g}, not 1")
        bad = (self.theta < 1) | ((self.theta > base.n_periods) & (self.theta != INF))
        if np.any(bad):
            raise TreeError("theta index out of range")
        # market node of each atom at each time index
        self.node_at = base.path_nodes()[self.leaf_row]
        self.n_atoms = self.prob.size

    # -- conditional-expectation machinery ------------------------------------

    def f_groups(self, k: int) -> np.ndarray:
        """Group index of each atom within the F_k partition (= node at k)."""
        return self.node_at[:, k] - self.base.level_start[k]

    def f_condexp(self, payoff: np.ndarray, k: int, weights: np.ndarray | None = None
                  ) -> np.ndarray:
        """E[payoff | F_k] as values over the level-k nodes (exact Bayes sums)."""
        w = self.prob if weights is None else weights
        g = self.f_groups(k)
        m = self.base.level_size(k)
        num = np.bincount(g, weights=w * payoff, minlength=m)
        den = np.bincount(g, weights=w, minlength=m)
        if np.any(den <= 0.0):
            raise HazardError(f"F_{k} cell with zero mass (measure not equivalent)")
        return num / den

    def g_cells(self, k: int) -> np.ndarray:
        """Atom -> integer id of its G_k cell (market node at k, default state)."""
        dstate = np.where(self.theta <= k, self.theta, 0)
        return self.node_at[:, k] * np.int64(self.base.n_periods + 1) + dstate

    def g_condexp(self, payoff: np.ndarray, k: int, weights: np.ndarray | None = None
                  ) -> np.ndarray:
        """E[payoff | G_k] mapped back to atoms (each atom gets its cell's value)."""
        w = self.prob if weights is None else weights
        _, inv = np.unique(self.g_cells(k), return_inverse=True)
        num = np.bincount(inv, weights=w * payoff)
        den = np.bincount(inv, weights=w)
        pos = den > 0.0
        out = np.zeros_like(num)
        out[pos] = num[pos] / den[pos]
        return out[inv]

    def g_martingale_residual(self, x: np.ndarray, weights: np.ndarray | None = None
                              ) -> float:
        """max_k, cells |E[x_{k+1} - x_k | G_k]| for a process on the extension."""
        r = 0.0
        for k in range(self.base.n_periods):
            ce = self.g_condexp(x[:, k + 1], k, weights)
            r = max(r, float(np.max(np.abs(ce - x[:, k]))))
        return r

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
    the extension (atom x time).  ``dAo``/``dAp`` are the per-step increments
    of the dual projections, stored at the time-k node for the step ending at
    t_k (the A^p increment is constant across siblings by construction).
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
    mG: np.ndarray = field(repr=False)
    nG: np.ndarray = field(repr=False)

    def dGammaTilde(self) -> np.ndarray:
        tree = self.ext.base
        out = np.zeros(tree.n_nodes)
        sl = slice(1, tree.n_nodes)
        out[sl] = self.GammaTilde.values[sl] - self.GammaTilde.values[tree.parent[sl]]
        return out


def projections(ext: ExtendedSpace, weights: np.ndarray | None = None) -> ProjectionBundle:
    """Compute G, G~, A^o, A^p, Gamma, Gamma~, m, n, m^G, n^G on the extension.

    ``weights`` overrides the atom measure (used to redo everything under an
    equivalent measure); defaults to the extension's own measure.
    """
    tree = ext.base
    n = tree.n_periods
    w = ext.prob if weights is None else np.asarray(weights, dtype=float)

    G = np.empty(tree.n_nodes)
    Gt = np.empty(tree.n_nodes)
    dAo = np.zeros(tree.n_nodes)
    dAp = np.zeros(tree.n_nodes)
    pG = np.empty(tree.n_nodes)
    for k in range(n + 1):
        sl = tree.level_slice(k)
        G[sl] = ext.f_condexp((ext.theta > k).astype(float), k, w)
        Gt[sl] = ext.f_condexp((ext.theta >= k).astype(float), k, w)
        if k > 0:
            dAo[sl] = ext.f_condexp((ext.theta == k).astype(float), k, w)
            par_eq = ext.f_condexp((ext.theta == k).astype(float), k - 1, w)
            par_g = ext.f_condexp(G[ext.node_at[:, k]], k - 1, w)
            nodes = tree.level_nodes(k)
            dAp[sl] = par_eq[tree.parent[nodes] - tree.level_start[k - 1]]
            pG[sl] = par_g[tree.parent[nodes] - tree.level_start[k - 1]]
    pG[0] = G[0]

    Ao = np.zeros(tree.n_nodes)
    Ap = np.zeros(tree.n_nodes)
    Gam = np.zeros(tree.n_nodes)
    Gamt = np.zeros(tree.n_nodes)
    for k in range(1, n + 1):
        nodes = tree.level_nodes(k)
        par = tree.parent[nodes]
        Ao[nodes] = Ao[par] + dAo[nodes]
        Ap[nodes] = Ap[par] + dAp[nodes]
        if np.any(G[par] <= 0.0):
            raise HazardError("Azema supermartingale hits zero before the horizon "
                              "(Assumption of strict positivity violated)")
        if np.any(Gt[nodes] <= 0.0):
            raise HazardError("optional survival process hits zero")
        Gam[nodes] = Gam[par] + dAp[nodes] / G[par]
        Gamt[nodes] = Gamt[par] + dAo[nodes] / Gt[nodes]

    # closing martingales of the dual projections (sentinel mass G_N lives after T)
    leaves = tree.leaves
    ao_inf = Ao[leaves] + G[leaves]
    ap_inf = Ap[leaves] + G[leaves]
    m = np.empty(tree.n_nodes)
    nn = np.empty(tree.n_nodes)
    for k in range(n + 1):
        sl = tree.level_slice(k)
        m[sl] = ext.f_condexp(ao_inf[ext.leaf_row], k, w)
        nn[sl] = ext.f_condexp(ap_inf[ext.leaf_row], k, w)

    stop_idx = np.minimum(ext.theta[:, None], np.arange(n + 1)[None, :])
    stopped_nodes = np.take_along_axis(ext.node_at, stop_idx, axis=1)
    A = ext.indicator()
    mG = A - Gamt[stopped_nodes]
    nG = A - Gam[stopped_nodes]

    P = lambda v: AdaptedProcess(tree, v)
    return ProjectionBundle(ext, w, P(G), P(Gt), P(Ao), P(Ap), P(dAo), P(dAp),
                            P(Gam), P(Gamt), P(m), P(nn), P(pG), mG, nG)


# --------------------------------------------------------------------------
# Identity verification (Lemma-level report)
# --------------------------------------------------------------------------

@dataclass
class IdentityReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def passed(self, tol: float = IDENTITY_TOL) -> bool:
        return self.max_residual <= tol

    def failures(self, tol: float = IDENTITY_TOL) -> list[str]:
        return [k for k, v in self.residuals.items() if v > tol]


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

    e_gamt = _path_exponential(tree, -bundle.dGammaTilde())
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

def _sibling_spread(tree: FiniteTree, x: np.ndarray) -> float:
    """How far x is from being predictable (constant across sibling groups)."""
    spread = 0.0
    for k in range(tree.n_periods):
        nxt = tree.level_slice(k + 1)
        lo = np.full(tree.level_size(k), np.inf)
        hi = np.full(tree.level_size(k), -np.inf)
        g = tree.parent[nxt] - tree.level_start[k]
        np.minimum.at(lo, g, x[nxt])
        np.maximum.at(hi, g, x[nxt])
        spread = max(spread, float(np.max(hi - lo)))
    return spread


def key_lemma(ext: ExtendedSpace, x: AdaptedProcess, t: int, variant: str = "optional",
              weights: np.ndarray | None = None, tol: float = IDENTITY_TOL) -> np.ndarray:
    """E[X_theta | G_t] assembled from the dual-projection formula, per atom.

    Pre-default cells use G_t^{-1} E[sum_{j>t} X_j dA_j + X_T G_T | F_t] with
    the optional (dA^o) or predictable (dA^p) integrator; on the "after T"
    atom X_theta is read at the horizon.  The result must match the direct
    conditional expectation on the extension, node-wise to ``tol`` (checked
    here; a mismatch is an implementation bug, not an input property).
    """
    tree = ext.base
    n = tree.n_periods
    if variant not in ("optional", "predictable"):
        raise ValueError(f"unknown variant {variant!r}")
    xv = _vals(x)
    bundle = projections(ext, weights)
    w = bundle.weights
    if variant == "predictable":
        spread = _sibling_spread(tree, xv)
        if spread > tol:
            raise ValueError(
                f"predictable variant needs a predictable process (sibling spread {spread:.3g})")
        d_int = bundle.dAp.values
    else:
        d_int = bundle.dAo.values

    paths = tree.path_nodes()
    contrib = xv[paths[:, 1:]] * d_int[paths[:, 1:]]           # (leaves, N)
    tail = np.concatenate([np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((paths.shape[0], 1))], axis=1)  # sum over j>t
    sentinel = xv[tree.leaves] * bundle.G.values[tree.leaves]

    pre_leaf = tail[:, t] + sentinel
    pre_num = ext.f_condexp(pre_leaf[ext.leaf_row], t, w)
    g_level = bundle.G.values[tree.level_slice(t)]
    if np.any(g_level <= 0.0):
        raise HazardError("G = 0 encountered in the key lemma at a live cell")
    pre_val = pre_num / g_level

    out = np.where(ext.theta <= t,
                   xv[np.take_along_axis(ext.node_at,
                                         np.minimum(ext.theta, n)[:, None], 1)[:, 0]],
                   pre_val[ext.node_at[:, t] - tree.level_start[t]])

    direct_payoff = xv[np.take_along_axis(ext.node_at,
                                          np.minimum(ext.theta, n)[:, None], 1)[:, 0]]
    direct = ext.g_condexp(direct_payoff, t, w)
    err = float(np.max(np.abs(out - direct)))
    if err > tol:
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


def jeulin_yor_transform(ext: ExtendedSpace, M: AdaptedProcess,
                         bundle: ProjectionBundle | None = None,
                         tol: float = IDENTITY_TOL) -> np.ndarray:
    """Optional transform M^theta - G~^{-1} . [M, m]^theta, per atom and time.

    Input must be an (F, P)-martingale; the output is an exact martingale in
    the enlarged filtration, stopped at theta.
    """
    tree = ext.base
    mv = _vals(M)
    from .filtration import martingale_residual
    r = martingale_residual(tree, mv, "P")
    if r > tol:
        raise ValueError(f"input is not a P-martingale (residual {r:.3g})")
    if bundle is None:
        bundle = projections(ext)

    dM = _increments(tree, mv)
    dm = _increments(tree, bundle.m.values)
    incr = dM * dm / bundle.Gtilde.values           # bracket over G~ at the current node
    paths = tree.path_nodes()
    cum = np.concatenate([np.zeros((paths.shape[0], 1)),
                          np.cumsum(incr[paths[:, 1:]], axis=1)], axis=1)

    n = tree.n_periods
    stop_idx = np.minimum(ext.theta[:, None], np.arange(n + 1)[None, :])
    m_stopped = mv[np.take_along_axis(ext.node_at, stop_idx, axis=1)]
    cum_stopped = np.take_along_axis(cum[ext.leaf_row], stop_idx, axis=1)
    return m_stopped - cum_stopped


def pre_default_transform(ext: ExtendedSpace, M: AdaptedProcess,
                          bundle: ProjectionBundle | None = None,
                          tol: float = IDENTITY_TOL) -> np.ndarray:
    """Strict pre-default transform M^{theta-} - G^{-1} . [M, n]^{theta-}."""
    tree = ext.base
    mv = _vals(M)
    from .filtration import martingale_residual
    r = martingale_residual(tree, mv, "P")
    if r > tol:
        raise ValueError(f"input is not a P-martingale (residual {r:.3g})")
    if bundle is None:
        bundle = projections(ext)

    dM = _increments(tree, mv)
    dn = _increments(tree, bundle.n.values)
    if np.any(bundle.G.values[:tree.level_start[tree.n_periods]] <= 0.0):
        raise HazardError("G = 0 before the horizon")
    incr = np.zeros(tree.n_nodes)
    live = bundle.G.values > 0.0
    incr[live] = dM[live] * dn[live] / bundle.G.values[live]
    paths = tree.path_nodes()
    cum = np.concatenate([np.zeros((paths.shape[0], 1)),
                          np.cumsum(incr[paths[:, 1:]], axis=1)], axis=1)

    n = tree.n_periods
    frozen = np.where(ext.theta == INF, np.int64(n), ext.theta - 1)
    stop_idx = np.minimum(frozen[:, None], np.arange(n + 1)[None, :])
    stop_idx = np.maximum(stop_idx, 0)
    m_stopped = mv[np.take_along_axis(ext.node_at, stop_idx, axis=1)]
    cum_stopped = np.take_along_axis(cum[ext.leaf_row], stop_idx, axis=1)
    return m_stopped - cum_stopped


# --------------------------------------------------------------------------
# Full (non-reduced) price assembly
# --------------------------------------------------------------------------

@dataclass
class AssemblyReport:
    """Assembled full price process, its reduced input, and the residual of the
    direct-conditional-expectation cross-check."""

    values: np.ndarray                 # (n_atoms, N+1)
    reduced: AdaptedProcess
    delta_effective: np.ndarray
    residual: float
    qphi: np.ndarray


def _require_decision_timed(ext: ExtendedSpace, tol: float = 1e-10) -> None:
    """Check the conditional default law is read off the decision nodes.

    The per-leaf kernel P(theta = t_j | path) must be measurable with respect
    to the node at time j-1; otherwise the one-step reduced recursion is not
    the exact conditional expectation and the assembly bridge does not apply.
    """
    tree = ext.base
    n = tree.n_periods
    leaf_p = tree.node_p[tree.leaves]
    kappa = np.zeros((tree.leaves.size, n))
    default = ext.theta <= n
    np.add.at(kappa, (ext.leaf_row[default], ext.theta[default] - 1),
              ext.prob[default] / leaf_p[ext.leaf_row[default]])
    paths = tree.path_nodes()
    for j in range(1, n + 1):
        anc = paths[:, j - 1]
        lo: dict[int, float] = {}
        hi: dict[int, float] = {}
        for a, v in zip(anc, kappa[:, j - 1]):
            lo[a] = min(lo.get(a, v), v)
            hi[a] = max(hi.get(a, v), v)
        spread = max(hi[a] - lo[a] for a in lo)
        if spread > tol:
            raise HazardError(
                "assembly requires a decision-timed hazard: the conditional "
                f"default mass at t_{j} varies within a time-{j - 1} node "
                f"(spread {spread:.3g})")


def step_default_probs(bundle: ProjectionBundle, lam) -> np.ndarray:
    """Per decision node, the one-step default probability under the lam-tilted
    measure: dLambda = (1 + phi(1 - dGamma~)) dGamma~ with phi = lam - 1.

    Requires the hazard to be decision-timed so the step probability is known
    at the decision node.
    """
    ext, tree = bundle.ext, bundle.ext.base
    _require_decision_timed(ext)
    dgt = bundle.dGammaTilde()
    lam_v = _vals(lam) if not np.isscalar(lam) else np.full(tree.n_nodes, float(lam))
    if np.any(lam_v <= 0.0):
        raise ValueError("lambda must be strictly positive")
    pi = np.zeros(tree.n_nodes)
    for k in range(tree.n_periods):
        nodes = tree.level_nodes(k)
        first = tree.first_child[nodes]
        phi = lam_v[nodes] - 1.0
        x = dgt[first]
        step = (1.0 + phi * (1.0 - x)) * x
        if np.any(step >= 1.0) or np.any(step < 0.0):
            raise ValueError("lambda-tilted step probability outside [0, 1); "
                             "control violates the admissibility bounds")
        pi[nodes] = step
    return pi


def full_price_assembly(ext: ExtendedSpace, payoff, sigma: StoppingTime | None = None,
                        lam=1.0, phi_pr: np.ndarray | None = None,
                        reduced: AdaptedProcess | None = None,
                        tol: float = IDENTITY_TOL) -> AssemblyReport:
    """Assemble the full price: reduced value before theta, recovery from theta on.

    The reduced price is the backward solve from the European module run on
    the hazard written in survival-odds coordinates (delta = pi / (1 - pi)),
    which makes the implicit backward step the exact one-step conditional
    expectation on this extension.  The assembled process must coincide with
    the direct conditional expectation of the terminal payoff under the tilted
    measure on every cell (checked to ``tol``); recovery is sampled at the
    decision node of the default step, matching right-support semantics.
    """
    from . import measure_change as mc
    from .european import PayoffSpec, ReducedHazard, reduced_price_linear

    tree = ext.base
    n = tree.n_periods
    if sigma is None:
        sigma = StoppingTime.horizon(tree)
    if not isinstance(payoff, PayoffSpec):
        payoff = PayoffSpec(*payoff)
    bundle = projections(ext)
    pi = step_default_probs(bundle, lam)
    delta_eff = pi / (1.0 - pi)

    if reduced is None:
        hz = ReducedHazard(tree, delta_eff)
        reduced = reduced_price_linear(1.0, payoff, hz, tree, sigma=sigma).value

    lam_v = _vals(lam) if not np.isscalar(lam) else np.full(tree.n_nodes, float(lam))
    phi_o = np.zeros(tree.n_nodes)
    sl = slice(1, tree.n_nodes)
    phi_o[sl] = lam_v[tree.parent[sl]] - 1.0
    phi = mc.PhiControl(phi_o=AdaptedProcess(tree, phi_o), phi_pr=phi_pr)
    dens = mc.density_eta(phi, ext, bundle=bundle)
    qphi = dens.qphi

    sig_lvl = ext.sigma_levels(sigma)
    sig_node = sigma.stop_nodes_per_path()[ext.leaf_row]
    default_first = ext.theta <= sig_lvl
    dec_node = np.take_along_axis(ext.node_at,
                                  np.maximum(np.minimum(ext.theta, n) - 1, 0)[:, None],
                                  1)[:, 0]
    terminal_pay = np.where(default_first, payoff.R.values[dec_node],
                            payoff.P.values[sig_node])

    ks = np.arange(n + 1)
    pre = ext.theta[:, None] > ks[None, :]
    assembled = np.where(pre, reduced.values[ext.node_at],
                         terminal_pay[:, None])

    direct = np.empty((ext.n_atoms, n + 1))
    for k in range(n + 1):
        direct[:, k] = ext.g_condexp(terminal_pay, k, qphi)
    residual = float(np.max(np.abs(assembled - direct)))
    if residual > tol:
        raise IdentityError(f"full-price assembly disagrees with the direct "
                            f"conditional expectation by {residual:.3g}")
    return AssemblyReport(assembled, reduced, delta_eff, residual, qphi)
