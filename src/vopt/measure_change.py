"""The family Q^phi of martingale measures on the extended space.

A control phi = (phi^o, phi^pr) tilts the reference measure through a product
of three discrete stochastic exponentials: a market factor (the density Z^F
stopped at theta, corrected by E(G_-^{-1} . m)), a default-intensity factor
driven by phi^o against the compensated default indicator, and a post-default
factor driven by phi^pr against the indicator itself.  Everything is exact on
the finite space, so the transformation rules for the hazard and the survival
process under Q^phi can be verified to rounding error.

Control stacks.  A ``PhiControl`` holds one control, or a stack of K controls
with phi^o (and phi^pr, when given) on a leading axis.  ``validate_phi``,
``density_eta``, ``hazard_under_phi``, ``G_under_phi`` and
``compensated_default_residual`` take either, and keep the leading axis in
what they return: the node- and atom-level arithmetic (survival products,
jump and mark factors, sibling-group sums, the survival tables rebuilt under
each Q^phi) is one array operation per step for all K controls, element for
element the arithmetic of one control, so every row is bitwise what its
control gives alone.  The G- and F-projections behind the checks (the
martingale residuals from ``ExtendedSpace.g_condexp``, E[eta | F] from
``f_condexp``) are the direct per-atom Bayes sums the fast path is checked
against.  They run once per block of rows (``ExtendedSpace.blocks``, at most
``_BLOCK_CELLS`` atom-time cells a block): one ``bincount`` over the block's
row-offset cell ids, which adds each row's terms in the order a call on that
row alone adds them, so each row is bitwise unchanged.  Each block builds its
own integrand, so a stack never holds more than one block's.  A stack that
fails raises what a loop over its controls would raise first: the first
failing control, with the first check it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, IdentityError, TreeError
from .filtration import AdaptedProcess, FiniteTree, forward, node_values
from .random_time import (IDENTITY_TOL, ExtendedSpace, ProjectionBundle, SurvivalTables,
                          _path_exponential, survival_tables)


def _node_rows(tree: FiniteTree, x, name: str) -> np.ndarray:
    """:func:`node_values` of one coefficient, or a (K, n_nodes) stack of them."""
    if isinstance(x, AdaptedProcess) or np.ndim(x) < 2:
        return node_values(tree, x, name)
    v = np.asarray(x, dtype=float)
    if v.shape[-1] != tree.n_nodes:
        raise TreeError(f"{name} needs one value per node (or a scalar)")
    return v


def _row(x: np.ndarray, r: int) -> np.ndarray:
    """Row r of a stack; an array without a stack axis is every row."""
    return x if x.ndim == 1 else x.reshape(-1, x.shape[-1])[r]


def _first_failure(failed) -> tuple[int | None, list[bool]]:
    """The first control of a stack that fails any check, and which checks it
    fails; ``failed`` holds one flag per control for each check (0-d for one
    control).  (None, []) when every control passes."""
    failed = np.broadcast_arrays(*(np.ravel(f) for f in failed))
    rows = np.flatnonzero(np.any(failed, axis=0))
    if not rows.size:
        return None, []
    r = int(rows[0])
    return r, [bool(f[r]) for f in failed]


def _raise_first(checks) -> None:
    """Raise what a loop over the controls, one at a time, raises first: the
    first control failing a check, with the first check it fails.

    ``checks`` holds ordered (failed, error class, message, value) entries;
    ``failed`` and ``value`` have one entry per control (0-d for one
    control), and a ``value`` that is not None is formatted into the message.
    """
    r, hits = _first_failure([f for f, _, _, _ in checks])
    if r is not None:
        _, cls, message, value = checks[hits.index(True)]
        raise cls(message if value is None else message.format(np.ravel(value)[r]))


@dataclass
class PhiControl:
    """Measure-change control: an optional-process tilt and a post-default mark.

    ``phi_o`` lives on tree nodes (read at the node where the step ends).
    ``phi_pr`` also lives on nodes and is read at the node where default is
    declared (the graph of theta); elsewhere it is inert.  Admissibility of
    ``phi_pr`` is a joint property with the other factors: the mark must be
    conditionally centered, one step ahead, under the one-step odds the other
    density factors induce (see :func:`validate_phi`).  ``cap`` bounds
    ``phi_o <= cap - 1`` (membership in the n-indexed subfamily used for the
    price bounds).  A stack of K controls holds ``phi_o`` as a (K, n_nodes)
    array, and ``phi_pr``, when given, as (K, n_nodes) or as one row that
    every control shares.
    """

    phi_o: AdaptedProcess | np.ndarray
    phi_pr: np.ndarray | None = None
    cap: float | None = None

    def phi_o_nodes(self, tree: FiniteTree) -> np.ndarray:
        return _node_rows(tree, self.phi_o, "phi^o")

    def phi_pr_nodes(self, ext: ExtendedSpace) -> np.ndarray:
        if self.phi_pr is None:
            return np.zeros(ext.base.n_nodes)
        arr = np.asarray(self.phi_pr, dtype=float)
        if arr.shape[-1:] != (ext.base.n_nodes,):
            raise AdmissibilityError("phi_pr must carry one value per tree node")
        return arr

    def phi_pr_atoms(self, ext: ExtendedSpace) -> np.ndarray:
        return np.where(ext.theta <= ext.base.n_periods,
                        np.take(self.phi_pr_nodes(ext), ext.default_node, axis=-1), 0.0)

    def is_graph_trivial(self, bundle: ProjectionBundle, tol: float = IDENTITY_TOL):
        """True when the mark vanishes wherever default carries mass; one flag
        per control of a stack.

        The hazard- and dual-projection transformation rules under Q^phi are
        exact theorems on this subfamily only (the literal reading of the
        conditional-centering condition at the default node forces the mark
        off the default support on a finite space).
        """
        marks = self.phi_pr_nodes(bundle.ext)
        return np.all(np.abs(marks * bundle.dAo.values) <= tol, axis=-1)


def _default_step_weights(bundle: ProjectionBundle, phi_o: np.ndarray) -> np.ndarray:
    """Per node, the relative one-step weight of the default branch under the
    market and phi_o density factors: p_edge * (Z/E(N~)) * (1 + phi_o (1 - dG~))
    * dA^o.  phi_pr must be centered against these within every sibling group."""
    dgt = bundle.dGammaTilde
    return (bundle.ext.base.p_edge * bundle.market_factor * (1.0 + phi_o * (1.0 - dgt))
            * bundle.dAo.values)


def _children_mean(tree: FiniteTree, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per node, the w-weighted mean of x over its children (0 where they
    carry no weight), from one bincount over the parent ids of every row of
    a stack (node axis last)."""
    wx = w * x
    n = tree.n_nodes
    rows = wx.size // n
    up = (np.arange(rows)[:, None] * n + tree.parent[1:]).ravel()

    def sums(v):
        v = np.broadcast_to(v, wx.shape)[..., 1:].ravel()
        return np.bincount(up, weights=v, minlength=rows * n).reshape(wx.shape)

    tot, num = sums(w), sums(wx)
    return np.divide(num, tot, out=np.zeros(wx.shape), where=tot > 0)


def phi_pr_from_marks(bundle: ProjectionBundle, marks: np.ndarray,
                      phi_o=None) -> np.ndarray:
    """Turn raw per-node values into an admissible post-default mark.

    Centers the marks within every sibling group against the one-step default
    odds induced by the other density factors, so the martingale property of
    the full density is exact; then rescales to stay strictly above -1.
    Sibling groups carrying no default mass are left unconstrained (the mark
    is inert there).  A stack of marks (and of phi^o) is centered row by row.
    """
    tree = bundle.ext.base
    phi_o_v = np.zeros(tree.n_nodes) if phi_o is None else _node_rows(tree, phi_o, "phi^o")
    w = _default_step_weights(bundle, phi_o_v)
    out = np.array(marks, dtype=float)
    out[..., 1:] -= np.take(_children_mean(tree, w, out), tree.parent[1:], axis=-1)
    lo = np.min(out, axis=-1, keepdims=True, initial=0.0)
    return np.where(lo <= -1.0, out / (1.0 + np.abs(lo)) * 0.9, out)  # strictly above -1


@dataclass
class PhiReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    row: int | None = None              # the control reported, in its stack

    def __bool__(self) -> bool:
        return self.ok


def validate_phi(phi: PhiControl, bundle: ProjectionBundle,
                 tol: float = IDENTITY_TOL) -> PhiReport:
    """Check the admissibility inequalities atom-wise; report, never raise.

    phi^o and phi^pr finite at every node; phi^pr > -1 on the graph;
    1 + phi^o (1 - dGamma~) > 0 at default atoms (the strict-positivity bound
    phi^o > -G~/G); phi^o dGamma~ < 1 wherever the step carries default mass
    (positivity on the pre-default interval); the mark phi^pr conditionally
    centered one step ahead under the one-step default odds of the other
    density factors (the discrete membership condition for the density to be
    a positive martingale); and phi^o <= cap - 1 when a cap is attached.  A
    phi^o on another tree is not a control of this problem and raises
    ``TreeError``.  A stack is reported by its first inadmissible control,
    whose position is ``row`` (0 for a single control).
    """
    ext = bundle.ext
    tree = ext.base
    dgt = bundle.dGammaTilde
    phi_o = phi.phi_o_nodes(tree)
    marks = phi.phi_pr_nodes(ext)
    phi_pr = phi.phi_pr_atoms(ext)
    default = ext.theta <= tree.n_periods
    dnode = ext.default_node
    jump = 1.0 + np.take(phi_o, dnode, axis=-1) * (1.0 - dgt[dnode])
    surv = 1.0 - phi_o * dgt
    off = np.abs(_children_mean(tree, _default_step_weights(bundle, phi_o), marks))
    over_cap = (phi_o > phi.cap - 1.0 + tol if phi.cap is not None
                else np.zeros(tree.n_nodes, dtype=bool))

    checks = [  # (failing nodes or atoms, message on the first of them, its value)
        (~np.isfinite(phi_o), "phi^(o) is not finite at node {}", None),
        (~np.isfinite(marks), "phi^(pr) is not finite at node {}", None),
        (default & (phi_pr <= -1.0), "phi^(pr) > -1 violated at atom {} (value {:.6g})", phi_pr),
        (default & (jump <= 0.0),
         "phi^(o) > -G~/G violated at atom {} (default factor {:.6g})", jump),
        ((dgt > 0.0) & (surv <= 0.0),
         "phi^(o) dGamma~ < 1 violated at node {} (survival factor {:.6g})", surv),
        (off > tol, "phi^(pr) not conditionally centered below node {} "
                    "(weighted mean {:.3g})", off),
        (over_cap, "phi^(o) exceeds cap-1 at node {}", None),
    ]
    r, hits = _first_failure([np.any(bad, axis=-1) for bad, _, _ in checks])
    if r is None:
        return PhiReport(True)
    violations = []
    for (bad, message, value), hit in zip(checks, hits):
        if hit:
            i = int(np.argmax(_row(bad, r)))
            if value is off:    # the largest mean on the level of the first one
                lvl = tree.level_slice(int(tree.level_of[i]))
                i = lvl.start + int(np.argmax(_row(off, r)[lvl]))
            violations.append(message.format(i, None if value is None else _row(value, r)[i]))
    return PhiReport(False, violations, r)


@dataclass
class DensityBundle:
    """eta^phi on the extension plus its atom measure and closed-form hazard
    increment, with the control and the reference-measure projections it was
    built on; a stack of controls keeps its leading axis on ``eta``, ``qphi``
    and ``d_lambda``.  What the rules read besides is built on first use."""

    phi: PhiControl
    reference: ProjectionBundle
    eta: np.ndarray                     # ([K,] n_atoms, N+1)
    qphi: np.ndarray                    # Q^phi atom probabilities
    d_lambda: np.ndarray                # (1 + phi^o (1 - dGamma~)) dGamma~ per node

    @cached_property
    def eta_o_proj(self) -> np.ndarray:
        """E[eta_k | F_k] per node, one stacked ``f_condexp`` per block of
        controls; read-only."""
        ext = self.reference.ext
        rows = self.eta.reshape(-1, ext.n_atoms, ext.base.n_periods + 1)
        proj = ext.by_blocks(len(rows), lambda b: ext.f_condexp(rows[b]))
        proj = proj.reshape(self.eta.shape[:-2] + (ext.base.n_nodes,))
        proj.flags.writeable = False
        return proj

    @cached_property
    def tilted(self) -> SurvivalTables:
        """G, G~, dA^o and Gamma~ rebuilt under each Q^phi atom measure."""
        return survival_tables(self.reference.ext, self.qphi)

    @cached_property
    def Lambda(self) -> np.ndarray:
        """Lambda, the hazard under Q^phi summed from the closed-form increments."""
        return forward(self.reference.ext.base, self.d_lambda, np.add, 0.0)


def density_eta(phi: PhiControl, bundle: ProjectionBundle,
                tol: float = IDENTITY_TOL) -> DensityBundle:
    """Build eta^phi as the product of the three discrete exponentials, from
    per-node path products: a cell before theta reads the survival product and
    market factor at its node, and from theta on an atom holds the same
    products at its default node times the jump and mark factors.

    The control is checked with :func:`validate_phi` first; an inadmissible
    one raises ``AdmissibilityError``.  Re-verified to be a strictly positive
    G-martingale with eta_0 = 1 and E[eta_T] = 1; a failure raises
    ``IdentityError`` since it cannot come from admissible input.  A stack is
    built at once and checked control by control, in stack order.
    """
    ext = bundle.ext
    tree = ext.base
    n = tree.n_periods
    rep = validate_phi(phi, bundle, tol)

    phi_o = phi.phi_o_nodes(tree)
    dgt = bundle.dGammaTilde
    mf = bundle.market_factor                       # Z^F / E(N~), stopped at theta
    jump = 1.0 + phi_o * (1.0 - dgt)
    surv = forward(tree, 1.0 - phi_o * dgt, np.multiply, 1.0)
    dn = ext.default_node
    at = lambda x, nodes: np.take(x, nodes, axis=-1)    # node axis last
    post = at(surv, tree.parent[dn]) * at(jump, dn) * mf[dn] * (1.0 + phi.phi_pr_atoms(ext))
    eta = at(surv * mf, ext.node_at)
    np.copyto(eta, post[..., None], where=ext.theta[:, None] <= np.arange(n + 1))

    rows = eta.reshape(-1, ext.n_atoms, n + 1)
    totals = np.array([np.dot(ext.prob, e[:, n]) for e in rows])
    mart = ext.by_blocks(len(rows), lambda b: ext.g_martingale_residual(rows[b]))
    inadmissible = np.arange(len(rows)) == (-1 if rep.ok else rep.row)
    _raise_first([
        (inadmissible, AdmissibilityError, "; ".join(rep.violations), None),
        (~(np.min(rows, axis=(1, 2)) > 0.0), IdentityError,
         "eta^phi not strictly positive despite admissible control", None),
        (~(np.max(np.abs(rows[:, :, 0] - 1.0), axis=1) <= tol), IdentityError,
         "eta_0 != 1", None),
        (~(np.abs(totals - 1.0) <= 1e-10), IdentityError, "E[eta_T] = {:.15g} != 1", totals),
        (~(mart <= 1e-10), IdentityError,
         "eta^phi is not a martingale (residual {:.3g})", mart),
    ])
    return DensityBundle(phi, bundle, eta, ext.prob * eta[..., n], jump * dgt)


@dataclass
class HazardPhiReport:
    value: np.ndarray                   # Lambda = Gamma~ under Q^phi (cumulative)
    two_route_residual: float
    dual_projection_residual: float     # Eq. dA^{o,Qphi} = G~^phi dLambda


def hazard_under_phi(dens: DensityBundle) -> HazardPhiReport:
    """Optional hazard of theta under Q^phi, two independent ways.

    (a) the survival tables rebuilt under the tilted atom measure
    (``dens.tilted``, the mass table of ``projections`` under ``dens.qphi``)
    give the optional hazard; (b) the closed-form increment
    (1 + phi^o (1 - dGamma~)) dGamma~.  The report carries their largest
    node-wise gap, and that of the transformed dual projection increment;
    ``measure-change`` holds both against its tolerance (the identity is a
    theorem, so a gap is an implementation bug).  A stack gives one value row
    and one residual per control.

    The rule is a theorem only for controls whose post-default mark vanishes
    on the default support (the literal finite-space reading of the
    conditional-centering admissibility condition); other marks redistribute
    mass across default cells and genuinely change the hazard, so they are
    rejected here rather than reported as a failed identity.
    """
    trivial = dens.phi.is_graph_trivial(dens.reference)
    tilted = dens.tilted
    lam = dens.Lambda
    r_main = np.max(np.abs(lam - tilted.GammaTilde), axis=-1)
    r_dual = np.max(np.abs(tilted.dAo - tilted.Gtilde * dens.d_lambda), axis=-1)
    _raise_first([(~trivial, AdmissibilityError,
                   "hazard transformation rule needs a post-default mark that vanishes "
                   "on the default support", None)])
    return HazardPhiReport(lam, r_main, r_dual)


@dataclass
class GPhiReport:
    value: np.ndarray
    two_route_residual: float
    pseudo_stopping_residual: float     # max |o(eta) - Z^F|


def G_under_phi(dens: DensityBundle) -> GPhiReport:
    """Azema supermartingale under Q^phi, direct and via the density formula.

    Direct route: survival probability under the tilted atom measure
    (``dens.tilted``).  Formula route: o(eta^phi)^{-1} Z^F E(-Lambda) with
    discrete exponentials.  The report carries their largest node-wise gap,
    which ``measure-change`` holds against its tolerance, and also the
    per-instance diagnostic comparing o(eta^phi) with
    Z^F = E(M^F): equality means theta keeps the pseudo-stopping-time property
    under Q^phi (an open question in general, so it is reported, never
    assumed).  A stack gives one value row and one residual per control.
    """
    tree = dens.reference.ext.base
    direct = dens.tilted.G
    e_lam = _path_exponential(tree, -dens.d_lambda)
    formula = tree.density_zf() * e_lam / dens.eta_o_proj

    r = np.max(np.abs(direct - formula), axis=-1)
    pseudo = np.max(np.abs(dens.eta_o_proj - tree.density_zf()), axis=-1)
    return GPhiReport(direct, r, pseudo)


def compensated_default_residual(dens: DensityBundle):
    """Max Q^phi-conditional increment of A - Lambda^theta (zero is the theorem),
    one per control of a stack, from one stacked G-projection per block of
    controls; each block builds its own integrand.

    Like the hazard rule itself, exact only on the subfamily with a
    graph-trivial post-default mark.
    """
    bundle = dens.reference
    ext = bundle.ext
    _raise_first([(~dens.phi.is_graph_trivial(bundle), AdmissibilityError,
                   "compensated-default check needs a graph-trivial post-default mark",
                   None)])
    ind = ext.indicator()
    lam = dens.Lambda.reshape(-1, ext.base.n_nodes)
    qphi = dens.qphi.reshape(-1, ext.n_atoms)
    res = ext.by_blocks(len(qphi), lambda b: ext.g_martingale_residual(
        ind - np.take(lam[b], ext.stopped_node, axis=-1), qphi[b]))
    return res.reshape(dens.qphi.shape[:-1])[()]
