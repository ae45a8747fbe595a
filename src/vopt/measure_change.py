"""The family Q^phi of martingale measures on the extended space.

A control phi = (phi^o, phi^pr) tilts the reference measure through a product
of three discrete stochastic exponentials: a market factor (the density Z^F
stopped at theta, corrected by E(G_-^{-1} . m)), a default-intensity factor
driven by phi^o against the compensated default indicator, and a post-default
factor driven by phi^pr against the indicator itself.  Everything is exact on
the finite space, so the transformation rules for the hazard and the survival
process under Q^phi can be verified to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, IdentityError
from .filtration import AdaptedProcess, FiniteTree, forward, node_values
from .random_time import IDENTITY_TOL, ExtendedSpace, ProjectionBundle, _path_exponential


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
    price bounds).
    """

    phi_o: AdaptedProcess
    phi_pr: np.ndarray | None = None
    cap: float | None = None

    def phi_pr_nodes(self, ext: ExtendedSpace) -> np.ndarray:
        if self.phi_pr is None:
            return np.zeros(ext.base.n_nodes)
        arr = np.asarray(self.phi_pr, dtype=float)
        if arr.shape != (ext.base.n_nodes,):
            raise AdmissibilityError("phi_pr must carry one value per tree node")
        return arr

    def phi_pr_atoms(self, ext: ExtendedSpace) -> np.ndarray:
        return np.where(ext.theta <= ext.base.n_periods,
                        self.phi_pr_nodes(ext)[ext.default_node], 0.0)

    def is_graph_trivial(self, bundle: ProjectionBundle, tol: float = IDENTITY_TOL
                         ) -> bool:
        """True when the mark vanishes wherever default carries mass.

        The hazard- and dual-projection transformation rules under Q^phi are
        exact theorems on this subfamily only (the literal reading of the
        conditional-centering condition at the default node forces the mark
        off the default support on a finite space).
        """
        marks = self.phi_pr_nodes(bundle.ext)
        return bool(np.all(np.abs(marks * bundle.dAo.values) <= tol))


def _default_step_weights(bundle: ProjectionBundle, phi_o: np.ndarray) -> np.ndarray:
    """Per node, the relative one-step weight of the default branch under the
    market and phi_o density factors: p_edge * (Z/E(N~)) * (1 + phi_o (1 - dG~))
    * dA^o.  phi_pr must be centered against these within every sibling group."""
    dgt = bundle.dGammaTilde
    return (bundle.ext.base.p_edge * bundle.market_factor * (1.0 + phi_o * (1.0 - dgt))
            * bundle.dAo.values)


def _children_mean(tree: FiniteTree, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per node, the w-weighted mean of x over its children (0 where they
    carry no weight), from one bincount over the parent ids."""
    up = tree.parent[1:]
    tot = np.bincount(up, weights=w[1:], minlength=tree.n_nodes)
    num = np.bincount(up, weights=(w * x)[1:], minlength=tree.n_nodes)
    return np.divide(num, tot, out=np.zeros_like(num), where=tot > 0)


def phi_pr_from_marks(bundle: ProjectionBundle, marks: np.ndarray,
                      phi_o=None) -> np.ndarray:
    """Turn raw per-node values into an admissible post-default mark.

    Centers the marks within every sibling group against the one-step default
    odds induced by the other density factors, so the martingale property of
    the full density is exact; then rescales to stay strictly above -1.
    Sibling groups carrying no default mass are left unconstrained (the mark
    is inert there).
    """
    tree = bundle.ext.base
    phi_o_v = np.zeros(tree.n_nodes) if phi_o is None else node_values(tree, phi_o, "phi^o")
    w = _default_step_weights(bundle, phi_o_v)
    out = np.asarray(marks, dtype=float).copy()
    out[1:] -= _children_mean(tree, w, out)[tree.parent[1:]]
    lo = out.min(initial=0.0)
    if lo <= -1.0:
        out = out / (1.0 + abs(lo)) * 0.9  # keep strictly above -1
    return out


@dataclass
class PhiReport:
    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_phi(phi: PhiControl, bundle: ProjectionBundle,
                 tol: float = IDENTITY_TOL) -> PhiReport:
    """Check the admissibility inequalities atom-wise; report, never raise.

    phi^pr > -1 on the graph; 1 + phi^o (1 - dGamma~) > 0 at default atoms
    (the strict-positivity bound phi^o > -G~/G); phi^o dGamma~ < 1 wherever
    the step carries default mass (positivity on the pre-default interval);
    the mark phi^pr conditionally centered one step ahead under the one-step
    default odds of the other density factors (the discrete membership
    condition for the density to be a positive martingale); and
    phi^o <= cap - 1 when a cap is attached.  A phi^o on another tree is not
    a control of this problem and raises ``TreeError``.
    """
    ext = bundle.ext
    tree = ext.base
    n = tree.n_periods
    dgt = bundle.dGammaTilde
    phi_o = node_values(tree, phi.phi_o, "phi^o")
    phi_pr = phi.phi_pr_atoms(ext)
    viol: list[str] = []

    default = ext.theta <= n
    bad = default & (phi_pr <= -1.0)
    if np.any(bad):
        a = int(np.flatnonzero(bad)[0])
        viol.append(f"phi^(pr) > -1 violated at atom {a} (value {phi_pr[a]:.6g})")

    dnode = ext.default_node
    jump = 1.0 + phi_o[dnode] * (1.0 - dgt[dnode])
    bad = default & (jump <= 0.0)
    if np.any(bad):
        a = int(np.flatnonzero(bad)[0])
        viol.append(f"phi^(o) > -G~/G violated at atom {a} "
                    f"(default factor {jump[a]:.6g})")

    live = dgt > 0.0
    surv = 1.0 - phi_o * dgt
    bad_nodes = np.flatnonzero(live & (surv <= 0.0))
    if bad_nodes.size:
        v = int(bad_nodes[0])
        viol.append(f"phi^(o) dGamma~ < 1 violated at node {v} "
                    f"(survival factor {surv[v]:.6g})")

    w = _default_step_weights(bundle, phi_o)
    off = np.abs(_children_mean(tree, w, phi.phi_pr_nodes(ext)))
    bad_nodes = np.flatnonzero(off > tol)
    if bad_nodes.size:
        lvl = tree.level_slice(int(tree.level_of[bad_nodes[0]]))
        u = lvl.start + int(np.argmax(off[lvl]))
        viol.append(f"phi^(pr) not conditionally centered below node {u} "
                    f"(weighted mean {float(np.max(off[lvl])):.3g})")

    if phi.cap is not None and np.any(phi_o > phi.cap - 1.0 + tol):
        v = int(np.flatnonzero(phi_o > phi.cap - 1.0 + tol)[0])
        viol.append(f"phi^(o) exceeds cap-1 at node {v}")

    return PhiReport(not viol, viol)


@dataclass
class DensityBundle:
    """eta^phi on the extension plus its atom measure and closed-form hazard
    increment, with the control and the reference-measure projections it was
    built on.  The optional projection of eta is built on first use."""

    phi: PhiControl
    reference: ProjectionBundle
    eta: np.ndarray                     # (n_atoms, N+1)
    qphi: np.ndarray                    # Q^phi atom probabilities
    d_lambda: np.ndarray                # (1 + phi^o (1 - dGamma~)) dGamma~ per node

    @cached_property
    def eta_o_proj(self) -> AdaptedProcess:
        """E[eta_k | F_k] per node; read-only."""
        proj = self.reference.ext.f_condexp(self.eta)
        proj.flags.writeable = False
        return AdaptedProcess(self.reference.ext.base, proj)


def density_eta(phi: PhiControl, bundle: ProjectionBundle,
                tol: float = IDENTITY_TOL) -> DensityBundle:
    """Build eta^phi as the product of the three discrete exponentials, from
    per-node path products: a cell before theta reads the survival product and
    market factor at its node, and from theta on an atom holds the same
    products at its default node times the jump and mark factors.

    The control is checked with :func:`validate_phi` first; an inadmissible
    one raises ``AdmissibilityError``.  Re-verified to be a strictly positive
    G-martingale with eta_0 = 1 and E[eta_T] = 1; a failure raises
    ``IdentityError`` since it cannot come from admissible input.
    """
    ext = bundle.ext
    tree = ext.base
    n = tree.n_periods
    rep = validate_phi(phi, bundle, tol)
    if not rep.ok:
        raise AdmissibilityError("; ".join(rep.violations))

    phi_o = node_values(tree, phi.phi_o, "phi^o")
    dgt = bundle.dGammaTilde
    mf = bundle.market_factor                       # Z^F / E(N~), stopped at theta
    jump = 1.0 + phi_o * (1.0 - dgt)
    surv = forward(tree, 1.0 - phi_o * dgt, np.multiply, 1.0)
    dn = ext.default_node
    post = surv[tree.parent[dn]] * jump[dn] * mf[dn] * (1.0 + phi.phi_pr_atoms(ext))
    eta = (surv * mf)[ext.node_at]
    np.copyto(eta, post[:, None], where=ext.theta[:, None] <= np.arange(n + 1))
    if np.any(eta <= 0.0):
        raise IdentityError("eta^phi not strictly positive despite admissible control")
    if np.max(np.abs(eta[:, 0] - 1.0)) > tol:
        raise IdentityError("eta_0 != 1")
    total = float(np.dot(ext.prob, eta[:, n]))
    if abs(total - 1.0) > 1e-10:
        raise IdentityError(f"E[eta_T] = {total:.15g} != 1")
    r = ext.g_martingale_residual(eta)
    if r > 1e-10:
        raise IdentityError(f"eta^phi is not a martingale (residual {r:.3g})")

    return DensityBundle(phi, bundle, eta, ext.prob * eta[:, n], jump * dgt)


@dataclass
class HazardPhiReport:
    value: AdaptedProcess               # Lambda = Gamma~ under Q^phi (cumulative)
    two_route_residual: float
    dual_projection_residual: float     # Eq. dA^{o,Qphi} = G~^phi dLambda


def hazard_under_phi(dens: DensityBundle, tilted: ProjectionBundle,
                     tol: float = IDENTITY_TOL) -> HazardPhiReport:
    """Optional hazard of theta under Q^phi, two independent ways.

    (a) the projections rebuilt under the tilted atom measure (``tilted`` is
    ``projections(ext, dens.qphi)``) give the optional hazard; (b) the
    closed-form increment (1 + phi^o (1 - dGamma~)) dGamma~.  Node-wise
    agreement within ``tol`` is asserted (the identity is a theorem;
    disagreement is an implementation bug).  Also cross-checks the
    transformed dual projection increment.

    The rule is a theorem only for controls whose post-default mark vanishes
    on the default support (the literal finite-space reading of the
    conditional-centering admissibility condition); other marks redistribute
    mass across default cells and genuinely change the hazard, so they are
    rejected here rather than reported as a failed identity.
    """
    bundle = dens.reference
    tree = bundle.ext.base
    if not dens.phi.is_graph_trivial(bundle):
        raise AdmissibilityError(
            "hazard transformation rule needs a post-default mark that vanishes "
            "on the default support")
    lam = forward(tree, dens.d_lambda, np.add, 0.0)

    r_main = float(np.max(np.abs(lam - tilted.GammaTilde.values)))
    if r_main > tol:
        raise IdentityError(f"hazard under Q^phi: formula and rebuilt projections "
                            f"disagree by {r_main:.3g}")
    r_dual = float(np.max(np.abs(tilted.dAo.values - tilted.Gtilde.values * dens.d_lambda)))
    if r_dual > tol:
        raise IdentityError(f"dual projection under Q^phi fails dA^o = G~ dLambda "
                            f"by {r_dual:.3g}")
    return HazardPhiReport(AdaptedProcess(tree, lam), r_main, r_dual)


@dataclass
class GPhiReport:
    value: AdaptedProcess
    two_route_residual: float
    pseudo_stopping_residual: float     # max |o(eta) - Z^F|


def G_under_phi(dens: DensityBundle, tilted: ProjectionBundle,
                tol: float = IDENTITY_TOL) -> GPhiReport:
    """Azema supermartingale under Q^phi, direct and via the density formula.

    Direct route: survival probability under the tilted atom measure
    (``tilted`` is ``projections(ext, dens.qphi)``).
    Formula route: o(eta^phi)^{-1} Z^F E(-Lambda) with discrete exponentials.
    Agreement within ``tol`` is asserted.  The report also carries the
    per-instance diagnostic comparing o(eta^phi) with Z^F = E(M^F): equality
    means theta keeps the pseudo-stopping-time property under Q^phi (an open
    question in general, so it is reported, never assumed).
    """
    tree = dens.reference.ext.base
    direct = tilted.G.values
    e_lam = _path_exponential(tree, -dens.d_lambda)
    formula = tree.density_zf() * e_lam / dens.eta_o_proj.values

    r = float(np.max(np.abs(direct - formula)))
    if r > tol:
        raise IdentityError(f"G under Q^phi: direct and density-formula routes "
                            f"disagree by {r:.3g}")
    pseudo = float(np.max(np.abs(dens.eta_o_proj.values - tree.density_zf())))
    return GPhiReport(AdaptedProcess(tree, direct), r, pseudo)


def compensated_default_residual(dens: DensityBundle) -> float:
    """Max Q^phi-conditional increment of A - Lambda^theta (zero is the theorem).

    Like the hazard rule itself, exact only on the subfamily with a
    graph-trivial post-default mark.
    """
    bundle = dens.reference
    ext = bundle.ext
    if not dens.phi.is_graph_trivial(bundle):
        raise AdmissibilityError(
            "compensated-default check needs a graph-trivial post-default mark")
    lam = forward(ext.base, dens.d_lambda, np.add, 0.0)
    m_g_phi = ext.indicator() - lam[ext.stopped_node]
    return ext.g_martingale_residual(m_g_phi, dens.qphi)
