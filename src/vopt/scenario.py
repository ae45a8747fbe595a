"""Scenario files: one JSON document describing an instance and a suite run.

Sections: ``tree`` (grid, branching, probabilities or a terminal density),
``hazard`` (per-node one-step hazards ``h`` for the extension and reduced
increments ``delta``), ``payoff`` (P and R node tables), ``phi`` (control
sampling), ``suites``, ``tolerances``, ``penalty_ladder``, an optional
``random_family`` block for the batch identity checks, and ``output``.
Fixtures are plain JSON so regressions diff cleanly.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .american import GameValueReport, american_upper_price, constrained_dynkin_game
from .errors import ScenarioError
from .european import EuroSolveReport, PayoffSpec, ReducedHazard, constrained_snell
from .filtration import AdaptedProcess, FiniteTree, build_tree
from .instances import random_extension, random_tree
from .random_time import HazardSpec, ProjectionBundle, cox_extend, projections

DEFAULT_TOLERANCES = {
    "identity": 1e-12,
    "duality": 1e-5,
    "dirac": 1e-4,
    "rbsde": 1e-10,
    "game": 1e-5,
}

ALL_SUITES = [
    "projections-identities",
    "martingale-transforms",
    "measure-change",
    "european-duality",
    "dirac-convergence",
    "rbsde-vs-optstop",
    "american-upper",
    "game-duality",
    "oracle-equivalence",
]


@dataclass
class Scenario:
    """A parsed scenario.  What the suites check and the CLI writes out is
    built once a run, on first use, and shared, so nothing may write into
    its arrays: ``bundle`` for the scenario's own Cox extension,
    ``family_bundles`` for the seeded random family, and the three limit
    problems ``snell``, ``upper`` and ``game``.  A variant with other
    inputs is a new ``Scenario`` (``dataclasses.replace``), never a copy,
    so no cached value carries over."""

    name: str
    tree: FiniteTree
    hazard_h: HazardSpec
    hazard_delta: ReducedHazard
    payoff: PayoffSpec
    phi_seed: int
    phi_count: int
    suites: list[str]
    tolerances: dict[str, float]
    penalty_ladder: list[int]
    family: dict | None
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @cached_property
    def bundle(self) -> ProjectionBundle:
        """Projections of the scenario's Cox extension (``bundle.ext``)."""
        return projections(cox_extend(self.tree, self.hazard_h))

    @cached_property
    def snell(self) -> EuroSolveReport:
        """Upper European price: the Snell envelope stopped on the hazard support."""
        return constrained_snell(self.payoff, self.hazard_delta)

    @cached_property
    def upper(self) -> EuroSolveReport:
        """Upper American price: the Snell envelope of zeta^u."""
        return american_upper_price(self.payoff, self.hazard_delta)

    @cached_property
    def game(self) -> GameValueReport:
        """Lower American price: the constrained Dynkin game.  Its ``TreeError``
        (P > R on the support) is not cached, so every read raises it again."""
        return constrained_dynkin_game(self.payoff, self.hazard_delta)

    @cached_property
    def family_bundles(self) -> list[tuple[FiniteTree, ProjectionBundle]]:
        """(tree, projections of its random extension) for each instance of
        the seeded random family, in draw order; empty without a family.
        The draws come from ``random_family.seed`` alone, never from a
        suite's own stream, so the list is the same whichever suite builds it.
        """
        if not self.family:
            return []
        rng = np.random.default_rng(self.family["seed"])
        out = []
        for _ in range(self.family["instances"]):
            tree = random_tree(rng, self.family["max_periods"], self.family["max_branching"])
            out.append((tree, projections(random_extension(rng, tree))))
        return out


def _node_table(tree: FiniteTree, spec, where: str) -> np.ndarray:
    """Materialize a per-node value table: constant or per-level lists."""
    if isinstance(spec, (int, float)):
        return np.full(tree.n_nodes, float(spec))
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected a number or an object")
    if "constant" in spec:
        return np.full(tree.n_nodes, float(spec["constant"]))
    if "by_level" in spec:
        rows = spec["by_level"]
        if len(rows) != tree.n_periods + 1:
            raise ScenarioError(f"{where}.by_level: {len(rows)} levels given, tree has "
                                f"{tree.n_periods + 1}")
        out = np.empty(tree.n_nodes)
        for k, row in enumerate(rows):
            vals = np.asarray(row, dtype=float).ravel()
            if vals.size == 1:
                vals = np.full(tree.level_size(k), vals[0])
            if vals.size != tree.level_size(k):
                raise ScenarioError(f"{where}.by_level[{k}]: {vals.size} values for "
                                    f"{tree.level_size(k)} nodes")
            out[tree.level_slice(k)] = vals
        return out
    raise ScenarioError(f"{where}: use 'constant' or 'by_level'")


def parse_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; error messages name the offending
    section and node."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: not valid JSON ({e})")
    return scenario_from_dict(raw, name_hint=os.path.basename(path))


@contextmanager
def _section(name: str):
    """Report any input error raised while reading one section as a
    ScenarioError that names the section (TreeError and HazardError are
    ValueErrors too)."""
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{name}: {e}") from e


def _whole(x, where: str) -> int:
    """An integer input; a float is accepted only when it is a whole number."""
    if isinstance(x, float) and not x.is_integer():
        raise ScenarioError(f"{where}: {x!r} is not a whole number")
    return int(x)


def scenario_from_dict(raw: dict, name_hint: str = "scenario") -> Scenario:
    if "tree" not in raw:
        raise ScenarioError("missing 'tree' section")
    with _section("tree"):
        tree = build_tree(raw["tree"])

    hz_raw = raw.get("hazard", {})
    with _section("hazard"):
        hazard_h = HazardSpec(_node_table(tree, hz_raw.get("h", 0.0), "hazard.h"),
                              timing=hz_raw.get("timing", "decision"),
                              terminal_absorption=hz_raw.get("terminal_absorption", True))
        hazard_delta = ReducedHazard(tree, _node_table(tree, hz_raw.get("delta", 0.0),
                                                       "hazard.delta"))

    pay_raw = raw.get("payoff", {})
    with _section("payoff"):
        payoff = PayoffSpec(
            AdaptedProcess(tree, _node_table(tree, pay_raw.get("P", 1.0), "payoff.P")),
            AdaptedProcess(tree, _node_table(tree, pay_raw.get("R", 1.0), "payoff.R")))

    phi_raw = raw.get("phi", {})
    with _section("phi"):
        phi_seed = _whole(phi_raw.get("seed", 20240901), "phi.seed")
        phi_count = _whole(phi_raw.get("count", 10), "phi.count")

    suites = raw.get("suites", list(ALL_SUITES))
    for s in suites:
        if s not in ALL_SUITES:
            raise ScenarioError(f"unknown suite {s!r} (known: {', '.join(ALL_SUITES)})")

    tol = dict(DEFAULT_TOLERANCES)
    tol.update(raw.get("tolerances", {}))
    with _section("tolerances"):
        for k, v in tol.items():
            if not v > 0:
                raise ScenarioError(f"tolerances.{k} must be positive")

    with _section("penalty_ladder"):
        ladder = [_whole(n, f"penalty_ladder[{i}]") for i, n in enumerate(
            raw.get("penalty_ladder", [2 ** k for k in range(0, 22, 2)]))]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or any(n < 1 for n in ladder):
        raise ScenarioError("penalty_ladder must be strictly increasing and >= 1")

    family = raw.get("random_family")
    if family is not None:
        with _section("random_family"):
            family = {key: _whole(family.get(key, default), f"random_family.{key}")
                      for key, default in (("seed", 0), ("instances", 20),
                                           ("max_periods", 3), ("max_branching", 3))}
        if family["instances"] < 1:
            raise ScenarioError("random_family.instances must be >= 1")

    out_dir = raw.get("output", {}).get("dir") or os.environ.get("VOPT_OUT_DIR", "out")
    return Scenario(name=raw.get("name", name_hint), tree=tree, hazard_h=hazard_h,
                    hazard_delta=hazard_delta, payoff=payoff,
                    phi_seed=phi_seed, phi_count=phi_count,
                    suites=list(suites), tolerances=tol, penalty_ladder=ladder,
                    family=family, output_dir=out_dir, raw=raw)
