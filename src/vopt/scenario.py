"""Scenario files: one JSON document describing an instance and a suite run.

Sections: ``name``, ``tree`` (grid, branching, probabilities or a terminal
density), ``hazard`` (per-node one-step hazards ``h`` for the extension and
reduced increments ``delta``), ``payoff`` (P and R node tables), ``phi``
(control sampling), ``suites``, ``tolerances``, ``penalty_ladder``, an
optional ``random_family`` block for the batch identity checks, and
``output``; any other key, at the top level or inside a section, is an
error.  Fixtures are plain JSON so regressions diff cleanly.
"""

from __future__ import annotations

import json
import math
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
from .random_time import (CoxClosedForm, HazardSpec, ProjectionBundle, cox_closed_form,
                          cox_extend, projections)

DEFAULT_TOLERANCES = {
    "identity": 1e-12,
    "duality": 1e-5,
    "dirac": 1e-4,
    "rbsde": 1e-10,
    "game": 1e-5,
}

SCENARIO_KEYS = ("name", "tree", "hazard", "payoff", "phi", "suites", "tolerances",
                 "penalty_ladder", "random_family", "output")

# the keys of each object section (``tolerances`` names its own)
SECTION_KEYS = {
    "tree": ("times", "branching", "p", "q", "zf_leaves"),
    "hazard": ("timing", "terminal_absorption", "h", "delta"),
    "payoff": ("P", "R"),
    "phi": ("seed", "count"),
    "random_family": ("seed", "instances", "max_periods", "max_branching"),
    "output": ("dir",),
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
    its arrays: ``cox_form`` for the closed form of the scenario's Cox
    survival processes, ``bundle`` for the projections of its atom
    extension, ``family_bundles`` for the seeded random family, and the
    three limit problems ``snell``, ``upper`` and ``game``.  ``bundle.csv``
    is always written from ``cox_form``; the atoms are built only when a
    suite reads them, and ``projections-identities`` checks them against
    the same closed form.  A variant with other inputs is a new ``Scenario``
    (``dataclasses.replace``), never a copy, so no cached value carries
    over."""

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
    def cox_form(self) -> CoxClosedForm:
        """The Cox survival processes in closed form on the nodes."""
        return cox_closed_form(self.tree, self.hazard_h)

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


def _real(x, where: str) -> float:
    """A real input; a boolean or a string never is one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ScenarioError(f"{where}: {x!r} is not a number")
    return float(x)


def _reals(row: list, where: str) -> np.ndarray:
    """A list of real inputs as an array; the error names the first entry
    that is not one."""
    if not all(t is not bool and issubclass(t, (int, float)) for t in set(map(type, row))):
        for i, x in enumerate(row):
            _real(x, f"{where}[{i}]")
    return np.asarray(row, dtype=float)


def _node_table(tree: FiniteTree, spec, where: str) -> np.ndarray:
    """Materialize a per-node value table: a number, ``constant`` or
    per-level lists (a number per node, or one for the whole level)."""
    if not isinstance(spec, dict):
        return np.full(tree.n_nodes, _real(spec, where))
    if "constant" in spec:
        return np.full(tree.n_nodes, _real(spec["constant"], f"{where}.constant"))
    if "by_level" in spec:
        rows = spec["by_level"]
        if not isinstance(rows, list):
            raise ScenarioError(f"{where}.by_level: expected a list of levels")
        if len(rows) != tree.n_periods + 1:
            raise ScenarioError(f"{where}.by_level: {len(rows)} levels given, tree has "
                                f"{tree.n_periods + 1}")
        out = np.empty(tree.n_nodes)
        for k, row in enumerate(rows):
            at = f"{where}.by_level[{k}]"
            vals = _reals(row, at) if isinstance(row, list) else np.array([_real(row, at)])
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


def _whole(x, where: str, low: int | None = None) -> int:
    """An integer input of at least ``low``; a float is accepted only when it
    is a whole number, and a string or a boolean never."""
    _real(x, where)
    if isinstance(x, float) and not x.is_integer():
        raise ScenarioError(f"{where}: {x!r} is not a whole number")
    if low is not None and x < low:
        raise ScenarioError(f"{where}: {int(x)} is " +
                            ("negative" if low == 0 else f"below {low}"))
    return int(x)


def _object(raw: dict, key: str) -> dict:
    """The section ``key``, which must be a JSON object of known keys;
    absent, it is empty."""
    sec = raw.get(key, {})
    if not isinstance(sec, dict):
        raise ScenarioError(f"{key}: expected an object")
    known = SECTION_KEYS.get(key, sec)
    for k in sec:
        if k not in known:
            raise ScenarioError(f"{key}.{k}: unknown key (known: {', '.join(known)})")
    return sec


def scenario_from_dict(raw: dict, name_hint: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("a scenario must be a JSON object")
    for key in raw:
        if key not in SCENARIO_KEYS:
            raise ScenarioError(f"{key}: unknown key (known: {', '.join(SCENARIO_KEYS)})")
    if "tree" not in raw:
        raise ScenarioError("missing 'tree' section")
    with _section("tree"):
        tree = build_tree(_object(raw, "tree"))

    hz_raw = _object(raw, "hazard")
    with _section("hazard"):
        absorb = hz_raw.get("terminal_absorption", True)
        if not isinstance(absorb, bool):
            raise ScenarioError(f"hazard.terminal_absorption: {absorb!r} is not true or false")
        hazard_h = HazardSpec(_node_table(tree, hz_raw.get("h", 0.0), "hazard.h"),
                              timing=hz_raw.get("timing", "decision"),
                              terminal_absorption=absorb)
        hazard_delta = ReducedHazard(tree, _node_table(tree, hz_raw.get("delta", 0.0),
                                                       "hazard.delta"))

    pay_raw = _object(raw, "payoff")
    with _section("payoff"):
        payoff = PayoffSpec(
            AdaptedProcess(tree, _node_table(tree, pay_raw.get("P", 1.0), "payoff.P")),
            AdaptedProcess(tree, _node_table(tree, pay_raw.get("R", 1.0), "payoff.R")))

    phi_raw = _object(raw, "phi")
    phi_seed = _whole(phi_raw.get("seed", 20240901), "phi.seed", 0)
    phi_count = _whole(phi_raw.get("count", 10), "phi.count", 0)

    suites = raw.get("suites", list(ALL_SUITES))
    if not isinstance(suites, list):
        raise ScenarioError("suites: expected a list of suite names")
    for s in suites:
        if s not in ALL_SUITES:
            raise ScenarioError(f"unknown suite {s!r} (known: {', '.join(ALL_SUITES)})")

    tol = dict(DEFAULT_TOLERANCES)
    for k, v in _object(raw, "tolerances").items():
        if k not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"tolerances.{k}: unknown tolerance "
                                f"(known: {', '.join(DEFAULT_TOLERANCES)})")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
            raise ScenarioError(f"tolerances.{k}: {v!r} is not a positive finite number")
        tol[k] = v

    ladder = raw.get("penalty_ladder", [2 ** k for k in range(0, 22, 2)])
    if not isinstance(ladder, list) or not ladder:
        raise ScenarioError("penalty_ladder: expected a non-empty list of levels")
    ladder = [_whole(n, f"penalty_ladder[{i}]") for i, n in enumerate(ladder)]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or any(n < 1 for n in ladder):
        raise ScenarioError("penalty_ladder must be strictly increasing and >= 1")

    family = raw.get("random_family")
    if family is not None:
        family = _object(raw, "random_family")
        family = {key: _whole(family.get(key, default), f"random_family.{key}", low)
                  for key, default, low in (("seed", 0, 0), ("instances", 20, 1),
                                            ("max_periods", 3, 1), ("max_branching", 3, 2))}

    out_dir = _object(raw, "output").get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ScenarioError(f"output.dir: {out_dir!r} is not a string")
    name = raw.get("name", name_hint)
    if not isinstance(name, str):
        raise ScenarioError(f"name: {name!r} is not a string")
    return Scenario(name=name, tree=tree, hazard_h=hazard_h,
                    hazard_delta=hazard_delta, payoff=payoff,
                    phi_seed=phi_seed, phi_count=phi_count,
                    suites=list(suites), tolerances=tol, penalty_ladder=ladder,
                    family=family,
                    output_dir=out_dir or os.environ.get("VOPT_OUT_DIR", "out"), raw=raw)
