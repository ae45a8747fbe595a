"""Span tracer that wraps the program's layer functions from the outside.

``Tracer.install`` rebinds each listed function in every loaded ``vopt.*``
module namespace that holds it, in ``suites.SUITE_FUNCTIONS`` and, for
methods, on the class.  Every call then records a span (name, start, end,
parent) in memory; ``Tracer.restore`` puts every original binding back.
A listed function that the program no longer has is reported as absent.

A function's self time is its span's duration minus its child spans.  The
tracer's own input fingerprinting (for the ``repeat_frac`` counters) is
recorded as a child span too, so it is charged to no layer and not to
``other``.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time

import numpy as np

# layer (= module under vopt) -> traced functions, "Class.method" for methods
TARGETS = {
    "scenario": ["parse_scenario"],
    "filtration": ["build_tree", "snell_envelope", "count_stopping_times",
                   "_enumerate_stop_nodes", "brute_force_snell_root"],
    "random_time": ["cox_extend", "projections", "ExtendedSpace.f_condexp",
                    "ExtendedSpace.g_condexp", "key_lemma", "verify_lemma21",
                    "jeulin_yor_transform", "pre_default_transform",
                    "full_price_assembly"],
    "measure_change": ["validate_phi", "phi_pr_from_marks", "density_eta",
                       "hazard_under_phi", "G_under_phi", "compensated_default_residual"],
    "european": ["penalized_european", "sup_over_phi", "reduced_price_linear",
                 "reduced_price_closed_form", "constrained_snell",
                 "dirac_convergence_check"],
    "american": ["reflected_gbsde_solve", "rbsde_vs_weighted_optstop",
                 "american_upper_price", "constrained_dynkin_game", "brute_force_game"],
    "instances": ["random_tree", "random_extension", "random_phi"],
    "suites": ["suite_projections_identities", "suite_martingale_transforms",
               "suite_measure_change", "suite_european_duality",
               "suite_dirac_convergence", "suite_rbsde_vs_optstop",
               "suite_american_upper", "suite_game_duality",
               "suite_oracle_equivalence"],
    "reports": ["to_json", "process_csv", "table_csv", "strategy_csv", "write_text"],
}

# suites whose residual_ratio is reported, in the program's declaration order
SUITES = ["projections-identities", "martingale-transforms", "measure-change",
          "european-duality", "dirac-convergence", "rbsde-vs-optstop",
          "american-upper", "game-duality", "oracle-equivalence"]

FINGERPRINT = "trace.fingerprint"
_WRAPPED = "__perfbench_wrapped__"

# calls whose inputs are fingerprinted for repeat_frac: name -> argument slots
# (positional index, keyword name) that make up the inputs
REPEAT_INPUTS = {
    "random_time.projections": ((0, "ext"), (1, "weights")),
    "measure_change.density_eta": ((1, "ext"), (0, "phi")),
}


def _feed(h, obj, depth: int = 2) -> None:
    """Hash the arrays that make up ``obj``; trees are skipped (the atom
    arrays already carry the node of every atom)."""
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).data)
    elif obj is None or isinstance(obj, (bool, int, float, str, np.number)):
        h.update(repr(obj).encode())
    elif depth > 0 and hasattr(obj, "__dict__"):
        for key in sorted(vars(obj)):
            if key not in ("tree", "base") and not key.startswith("_"):
                h.update(key.encode())
                _feed(h, vars(obj)[key], depth - 1)
    else:
        h.update(type(obj).__name__.encode())


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Tracer:
    """Records spans for the listed functions while installed."""

    def __init__(self, targets: dict[str, list[str]] = TARGETS):
        self.targets = targets
        self.span_names = [f"{layer}.{fn}" for layer, fns in targets.items() for fn in fns]
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self._sites: list[tuple] = []     # (owner, key, original)
        self.absent: list[str] = []
        self.capped = 0
        self.enumerated_rows = 0
        self._game_rows: dict[int, list[int]] = {}
        self.game_pairs = 0
        self.bytes_written = 0
        self.fingerprints: dict[str, list[bytes]] = {k: [] for k in REPEAT_INPUTS}
        self._cap_error = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.absent = []
        self._sites = []
        mods = {}
        for layer in self.targets:
            try:
                mods[layer] = importlib.import_module(f"vopt.{layer}")
            except ImportError:
                mods[layer] = None
        try:
            self._cap_error = importlib.import_module("vopt.errors").EnumerationCapError
        except (ImportError, AttributeError):
            self._cap_error = None
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "vopt" or name.startswith("vopt."))]
        suite_table = getattr(mods.get("suites"), "SUITE_FUNCTIONS", {})
        for layer, fns in self.targets.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    self._install_method(mods[layer], name, *fn.split("."))
                else:
                    self._install_function(mods[layer], name, fn, namespaces,
                                           suite_table)

    def _install_function(self, module, name, fn, namespaces, suite_table):
        original = getattr(module, fn, None) if module is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._bind(ns, attr, original, wrapper)
        for key, value in list(suite_table.items()):
            if value is original:
                self._bind(suite_table, key, original, wrapper)

    def _install_method(self, module, name, cls_name, meth):
        cls = getattr(module, cls_name, None) if module is not None else None
        original = vars(cls).get(meth) if isinstance(cls, type) else None
        if not callable(original):
            self.absent.append(name)
            return
        self._bind(cls, meth, original, self._wrap(name, original))

    def _bind(self, owner, key, original, wrapper):
        """Rebind ``key`` on a module or class, or in a dict such as the
        suite table, and remember the original."""
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._sites.append((owner, key, original))

    @staticmethod
    def _current(owner, key):
        return owner.get(key) if isinstance(owner, dict) else vars(owner).get(key)

    def restore(self) -> None:
        for owner, key, original in reversed(self._sites):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def restored(self) -> bool:
        """Every binding the tracer touched holds its original again, and no
        wrapper is left in any vopt namespace, suite table or class."""
        if any(self._current(o, k) is not orig for o, k, orig in self._sites):
            return False
        owners = [m for name, m in sys.modules.items()
                  if m is not None and (name == "vopt" or name.startswith("vopt."))]
        owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
        tables = [getattr(sys.modules.get("vopt.suites"), "SUITE_FUNCTIONS", {})]
        values = [v for o in owners for v in vars(o).values()]
        values += [v for t in tables for v in t.values()]
        return not any(getattr(v, _WRAPPED, False) for v in values)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        repeat = REPEAT_INPUTS.get(name)
        pre = {"reports.write_text": self._count_bytes}.get(name)
        post = {"filtration._enumerate_stop_nodes": self._on_enumerated,
                "american.brute_force_game": self._on_game}.get(name)
        cap_error = self._cap_error if name == "filtration.count_stopping_times" else None

        def wrapper(*args, **kwargs):
            if repeat is not None:
                self._fingerprint(name, repeat, args, kwargs)
            if pre is not None:
                pre(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if cap_error is not None and isinstance(e, cap_error):
                    self.capped += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if post is not None:
                post(out, idx)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _count_bytes(self, args, kwargs) -> None:
        text = _arg(args, kwargs, 1, "text")
        if isinstance(text, str):
            self.bytes_written += len(text.encode())

    def _on_enumerated(self, out, idx) -> None:
        rows = int(getattr(out, "shape", (len(out),))[0])
        self.enumerated_rows += rows
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] == "american.brute_force_game":
            self._game_rows.setdefault(parent, []).append(rows)

    def _on_game(self, out, idx) -> None:
        rows = self._game_rows.pop(idx, [])
        if len(rows) >= 2:
            self.game_pairs += rows[0] * rows[1]

    def _fingerprint(self, name, slots, args, kwargs) -> None:
        t0 = time.perf_counter()
        h = hashlib.blake2b(digest_size=16)
        for pos, key in slots:
            _feed(h, _arg(args, kwargs, pos, key))
        self.fingerprints[name].append(h.digest())
        t1 = time.perf_counter()
        self.spans.append([FINGERPRINT, t0, t1, self._stack[-1] if self._stack else -1])

    # -- per-iteration results ---------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.capped = 0
        self.enumerated_rows = 0
        self._game_rows.clear()
        self.game_pairs = 0
        self.bytes_written = 0
        for v in self.fingerprints.values():
            v.clear()

    def iteration_metrics(self, run_s: float) -> dict[str, float]:
        """Per-function calls and self time, counters and ``other`` for the
        iteration recorded since the last ``reset``."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_t[s[3]] -= s[2] - s[1]
        calls = dict.fromkeys(self.span_names, 0)
        selfs = dict.fromkeys(self.span_names, 0.0)
        excluded = 0.0
        for s, t in zip(self.spans, self_t):
            if s[0] == FINGERPRINT:
                excluded += t
            else:
                calls[s[0]] += 1
                selfs[s[0]] += t
        out = {}
        for name in self.span_names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = selfs[name]
        out["other.self_s"] = run_s - sum(selfs.values()) - excluded
        out["filtration.stopping_times_enumerated"] = self.enumerated_rows
        out["filtration.count_stopping_times.capped"] = self.capped
        out["american.game_pairs"] = self.game_pairs
        out["reports.bytes_written"] = self.bytes_written
        for name, prints in self.fingerprints.items():
            out[f"{name}.repeat_frac"] = ((len(prints) - len(set(prints))) / len(prints)
                                          if prints else 0.0)
        return out
