"""Report emission: CSV value tables and JSON traces with stable formatting.

All reals are printed with 17 significant digits so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .filtration import AdaptedProcess


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text with 17-significant-digit reals.

    Non-finite reals are written ``NaN``, ``Infinity`` and ``-Infinity``,
    which ``json.loads`` reads back.
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [to_json(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return "NaN" if np.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return fmt(obj)


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def process_csv(proc: AdaptedProcess, name: str = "value") -> str:
    """node,time_index,time,<name> rows for one adapted process."""
    return table_csv(proc.tree, {name: proc.values})


def table_csv(tree, columns: dict[str, np.ndarray]) -> str:
    """Wide node table: node,time_index,time plus one real column per named
    process.

    Rows are formed one level at a time, reading each value from the level's
    slice rather than from a list of the whole column, which would raise the
    peak memory.  ``'%.17g' % x`` prints what ``fmt`` prints for a float, nan,
    infinities and -0.0 included.
    """
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    lines = ["node,time_index,time," + ",".join(columns)]
    for k in range(tree.n_periods + 1):
        row = ",".join(["%d", str(k), fmt(tree.grid.times[k])] + ["%.17g"] * len(cols))
        lo, hi = int(tree.level_start[k]), int(tree.level_start[k + 1])
        lines += [row % cells for cells in zip(range(lo, hi), *[c[lo:hi] for c in cols])]
    return "\n".join(lines) + "\n"


def bundle_csv(bundle) -> str:
    return table_csv(bundle.ext.base, {
        "G": bundle.G.values, "Gtilde": bundle.Gtilde.values,
        "Ao": bundle.Ao.values, "Ap": bundle.Ap.values,
        "Gamma": bundle.Gamma.values, "GammaTilde": bundle.GammaTilde.values,
        "m": bundle.m.values, "n": bundle.n.values,
    })


def strategy_csv(tree, stops: dict[str, np.ndarray]) -> str:
    """node,time_index plus one stop/continue column per named stopping rule."""
    masks = [np.asarray(m, dtype=bool) for m in stops.values()]
    words = ("continue", "stop")
    lines = ["node,time_index," + ",".join(stops)]
    for k in range(tree.n_periods + 1):
        row = ",".join(["%d", str(k)] + ["%s"] * len(masks))
        lo, hi = int(tree.level_start[k]), int(tree.level_start[k + 1])
        lines += [row % cells for cells in zip(
            range(lo, hi), *[[words[b] for b in m[lo:hi].tolist()] for m in masks])]
    return "\n".join(lines) + "\n"


def convergence_trace(param: str, values: Iterable, gaps: Iterable[float]) -> dict:
    return {"param": param, "values": list(values), "gaps": [float(g) for g in gaps]}
