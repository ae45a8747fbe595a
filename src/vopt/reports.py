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
    """Deterministic JSON text with 17-significant-digit reals."""
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
    return fmt(obj)


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def process_csv(proc: AdaptedProcess, name: str = "value") -> str:
    """node,time_index,time,<name> rows for one adapted process."""
    tree = proc.tree
    lines = [f"node,time_index,time,{name}"]
    for v in range(tree.n_nodes):
        k = int(tree.level_of[v])
        lines.append(f"{v},{k},{fmt(tree.grid.times[k])},{fmt(proc.values[v])}")
    return "\n".join(lines) + "\n"


def table_csv(tree, columns: dict[str, np.ndarray]) -> str:
    """Wide node table: node,time_index,time plus one column per named process."""
    names = list(columns)
    lines = ["node,time_index,time," + ",".join(names)]
    for v in range(tree.n_nodes):
        k = int(tree.level_of[v])
        row = [str(v), str(k), fmt(tree.grid.times[k])]
        row += [fmt(columns[c][v]) for c in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def bundle_csv(bundle) -> str:
    return table_csv(bundle.ext.base, {
        "G": bundle.G.values, "Gtilde": bundle.Gtilde.values,
        "Ao": bundle.Ao.values, "Ap": bundle.Ap.values,
        "Gamma": bundle.Gamma.values, "GammaTilde": bundle.GammaTilde.values,
        "m": bundle.m.values, "n": bundle.n.values,
    })


def strategy_csv(tree, stops: dict[str, np.ndarray]) -> str:
    names = list(stops)
    lines = ["node,time_index," + ",".join(names)]
    for v in range(tree.n_nodes):
        row = [str(v), str(int(tree.level_of[v]))]
        row += ["stop" if stops[c][v] else "continue" for c in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def convergence_trace(param: str, values: Iterable, gaps: Iterable[float]) -> dict:
    return {"param": param, "values": list(values), "gaps": [float(g) for g in gaps]}
