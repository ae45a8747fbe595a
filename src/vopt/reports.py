"""Report emission: CSV value tables and JSON traces with stable formatting.

All reals are printed with 17 significant digits so identical runs produce
byte-identical files.

The CSV writers format each tree level in blocks of rows: one flat list of a
block's cells and one ``%`` on the level's row template repeated for the
block, in place of a tuple and a string per row.  Real tables take at most
``BLOCK_ROWS`` rows a block, which bounds the boxed floats alive at once: a
whole leaf level of a 13-period binary tree (8,192 rows of 9 cells) raised the
peak RSS by 1 MB.  Stop/continue tables box nothing but the node ids and take
each level whole.  The bytes are those of ``fmt`` on every cell.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .filtration import AdaptedProcess

BLOCK_ROWS = 512


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

    Each level is written in blocks of at most ``BLOCK_ROWS`` rows (see
    ``_level_blocks``); whole-level blocks would box every real of the widest
    level at once and raise the peak memory.  ``'%.17g' % x`` prints what
    ``fmt`` prints for a float, nan, infinities and -0.0 included.
    """
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    head = "node,time_index,time," + ",".join(columns) + "\n"
    return head + "".join(_level_blocks(
        tree, cols, BLOCK_ROWS, lambda k: ",".join(
            ["%d", str(k), fmt(tree.grid.times[k])] + ["%.17g"] * len(cols)) + "\n"))


def bundle_csv(bundle) -> str:
    return table_csv(bundle.ext.base, {
        "G": bundle.G.values, "Gtilde": bundle.Gtilde.values,
        "Ao": bundle.Ao.values, "Ap": bundle.Ap.values,
        "Gamma": bundle.Gamma.values, "GammaTilde": bundle.GammaTilde.values,
        "m": bundle.m.values, "n": bundle.n.values,
    })


def strategy_csv(tree, stops: dict[str, np.ndarray]) -> str:
    """node,time_index plus one stop/continue column per named stopping rule.

    Its cells are the node ids and two shared words, so each level is one
    block (see ``_level_blocks``).  With blocks of ``BLOCK_ROWS`` rows it ran
    as fast, but on the 13-period ``solvers`` benchmark the C heap was left
    untrimmed after each run and the peak RSS rose by about 1 MB.
    """
    words = np.array(["continue", "stop"], dtype=object)
    cols = [words[np.asarray(m, dtype=bool).astype(np.intp)] for m in stops.values()]
    head = "node,time_index," + ",".join(stops) + "\n"
    return head + "".join(_level_blocks(
        tree, cols, tree.n_nodes,
        lambda k: ",".join(["%d", str(k)] + ["%s"] * len(cols)) + "\n"))


def _level_blocks(tree, cols: list[np.ndarray], block_rows: int,
                  row_template) -> Iterable[str]:
    """The rows of every level, at most ``block_rows`` at a time.

    A block's cells go into one flat list, node ids in ``cells[0::width]`` and
    column j in ``cells[j + 1::width]``, and are formatted by one ``%`` on the
    level's row template repeated for the block.
    """
    width = 1 + len(cols)
    for k in range(tree.n_periods + 1):
        row = row_template(k)
        start, end = int(tree.level_start[k]), int(tree.level_start[k + 1])
        for lo in range(start, end, block_rows):
            hi = min(lo + block_rows, end)
            cells = [None] * ((hi - lo) * width)
            cells[0::width] = range(lo, hi)
            for j, c in enumerate(cols, 1):
                cells[j::width] = c[lo:hi].tolist()
            yield (row * (hi - lo)) % tuple(cells)


def convergence_trace(param: str, values: Iterable, gaps: Iterable[float]) -> dict:
    return {"param": param, "values": list(values), "gaps": [float(g) for g in gaps]}
