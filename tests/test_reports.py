"""Report emission: number formatting, deterministic JSON and the CSV tables."""

import json
import math

import numpy as np
import pytest

from vopt.filtration import AdaptedProcess, build_tree
from vopt import reports
from vopt.reports import fmt, process_csv, strategy_csv, table_csv, to_json


def two_period_tree():
    return build_tree({"times": [0.0, 0.5, 1.0], "branching": 2, "p": "uniform"})


# -- fmt -----------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.1, 1.0 / 3.0, math.pi * 1e-300, 2.0 ** 0.5 * 1e17,
                               -7.25e-12, np.float64(0.7) * 3, 5e-324])
def test_fmt_round_trips_reals(x):
    text = fmt(x)
    assert float(text) == float(x)
    assert fmt(float(text)) == text


def test_fmt_prints_17_significant_digits():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert fmt(np.float64(2.5)) == "2.5"


def test_fmt_bools_and_ints():
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(np.bool_(True)) == "true"
    assert fmt(3) == "3"
    assert fmt(np.int64(-12)) == "-12"


# -- to_json -------------------------------------------------------------------

def test_to_json_escapes_quotes_and_backslashes():
    assert to_json('say "hi" \\ bye') == '"say \\"hi\\" \\\\ bye"'


def test_to_json_empty_containers_and_none():
    assert to_json({}) == "{}"
    assert to_json([]) == "[]"
    assert to_json(()) == "[]"
    assert to_json(np.array([])) == "[]"
    assert to_json(None) == "null"


def test_to_json_nesting_is_deterministic():
    obj = {"b": [1, 2.5, True], "a": {"x": None, "y": [{"z": "s"}, []]}, "c": {}}
    expected = ('{\n'
                '  "b": [1, 2.5, true],\n'
                '  "a": {\n'
                '    "x": null,\n'
                '    "y": [\n'
                '      {\n'
                '        "z": "s"\n'
                '      },\n'
                '      []\n'
                '    ]\n'
                '  },\n'
                '  "c": {}\n'
                '}')
    assert to_json(obj) == expected
    assert to_json(dict(obj)) == expected


# -- CSV tables ----------------------------------------------------------------

def test_process_csv_header_and_rows():
    tree = two_period_tree()
    lines = process_csv(AdaptedProcess(tree, np.arange(tree.n_nodes) * 0.1), "V").splitlines()
    assert lines[0] == "node,time_index,time,V"
    assert len(lines) == 1 + tree.n_nodes
    assert lines[1] == "0,0,0,0"
    assert lines[4] == "3,2,1,0.30000000000000004"


def test_table_csv_header_and_rows():
    tree = two_period_tree()
    cols = {"a": np.ones(tree.n_nodes), "b": np.arange(tree.n_nodes, dtype=float)}
    lines = table_csv(tree, cols).splitlines()
    assert lines[0] == "node,time_index,time,a,b"
    assert len(lines) == 1 + tree.n_nodes
    assert lines[2] == "1,1,0.5,1,1"


def test_strategy_csv_header_and_rows():
    tree = two_period_tree()
    stop = np.zeros(tree.n_nodes, dtype=bool)
    stop[tree.leaves] = True
    lines = strategy_csv(tree, {"sigma": stop, "tau": ~stop}).splitlines()
    assert lines[0] == "node,time_index,sigma,tau"
    assert len(lines) == 1 + tree.n_nodes
    assert lines[1] == "0,0,continue,stop"
    assert lines[-1] == f"{tree.n_nodes - 1},2,stop,continue"


# -- writers against a per-node reference ---------------------------------------

def ref_table_csv(tree, columns):
    """The node-by-node table the writers must reproduce byte for byte."""
    lines = ["node,time_index,time," + ",".join(columns)]
    for v in range(tree.n_nodes):
        k = int(tree.level_of[v])
        row = [str(v), str(k), fmt(tree.grid.times[k])]
        row += [fmt(columns[c][v]) for c in columns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ref_strategy_csv(tree, stops):
    lines = ["node,time_index," + ",".join(stops)]
    for v in range(tree.n_nodes):
        row = [str(v), str(int(tree.level_of[v]))]
        row += ["stop" if stops[c][v] else "continue" for c in stops]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
            2.2250738585072014e-308, 0.1, 1.0 / 3.0]


def ragged_tree(rng):
    """Random tree with 1 to 4 periods and 1 to 3 children per node."""
    n = int(rng.integers(1, 5))
    branching, size = [], 1
    for _ in range(n):
        row = rng.integers(1, 4, size).tolist()
        branching.append(row)
        size = sum(row)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 3.0, n))])
    return build_tree({"times": times, "branching": branching, "p": "uniform"})


def awkward_values(rng, n):
    """Reals of every magnitude, random bit patterns and the special values."""
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    bits = rng.integers(0, 2 ** 63, n, dtype=np.int64).view(np.float64)
    out = np.where(rng.random(n) < 0.3, bits, out)
    pick = rng.random(n) < 0.3
    out[pick] = rng.choice(SPECIALS, int(pick.sum()))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_writers_equal_per_node_reference(seed):
    rng = np.random.default_rng(seed)
    tree = ragged_tree(rng)
    cols = {f"c{j}": awkward_values(rng, tree.n_nodes) for j in range(int(rng.integers(0, 4)))}
    assert table_csv(tree, cols) == ref_table_csv(tree, cols)
    proc = AdaptedProcess(tree, awkward_values(rng, tree.n_nodes))
    assert process_csv(proc, "V") == ref_table_csv(tree, {"V": proc.values})
    stops = {f"s{j}": rng.random(tree.n_nodes) < 0.5 for j in range(int(rng.integers(0, 3)))}
    assert strategy_csv(tree, stops) == ref_strategy_csv(tree, stops)


def assert_writers_equal_reference(tree, rng):
    cols = {f"c{j}": awkward_values(rng, tree.n_nodes) for j in range(3)}
    assert table_csv(tree, cols) == ref_table_csv(tree, cols)
    proc = AdaptedProcess(tree, awkward_values(rng, tree.n_nodes))
    assert process_csv(proc, "V") == ref_table_csv(tree, {"V": proc.values})
    stops = {f"s{j}": rng.random(tree.n_nodes) < 0.5 for j in range(2)}
    assert strategy_csv(tree, stops) == ref_strategy_csv(tree, stops)


def test_writers_cross_block_boundaries():
    # the 1,024 leaves of a 10-period binary tree span two blocks and the 512
    # nodes of level 9 exactly one
    tree = build_tree({"times": np.linspace(0.0, 1.0, 11), "branching": 2, "p": "uniform"})
    assert tree.leaves.size > reports.BLOCK_ROWS
    assert_writers_equal_reference(tree, np.random.default_rng(99))


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_writers_with_small_blocks_equal_per_node_reference(block_rows, seed, monkeypatch):
    monkeypatch.setattr(reports, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(100 + seed)
    assert_writers_equal_reference(ragged_tree(rng), rng)


def test_writers_print_special_values_as_fmt_does():
    tree = build_tree({"times": [0.0, 1e-300, 7.5], "branching": [[3], [1, 2, 3]]})
    vals = np.resize(np.array(SPECIALS), tree.n_nodes)
    text = table_csv(tree, {"x": vals})
    assert text == ref_table_csv(tree, {"x": vals})
    assert [line.split(",")[3] for line in text.splitlines()[1:4]] == ["nan", "inf", "-inf"]


def test_to_json_writes_non_finite_reals_that_json_reads():
    obj = {"a": math.nan, "b": [math.inf, -math.inf, np.float64("nan")], "c": 1.5}
    text = to_json(obj)
    assert text == '{\n  "a": NaN,\n  "b": [Infinity, -Infinity, NaN],\n  "c": 1.5\n}'
    back = json.loads(text)
    assert math.isnan(back["a"]) and math.isnan(back["b"][2])
    assert back["b"][:2] == [math.inf, -math.inf] and back["c"] == 1.5
    # CSV output keeps fmt's spelling
    assert fmt(math.inf) == "inf" and fmt(math.nan) == "nan"
