"""Report emission: number formatting, deterministic JSON and the CSV tables."""

import math

import numpy as np
import pytest

from vopt.filtration import AdaptedProcess, build_tree
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
