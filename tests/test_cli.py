"""End-to-end tests of the ``vopt`` command line: exit codes and artifacts."""

import copy
import json
from pathlib import Path

import pytest

import vopt
from vopt.cli import main

PACKAGED = Path(vopt.__file__).parent / "scenarios" / "paper_regression.json"

SUITES_IN_ORDER = ["projections-identities", "martingale-transforms", "measure-change",
                   "european-duality", "dirac-convergence", "rbsde-vs-optstop",
                   "american-upper", "game-duality", "oracle-equivalence"]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    code = main(["run", str(PACKAGED), "--out", str(out)])
    return code, out


def test_golden_run_passes_all_suites_in_order(golden_run, capsys):
    code, out = golden_run
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == SUITES_IN_ORDER
    assert all(s["passed"] for s in report["suites"])


def test_report_has_no_backend_key_and_is_byte_stable(golden_run, tmp_path, capsys):
    _, out = golden_run
    first = (out / "report.json").read_bytes()
    assert "kernel_backend" not in json.loads(first)
    assert main(["run", str(PACKAGED), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def _set(path, value):
    """Edit of the packaged scenario: set the entry at ``path`` to ``value``."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


NAN, INF = float("nan"), float("inf")
BAD_INPUTS = {
    "negative payoff": _set(["payoff", "P", "by_level", 1, 0], -0.5),
    "nan delta": _set(["hazard", "delta", "by_level", 2, 1], NAN),
    "infinite delta": _set(["hazard", "delta", "by_level", 2, 1], INF),
    "nan h": _set(["hazard", "h", "by_level", 1, 1], NAN),
    "nan zf_leaves": _set(["tree", "zf_leaves", 3], NAN),
    "nan grid time": _set(["tree", "times", 2], NAN),
    "infinite grid time": _set(["tree", "times", 3], INF),
    "nan edge probability": _set(["tree", "p"], [[[0.5, 0.5]], [[NAN, 0.5], [0.5, 0.5]],
                                                 [[0.5, 0.5]] * 4]),
    "fractional penalty level": _set(["penalty_ladder"], [1, 2.5, 4]),
    "non-numeric penalty level": _set(["penalty_ladder"], [1, "x"]),
    "non-numeric phi count": _set(["phi", "count"], "ten"),
    "null random_family instances": _set(["random_family", "instances"], None),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_malformed_input_exits_2(case, tmp_path, capsys):
    raw = copy.deepcopy(json.loads(PACKAGED.read_text()))
    BAD_INPUTS[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("scenario error: ")
    assert not (tmp_path / "out").exists()


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(PACKAGED), "--threads", "2"])
    assert exc.value.code == 2
