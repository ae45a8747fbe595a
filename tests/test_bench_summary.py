"""tools/bench_summary.py on hand-made result.json contents: how pairs are
formed and counted."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_summary", Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

BENCH = {"workloads": [{"name": "wl"}],
         "end_to_end": [{"name": "run_s.p50", "better": "lower"},
                        {"name": "score", "better": "higher"}]}


def run(seed, p50, score, trace=0, failed=0):
    return {"workload": "wl", "seed": seed, "trace": trace, "attempted_suites": 3,
            "failed_suites": failed,
            "metrics": {"run_s.p50": {"value": p50}, "score": {"value": score}}}


def runs(*rows):
    return {("wl", r["seed"], r["trace"]): r for r in rows}


def test_ties_count_for_neither_side():
    parent = runs(run(1, 1.0, 5.0), run(2, 2.0, 5.0), run(3, 3.0, 5.0))
    change = runs(run(1, 1.0, 5.0), run(2, 1.5, 5.0), run(3, 3.5, 5.0))
    rows = bench_summary.summarise(parent, change, [1, 2, 3], BENCH)["end_to_end"]["wl"]
    assert rows["run_s.p50"]["change_better_pairs"] == 1
    assert rows["run_s.p50"]["parent_better_pairs"] == 1
    assert rows["score"]["change_better_pairs"] == rows["score"]["parent_better_pairs"] == 0


def test_higher_is_better_flips_the_sign():
    parent = runs(run(1, 1.0, 5.0), run(2, 1.0, 5.0))
    change = runs(run(1, 2.0, 6.0), run(2, 2.0, 7.0))
    rows = bench_summary.summarise(parent, change, [1, 2], BENCH)["end_to_end"]["wl"]
    assert (rows["run_s.p50"]["change_better_pairs"], rows["run_s.p50"]["parent_better_pairs"]) \
        == (0, 2)
    assert (rows["score"]["change_better_pairs"], rows["score"]["parent_better_pairs"]) == (2, 0)


def test_a_seed_on_one_side_only_is_left_out_of_the_pairs():
    parent = runs(run(1, 1.0, 5.0), run(2, 1.0, 5.0), run(3, 9.0, 5.0, failed=1))
    change = runs(run(1, 0.5, 5.0), run(2, 0.5, 5.0), run(4, 0.1, 5.0))
    rows = bench_summary.summarise(parent, change, [1, 2, 3, 4], BENCH)["end_to_end"]["wl"]
    assert rows["seeds"] == [1, 2]
    p50 = rows["run_s.p50"]
    assert p50["parent"]["n"] == p50["change"]["n"] == 2
    assert p50["parent"]["median"] == 1.0 and p50["change"]["median"] == 0.5
    assert p50["change_better_pairs"] == 2
    assert set(rows["attempted_failed"]["parent"]) == {"1", "2"}
