"""Summarise paired perfbench runs of two checkouts into one BENCH JSON file.

Each checkout's ``.perfbench_out/<workload>-<seed>-trace<k>/result.json`` is
one run.  Untraced runs on the protocol seeds are paired by (workload, seed):
per end-to-end metric of ``BENCHMARK.json`` the file records each side's
median and quartiles over the seeds, and in how many pairs the change read
better (ties count for neither side).  Untraced runs on other seeds are
listed run by run; traced runs give the per-layer calls and self times.

    python3 tools/bench_summary.py --parent ../parent --change . \\
        --seeds 1-10 --out BENCH.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os

import numpy as np


def load_runs(root: str) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in glob.glob(os.path.join(root, ".perfbench_out", "*", "result.json")):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], int(r["seed"]), int(r["trace"]))] = r
    return runs


def spread(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values)}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(parent: dict, change: dict, seeds: list[int], bench: dict) -> dict:
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    out: dict = {"end_to_end": {}, "other_seeds": {}, "traced": {}}
    for wl in [w["name"] for w in bench["workloads"]]:
        paired = [s for s in seeds if (wl, s, 0) in parent and (wl, s, 0) in change]
        if not paired:
            continue
        rows: dict = {"seeds": paired}
        for name, better in metrics:
            p = [parent[wl, s, 0]["metrics"][name]["value"] for s in paired]
            c = [change[wl, s, 0]["metrics"][name]["value"] for s in paired]
            sign = 1.0 if better == "lower" else -1.0
            rows[name] = {"parent": spread(p), "change": spread(c),
                          "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                          "parent_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(p, c))}
        rows["attempted_failed"] = {
            side: {str(s): [runs[wl, s, 0]["attempted_suites"], runs[wl, s, 0]["failed_suites"]]
                   for s in paired}
            for side, runs in (("parent", parent), ("change", change))}
        out["end_to_end"][wl] = rows
    for key in sorted(set(parent) & set(change)):
        wl, s, trace = key
        sides = {"parent": parent[key], "change": change[key]}
        if trace == 0 and s not in seeds:
            out["other_seeds"][f"{wl}-{s}"] = {
                side: {**{name: r["metrics"][name]["value"] for name, _ in metrics},
                       "attempted": r["attempted_suites"], "failed": r["failed_suites"]}
                for side, r in sides.items()}
        elif trace == 1:
            layer = {}
            for name in parent[key]["metrics"]:
                vals = {side: r["metrics"][name]["value"] for side, r in sides.items()}
                if name.endswith((".calls", ".self_s")) and any(vals.values()) \
                        or name.startswith("trace."):
                    layer[name] = vals
            out["traced"][f"{wl}-{s}"] = layer
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout root of the parent commit")
    ap.add_argument("--change", required=True, help="checkout root of the change")
    ap.add_argument("--seeds", default="1-10", help="protocol seeds, e.g. 1-10")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        raise SystemExit("no result.json under one of the checkouts' .perfbench_out/")
    any_run = next(iter(change.values()))
    doc = {"environment": {k: v for k, v in any_run["environment"].items()
                           if k not in ("commit", "source_sha256")},
           "seconds": any_run["seconds"],
           "source_sha256": {"parent": next(iter(parent.values()))["environment"]["source_sha256"],
                             "change": any_run["environment"]["source_sha256"]},
           **summarise(parent, change, seed_range(args.seeds), bench)}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")


if __name__ == "__main__":
    main()
