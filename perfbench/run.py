"""Closed-loop benchmark of ``vopt run`` on seeded scenarios.

    python3 perfbench/run.py --workload paper --seed 20240901 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  One
client, one thread: each iteration calls ``vopt.cli.main(["run", <scenario>,
"--out", <dir>])`` in this process and waits for it.  With ``--trace 0`` every
iteration is untraced and the end-to-end metrics are reported.  With
``--trace 1`` untraced and traced iterations alternate; the per-layer metrics
are medians over the traced iterations, and the tracing overhead is the
traced median minus the untraced one.

Every time is speed-normalised: a fixed probe runs right before and after
each timed step, and the step's wall time is scaled by PROBE_NOMINAL_S over
the probe's mean time.  Raw wall times are kept in ``result.json``.  The last
line of standard output is one JSON object; ``perfbench/README.md`` documents
every metric.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one OpenBLAS / OpenMP thread in this process and
# in the fresh interpreters that time set-up
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import contextlib
import gc
import gzip
import hashlib
import importlib.util
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer as tracing
import workloads

OUT_ROOT = ".perfbench_out"
SETUP_REPEATS = 11
MIN_SAMPLES = 3

# The speed probe is a fixed mix of interpreter work and small numpy calls,
# like the program's own.  It belongs to the benchmark, so no change to the
# program can move it.  PROBE_NOMINAL_S is its typical time on the machine
# the baseline was taken on.
PROBE_ROUNDS = 1000
PROBE_NOMINAL_S = 0.010
_PROBE_RNG = np.random.default_rng(0)
_PROBE_GROUPS = _PROBE_RNG.integers(0, 64, 4096)
_PROBE_WEIGHTS = _PROBE_RNG.random(4096)


def probe() -> float:
    """Wall time of the speed probe, in seconds."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        acc += np.bincount(_PROBE_GROUPS, weights=_PROBE_WEIGHTS, minlength=64)[i & 63]
        d: dict[int, float] = {}
        for j in range(40):
            d[j] = d.get(j - 1, 0.0) + j * 0.5
        acc += d[39]
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn`` between two probes; returns (result, raw seconds, speed factor)."""
    p0 = probe()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return out, raw, PROBE_NOMINAL_S / (0.5 * (p0 + probe()))


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _parse_report(data: bytes) -> dict:
    """report.json as written by the program: reals may read ``inf``/``nan``."""
    text = re.sub(r"(?<=[\s\[:,])(-?)inf\b", r"\1Infinity", data.decode())
    text = re.sub(r"(?<=[\s\[:,])nan\b", "NaN", text)
    return json.loads(text)


def _root_value(path: str) -> float:
    with open(path) as fh:
        fh.readline()
        return float(fh.readline().rstrip("\n").split(",")[-1])


def setup_times(src: str) -> list[tuple[float, float]]:
    """(raw, speed factor) of a fresh interpreter importing ``vopt.cli``."""
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", "import vopt.cli"]
    return [timed(lambda: subprocess.run(cmd, env=env, check=True))[1:]
            for _ in range(SETUP_REPEATS)]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def environment(root: str) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src", "vopt"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".json")):
                digest.update(f.encode())
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "commit": commit, "source_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Loop:
    """Runs iterations of ``vopt run`` and checks every iteration's output.

    ``reports[j]`` holds scenario j's first report.json; every later
    iteration on that scenario must write the same bytes.  ``verdicts[j]``
    counts scenario j's suites and failed suites once, however many
    iterations ran it: the report check makes every iteration on a scenario
    give the same verdict, and an iteration that crashes or fails a check
    marks all of its scenario's suites failed.  So ``attempted`` and
    ``failed`` depend only on the seed, not on how many iterations fit in
    the run.
    """

    def __init__(self, cli, scenarios: list[str], out_dir: str):
        self.cli = cli
        self.scenarios = scenarios
        self.out_dir = out_dir
        self.reports: dict[int, bytes] = {}
        self.verdicts: dict[int, tuple[int, int]] = {}   # j -> (suites, failed)
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(n for n, _ in self.verdicts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.verdicts.values())

    def covered(self) -> bool:
        """Every scenario of the run has been through at least one iteration."""
        return len(self.verdicts) == len(self.scenarios)

    def iterate(self, j: int) -> tuple[float, float]:
        """One closed-loop iteration on scenario j: (raw seconds, speed factor)."""
        report_path = os.path.join(self.out_dir, "report.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
        argv = ["run", self.scenarios[j], "--out", self.out_dir]

        def call():
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return self.cli.main(argv), None
            except Exception as e:  # a crash is a counted failure, not a stop
                return None, f"{type(e).__name__}: {e}"

        gc.collect()
        (rc, crash), raw, speed = timed(call)
        self._check(j, rc, crash, report_path)
        return raw, speed

    def _check(self, j, rc, crash, report_path) -> None:
        problems = [crash] if crash else []
        n_suites, n_failed = None, None
        if not problems and rc not in (0, 1):
            problems.append(f"exit code {rc}")
        if not problems:
            try:
                with open(report_path, "rb") as fh:
                    data = fh.read()
                suites = _parse_report(data)["suites"]
                n_suites = len(suites)
                n_failed = sum(not s["passed"] for s in suites)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems.append(f"report.json unreadable ({type(e).__name__}: {e})")
            else:
                if data != self.reports.setdefault(j, data):
                    problems.append(f"scenario {j}: report.json differs from its first "
                                    "iteration's")
                if (rc == 0) != (n_failed == 0):
                    problems.append(f"exit code {rc} with {n_failed} failed suites")
        if problems:
            self.problems += problems
            if n_suites is None:
                with open(self.scenarios[j]) as fh:
                    n_suites = len(json.load(fh).get("suites", tracing.SUITES))
            n_failed = n_suites
        if problems or j not in self.verdicts:
            self.verdicts[j] = (n_suites, n_failed)

    def check_root_values(self, expected: dict[str, float]) -> None:
        for name, value in expected.items():
            try:
                got = _root_value(os.path.join(self.out_dir, name))
            except (OSError, ValueError, IndexError) as e:
                self.problems.append(f"{name}: unreadable ({e})")
                continue
            if not abs(got - value) <= workloads.ROOT_VALUE_TOL:
                self.problems.append(f"{name}: node-0 value {got!r}, expected {value!r}")

    def residual_ratios(self) -> dict[str, float]:
        """Per suite, the largest max_residual / tolerance over the run's
        scenarios; 0 for suites the workload does not run, 1e300 for a
        non-finite residual."""
        out = dict.fromkeys(tracing.SUITES, 0.0)
        for data in self.reports.values():
            for s in _parse_report(data)["suites"]:
                r = s["max_residual"] / s["tolerance"]
                out[s["suite"]] = max(out.get(s["suite"], 0.0),
                                      r if math.isfinite(r) else 1e300)
        return out


def run(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vopt", "cli.py")):
        return _fail(f"no program to benchmark: {src}/vopt/cli.py is missing")
    # An installed package imports from bytecode.  Write it here, so that
    # set-up time does not depend on whether the environment lets Python
    # write its own cache (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(os.path.join(src, "vopt"), quiet=1)
    sys.path.insert(0, src)
    try:
        import vopt.cli as cli
        import vopt.scenario
    except ImportError as e:
        return _fail(f"cannot import vopt from {src}: {e}")

    work = os.path.join(root, OUT_ROOT, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scenarios = []
    for j, seed in enumerate(workloads.scenario_seeds(args.workload, args.seed)):
        scenarios.append(os.path.join(work, f"scenario-{j}.json"))
        with open(scenarios[-1], "w") as fh:
            fh.write(workloads.scenario_text(args.workload, seed))

    setup = setup_times(src) if args.trace == 0 else []
    loop = Loop(cli, scenarios, os.path.join(work, "out"))
    loop.iterate(0)                    # warm-up: caches, lazy imports, first report
    if args.seed == workloads.default_seed(args.workload):
        loop.check_root_values(workloads.REFERENCE_ROOT_VALUES[args.workload])

    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    layer_rows: list[dict] = []
    span_log = []
    tracer = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not loop.covered()
           or len(untraced) < MIN_SAMPLES or (tracer and len(traced) < MIN_SAMPLES)):
        if tracer is None or len(traced) >= len(untraced):
            untraced.append(loop.iterate(len(untraced) % len(scenarios)))
            continue
        tracer.reset()
        tracer.install()
        try:
            raw, speed = loop.iterate(len(traced) % len(scenarios))
        finally:
            tracer.restore()
        if not tracer.restored():
            loop.problems.append("tracer left a rebinding in place")
        traced.append((raw, speed))
        row = tracer.iteration_metrics(raw)
        layer_rows.append({k: v * speed if k.endswith("_s") else v for k, v in row.items()})
        span_log.append([tuple(sp) for sp in tracer.spans])

    run_s = [raw * speed for raw, speed in untraced]
    tail_v, tail_pct = tail(run_s)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "scenario_seeds": workloads.scenario_seeds(args.workload, args.seed),
        "problems": loop.problems, "attempted_suites": loop.attempted,
        "failed_suites": loop.failed,
        "fail_frac": loop.failed / loop.attempted if loop.attempted else 1.0,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "untraced_raw_s_and_speed": untraced, "traced_raw_s_and_speed": traced,
        "setup_raw_s_and_speed": setup, "tail_percentile": tail_pct,
        "absent": tracer.absent if tracer else [],
    }
    if args.trace == 0:
        metrics = {
            "run_s.p50": (statistics.median(run_s), "s", len(run_s)),
            "run_s.tail": (tail_v, "s", f"p{tail_pct:.1f} of {len(run_s)}"),
            "setup_s": (statistics.median(r * s for r, s in setup), "s", len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
        }
    else:
        metrics = layer_metrics(tracer, layer_rows, traced, run_s, loop, vopt.scenario)
        with gzip.open(os.path.join(work, "spans.csv.gz"), "wt", compresslevel=1) as fh:
            fh.write("iteration,name,start,end,parent\n")
            for it, spans in enumerate(span_log):
                for name, t0, t1, parent in spans:
                    fh.write(f"{it},{name},{t0!r},{t1!r},{parent}\n")
    summary["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} suites attempted, "
          f"{loop.failed} failed (fail_frac {summary['fail_frac']:.4g}), "
          f"{len(untraced)} untraced / {len(traced)} traced iterations")
    for problem in loop.problems:
        print(f"  output check failed: {problem}")
    for k, (v, u, n) in metrics.items():
        print(f"  {k:58s} {v:>14.6g} {u:6s} (samples: {n})")
    result = {"correct": not loop.problems, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, rows, traced, run_s, loop, scenario_mod) -> dict:
    n = len(rows)
    out = {}
    for key in rows[0]:
        unit = ("s" if key.endswith("_s") else
                "ratio" if key.endswith("_frac") else
                "B" if key.endswith("bytes_written") else "count")
        out[key] = (statistics.median(r[key] for r in rows), unit, n)
    # instance sizes of the run's first scenario, read from outside the loop
    sc = scenario_mod.parse_scenario(loop.scenarios[0])
    out["filtration.nodes"] = (sc.tree.n_nodes, "count", 1)
    cox_extend = getattr(sys.modules.get("vopt.random_time"), "cox_extend", None)
    ext = cox_extend(sc.tree, sc.hazard_h) if cox_extend else None
    out["random_time.atoms"] = (getattr(ext, "n_atoms", 0), "count", 1)
    first = _parse_report(loop.reports[0]) if 0 in loop.reports else {"suites": []}
    details = {s["suite"]: s.get("details", {}) for s in first["suites"]}
    out["measure_change.controls"] = (details.get("measure-change", {}).get("controls", 0),
                                      "count", 1)
    for suite, ratio in loop.residual_ratios().items():
        out[f"suites.{suite}.residual_ratio"] = (ratio, "ratio", len(loop.reports))
    traced_p50 = statistics.median(raw * speed for raw, speed in traced)
    out["trace.overhead_s"] = (traced_p50 - statistics.median(run_s), "s", n)
    out["trace.absent"] = (len(tracer.absent), "count", 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
