"""Benchmark of the lapeig pipeline: one workload per run, checked outputs.

    python3 bench/run.py --workload converge-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
job is a batch, so it is driven as a closed loop with one client (see
`workloads.py`).  After set-up the run repeats the workload's job for
`--seconds`, always finishing the first job; later jobs visit the step kinds
heaviest first and stop at the first step whose median so far no longer fits.
`--workload all` runs the four workloads one after another, each in its own
process so that set-up time and peak memory stay per workload.

End-to-end metrics come from the untraced run (`--trace 0`).  With
`--trace 1` each step runs twice on the same inputs, untraced and with spans
(alternating which goes first), and the run reports per-layer metrics and the
tracing overhead; the spans are written to `.bench_out/` at the end.  The
last line of standard output is the result as JSON; the line before it
(`record ...`) adds the environment, the failures and the metrics not in the
result.  The exit code is 1 when any op failed its checks, 2 on bad arguments
or a missing package.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("converge-large", "converge-small", "graph-scan", "continuum")

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectral.self_frac": "frac", "graph.self_frac": "frac",
    "manifolds.self_frac": "frac", "harness.self_frac": "frac",
    "singular.self_frac": "frac", "interp.self_frac": "frac",
    "graph.connectivity_frac": "frac", "harness.emit_frac": "frac",
    "harness.busy_frac": "frac", "manifolds.sample_s": "s",
    "spectral.calls_dense": "count", "spectral.calls_shift_invert": "count",
    "spectral.solver_failures": "count", "spectral.residual_max": "rel",
    "graph.build_calls": "count", "graph.nnz_per_row": "nnz/row",
    "graph.csr_mb": "MB", "singular.operator_calls": "count",
    "interp.distance_entries": "count", "trace.overhead_frac": "frac",
    "trace.spans": "count",
}
# span totals per job, named as the layer metrics they stand for
SPAN_SECONDS = {
    "spectral.solve_s": ("unnormalized_spectrum", "normalized_spectrum"),
    "graph.build_s": ("build_graph",), "graph.connectivity_s": ("connectivity_report",),
    "harness.emit_s": ("report_csv_text",), "manifolds.sample_s": ("sample_iid",),
    "manifolds.target_s": ("analytic_spectrum", "oracle_spectrum_circle_weighted"),
    "singular.sweep_s": ("corner_l1_sweep",), "singular.operator_s": ("sensitivity_operator",),
    "interp.transport_s": ("transport_map",), "interp.lambda_s": ("lambda_eps",),
}


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter (its
    start-up not counted)."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import lapeig.harness; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-B", "-c", probe, str(ROOT / "src")],
                                capture_output=True, text=True, check=True,
                                timeout=120).stdout)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment(wl, seed: int) -> dict:
    import numpy as np
    import scipy

    def blas_version():
        try:
            return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    git = ""
    if (ROOT / ".git").exists():   # an exported checkout has no history to describe
        try:
            git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": wl.name, "why": wl.why, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "harness_threads": wl.threads,
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas_version(), "cpu": cpu, "git_describe": git or "unknown"}


def per_job(samples: dict[int, list[float]]) -> float:
    """A job's value from per-step samples: the sum over step kinds of the
    median over that kind's steps."""
    return sum(statistics.median(v) for v in samples.values() if v)


class Runner:
    def __init__(self, wl, ctx, seed, refs, instrument):
        self.wl, self.ctx, self.seed, self.refs = wl, ctx, seed, refs
        self.ins = instrument
        self.attempted = 0
        self.failures: list[str] = []
        self.residual_max = 0.0
        self.solver_failures = 0
        self.stats: list[dict] = []

    def step(self, i: int, cycle: int, recorder=None) -> float:
        """Run one step, check it, and return its wall time."""
        wl, ins = self.wl, self.ins
        probe = ins.Probe()
        gc.collect()
        with ins.instrumented(probe, recorder):
            root = recorder.enter("step", "bench") if recorder is not None else None
            start = perf_counter()
            try:
                out, error = wl.run(self.ctx, i, cycle), None
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc()
                out, error = None, "".join(traceback.format_exception_only(exc)).strip()
            elapsed = perf_counter() - start
            if root is not None:
                recorder.exit(root)
        ops = wl.ops(i)
        if out is None:
            fails, stats = {op: f"raised: {error}" for op in ops}, {}
        else:
            ref = self.refs.get(wl.reference_key(self.seed, i, cycle))
            fails, stats = wl.check(self.ctx, i, cycle, out, probe, ref)
        self.attempted += len(ops)
        self.failures += [f"step {i} cycle {cycle} {op}: {why}" for op, why in fails.items()]
        self.residual_max = max(self.residual_max, stats.get("residual_max", 0.0))
        self.solver_failures += probe.solver_failures
        self.stats.append(stats)
        return elapsed


def rel_err_p50(runner: Runner):
    errs = [e for s in runner.stats for e in s.get("rel_errors", [])]
    if errs:
        return float(statistics.median(errs))
    l1 = [s["rel_err"] for s in runner.stats if "rel_err" in s]
    return l1[-1] if l1 else None


def layer_metrics(profiles, untraced, traced, runner) -> tuple[dict, dict]:
    """Per-layer metrics for one job, and span seconds per job for the record."""
    from instrument import LAYERS

    def job(fn):
        return per_job({i: [fn(p) for p in ps] for i, ps in profiles.items()})

    total = job(lambda p: sum(p.layer_self.values()))
    m = {f"{layer}.self_frac": job(lambda p, l=layer: p.layer_self.get(l, 0.0)) / total
         for layer in LAYERS}
    m["graph.connectivity_frac"] = job(
        lambda p: p.name_total.get("connectivity_report", 0.0)) / total
    m["harness.emit_frac"] = job(lambda p: p.name_total.get("report_csv_text", 0.0)) / total
    every = [p for ps in profiles.values() for p in ps]
    capacity = sum(p.busy_capacity for p in every)
    m["harness.busy_frac"] = sum(p.busy_child for p in every) / capacity if capacity else 0.0
    m["manifolds.sample_s"] = job(lambda p: p.name_total.get("sample_iid", 0.0))
    solves = job(lambda p: p.name_calls.get("unnormalized_spectrum", 0)
                 + p.name_calls.get("normalized_spectrum", 0))
    m["spectral.calls_shift_invert"] = job(lambda p: p.name_calls.get("eigsh", 0))
    m["spectral.calls_dense"] = solves - m["spectral.calls_shift_invert"]
    m["spectral.solver_failures"] = runner.solver_failures
    m["spectral.residual_max"] = runner.residual_max
    m["graph.build_calls"] = job(lambda p: p.name_calls.get("build_graph", 0))
    m["graph.nnz_per_row"] = max((v for p in every for v in p.observed.get("nnz_per_row", [])),
                                 default=0.0)
    m["graph.csr_mb"] = max((v for p in every for v in p.observed.get("csr_mb", [])),
                            default=0.0)
    m["singular.operator_calls"] = job(lambda p: p.name_calls.get("sensitivity_operator", 0))
    m["interp.distance_entries"] = job(lambda p: sum(p.observed.get("distance_entries", [])))
    m["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    m["trace.spans"] = job(lambda p: sum(p.name_calls.values()))
    seconds = {name: job(lambda p, fs=fns: sum(p.name_total.get(f, 0.0) for f in fs))
               for name, fns in SPAN_SECONDS.items()}
    seconds["harness.self_s"] = job(lambda p: p.layer_self.get("harness", 0.0))
    return m, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":   # each workload in its own process, one after another
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES)
    if not (ROOT / "src" / "lapeig" / "__init__.py").is_file():
        print(f"no lapeig package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the import, part of set-up, is timed in fresh interpreters
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import instrument as ins
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        ctx = wl.prepare(args.seed)
        prepare_s.append(perf_counter() - t)
    t = perf_counter()
    with ins.instrumented(ins.Probe()):
        wl.warm_up(ctx)
    warm_s = perf_counter() - t
    setup_s = import_s + statistics.median(prepare_s) + warm_s

    with open(BENCH / "reference.json") as fh:
        refs = json.load(fh)["workloads"].get(wl.name, {})
    runner = Runner(wl, ctx, args.seed, refs, ins)
    kinds = len(wl.kinds)
    times = {i: [] for i in range(kinds)}          # untraced step times
    traced_times = {i: [] for i in range(kinds)}
    profiles = {i: [] for i in range(kinds)}
    span_dump = []

    def visits():
        yield from ((0, i) for i in range(kinds))
        for c in itertools.count(1):
            # heaviest kinds first, so the steps that weigh most in a job repeat most
            for k in sorted(range(kinds), key=lambda k: -statistics.median(times[k])):
                yield c, k

    loop_start = perf_counter()
    for cycle, i in visits():
        if cycle > 0:
            predicted = statistics.median(times[i])
            if args.trace:
                predicted += statistics.median(traced_times[i])
            if perf_counter() - loop_start + predicted > args.seconds:
                break
        if not args.trace:
            times[i].append(runner.step(i, cycle))
            continue
        rec = ins.Recorder()
        # alternate which run goes first, so that warm caches favour neither side
        for r in ((None, rec) if (i + cycle) % 2 == 0 else (rec, None)):
            (times if r is None else traced_times)[i].append(runner.step(i, cycle, r))
        profiles[i].append(ins.profile_step(rec, wl.threads))
        span_dump.append({"kind": i, "cycle": cycle, "spans": [
            [s.id, s.name, s.layer, s.start - loop_start, s.end - loop_start,
             s.parent, s.thread] for s in rec.spans]})

    failed = len(runner.failures)
    ops_per_job = sum(len(wl.ops(i)) for i in range(kinds))
    wall_s = per_job(times)
    record = dict(environment(wl, args.seed), seconds=args.seconds, trace=args.trace,
                  jobs=sum(len(v) for v in times.values()) / kinds,
                  step_seconds={str(i): v for i, v in times.items()},
                  fail_frac=failed / runner.attempted, rel_err_p50=rel_err_p50(runner),
                  failures=runner.failures[:50])
    if args.trace:
        metrics, seconds = layer_metrics(profiles,
                                         [t for v in times.values() for t in v],
                                         [t for v in traced_times.values() for t in v], runner)
        units = PER_LAYER
        record["span_seconds_per_job"] = seconds
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["id", "name", "layer", "start", "end", "parent", "thread"],
                       "steps": span_dump}, fh)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": ops_per_job * (1.0 - failed / runner.attempted) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["setup_parts_s"] = {"import": import_s, "prepare": prepare_s, "warm_up": warm_s}
    extra = {k: record[k] for k in ("fail_frac", "rel_err_p50") if record[k] is not None}
    for name, value in {**metrics, **extra}.items():
        print(f"{wl.name} {name} = {value} {units.get(name, 'frac')}")
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                                  for k in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
