"""Self-test of the benchmark's checker: injected faults must count as failures.

    python3 bench/selftest.py

Each case runs a small step through the same runner and checks as `run.py`
and asserts that a clean step passes and the faulty one fails:

1. a reference eigenvalue perturbed by 1e-9 relative;
2. a graph with two components (also two near-zero eigenvalues);
3. a changed CSV digest between warm-up and the timed run;
4. a `SolverFailure` raised in the middle of a sweep.

Exits 0 when every fault was caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run  # sets the thread environment before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import instrument as ins  # noqa: E402
import workloads as W  # noqa: E402
from lapeig import graph as G  # noqa: E402
from lapeig import manifolds as M  # noqa: E402
from lapeig import spectral as S  # noqa: E402

SEED = 7


def step_failures(wl, ctx, refs=None) -> run.Runner:
    runner = run.Runner(wl, ctx, SEED, refs or {}, ins)
    runner.step(0, 0)
    return runner


def small(kind: W.ConvergeKind, warm_kinds=()) -> W.Converge:
    return W.Converge("selftest", "checker self-test", 9, (kind,), 1, warm_kinds)


def case_reference():
    wl = small(W.ConvergeKind("circle", "unnormalized", (512, 2048), 1, 4, None))
    ctx = wl.prepare(SEED)
    ref = wl.reference_entry(0, wl.run(ctx, 0, 0))
    key = wl.reference_key(SEED, 0, 0)
    bad = copy.deepcopy(ref)
    bad["raw"]["2048/0"][2] *= 1.0 + 1e-9
    return (len(step_failures(wl, ctx, {key: ref}).failures),
            len(step_failures(wl, ctx, {key: bad}).failures))


def case_two_components():
    wl = W.GraphScan()
    ctx = wl.prepare(SEED)
    cloud = M.sample_iid(M.make_manifold("circle"), 512, SEED)
    eps = G.epsilon_schedule(512, 1)
    outs = []
    for pts in (cloud.ambient, np.concatenate([cloud.ambient, cloud.ambient + 10.0])):
        g = G.build_graph(M.ambient_cloud(pts), ctx["kernel"], eps)
        out = {"graph": g, "report": G.connectivity_report(g)}
        fails, _ = wl.check(ctx, 1, 0, out, ins.Probe(), None)
        zeros = W.near_zero_count(S.unnormalized_spectrum(g, 4).values)
        outs.append(len(fails) + (zeros != 1))
    return tuple(outs)


def case_digest():
    wl = small(W.ConvergeKind("circle", "unnormalized", (512, 1024), 1, 4, None), None)
    ctx = wl.prepare(SEED)
    wl.warm_up(ctx)
    clean = len(step_failures(wl, ctx).failures)
    ctx["warm_digests"][0] = "0" * 64
    return clean, len(step_failures(wl, ctx).failures)


def case_solver_failure():
    wl = small(W.ConvergeKind("circle", "unnormalized", (2048,), 2, 4, None))
    ctx = wl.prepare(SEED)
    clean = step_failures(wl, ctx)
    eigsh = S.eigsh
    calls = []

    def failing_eigsh(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected ARPACK failure")
        return eigsh(*args, **kwargs)

    S.eigsh = failing_eigsh
    try:
        faulty = step_failures(wl, ctx)
    finally:
        S.eigsh = eigsh
    return (len(clean.failures) + clean.solver_failures,
            min(len(faulty.failures), faulty.solver_failures))


def main() -> int:
    ok = True
    for name, case in (("reference eigenvalue perturbed by 1e-9", case_reference),
                       ("two-component graph", case_two_components),
                       ("changed CSV digest", case_digest),
                       ("SolverFailure mid-workload", case_solver_failure)):
        clean, faulty = case()
        passed = clean == 0 and faulty > 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: clean run {clean} failures, "
              f"faulty run {faulty}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
