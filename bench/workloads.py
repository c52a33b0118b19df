"""The benchmark's workloads: inputs made from the seed, timed steps, checks.

A workload's job is a fixed list of step kinds; one pass over the list is one
job.  The benchmark drives the job as a closed loop with one client: a step
starts when the previous one has returned.  Each step makes its inputs from
(workload seed, step kind, cycle), so repeated jobs never see the same cloud
twice, and the program only ever receives the generated configs and clouds.

`check` returns, per failed op, the reason; an op fails if it raised or if
its output misses a check.  Checks that look at a whole step (acceptance
medians, the CSV digest) fail every op of the step.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from lapeig import graph as G
from lapeig import harness as H
from lapeig import interp as I
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import singular as SG

RESIDUAL_TOL = 1e-8      # relative backward error of a returned eigenpair
NEAR_ZERO = 1e-9         # |lambda| below this share of the largest is "zero"
RAW_REL_TOL = 1e-12      # eigenvalues against the reference, per trial
L1_REL_TOL = 1e-10       # corner-sweep L1 deviation against the reference


def near_zero_count(values) -> int:
    vals = np.abs(np.asarray(values, dtype=float))
    return int(np.sum(vals <= NEAR_ZERO * vals.max()))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""
    why = ""
    salt = 0
    threads = 1
    kinds: tuple = ()

    def ops(self, i: int) -> list[str]:
        raise NotImplementedError

    def prepare(self, seed: int) -> dict:
        """Model, target-spectrum and kernel-constant set-up."""
        raise NotImplementedError

    def warm_up(self, ctx: dict) -> None:
        raise NotImplementedError

    def run(self, ctx: dict, i: int, cycle: int) -> dict:
        raise NotImplementedError

    def check(self, ctx, i, cycle, out, probe, ref) -> tuple[dict, dict]:
        """(failed op -> reason, stats for the record)."""
        raise NotImplementedError

    def reference_entry(self, i: int, out: dict) -> dict:
        raise NotImplementedError

    def reference_key(self, seed: int, i: int, cycle: int) -> str:
        return f"{seed}/{i}/{cycle}"

    def step_seed(self, ctx: dict, i: int, cycle: int) -> int:
        return H.splitmix64(ctx["seed"], self.salt, i, cycle)


# ---------------------------------------------------------------------------
# Convergence sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergeKind:
    manifold: str
    mode: str
    n_grid: tuple[int, ...]
    trials: int
    k_max: int
    accept: float | None   # bound on the median error at the largest n, k >= 1


class Converge(Workload):
    def __init__(self, name, why, salt, kinds, threads, warm_kinds=None):
        self.name, self.why, self.salt = name, why, salt
        self.kinds = tuple(kinds)
        self.threads = min(threads, len(os.sched_getaffinity(0)))
        # None: warm up on the first job itself and require the same CSV digest
        self.warm_kinds = warm_kinds

    def ops(self, i):
        kind = self.kinds[i]
        return [f"n={n} trial={t}" for n in kind.n_grid for t in range(kind.trials)]

    def config(self, kind: ConvergeKind, master_seed: int) -> H.ExperimentConfig:
        return H.ExperimentConfig(manifold=kind.manifold, mode=kind.mode,
                                  n_grid=kind.n_grid, trials=kind.trials,
                                  k_max=kind.k_max, master_seed=master_seed,
                                  threads=self.threads)

    def prepare(self, seed):
        kernel = K.parse_kernel("indicator")
        targets = []
        for kind in self.kinds:
            model, tgt = H.target_spectrum(self.config(kind, 0))
            K.kernel_constants(kernel, model.m)
            targets.append(np.asarray(tgt, dtype=float))
        return {"seed": seed, "targets": targets, "warm_digests": {}}

    def warm_up(self, ctx):
        if self.warm_kinds is None:
            for i in range(len(self.kinds)):
                ctx["warm_digests"][i] = self.run(ctx, i, 0)["digest"]
            return
        for j, kind in enumerate(self.warm_kinds):
            H.report_csv_text(H.run_convergence(
                self.config(kind, H.splitmix64(ctx["seed"], self.salt, 1000 + j))))

    def run(self, ctx, i, cycle):
        report = H.run_convergence(self.config(self.kinds[i], self.step_seed(ctx, i, cycle)))
        csv_text = H.report_csv_text(report)
        return {"report": report, "digest": hashlib.sha256(csv_text.encode()).hexdigest()}

    def check(self, ctx, i, cycle, out, probe, ref):
        kind = self.kinds[i]
        report = out["report"]
        fails = {f"n={n} trial={t}": f"raised: {msg}" for n, t, msg in report.failures}
        raws = {}
        for r in report.rows:
            raws.setdefault((r.n, r.trial), []).append(r.raw)
        residuals = {(n, values): res for n, values, res in probe.solves}
        residual_max = 0.0
        for n in kind.n_grid:
            for t in range(kind.trials):
                op = f"n={n} trial={t}"
                if op in fails:
                    continue
                raw = np.asarray(raws.get((n, t), []), dtype=float)
                if raw.size != kind.k_max + 1:
                    fails[op] = f"{raw.size} eigenvalues reported"
                    continue
                res = residuals.get((n, raw.tobytes()))
                if res is None:
                    fails[op] = "no spectral solve returned these eigenvalues"
                    continue
                residual_max = max(residual_max, res)
                if not res <= RESIDUAL_TOL:
                    fails[op] = f"residual {res:.3g} above {RESIDUAL_TOL:g}"
                elif near_zero_count(raw) != 1:
                    fails[op] = f"{near_zero_count(raw)} near-zero eigenvalues"
                elif ref is not None:
                    want = np.asarray(ref["raw"][f"{n}/{t}"], dtype=float)
                    err = float(np.max(np.abs(raw - want)) / np.max(np.abs(want)))
                    if not err <= RAW_REL_TOL:
                        fails[op] = f"eigenvalues off the reference by {err:.3g}"
        whole = []
        if not np.allclose(report.targets, ctx["targets"][i], rtol=1e-12, atol=0.0):
            whole.append("targets differ from the set-up spectrum")
        errs = [r.rel_error for r in report.rows if r.k >= 1]
        top = [r.rel_error for r in report.rows if r.k >= 1 and r.n == kind.n_grid[-1]]
        if kind.accept is not None and not (top and np.median(top) <= kind.accept):
            whole.append(f"median error at n={kind.n_grid[-1]} above {kind.accept}")
        if self.warm_kinds is None and cycle == 0 and \
                out["digest"] != ctx["warm_digests"].get(i):
            whole.append("CSV digest differs from the warm-up run")
        for reason in whole:
            for op in self.ops(i):
                fails.setdefault(op, reason)
        return fails, {"residual_max": residual_max, "rel_errors": errs}

    def reference_entry(self, i, out):
        raw = {}
        for r in out["report"].rows:
            raw.setdefault(f"{r.n}/{r.trial}", []).append(r.raw)
        return {"raw": raw}


# ---------------------------------------------------------------------------
# Graph construction and connectivity, no eigensolve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphKind:
    manifold: str
    n: int
    scale_c: float
    metric: str
    connected: bool   # c=1 on the singular surface sits near the connectivity threshold


class GraphScan(Workload):
    name = "graph-scan"
    why = ("sample, build and connectivity with no eigensolve on the singular surface "
           "(n=8192) and square (n=4096): pair search and component count")
    salt = 3
    kinds = (GraphKind("singular", 8192, 1.0, "ambient", False),
             GraphKind("singular", 8192, 2.0, "ambient", True),
             GraphKind("singular", 8192, 2.0, "intrinsic", True),
             GraphKind("square", 4096, 1.0, "ambient", True))

    def ops(self, i):
        k = self.kinds[i]
        return [f"{k.manifold} n={k.n} c={k.scale_c:g} {k.metric}"]

    def prepare(self, seed):
        kernel = K.parse_kernel("indicator")
        models = {name: M.make_manifold(name) for name in ("singular", "square")}
        for model in models.values():
            K.kernel_constants(kernel, model.m)
        return {"seed": seed, "kernel": kernel, "models": models}

    def warm_up(self, ctx):
        for j, kind in enumerate(self.kinds):
            model = ctx["models"][kind.manifold]
            cloud = M.sample_iid(model, 1024, H.splitmix64(ctx["seed"], self.salt, 1000 + j))
            g = G.build_graph(cloud, ctx["kernel"], G.epsilon_schedule(1024, model.m, 2.0),
                              metric=kind.metric)
            G.connectivity_report(g)

    def run(self, ctx, i, cycle):
        kind = self.kinds[i]
        model = ctx["models"][kind.manifold]
        # one cloud per manifold and cycle, scanned at each schedule constant
        seed = H.splitmix64(ctx["seed"], self.salt, kind.manifold == "square", cycle)
        cloud = M.sample_iid(model, kind.n, seed)
        eps = G.epsilon_schedule(kind.n, model.m, kind.scale_c)
        g = G.build_graph(cloud, ctx["kernel"], eps, metric=kind.metric)
        return {"graph": g, "report": G.connectivity_report(g)}

    @staticmethod
    def summary(out):
        g = out["graph"]
        return {"pairs": int(sparse.triu(g.kernel_matrix, k=1).nnz),
                "components": int(out["report"].components)}

    def check(self, ctx, i, cycle, out, probe, ref):
        (op,) = self.ops(i)
        got = self.summary(out)
        if self.kinds[i].connected and got["components"] != 1:
            return {op: f"{got['components']} components"}, {}
        if ref is not None and got != ref:
            return {op: f"{got} differs from the reference {ref}"}, {}
        return {}, {}

    def reference_entry(self, i, out):
        return self.summary(out)


# ---------------------------------------------------------------------------
# Continuum quadratures: corner L1 sweep, transport, interpolation
# ---------------------------------------------------------------------------

# the criterion-10 grid, one op per level, without 0.025: that level alone
# takes longer than the rest of the job, which left one job per run
CORNER_EPS = (0.2, 0.1, 0.05)
INTERP_N = 4096
TRANSPORT_NODES = 10_000
LAMBDA_QUERIES = 4096


class Continuum(Workload):
    name = "continuum"
    why = ("corner L1 sweep, transport and interpolation: singular and interp do all "
           "the work, so graph or solver changes must show no change here")
    salt = 4
    kinds = tuple(("l1", e) for e in CORNER_EPS) + (("transport",), ("lambda",))

    def ops(self, i):
        kind = self.kinds[i]
        return [f"l1 eps={kind[1]:g}" if kind[0] == "l1" else f"{kind[0]} call"]

    @staticmethod
    def sens_config(eps_grid):
        return SG.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=eps_grid,
                                    quad_resolution=256)

    def prepare(self, seed):
        kernel = K.parse_kernel("indicator")
        K.kernel_constants(kernel, 1)
        K.kernel_constants(kernel, 2)
        return {"seed": seed, "kernel": kernel, "circle": M.make_manifold("circle"),
                "limit": SG.corner_defect_l1_limit(self.sens_config(CORNER_EPS), 2),
                "configs": {e: self.sens_config((e,)) for e in CORNER_EPS}}

    def warm_up(self, ctx):
        H.corner_l1_sweep(self.sens_config((0.2,)), nodes_per_face=8)
        n = 512
        cloud = M.sample_iid(ctx["circle"], n, H.splitmix64(ctx["seed"], self.salt, 1000))
        eps = G.epsilon_schedule(n, 1)
        I.transport_map(ctx["circle"], cloud, 3.0 * eps, 2000)
        ictx = I.InterpolationContext(cloud=cloud, kernel=ctx["kernel"], eps=eps)
        I.lambda_eps(ictx, I.restrict(np.sin, cloud), np.linspace(0.0, 6.0, 64))

    def run(self, ctx, i, cycle):
        kind = self.kinds[i]
        if kind[0] == "l1":
            (row,) = H.corner_l1_sweep(ctx["configs"][kind[1]])
            return {"row": row}
        seed = self.step_seed(ctx, i, cycle)
        circle = ctx["circle"]
        cloud = M.sample_iid(circle, INTERP_N, seed)
        eps = G.epsilon_schedule(INTERP_N, 1)
        if kind[0] == "transport":
            return {"report": I.transport_map(circle, cloud, 3.0 * eps,
                                                         TRANSPORT_NODES),
                               "eps_tilde": 3.0 * eps}
        queries = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, LAMBDA_QUERIES)
        ictx = I.InterpolationContext(cloud=cloud, kernel=ctx["kernel"], eps=eps)
        values = I.lambda_eps(ictx, I.restrict(np.sin, cloud), queries)
        return {"values": values, "queries": queries, "eps": eps}

    def reference_key(self, seed, i, cycle):
        # the corner sweep has no random input: one reference for every seed
        return f"any/{i}" if self.kinds[i][0] == "l1" else super().reference_key(seed, i, cycle)

    def summary(self, i, out):
        kind = self.kinds[i][0]
        if kind == "l1":
            return {"l1": out["row"].l1_deviation}
        if kind == "transport":
            rep = out["report"]
            return {"mass_total": float(rep.masses.sum()), "max_distance": rep.max_distance}
        defect = np.abs(out["values"] - np.sin(out["queries"]))
        return {"max_defect": float(defect.max())}

    def check(self, ctx, i, cycle, out, probe, ref):
        (op,) = self.ops(i)
        kind = self.kinds[i]
        got = self.summary(i, out)
        stats = {}
        reasons = []
        if kind[0] == "l1":
            row, limit = out["row"], ctx["limit"]
            err = _rel(row.l1_deviation, limit)
            if kind[1] == min(CORNER_EPS):
                stats["rel_err"] = err
            if _rel(row.limit_rhs, limit) > 1e-12:
                reasons.append("limit differs from the set-up value")
            if kind[1] <= 0.05 and err > 0.2:
                reasons.append(f"L1 {row.l1_deviation:.6g} not within 20% of {limit:.6g}")
            if ref is not None and _rel(got["l1"], ref["l1"]) > L1_REL_TOL:
                reasons.append(f"L1 {got['l1']!r} differs from the reference {ref['l1']!r}")
        elif kind[0] == "transport":
            if abs(got["mass_total"] - 1.0) > 1e-9:
                reasons.append(f"transported mass {got['mass_total']!r}")
            if got["max_distance"] > out["eps_tilde"]:
                reasons.append("a node moved farther than eps_tilde")
            if ref is not None and (abs(got["mass_total"] - ref["mass_total"]) > 1e-12
                                    or _rel(got["max_distance"], ref["max_distance"]) > 1e-12):
                reasons.append(f"{got} differs from the reference {ref}")
        else:
            if not got["max_defect"] <= out["eps"] + 1e-12:
                reasons.append(f"interpolation defect {got['max_defect']:.4g} above eps")
            if ref is not None and _rel(got["max_defect"], ref["max_defect"]) > 1e-12:
                reasons.append(f"{got} differs from the reference {ref}")
        return ({op: "; ".join(reasons)} if reasons else {}), stats

    def reference_entry(self, i, out):
        return self.summary(i, out)


CONVERGE_LARGE = Converge(
    "converge-large",
    "sphere and square sweeps at n=8192: shift-invert factorization and its fill-in "
    "do most of the work, so solver and ordering changes show here",
    salt=1,
    kinds=(ConvergeKind("sphere", "unnormalized", (8192,), 1, 4, None),
           ConvergeKind("square", "unnormalized", (8192,), 1, 2, 0.25)),
    threads=1,
    warm_kinds=(ConvergeKind("sphere", "unnormalized", (2048,), 1, 4, None),
                ConvergeKind("square", "unnormalized", (2048,), 1, 2, None)))

CONVERGE_SMALL = Converge(
    "converge-small",
    "circle acceptance sweep n=512..4096, both modes, two threads: dense eigh, small "
    "shift-invert, per-trial harness cost and the thread pool",
    salt=2,
    kinds=(ConvergeKind("circle", "unnormalized", (512, 1024, 2048, 4096), 4, 4, 0.2),
           ConvergeKind("circle", "normalized", (512, 1024, 2048, 4096), 4, 4, 0.2)),
    threads=2)

WORKLOADS = {w.name: w for w in (CONVERGE_LARGE, CONVERGE_SMALL, GraphScan(), Continuum())}
