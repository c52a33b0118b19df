"""Spans and probes around calls into lapeig's layers, installed from outside.

A wrapper replaces a module attribute, so every caller that looks the name up
at call time goes through it: `lapeig.harness.build_graph` (bound there by a
`from .graph import ...`) as well as `lapeig.graph.build_graph`.  Methods of
model and graph objects are not wrapped, so their time counts toward the layer
that calls them.  `kernels` and `cli` are not wrapped: they cost almost
nothing on the benchmarked paths.

Two kinds of instrumentation share the wrappers:

* the probe, always on, keeps for every spectrum the spectral layer returns
  its size, its eigenvalues and the largest relative residual of its pairs
  (computed as the call returns, so that no graph outlives its trial), and
  counts `SolverFailure`s;
* the recorder, on in traced steps only, keeps one span per call (name,
  layer, start, end, parent, thread) in memory.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from lapeig.errors import SolverFailure

LAYER_FUNCTIONS = {
    "manifolds": ("sample_iid", "make_manifold", "analytic_spectrum",
                  "oracle_spectrum_circle_weighted"),
    "graph": ("build_graph", "connectivity_report"),
    "spectral": ("unnormalized_spectrum", "normalized_spectrum",
                 "rescale_unnormalized", "rescale_normalized"),
    "harness": ("run_convergence", "target_spectrum", "corner_l1_sweep",
                "report_csv_text"),
    "singular": ("sensitivity_operator", "corner_defect_l1_limit"),
    "interp": ("transport_map", "lambda_eps", "restrict"),
}
LAYERS = tuple(LAYER_FUNCTIONS)
SOLVERS = ("unnormalized_spectrum", "normalized_spectrum")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float | None
    parent: int | None
    thread: int


class Recorder:
    """In-memory span store; a worker thread's outermost span is parented to
    the span the main thread has open (the call that started the pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.observations: list[dict] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def enter(self, name: str, layer: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        span = Span(next(self._ids), name, layer, 0.0, None, parent, tid)
        stack.append(span.id)
        span.start = perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    def observe(self, values: dict) -> None:
        self.observations.append(values)


def relative_residual(solver: str, graph, spectrum) -> float:
    """max over pairs of ||L v - lam B v|| / ((||L||_1 + |lam| ||B||_1) ||v||),
    with B = I for the plain problem and B = D for the degree-weighted one."""
    d = graph.degrees
    lap = graph.laplacian()
    v, lam = spectrum.vectors, spectrum.values
    if solver == "normalized_spectrum":
        bv, norm_b = v * d[:, None], float(d.max())
    else:
        bv, norm_b = v, 1.0
    norm_l = float(np.bincount(lap.indices, weights=np.abs(lap.data), minlength=graph.n).max())
    res = np.linalg.norm(lap @ v - bv * lam, axis=0)
    return float(np.max(res / ((norm_l + np.abs(lam) * norm_b) * np.linalg.norm(v, axis=0))))


@dataclass
class Probe:
    """(n, eigenvalue bytes, relative residual) per spectral solve, kept for
    the checks after a step, and the count of solver failures."""

    solves: list = field(default_factory=list)
    solver_failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count_failure(self) -> None:
        with self._lock:
            self.solver_failures += 1


def _observe(name: str, args, out) -> dict | None:
    """Computed counts for a finished call (taken outside its span)."""
    if name == "build_graph":
        k = out.kernel_matrix
        nbytes = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
        return {"nnz_per_row": k.nnz / out.n, "csr_mb": nbytes / 2**20}
    if name == "transport_map":
        return {"distance_entries": out.assignment.size * out.masses.size}
    if name == "lambda_eps":
        ctx, x = args[0], args[2]
        queries = len(x) if getattr(x, "ndim", 0) else 1
        return {"distance_entries": queries * ctx.cloud.n}
    return None


def _wrap(fn, name: str, layer: str, recorder: Recorder | None, probe: Probe):
    is_solver = name in SOLVERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.enter(name, layer) if recorder is not None else None
        try:
            out = fn(*args, **kwargs)
        except SolverFailure:
            if is_solver:
                probe.count_failure()
            raise
        finally:
            if span is not None:
                recorder.exit(span)
        if is_solver:
            # a span of the benchmark's own, so the check is no layer's self time
            check = recorder.enter("residual", "bench") if recorder is not None else None
            graph = args[0]
            probe.solves.append((graph.n, out.values.tobytes(),
                                 relative_residual(name, graph, out)))
            if check is not None:
                recorder.exit(check)
        if span is not None:
            values = _observe(name, args, out)
            if values is not None:
                recorder.observe(values)
        return out

    return wrapper


def _binding_sites():
    """(module, attribute, original, layer) for every lapeig module that binds
    a layer function under its own name, the package namespace included."""
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "lapeig" or key.startswith("lapeig."))]
    sites = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules[f"lapeig.{layer}"]
        for name in names:
            fn = getattr(home, name)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    sites.append((mod, name, fn, layer))
    return sites


@contextmanager
def instrumented(probe: Probe, recorder: Recorder | None = None):
    """Install the probe (and the recorder's spans, if given) for one step."""
    sites = _binding_sites()
    if recorder is None:
        sites = [s for s in sites if s[1] in SOLVERS]
    patched = []
    try:
        for mod, name, fn, layer in sites:
            setattr(mod, name, _wrap(fn, name, layer, recorder, probe))
            patched.append((mod, name, fn))
        if recorder is not None:
            # ARPACK as the spectral layer sees it: one span per shift-invert solve
            spectral = sys.modules["lapeig.spectral"]
            eigsh = spectral.eigsh
            spectral.eigsh = _wrap(eigsh, "eigsh", "spectral", recorder, probe)
            patched.append((spectral, "eigsh", eigsh))
        yield
    finally:
        for mod, name, fn in reversed(patched):
            setattr(mod, name, fn)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


@dataclass
class StepProfile:
    """What one traced step did, derived from its spans."""

    layer_self: dict[str, float]
    name_total: dict[str, float]
    name_calls: dict[str, int]
    busy_child: float
    busy_capacity: float
    observed: dict[str, list[float]]


def profile_step(recorder: Recorder, threads: int) -> StepProfile:
    """Self time per layer: a span's duration minus the part of it that its
    child spans (on any thread) cover.  `busy_*` compare the child time of
    each `run_convergence` with its threads x wall capacity."""
    children = defaultdict(list)
    for s in recorder.spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    layer_self = defaultdict(float)
    name_total = defaultdict(float)
    name_calls = defaultdict(int)
    busy_child = busy_capacity = 0.0
    for s in recorder.spans:
        dur = s.end - s.start
        kids = children[s.id]
        layer_self[s.layer] += dur - _covered(kids, s.start, s.end)
        name_total[s.name] += dur
        name_calls[s.name] += 1
        if s.name == "run_convergence":
            busy_child += sum(b - a for a, b in kids)
            busy_capacity += threads * dur
    observed = defaultdict(list)
    for values in recorder.observations:
        for key, val in values.items():
            observed[key].append(val)
    return StepProfile(dict(layer_self), dict(name_total), dict(name_calls),
                       busy_child, busy_capacity, dict(observed))
