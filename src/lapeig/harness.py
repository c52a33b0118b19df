"""Experiment orchestration: convergence sweeps, alignment runs, rate fits, reports.

Per-trial sub-seeds come from a splittable 64-bit mixer, so any row of a
report is reproducible from the config and the master seed alone, and a
repeated run emits byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import math
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import interp, singular
from .errors import GapViolation, InsufficientGrid, LapeigError
from .graph import build_graph, eps_from_rule
from .kernels import indicator_kernel, parse_kernel, sigma_eta
from .manifolds import (NORMALIZED, WEIGHTED, analytic_spectrum, make_manifold,
                        oracle_spectrum_circle_weighted, parse_density, sample_iid)
from .spectral import (MODE_NORMALIZED, MODE_UNNORMALIZED, graph_spectrum,
                       subspace_alignment)

_MASK64 = (1 << 64) - 1
# grid points of the finite-difference circle oracle
ORACLE_GRID = 4096


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def splitmix64(*parts) -> int:
    """Mix integers into one 63-bit stream seed; distinct tuples never collide cheaply."""
    state = 0
    for p in parts:
        state = (state + 0x9E3779B97F4A7C15 + (int(p) & _MASK64)) & _MASK64
        state = _mix64(state)
    return state & ((1 << 63) - 1)


@dataclass(frozen=True)
class ExperimentConfig:
    manifold: str = "circle"
    density: str = "const"
    kernel: str = "indicator"
    mode: str = MODE_UNNORMALIZED
    k_max: int = 4
    n_grid: tuple[int, ...] = (512, 1024, 2048, 4096)
    trials: int = 20
    master_seed: int = 20240501
    eps_rule: str = "auto:1"
    metric: str = "ambient"
    threads: int = 1

    def __post_init__(self):
        if self.mode not in (MODE_UNNORMALIZED, MODE_NORMALIZED):
            raise ValueError(f"unknown mode {self.mode!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly ascending")
        if self.trials < 1 or self.k_max < 1 or self.threads < 1:
            raise ValueError("trials, k_max and threads must be at least 1")
        object.__setattr__(self, "n_grid", grid)


def target_spectrum(config: ExperimentConfig):
    """Eigenvalue targets for a config: closed form, or the 1-D circle oracle."""
    model = make_manifold(config.manifold, parse_density(config.density))
    which = WEIGHTED if config.mode == MODE_UNNORMALIZED else NORMALIZED
    if model.density.form == "constant":
        return model, analytic_spectrum(model, which, config.k_max)
    # every other model refuses a non-constant density when it is built
    return model, oracle_spectrum_circle_weighted(
        model.density, ORACLE_GRID, config.k_max, which=which)


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    k: int
    eps: float
    raw: float
    rescaled: float
    target: float
    rel_error: float


@dataclass
class ConvergenceReport:
    config: ExperimentConfig
    targets: np.ndarray
    rows: list[TrialRow] = field(default_factory=list)
    failures: list[tuple[int, int, str]] = field(default_factory=list)

    def medians(self) -> dict[int, tuple[float, float]]:
        """Per sample size: (median, interquartile range) of errors for k >= 1."""
        out = {}
        for n in self.config.n_grid:
            errs = np.array([r.rel_error for r in self.rows if r.n == n and r.k >= 1])
            if errs.size:
                q1, q2, q3 = np.percentile(errs, [25, 50, 75])
                out[n] = (float(q2), float(q3 - q1))
        return out


def solve_trial(config: ExperimentConfig, model, kernel, n: int, seed: int):
    """The one sample -> eps -> build -> solve path: (cloud, graph, spectrum, rescaled)."""
    cloud = sample_iid(model, n, seed)
    eps = eps_from_rule(config.eps_rule, n, model.m)
    graph = build_graph(cloud, kernel, eps, metric=config.metric)
    spec, rescaled = graph_spectrum(graph, config.k_max, config.mode, kernel, model.m)
    return cloud, graph, spec, rescaled


def _run_trial(config: ExperimentConfig, model, kernel, targets, n: int,
               trial: int) -> list[TrialRow]:
    _, graph, spec, rescaled = solve_trial(config, model, kernel, n,
                                           splitmix64(config.master_seed, n, trial))
    rows = []
    for k in range(config.k_max + 1):
        tgt = float(targets[k])
        resc = float(rescaled[k])
        err = abs(resc - tgt) / abs(tgt) if tgt != 0.0 else abs(resc - tgt)
        rows.append(TrialRow(n=n, trial=trial, k=k, eps=graph.eps, raw=float(spec.values[k]),
                             rescaled=resc, target=tgt, rel_error=err))
    return rows


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Sample, build, solve and rescale over the n-grid; failures are recorded rows."""
    model, targets = target_spectrum(config)
    kernel = parse_kernel(config.kernel)
    report = ConvergenceReport(config=config, targets=np.asarray(targets, dtype=float))
    jobs = [(n, t) for n in config.n_grid for t in range(config.trials)]

    def work(job):
        n, t = job
        try:
            return _run_trial(config, model, kernel, targets, n, t), None
        except LapeigError as exc:
            return [], (n, t, str(exc))

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        results = list(pool.map(work, jobs))
    for rows, failure in results:
        report.rows.extend(rows)
        if failure is not None:
            report.failures.append(failure)
    report.rows.sort(key=lambda r: (r.n, r.trial, r.k))
    return report


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float
    residual: float
    slope_vs_eps: float


def fit_rate(report: ConvergenceReport) -> RateFit:
    """Least-squares slope of log(median error) against log(n) and log(eps_n)."""
    med = report.medians()
    if len(med) < 3:
        raise InsufficientGrid("need at least three distinct sample sizes")
    ns = np.array(sorted(med))
    y = np.log([med[int(n)][0] for n in ns])
    x = np.log(ns)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    resid = float(np.sqrt(np.mean((y - fitted) ** 2)))
    dof = max(1, ns.size - 2)
    stderr = float(np.sqrt(np.sum((y - fitted) ** 2) / dof
                           / np.sum((x - x.mean()) ** 2)))
    eps_map = {}
    for r in report.rows:
        eps_map.setdefault(r.n, r.eps)
    xe = np.log([eps_map[int(n)] for n in ns])
    slope_eps = float(np.polyfit(xe, y, 1)[0]) if np.ptp(xe) > 1e-12 else float("nan")
    return RateFit(slope=float(slope), intercept=float(intercept), stderr=stderr,
                   residual=resid, slope_vs_eps=slope_eps)


# ---------------------------------------------------------------------------
# Eigenvector alignment runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentTrial:
    seed_index: int
    max_residual: float
    principal_angles: np.ndarray
    mass_discrepancy: float


@dataclass
class AlignmentSummary:
    config: ExperimentConfig
    block: tuple[int, int]
    gap: float
    trials: list[AlignmentTrial] = field(default_factory=list)

    def fraction_below(self, residual_cap: float) -> float:
        ok = sum(1 for t in self.trials if t.max_residual <= residual_cap)
        return ok / max(1, len(self.trials))


def _circle_block_functions(block: tuple[int, int]):
    """Analytic eigenfunctions for a full frequency block of the constant circle."""
    k, l = block
    if l != k + 1 or k % 2 == 0:
        raise GapViolation(
            "circle eigenvalues come in frequency pairs; pick a block (2j-1, 2j)")
    freq = (k + 1) // 2
    return [lambda t, f=freq: math.sqrt(2.0) * np.sin(f * np.asarray(t)),
            lambda t, f=freq: math.sqrt(2.0) * np.cos(f * np.asarray(t))]


def run_eigvec_alignment(config: ExperimentConfig, k: int, l: int) -> AlignmentSummary:
    """Project restricted eigenfunctions on the graph eigenvector block.

    Works on the constant-density circle, where the block eigenfunctions
    are explicit.  Per seed: sample, solve, align the sampled functions
    with the graph block, and compare the empirical mean square of each
    function with its continuum norm (which is one).
    """
    if config.manifold != "circle" or parse_density(config.density).form != "constant":
        raise LapeigError("alignment runs need the constant-density circle")
    model, targets = target_spectrum(config)
    if config.k_max < l + 1:
        raise ValueError("k_max must reach past the block to measure the gap")
    funcs = _circle_block_functions((k, l))
    gap = float(min(targets[k] - targets[k - 1], targets[l + 1] - targets[l]))
    kernel = parse_kernel(config.kernel)
    out = AlignmentSummary(config=config, block=(k, l), gap=gap)
    n = config.n_grid[-1]
    for trial in range(config.trials):
        cloud, _, spec, _ = solve_trial(config, model, kernel, n,
                                        splitmix64(config.master_seed, n, trial, 0xA116))
        basis_a = np.stack([interp.restrict(f, cloud) for f in funcs], axis=1)
        basis_b = spec.vectors[:, k:l + 1]
        rep = subspace_alignment(basis_a, basis_b, weights=spec.weights)
        mass = np.einsum("ij,ij->j", basis_a, basis_a) / n
        out.trials.append(AlignmentTrial(
            seed_index=trial,
            max_residual=float(np.max(rep.residuals)),
            principal_angles=rep.principal_angles,
            mass_discrepancy=float(np.max(np.abs(mass - 1.0)))))
    return out


# ---------------------------------------------------------------------------
# Corner-sensitivity sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityRow:
    eps: float
    l1_deviation: float
    limit_rhs: float


def _defect_reference(alpha: float):
    """h(theta1, theta2) = sin(theta1 - alpha) on square x circle, and the limit
    theta0 -> (sigma/2) (pi/2)^2 h(theta0, .) of its ball average on a face."""
    scale = 0.5 * sigma_eta(indicator_kernel(), 2) * (math.pi / 2.0) ** 2
    h = lambda t1, t2: singular.circle_eigenfunction(t1, alpha)
    return h, lambda theta0: float(scale * h(theta0, 0.0))


def corner_l1_sweep(config: singular.SensitivityConfig,
                    nodes_per_face: int | None = None) -> list[SensitivityRow]:
    """L1 norm over the product manifold of the ball-average defect, per eps.

    The defect is independent of the circle factor, so the integral
    reduces to the square boundary times the circle volume.  The node
    count per face is ``config.nodes_per_face(eps)`` unless given; all
    nodes of one eps go to one ``sensitivity_operator`` call.
    """
    if nodes_per_face is not None and nodes_per_face < 1:
        raise ValueError(f"nodes_per_face must be at least 1, got {nodes_per_face}")
    limit = singular.corner_defect_l1_limit(config, 2)
    h, target = _defect_reference(config.alpha)
    rows = []
    for eps in config.eps_grid:
        npf = config.nodes_per_face(eps) if nodes_per_face is None else nodes_per_face
        s_vals = np.arange(4)[:, None] + (np.arange(npf) + 0.5) / npf
        theta0 = s_vals.ravel() * math.pi / 2.0
        # the operator passes through zeros along the faces, so the
        # per-node stop needs an absolute floor as well
        vals = singular.sensitivity_operator(
            config, h, np.stack([theta0, np.zeros_like(theta0)], axis=1), eps,
            rtol=1e-4, atol=1e-7)
        total = 0.0
        for t, val in zip(theta0, vals.tolist()):
            total += abs(val - target(t)) / npf
        rows.append(SensitivityRow(eps=float(eps),
                                   l1_deviation=total * 2.0 * math.pi * config.m2_radius,
                                   limit_rhs=limit))
    return rows


def face_midpoint_deviations(config: singular.SensitivityConfig) -> list[tuple[float, float]]:
    """Pointwise defect at the first face midpoint, per eps (smooth-point control)."""
    h, target = _defect_reference(config.alpha)
    theta0 = math.pi / 4.0
    out = []
    for eps in config.eps_grid:
        (val,) = singular.sensitivity_operator(config, h, (theta0, 0.0), eps, rtol=1e-6)
        out.append((float(eps), abs(val - target(theta0))))
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("n", "trial", "k", "eps", "raw", "rescaled", "target", "rel_error")


def report_csv_text(report: ConvergenceReport) -> str:
    """Deterministic CSV body (shortest-roundtrip float formatting)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([r.n, r.trial, r.k, repr(r.eps), repr(r.raw),
                         repr(r.rescaled), repr(r.target), repr(r.rel_error)])
    return buf.getvalue()


def _git_describe() -> str:
    """The package's own commit from any working directory; "unknown" unless git tracks it."""
    here = Path(__file__).resolve()
    try:
        for args in (["ls-files", "--error-unmatch", here.name],
                     ["describe", "--always", "--dirty"]):
            out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=5,
                                 cwd=here.parent, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"


def report_json_obj(report: ConvergenceReport) -> dict:
    return {
        "metadata": {
            "config": asdict(report.config),
            "git_describe": _git_describe(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "targets": [float(t) for t in report.targets],
        "rows": [asdict(r) for r in report.rows],
        "failures": [list(f) for f in report.failures],
    }
