"""Command-line interface: lap-eig <subcommand>.

Exit codes: 0 on success, 2 on a validation error (a graph with more than
one component, or one that does not fit in memory, among them), 3 on solver
failure.
File formats are plain JSON/CSV so downstream plotting stays decoupled.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np
from scipy import sparse

from . import harness, singular
from .errors import GraphTooLarge, LapeigError, SolverFailure
from .graph import METRIC_AMBIENT, METRIC_INTRINSIC, NeighborhoodGraph, build_graph, eps_from_rule
from .kernels import kernel_constants, parse_kernel
from .manifolds import MANIFOLDS, PointCloud, make_manifold, parse_density, sample_iid
from .spectral import MODE_NORMALIZED, MODE_UNNORMALIZED, graph_spectrum


def _write_json(obj, path: str | None):
    text = json.dumps(obj, indent=1)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cloud_to_json(cloud: PointCloud, manifold: str, density: str) -> dict:
    params = np.atleast_2d(cloud.params.T).T  # (n,) -> (n, 1)
    return {
        "manifold": manifold,
        "density": density,
        "seed": cloud.seed,
        "n": cloud.n,
        "points_ambient": cloud.ambient.tolist(),
        "params_intrinsic": params.tolist(),
    }


def _json_int(obj: dict, key: str, low: int, high: int | None = None) -> int:
    """obj[key] if it is a JSON integer in [low, high); null, floats and strings are refused."""
    val = obj[key]
    if (isinstance(val, bool) or not isinstance(val, int) or val < low
            or (high is not None and val >= high)):
        span = f"[{low}, {high})" if high is not None else f">= {low}"
        raise LapeigError(f"{key} must be an integer {span}, got {val!r}")
    return val


def _cloud_from_json(obj) -> PointCloud:
    if not (isinstance(obj, dict) and all(isinstance(obj.get(k), str)
                                          for k in ("manifold", "density"))):
        raise LapeigError("a cloud must be a JSON object with string manifold and density")
    model = make_manifold(obj["manifold"], parse_density(obj["density"]))
    n = _json_int(obj, "n", 1)
    params = np.atleast_2d(np.asarray(obj["params_intrinsic"], dtype=float).T).T  # (n,) -> (n, 1)
    ambient = np.asarray(obj["points_ambient"], dtype=float)
    if params.shape != (n, model.m) or ambient.shape != (n, model.d):
        raise LapeigError(f"a {model.kind} cloud of n={n} needs intrinsic ({n}, {model.m}) "
                          f"and ambient ({n}, {model.d}) arrays, got {params.shape} "
                          f"and {ambient.shape}")
    if not (np.isfinite(params).all() and np.isfinite(ambient).all()):
        raise LapeigError("cloud coordinates must be finite")
    if model.m == 1:
        params = params.ravel()
    return PointCloud(manifold_id=model.label, n=n, seed=_json_int(obj, "seed", 0, 2 ** 64),
                      params=params, ambient=ambient, model=model)


def _graph_to_json(graph: NeighborhoodGraph, m: int) -> dict:
    """The graph as JSON; its kernel label must be one that parse_kernel reads back."""
    try:
        parse_kernel(graph.kernel_id)
    except ValueError as exc:
        raise LapeigError(f"a graph of kernel {graph.kernel_id!r} cannot be read back: "
                          f"{exc}") from exc
    trips = graph.triplets()
    return {
        "n": graph.n,
        "eps": graph.eps,
        "kernel": graph.kernel_id,
        "metric": graph.metric,
        "m": m,
        "triplets": [[int(i), int(j), float(v)] for i, j, v in trips],
    }


def _graph_from_json(obj) -> tuple[NeighborhoodGraph, int]:
    if not (isinstance(obj, dict) and isinstance(obj.get("kernel"), str)):
        raise LapeigError("a graph must be a JSON object with a string kernel")
    trips = np.asarray(obj["triplets"], dtype=float)
    n = _json_int(obj, "n", 1)
    if trips.ndim != 2 or trips.shape[1] != 3:
        raise LapeigError("graph triplets must be a non-empty list of [i, j, weight]")
    idx, weights = trips[:, :2], trips[:, 2]
    if not np.all((idx == np.round(idx)) & (idx >= 0) & (idx < n)):
        raise LapeigError(f"graph triplet indices must be integers in [0, {n})")
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise LapeigError("graph weights must be finite and non-negative")
    try:
        kmat = sparse.coo_matrix((weights, (idx[:, 0].astype(int), idx[:, 1].astype(int))),
                                 shape=(n, n)).tocsr()
        # tocsr sums the weights of a repeated (i, j) pair into one entry
        if kmat.nnz < len(weights):
            raise LapeigError("graph triplets repeat an (i, j) pair")
        # zero weights are no edges: the component count reads every stored entry
        kmat.eliminate_zeros()
        if (kmat != kmat.T).nnz:
            raise LapeigError("graph kernel matrix K is not symmetric")
        degrees = np.asarray(kmat.sum(axis=1)).ravel()
    except MemoryError as exc:
        raise GraphTooLarge(f"a graph of n={n} does not fit in memory: {exc}") from exc
    eps, m = obj["eps"], obj["m"]
    # JSON true and false load as bool, a subclass of int: refuse them as numbers
    if isinstance(eps, bool) or not (isinstance(eps, (int, float)) and math.isfinite(eps)
                                     and eps > 0):
        raise LapeigError(f"graph eps must be a finite positive number, got {eps!r}")
    if isinstance(m, bool) or not (isinstance(m, (int, float)) and m >= 1
                                   and float(m).is_integer()):
        raise LapeigError(f"graph m must be an integer >= 1, got {m!r}")
    metric = obj.get("metric", METRIC_AMBIENT)
    if metric not in (METRIC_AMBIENT, METRIC_INTRINSIC):
        raise LapeigError(f"graph metric must be {METRIC_AMBIENT!r} or {METRIC_INTRINSIC!r}, "
                          f"got {metric!r}")
    graph = NeighborhoodGraph(n=n, eps=float(eps), kernel_id=obj["kernel"], metric=metric,
                              kernel_matrix=kmat, degrees=degrees)
    return graph, int(m)


def _cmd_kernel_info(args) -> int:
    kernel = parse_kernel(args.kernel)
    consts = kernel_constants(kernel, args.m)
    _write_json({"sigma_eta": consts.sigma_eta,
                 "sigma_tilde_eta": consts.sigma_tilde_eta}, args.out)
    return 0


def _cmd_sample(args) -> int:
    model = make_manifold(args.manifold, parse_density(args.density))
    cloud = sample_iid(model, args.n, args.seed)
    _write_json(_cloud_to_json(cloud, args.manifold, args.density), args.out)
    return 0


def _cmd_graph(args) -> int:
    with open(args.infile) as fh:
        cloud = _cloud_from_json(json.load(fh))
    kernel = parse_kernel(args.kernel)
    eps = eps_from_rule(args.eps, cloud.n, cloud.model.m)
    graph = build_graph(cloud, kernel, eps, metric=args.metric)
    _write_json(_graph_to_json(graph, cloud.model.m), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    with open(args.infile) as fh:
        graph, m = _graph_from_json(json.load(fh))
    mode = MODE_NORMALIZED if args.normalized else MODE_UNNORMALIZED
    spec, rescaled = graph_spectrum(graph, args.k, mode, parse_kernel(graph.kernel_id), m)
    _write_json({"mode": mode, "k": args.k,
                 "values": [float(v) for v in spec.values],
                 "rescaled": [float(v) for v in rescaled],
                 "eps": graph.eps, "n": graph.n,
                 "residual": spec.residual, "matvecs": spec.matvecs}, args.out)
    return 0


def _experiment_config(args, **fields) -> harness.ExperimentConfig:
    """The config fields converge and align share, plus the command's own."""
    return harness.ExperimentConfig(
        manifold=args.manifold, density=args.density, kernel=args.kernel,
        trials=args.trials, master_seed=args.seed, eps_rule=args.eps,
        metric=args.metric, **fields)


def _cmd_converge(args) -> int:
    config = _experiment_config(
        args, mode=args.mode, k_max=args.k_max,
        n_grid=tuple(int(x) for x in args.n_grid.split(",")), threads=args.threads)
    report = harness.run_convergence(config)
    if args.format == "json":
        _write_json(harness.report_json_obj(report), args.out)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(harness.report_csv_text(report))
    med = report.medians()
    for n in sorted(med):
        print(f"n={n}: median rel error {med[n][0]:.4f} (IQR {med[n][1]:.4f})",
              file=sys.stderr)
    for n, trial, msg in report.failures:
        print(f"n={n} trial={trial} failed: {msg}", file=sys.stderr)
    return 0


def _cmd_align(args) -> int:
    k, l = (int(x) for x in args.block.split(","))
    config = _experiment_config(args, k_max=max(args.k_max, l + 1), n_grid=(args.n,))
    summary = harness.run_eigvec_alignment(config, k, l)
    obj = {
        "block": list(summary.block),
        "gap": summary.gap,
        "trials": [
            {"seed_index": t.seed_index, "max_residual": t.max_residual,
             "principal_angles": [float(a) for a in t.principal_angles],
             "mass_discrepancy": t.mass_discrepancy}
            for t in summary.trials
        ],
    }
    _write_json(obj, args.out)
    return 0


def _cmd_interp(args) -> int:
    from .interp import InterpolationContext, lambda_eps
    with open(args.cloud) as fh:
        cloud = _cloud_from_json(json.load(fh))
    with open(args.u) as fh:
        u = json.load(fh)
    # JSON true and false load as ints, and are no numbers here
    if not (isinstance(u, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                        for v in u)):
        raise LapeigError("--u must hold a JSON list of numbers, one per sample")
    u = np.asarray(u, dtype=float)
    kernel = parse_kernel(args.kernel)
    eps = eps_from_rule(args.eps, cloud.n, cloud.model.m)
    ctx = InterpolationContext(cloud=cloud, kernel=kernel, eps=eps)
    if not args.query.startswith("grid:"):
        raise LapeigError(f"unknown query spec {args.query!r}; use grid:<N>")
    count = int(args.query.split(":", 1)[1])
    if count < 1:
        raise LapeigError(f"query grid needs at least one point, got {count}")
    if cloud.model.m != 1:
        raise LapeigError("interp query grids are built for 1-D chart models")
    theta = (np.arange(count) + 0.5) * 2.0 * math.pi / count
    vals = lambda_eps(ctx, u, theta)
    _write_csv(args.out, ["theta", "value"],
               ([repr(float(t)), repr(float(v))] for t, v in zip(theta, vals)))
    return 0


def _cmd_sensitivity(args) -> int:
    config = singular.SensitivityConfig(
        alpha=args.alpha, m2_radius=args.r,
        eps_grid=tuple(float(x) for x in args.eps_grid.split(",")),
        quad_resolution=args.quad)
    rows = harness.corner_l1_sweep(config)
    _write_csv(args.out, ["eps", "l1_deviation", "limit_rhs"],
               ([repr(r.eps), repr(r.l1_deviation), repr(r.limit_rhs)] for r in rows))
    return 0


def _cmd_dyadic(args) -> int:
    if args.theta.startswith("geometric:"):
        ratio = float(args.theta.split(":", 1)[1])
        theta = singular.geometric_theta(ratio)
    else:
        raise LapeigError(f"unknown theta spec {args.theta!r}; use geometric:<r>")
    profile = singular.dyadic_profile(theta, args.level)
    slopes = singular.dyadic_slopes(profile)
    xs = profile.grid()
    _write_csv(args.out, ["x", "alpha", "d_n", "e_n"],
               ([repr(float(x)), repr(float(profile.alpha[i])),
                 repr(float(slopes.slopes[i])), repr(float(slopes.jumps[i]))]
                for i, x in enumerate(xs[:-1])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lap-eig",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-info", help="print kernel moment constants as JSON")
    p.add_argument("--kernel", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_kernel_info)

    p = sub.add_parser("sample", help="draw an i.i.d. cloud and write cloud.json")
    p.add_argument("--manifold", required=True, choices=list(MANIFOLDS))
    p.add_argument("--density", default="const")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("graph", help="build the neighborhood graph from a cloud")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", required=True,
                   help="auto, auto:<c>, fixed:<x> or a number <x>")
    p.add_argument("--kernel", default="indicator")
    p.add_argument("--metric", default="ambient", choices=["ambient", "intrinsic"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("spectrum", help="solve for the lowest eigenpairs of a graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_spectrum)

    # the experiment arguments converge and align share
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--manifold", default="circle")
    experiment.add_argument("--density", default="const")
    experiment.add_argument("--kernel", default="indicator")
    experiment.add_argument("--k-max", type=int, default=4)
    experiment.add_argument("--trials", type=int, default=20)
    experiment.add_argument("--seed", type=int, default=20240501)
    experiment.add_argument("--eps", default="auto:1")
    experiment.add_argument("--metric", default="ambient", choices=["ambient", "intrinsic"])

    p = sub.add_parser("converge", parents=[experiment],
                       help="run a convergence sweep over sample sizes")
    p.add_argument("--mode", default=MODE_UNNORMALIZED,
                   choices=[MODE_UNNORMALIZED, MODE_NORMALIZED])
    p.add_argument("--n-grid", default="512,1024,2048,4096")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("align", parents=[experiment],
                       help="eigenvector block alignment on the circle")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--block", default="1,2")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("interp", help="evaluate the interpolation operator on a grid")
    p.add_argument("--cloud", required=True)
    p.add_argument("--u", required=True, help="JSON array of per-sample values")
    p.add_argument("--query", default="grid:256")
    p.add_argument("--eps", required=True,
                   help="auto, auto:<c>, fixed:<x> or a number <x>")
    p.add_argument("--kernel", default="indicator")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("sensitivity", help="corner-defect sweep on square x circle")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--eps-grid", default="0.2,0.1,0.05,0.025")
    p.add_argument("--quad", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("dyadic", help="emit the dyadic bump profile as CSV")
    p.add_argument("--theta", default="geometric:0.5")
    p.add_argument("--level", type=int, default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dyadic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (LapeigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
