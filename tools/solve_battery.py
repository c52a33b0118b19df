"""A fixed battery of 78 eigensolves, for comparing solver changes.

    python3 tools/solve_battery.py

The package is imported from the `src/` of the checkout that holds this
script, wherever it is run from.  The battery covers the circle and the
square at n = 512, 1024, 2048 and 4096, the sphere and the singular surface
at n = 2048 and 8192, and the Clifford torus at n = 4096, with the indicator kernel and eps = auto:1 (auto:1.5 on the
singular surface, whose volume leaves auto:1 graphs disconnected).  Each of 3
trials per size samples with seed splitmix64(20240501, n, trial), builds one
graph and solves it for k = 4 in both modes.

Each solve prints one JSON line: the manifold, n, mode, trial, stored
entries of K per row, the K products ARPACK asked for (`matvecs`), the
solve's seconds, and the sha256 of the eigenvalues' bytes, which tell two
solvers apart bit for bit.  A total line comes last.  Matvec counts and
hashes repeat exactly; the seconds are wall time on the running host.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, as in bench/run.py, so that the timings compare across hosts' core counts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MASTER_SEED = 20240501
K = 4
TRIALS = 3
# (manifold, eps rule, sizes)
BATTERY = (
    ("circle", "auto:1", (512, 1024, 2048, 4096)),
    ("square", "auto:1", (512, 1024, 2048, 4096)),
    ("sphere", "auto:1", (2048, 8192)),
    ("singular", "auto:1.5", (2048, 8192)),
    ("torus", "auto:1", (4096,)),
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from lapeig import graph as G
    from lapeig import harness as H
    from lapeig import kernels as Kn
    from lapeig import manifolds as M
    from lapeig import spectral as S

    kernel = Kn.indicator_kernel()
    solves = matvecs = 0
    solve_s = 0.0
    for name, rule, sizes in BATTERY:
        model = M.make_manifold(name)
        for n in sizes:
            for trial in range(TRIALS):
                cloud = M.sample_iid(model, n, H.splitmix64(MASTER_SEED, n, trial))
                graph = G.build_graph(cloud, kernel, G.eps_from_rule(rule, n, model.m))
                components = G.connectivity_report(graph).components
                if components != 1:
                    raise SystemExit(f"{name} n={n} trial {trial}: {components} components")
                for mode in (S.MODE_UNNORMALIZED, S.MODE_NORMALIZED):
                    start = perf_counter()
                    if mode == S.MODE_UNNORMALIZED:
                        spec = S.unnormalized_spectrum(graph, K)
                    else:
                        spec = S.normalized_spectrum(graph, K, kernel, model.m)
                    seconds = perf_counter() - start
                    solves += 1
                    matvecs += spec.matvecs
                    solve_s += seconds
                    print(json.dumps({
                        "manifold": name, "n": n, "mode": mode, "trial": trial,
                        "nnz_per_row": round(graph.kernel_matrix.nnz / n, 1),
                        "matvecs": spec.matvecs, "solve_s": round(seconds, 4),
                        "values_sha256": hashlib.sha256(spec.values.tobytes()).hexdigest(),
                    }), flush=True)
    print(json.dumps({"total": True, "solves": solves, "matvecs": matvecs,
                      "solve_s": round(solve_s, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
