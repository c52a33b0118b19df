"""Write bench/reference.json: checked outputs of the default seed.

    python3 bench/make_reference.py

Runs the first REFERENCE_CYCLES jobs of every workload on the default seed,
the way `run.py` runs them, and stores what its checks compare against: raw
eigenvalues per trial, pair and component counts per graph, the L1
deviation per eps (the same for every seed), the transported mass and the
interpolation defect.  Regenerate only when a change to the program is meant
to change these outputs.
"""

from __future__ import annotations

import json
import sys

import run  # sets the thread environment before numpy is imported

REFERENCE_CYCLES = 12   # more jobs than a run of the benchmark's length completes


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    seed = run.DEFAULT_SEED
    out = {"seed": seed, "cycles": REFERENCE_CYCLES, "workloads": {}}
    for name, wl in WORKLOADS.items():
        ctx = wl.prepare(seed)
        refs = out["workloads"][name] = {}
        for cycle in range(REFERENCE_CYCLES):
            for i in range(len(wl.kinds)):
                key = wl.reference_key(seed, i, cycle)
                if key not in refs:
                    refs[key] = wl.reference_entry(i, wl.run(ctx, i, cycle))
            print(f"{name}: cycle {cycle} done", file=sys.stderr)
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
