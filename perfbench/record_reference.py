"""Record the reference mean paths that the Picard workloads check against.

    python3 perfbench/record_reference.py

Solves each Picard workload at every seed in ``REFERENCE_SEEDS`` and writes
the per-node mean and sample standard deviation of its mean paths to
``perfbench/reference/<workload>.json``.  At 200k particles the seed-to-seed
spread of the quadratic solve is about twice the solution's own statistical
tolerance, so the checks allow both (see ``workloads._reference_problems``).
"""

from __future__ import annotations

import json
import statistics

from workloads import REFERENCE, ROOT, WORKLOADS, import_package

REFERENCE_SEEDS = tuple(range(8))
PICARD_WORKLOADS = ("picard-quad-200k", "picard-saturating-cli")


def main() -> int:
    mr = import_package()
    REFERENCE.mkdir(exist_ok=True)
    for name in PICARD_WORKLOADS:
        wl = WORKLOADS[name]
        paths = []
        for seed in REFERENCE_SEEDS:
            state = wl.prepare(mr, seed, ROOT / ".perfbench_out" / f"reference-{name}")
            paths.append(wl.mean_path(state, wl.op(mr, state)))
        nodes = list(zip(*paths))
        payload = {
            "workload": name,
            "seeds": list(REFERENCE_SEEDS),
            "mean_path": [statistics.fmean(v) for v in nodes],
            "seed_sd": [statistics.stdev(v) for v in nodes],
        }
        (REFERENCE / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {name}: {len(nodes)} nodes, max seed sd {max(payload['seed_sd']):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
