"""Determinism self-check: two traced runs of one seed must report identical
``success_frac``, ``quadrature.*`` counts and element counts.

Run from the repository root:

    python3 benchmark/check_determinism.py

Checks every workload at seed 1 with one-second runs (each run still makes
one whole pass). Exits with 1 and lists the differing metrics if any run
disagrees.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1_broadband", "narrowband_onset", "verify_hard")
SEED = 1
SECONDS = 1


def _exact(name):
    # counts, not times: every per-layer metric of quadrature except its
    # two timers, plus every element and byte count
    if name.startswith("quadrature."):
        return not name.endswith("_s")
    return name.endswith("_elems") or name.endswith("_bytes")


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE),
    ).stdout.splitlines()
    meta, result = json.loads(out[-2]), json.loads(out[-1])
    found = {k: v["value"] for k, v in result["metrics"].items() if _exact(k)}
    found["success_frac"] = meta["success_frac"]
    return found


def main():
    status = 0
    for workload in WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} values, "
              + ("identical" if not diff else f"DIFFER {diff}"))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
