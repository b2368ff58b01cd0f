"""Write reference.json: surface statistics of the reference seed's items.

    python3 perfbench/record_reference.py

Runs items 0 .. INPUT_CYCLE-1 of every workload with the reference seed,
requires every invariant check to pass, and records each surface's
triangle count, Euler characteristic and area (and the contour segment
count of tpms_sweep).  Re-record only for a change that is meant to alter
the extracted surfaces, and say so where the change is described.
"""

import json
import os
import sys
import tempfile

import run


def main():
    sys.path.insert(0, run.SRC)
    from bench_checks import REFERENCE_PATH, REFERENCE_SEED, check_item
    from bench_workloads import INPUT_CYCLE, WORKLOADS

    os.makedirs(run.OUT_DIR, exist_ok=True)
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        entries = {}
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            workload = cls(REFERENCE_SEED, tmp)
            for i in range(INPUT_CYCLE):
                failures, stats = check_item(workload.run_item(i), REFERENCE_SEED, None)
                if failures:
                    sys.exit(f"{name} item {i} fails its checks: {failures}")
                entries[str(i)] = {
                    "surfaces": [{k: s[k] for k in ("iso", "triangles", "euler", "area")}
                                 for s in stats["surfaces"]],
                    "segments": stats["segments"],
                }
                print(f"{name} item {i}: {entries[str(i)]}", flush=True)
        reference["workloads"][name] = entries
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
