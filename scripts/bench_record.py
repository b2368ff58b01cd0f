#!/usr/bin/env python3
"""Record the benchmark of this checkout in one BENCH_<tag>.json file.

Runs ``perfbench/run.py --workload all`` twice as subprocesses, untraced
(``--trace 0``: end-to-end metrics) and traced (``--trace 1``: per-layer
metrics), and writes, per workload, both results and the machine block
the run recorded:

    python3 scripts/bench_record.py --tag N    # BENCH_N.json

The file names the code it measured: ``parent`` is the commit checked out
and ``diff_sha256`` the sha256 of ``git diff HEAD --binary``, the changes
on top of it (files not yet added to git are not in that diff).  A record
made on a clean checkout has the hash of the empty diff.

Every record uses seed 0 and 20 s per workload, so that any two such files
compare metric by metric; a speed claim is their difference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
REPORTS = os.path.join(ROOT, ".perfbench")  # where run.py leaves each workload's full record
SEED = 0
SECONDS = 20


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def run_all(trace: int) -> dict:
    """{workload: result line} of one ``--workload all`` run.

    run.py exits 1 both when some item failed its checks (it still prints the
    JSON line) and when a workload crashed (it prints none); only the missing
    line tells the two apart.
    """
    cmd = [sys.executable, RUN, "--workload", "all", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited with {out.returncode} "
                         "and printed no JSON result") from None


def machine(name: str, trace: int) -> dict:
    with open(os.path.join(REPORTS, f"{name}-seed{SEED}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["machine"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--out", help="output path (default: BENCH_<tag>.json at the root)")
    args = ap.parse_args(argv)

    runs = {trace: run_all(trace) for trace in (0, 1)}
    record = {
        "parent": git("rev-parse", "HEAD").decode().strip(),
        "diff_sha256": hashlib.sha256(git("diff", "HEAD", "--binary")).hexdigest(),
        "command": f"perfbench/run.py --workload all --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0|1",
        "workloads": {name: {"trace0": runs[0][name], "trace1": runs[1][name],
                             "machine": machine(name, 0)}
                      for name in runs[0]},
    }
    path = args.out or os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    correct = all(r["correct"] for run in runs.values() for r in run.values())
    print(f"{path}: {len(record['workloads'])} workloads, "
          f"{'all items correct' if correct else 'SOME ITEMS FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
