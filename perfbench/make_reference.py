"""Regenerate the reference result rows the benchmark's correctness gate
compares against (reference/<workload>.json, keyed by seed).

    python3 perfbench/make_reference.py --seeds 0-31

Rerun this only on purpose, after a change that is meant to alter results,
and say so where the change is recorded. Each (workload, seed) runs once in
a fresh worker with OPENBLAS_NUM_THREADS=1, two workers at a time, so the
shipped rows also exercise the tolerance against the benchmark's own runs
under default BLAS threading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import run_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_rows(workload: str, seed: int, scratch: str) -> list:
    rep = run_rep(workload, seed, os.path.join(scratch, f"{workload}-{seed}"), None, 100.0)
    if "error" in rep or any(rep["codes"]):
        raise RuntimeError(f"{workload} seed {seed}: {rep.get('error') or rep['stderr']}")
    return rep["rows"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # inherited by the workers
    seeds = seed_range(args.seeds)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_runs"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_runs")) as scratch:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for name in WORKLOADS:
                futures = {seed: pool.submit(reference_rows, name, seed, scratch)
                           for seed in seeds}
                table = {str(seed): future.result() for seed, future in futures.items()}
                path = os.path.join(HERE, "reference", f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("{\n" + ",\n".join(f"{json.dumps(seed)}: {json.dumps(rows)}"
                                                for seed, rows in table.items()) + "\n}\n")
                print(f"wrote {len(table)} seeds to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
