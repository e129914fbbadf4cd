"""Benchmark of the labeldp harnesses, end to end and layer by layer.

    python3 perfbench/run.py --workload sim-mc --seed 1 --seconds 25 --trace 0

Runs the workload in fresh worker processes (perfbench/worker.py), one
repetition after another, until --seconds have passed, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs every workload in turn, each printing its own block.

--trace 0 reports the end-to-end metrics of BENCHMARK.json over the
untraced repetitions after the first (a warm-up): peak_rss_mb as their
median, the timings (HOST_SCALED) as their mean scaled to a host of the
reference speed. The calibration kernel of calibrate.py runs before every
repetition and after the last, and each timing's mean is multiplied by
calibrate.REFERENCE_S over the kernel's mean time. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of
BENCHMARK.json from the traced repetition with the median wall time, plus
the tracing overhead (median traced minus median untraced wall time). The
measured timings of the untraced repetitions are printed above the result
in both modes.

A result cell fails when its command exits with an error, when the
harness's --check invariants flag it, when its row deviates from the
reference row shipped for this seed (reference/<workload>.json) beyond
REL_TOL/ABS_TOL, or when a repetition's output bytes differ from the
first repetition's (the determinism contract, traced or not).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Untraced repetitions whose timings are dropped: the first one pays for
# cold caches and compiling bytecode.
WARMUP_REPS = 1
MIN_REPS = 3
TRACE_MIN_PAIRS = 2
# Stop starting repetitions after this, so a run ends well within 180 s.
HARD_LIMIT_S = 120.0
REP_TIMEOUT_S = 100.0
# Timings reported as the mean repetition, scaled to the reference host
# speed. On a shared host, other tenants slow everything down by a third
# to three quarters, CPU time included, in stretches of a fraction of a
# second to minutes, and the share of time spent slowed drifts from minute
# to minute. The calibration kernel, run between the repetitions, is slowed
# in the same share, so the ratio of the two means holds. A mean, not a
# median: a repetition is slowed in proportion to the share of its time
# spent slowed, and the median of such a mixture jumps between the quiet
# and the slowed value. The measured timings are printed alongside.
HOST_SCALED = ("wall_s", "cpu_s", "setup_s")
KERNELS_PER_REP = 2
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Tolerance of the check that layer self times plus unattributed time add
# up to the traced wall time.
SUM_TOL_S = 1e-6


def run_rep(workload: str, seed: int, workdir: str, spans: str | None, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_cell(value: str, reference: str) -> bool:
    if value == reference:
        return True
    try:
        a, b = float(value), float(reference)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def failed_cells(rep: dict, cells: int, first: dict | None, reference: list | None) -> list:
    """Reasons why cells of one repetition failed; empty when all passed."""
    if "error" in rep:
        return [rep["error"]] * cells
    reasons = []
    if any(code not in (0, 3) for code in rep["codes"]):
        return [f"command exit codes {rep['codes']}: {rep['stderr']}"] * cells
    reasons += [f"--check violation: {rep['stderr']}"] * min(cells, rep["violations"])
    if first is not None and rep["digest"] != first["digest"]:
        reasons += ["output bytes differ from the first repetition"] * cells
    if reference is not None:
        rows = rep["rows"]
        if len(rows) != len(reference) or rows[0] != reference[0]:
            reasons += ["result rows do not match the reference layout"] * cells
        else:
            for row, ref in zip(rows[1:], reference[1:]):
                if len(row) != len(ref) or not all(map(same_cell, row, ref)):
                    reasons.append(f"row {row} deviates from reference {ref}")
    return reasons[:cells]


def median_rep(reps: list) -> dict:
    ordered = sorted(reps, key=lambda rep: rep["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(spec: dict, workload, traced: list, plain: list, problems: list) -> dict:
    """Per-layer metrics from the traced repetition with the median wall
    time. Appends to problems when the layers do not account for that
    repetition's wall time or an expected layer recorded no call."""
    chosen = median_rep(traced)
    layers = chosen["trace"]["layers"]
    wall = chosen["wall_s"]
    values = dict(layers)
    values["unattributed_s"] = wall - chosen["trace"]["root_s"]
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = (statistics.median(rep["wall_s"] for rep in traced)
                                  - statistics.median(rep["wall_s"] for rep in plain))
    values["trace.spans"] = chosen["trace"]["spans"]
    metrics = {entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
               for entry in spec["per_layer"]}
    total = sum(metric["value"] for name, metric in metrics.items()
                if name.endswith(".self_s") or name == "unattributed_s")
    if abs(total - wall) > SUM_TOL_S:
        problems.append(f"layer self times and unattributed_s sum to {total}, "
                        f"not to the traced wall time {wall}")
    problems += [f"layer {layer} recorded no call" for layer in workload.layers
                 if not layers.get(f"{layer}.calls")]
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    """Run one workload and print its block, ending with the result line."""
    ref_path = os.path.join(HERE, "reference", f"{workload.name}.json")
    reference = None
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh).get(str(seed))

    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs_dir)
    # Every repetition runs in the same directory: outputs such as the
    # privatize manifest record their input path, and must not differ.
    workdir = os.path.join(scratch, "work")
    plain, traced, failures, problems, kernel_s = [], [], [], [], []
    attempted = 0
    first = None
    calibrate.kernel()  # warm-up
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if trace:
                enough = min(len(plain), len(traced)) >= TRACE_MIN_PAIRS
            else:
                enough = len(plain) >= WARMUP_REPS + MIN_REPS
            if (elapsed >= seconds and enough) or elapsed >= HARD_LIMIT_S:
                break
            spans = None
            if trace and len(traced) < len(plain):
                spans = os.path.join(scratch, f"rep{len(traced)}.spans.jsonl")
            if not trace:
                kernel_s += [calibrate.kernel() for _ in range(KERNELS_PER_REP)]
            rep = run_rep(workload.name, seed, workdir, spans,
                          min(REP_TIMEOUT_S, HARD_LIMIT_S + 30.0 - elapsed))
            attempted += workload.cells
            failures += failed_cells(rep, workload.cells, first, reference)
            if "error" in rep:
                break
            first = first or rep
            rep["spans"] = spans
            (traced if spans else plain).append(rep)

        end_to_end, per_layer = {}, {}
        timed = plain[WARMUP_REPS:]
        if not trace and timed:
            kernel_s += [calibrate.kernel() for _ in range(KERNELS_PER_REP)]
            scale = calibrate.REFERENCE_S / statistics.fmean(kernel_s)
            for entry in spec["end_to_end"]:
                samples = [rep[entry["name"]] for rep in timed]
                if entry["name"] in HOST_SCALED:
                    value = statistics.fmean(samples) * scale
                else:
                    value = statistics.median(samples)
                end_to_end[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if trace and traced and plain:
            per_layer = layer_metrics(spec, workload, traced, plain, problems)
            shutil.copyfile(median_rep(traced)["spans"],
                            os.path.join(runs_dir, f"{workload.name}.spans.jsonl"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = per_layer if trace else end_to_end
    if not metrics:
        print("error: no repetition completed: " + "; ".join(failures[:3]), file=sys.stderr)
        return 1
    for reason in sorted(set(failures + problems))[:10]:
        print("failure: " + reason, file=sys.stderr)
    env = dict(first["environment"], seed=seed, workload=workload.name)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"repetitions untraced={len(plain)} traced={len(traced)} "
          f"reference={'yes' if reference is not None else 'no'} "
          f"fail_ratio={len(failures)}/{attempted}")
    if end_to_end:
        print(f"calibration kernel samples={len(kernel_s)} min={min(kernel_s):.6g} "
              f"mean={statistics.fmean(kernel_s):.6g} s, "
              f"reference {calibrate.REFERENCE_S} s, timings scaled by {scale:.6g}")
    for key in HOST_SCALED:
        samples = [rep[key] for rep in plain[WARMUP_REPS:] or plain]
        print(f"measured {key} samples={len(samples)} min={min(samples):.6g} "
              f"mean={statistics.fmean(samples):.6g} median={statistics.median(samples):.6g} "
              f"max={max(samples):.6g}")
    for name, metric in {**end_to_end, **per_layer}.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    if per_layer:
        print("models.train_logistic.flop, .bytes and .gflop_per_s are computed from the "
              "call arguments, not measured")
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "labeldp", "__init__.py")):
        print(f"error: no labeldp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
