"""One repetition of one workload, in a fresh process.

Imports labeldp from the checkout's `src`, builds the workload's inputs
(set-up), optionally installs the tracer, then times the workload's
command lines through `labeldp.cli.main`. Prints one JSON object with the
measurements, the result rows and a digest of every file it wrote.

    python3 perfbench/worker.py --workload sim-mc --seed 1 --workdir DIR [--spans FILE]

With --spans the run is traced and its spans are written to FILE.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads():
    """Thread count of the OpenBLAS loaded in this process, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {key: os.environ.get(key)
                       for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space, in MiB.

    Read from VmHWM rather than ru_maxrss: Linux carries ru_maxrss over
    from the parent through fork and exec, so it would report the size of
    the benchmark's driver whenever that is the larger."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(workdir: str) -> str:
    """SHA-256 over every file of the run (name and bytes), in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import labeldp
    import labeldp.cli

    if os.path.dirname(os.path.realpath(labeldp.__file__)) != os.path.realpath(
            os.path.join(SRC, "labeldp")):
        raise SystemExit(f"labeldp imported from {labeldp.__file__}, not from {SRC}")
    os.makedirs(args.workdir, exist_ok=True)
    commands = workload.prepare(args.seed, args.workdir)
    setup_s = time.perf_counter() - _STARTED

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    codes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in commands:
            try:
                codes.append(labeldp.cli.main(argv))
            except Exception:  # a crash fails the run's cells; it is reported, not raised
                traceback.print_exc()
                codes.append(-1)
    wall_s = time.perf_counter() - began
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    ok = all(code in (0, 3) for code in codes)
    report = {
        "codes": codes,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
        "violations": err.getvalue().count("violation: "),
        "stderr": err.getvalue()[-2000:],
        "rows": workload.rows(args.workdir, out.getvalue()) if ok else None,
        "digest": digest(args.workdir),
        "environment": environment(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
