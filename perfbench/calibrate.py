"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by tens of per cent
over minutes, CPU time included, as other tenants come and go. run.py times
this kernel between repetitions and scales the run's timings by
REFERENCE_S / (mean kernel time of the run), so that they read as
seconds on a host of the reference speed. The kernel does not touch labeldp: a change to the
program cannot move it, only a change of the host's speed can.

Its parts mirror the program's layers: gradient descent on small and tall
matrices (numpy and BLAS, with the process's default BLAS threads), a
Python counting loop over tuples (as in the majority-vote table) and
splitting and formatting of CSV text (as in the CSV reader and writer).

    python3 perfbench/calibrate.py    # prints the kernel's time, ten times
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the host the benchmark was built on (2 cores, x86_64,
# OpenBLAS with 2 threads) when no other tenant slows it, in seconds.
# Timings are reported as measured x REFERENCE_S / mean kernel time.
REFERENCE_S = 0.17

_RNG = np.random.default_rng(20220225)
_SMALL = _RNG.standard_normal((100, 101))
_TALL = _RNG.standard_normal((4000, 21))
_ROWS = [tuple(row) for row in _RNG.integers(0, 4, size=(250000, 3)).tolist()]
_LINES = [",".join(f"{x:.6f}" for x in row) for row in _TALL[:4000].tolist()]


def _descend(x: np.ndarray, steps: int) -> float:
    labels = (x[:, 0] > 0).astype(np.intp)
    onehot = np.eye(2)[labels]
    w = np.zeros((x.shape[1], 2))
    for _ in range(steps):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= 0.1 / len(x) * (x.T @ (p - onehot))
    return float(w.sum())


def _count() -> int:
    table: dict = {}
    for row in _ROWS:
        table[row] = table.get(row, 0) + 1
    return max(table.values())


def _parse() -> int:
    rows = [[float(cell) for cell in line.split(",")] for line in _LINES]
    text = "\n".join(",".join(repr(cell) for cell in row) for row in rows)
    return len(text)


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    began = time.perf_counter()
    _descend(_SMALL, 2000)
    _descend(_TALL, 200)
    _count()
    _parse()
    return time.perf_counter() - began


if __name__ == "__main__":
    for _ in range(10):
        print(f"{kernel():.4f}")
