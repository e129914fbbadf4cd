"""Checks of the benchmark's tracer, run on every workload:

- each layer the workload lists records at least one call when traced;
- the layer self times add up to the time covered by root spans;
- outputs with tracing on are byte-identical to outputs with tracing off.

    python3 -m pytest perfbench/tracing_check.py
    python3 perfbench/tracing_check.py

The file name keeps it out of the repository's own test collection; it
runs every workload twice (about 20 s on two cores).
"""

import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import run_rep  # noqa: E402
from tracer import layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
TIMEOUT_S = 100.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload(name):
    os.makedirs(os.path.join(ROOT, ".perfbench_runs"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_runs")) as tmp:
        # Same directory for both runs: outputs may record their input paths.
        workdir = os.path.join(tmp, "work")
        spans_path = os.path.join(tmp, "spans.jsonl")
        plain = run_rep(name, SEED, workdir, None, TIMEOUT_S)
        traced = run_rep(name, SEED, workdir, spans_path, TIMEOUT_S)
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]

    assert "error" not in plain and "error" not in traced, (plain, traced)
    assert plain["codes"] == traced["codes"] == [0] * len(plain["codes"])
    assert traced["digest"] == plain["digest"], "tracing changed the output bytes"
    assert traced["rows"] == plain["rows"]

    layers = traced["trace"]["layers"]
    silent = [layer for layer in WORKLOADS[name].layers if not layers.get(f"{layer}.calls")]
    assert not silent, f"layers with no recorded call: {silent}"

    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(traced["trace"]["root_s"], abs=1e-6)
    assert len(spans) == traced["trace"]["spans"]
    assert {layer_of(span["name"]) for span in spans} == {
        k[: -len(".calls")] for k in layers if k.endswith(".calls")
    }
    roots = [span for span in spans if span["parent"] < 0]
    assert [span["name"] for span in roots] == ["cli.main"] * len(plain["codes"])
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
