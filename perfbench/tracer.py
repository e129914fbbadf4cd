"""Outside-in span tracing of the labeldp layers.

`Tracer.install` replaces every public function of the traced modules, and
the `predict_proba` methods of the model classes, with a wrapper that
records one span per call: name, start, end and parent span. Modules that
import a function by name (`experiments` and `mechanisms` import
`train_logistic`, `randomized_response` and others) hold their own
reference to it, so every module attribute that points at a wrapped
function is rebound, not only the defining one.

Some layers also count the work of each call from its arguments (rows,
bytes written, computed floating-point operations). That bookkeeping runs
on a paused clock, so it is charged to no span and shows up only in the
traced run's unattributed time.

Spans stay in memory and are written out by `write_spans` at the end of
the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import time
from collections import defaultdict

MODULES = ("rng", "data", "models", "mechanisms", "attacks", "metrics", "experiments", "cli")

# Model classes whose predict_proba is traced, and the span name it gets.
METHODS = {
    "LogisticModel": "models.predict_proba",
    "ConstantModel": "models.predict_proba",
    "BayesModel": "models.predict_proba",
    "MajorityTableModel": "models.majority_predict",
}

# Spans reported as a layer of their own; any other span of a module is
# folded into "<module>.other", except in experiments and cli, whose spans
# outside this table form the "experiments" and "cli" layers.
OWN_LAYER = {
    "models.train_logistic", "models.stability_threshold", "models.predict_proba",
    "models.majority_table", "models.majority_predict", "models.load_model", "models.log_loss",
    "mechanisms.randomized_response", "mechanisms.rr_with_prior", "mechanisms.lp_mst",
    "mechanisms.alibi", "mechanisms.pate", "mechanisms.aggregate_votes",
    "rng.derive_seed", "rng.substream", "rng.seed_sequence",
    "data.sample_categorical_rows", "data.load_csv", "data.split",
    "attacks.spa",
    "metrics.eau_monte_carlo", "metrics.best_response", "metrics.leau_exact",
    "metrics.eau_empirical",
    "experiments.write_results",
}
MERGED_LAYER = {
    "data.gen_mixture": "data.gen",
    "data.gen_skewed_binary": "data.gen",
    "experiments.check_simulation": "experiments.check",
    "experiments.check_thm1": "experiments.check",
    "experiments.check_ctr": "experiments.check",
}


def layer_of(span_name: str) -> str:
    if span_name in OWN_LAYER:
        return span_name
    if span_name in MERGED_LAYER:
        return MERGED_LAYER[span_name]
    module = span_name.split(".", 1)[0]
    return module if module in ("experiments", "cli") else module + ".other"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._paused = 0.0
        self.counters = defaultdict(float)
        self._fit_keys = set()

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if hook is not None:
                began = time.perf_counter()
                hook(self, signature.bind(*args, **kwargs).arguments, result)
                self._paused += time.perf_counter() - began
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions of labeldp in this process."""
        modules = [importlib.import_module(f"labeldp.{short}") for short in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        models = modules[MODULES.index("models")]
        for cls_name, span_name in METHODS.items():
            cls = getattr(models, cls_name)
            method = cls.__dict__["predict_proba"]
            setattr(cls, "predict_proba", self.wrap(span_name, method, _row_counter(span_name)))
        for module in [importlib.import_module("labeldp"), *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the counters, as a flat dict."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        root_s = 0.0
        fit_ms = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = layer_of(name)
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child_time[i]
            if parent < 0:
                root_s += end - start
            if name == "models.train_logistic":
                fit_ms.append(1e3 * (end - start))
        out.update(self.counters)
        fits = out.get("models.train_logistic.calls")
        if fits:
            fit_ms.sort()
            out["models.train_logistic.call_p50_ms"] = _quantile(fit_ms, 0.50)
            out["models.train_logistic.call_p95_ms"] = _quantile(fit_ms, 0.95)
            out["models.train_logistic.unique_ratio"] = len(self._fit_keys) / fits
            out["models.train_logistic.gflop_per_s"] = (
                out["models.train_logistic.flop"] / out["models.train_logistic.self_s"] / 1e9
            )
        return {"layers": dict(out), "root_s": root_s, "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _row_counter(span_name: str):
    def count_rows(tracer: Tracer, args: dict, result) -> None:
        tracer.counters[f"{span_name}.rows"] += len(result)

    return count_rows


def _train_logistic_work(tracer: Tracer, args: dict, result) -> None:
    """Computed, not measured: each of the iterations+1 gradient-descent
    steps does two (n, d+1) x (d+1, k) products (logits and gradient) at two
    flops per multiply-add and streams the (n, d+1) design twice."""
    train, hyper = args["train"], args["hyper"]
    n, d, k = len(train), train.dim, train.num_classes
    steps = hyper.iterations + 1
    tracer.counters["models.train_logistic.steps"] += steps
    tracer.counters["models.train_logistic.flop"] += steps * 4 * n * (d + 1) * k
    tracer.counters["models.train_logistic.bytes"] += steps * 2 * n * (d + 1) * 8
    key = hashlib.sha1()
    key.update(train.features.tobytes())
    key.update(train.labels.tobytes())
    key.update(repr(hyper).encode())
    tracer._fit_keys.add(key.digest())


def _load_csv_rows(tracer: Tracer, args: dict, result) -> None:
    tracer.counters["data.load_csv.rows"] += len(result)


def _written_bytes(tracer: Tracer, args: dict, result) -> None:
    path = args["path"]
    tracer.counters["experiments.write_results.bytes"] += (
        os.path.getsize(path) + os.path.getsize(path + ".manifest.json")
    )


HOOKS = {
    "models.train_logistic": _train_logistic_work,
    "data.load_csv": _load_csv_rows,
    "experiments.write_results": _written_bytes,
}
