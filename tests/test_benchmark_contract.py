"""The benchmark's tracer names library functions and model classes; a
cut that removes one of them would only show up in a traced benchmark run.
These checks read perfbench/tracer.py's tables without installing it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_own_layers_name_public_functions(tracer):
    method_spans = set(tracer.METHODS.values())
    missing = []
    for span in sorted(tracer.OWN_LAYER - method_spans):
        short, attr = span.split(".")
        module = importlib.import_module(f"labeldp.{short}")
        obj = getattr(module, attr, None)
        if attr.startswith("_") or not (
            inspect.isfunction(obj) and obj.__module__ == module.__name__
        ):
            missing.append(span)
    assert not missing, f"layers naming no public function of their module: {missing}"


def test_traced_model_classes_define_predict_proba(tracer):
    models = importlib.import_module("labeldp.models")
    for cls_name in tracer.METHODS:
        assert "predict_proba" in vars(getattr(models, cls_name)), cls_name


def test_thm1_runs_through_its_traced_layers(monkeypatch):
    """The thm1-majority workload traces majority_table as called by
    experiments and MajorityTableModel.predict_proba; a thm1 harness that
    routes around either would leave those layers empty."""
    experiments = importlib.import_module("labeldp.experiments")
    models = importlib.import_module("labeldp.models")
    calls = {"majority_table": 0, "predict_proba": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "majority_table",
                        counted("majority_table", experiments.majority_table))
    monkeypatch.setattr(models.MajorityTableModel, "predict_proba",
                        counted("predict_proba", models.MajorityTableModel.predict_proba))
    experiments.run_thm1_demo(experiments.Thm1Config(n_values=(4,), trials=2, seed=0))
    assert calls["majority_table"] >= 1, calls
    assert calls["predict_proba"] >= 1, calls
