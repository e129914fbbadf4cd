"""The benchmark's tracer names library functions and model classes; a
cut that removes one of them would only show up in a traced benchmark run.
These checks read perfbench/tracer.py's tables without installing it. The
benchmark's correctness gate (perfbench/run.py's failed_cells against
perfbench/reference/) runs here too, once per workload at seed 0."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from labeldp import cli, experiments
from labeldp.data import (
    Dataset, MixtureModel, SkewedBinarySpec, gen_mixture, gen_skewed_binary, write_csv,
)
from labeldp.models import LogisticHyper, save_model, train_logistic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load(name, path):
    """Import a perfbench script by path, leaving sys.path as it was (run.py
    puts its own directory first to import its neighbours)."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("perfbench_tracer", TRACER_PATH)


@pytest.fixture(scope="module")
def bench():
    return _load("perfbench_run", PERFBENCH / "run.py")


@pytest.mark.parametrize("name", ["sim-mc", "ctr-mech", "thm1-majority", "csv-io"])
def test_workload_rows_match_the_reference(bench, tmp_path, name):
    """The benchmark's correctness gate at seed 0: one untraced repetition
    of the workload, in a fresh worker process, passes its --check and
    matches perfbench/reference/<name>.json within the gate's tolerances."""
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())["0"]
    rep = bench.run_rep(name, 0, str(tmp_path / "work"), None, 100.0)
    assert bench.failed_cells(rep, bench.WORKLOADS[name].cells, None, reference) == []


def test_own_layers_name_public_functions(tracer):
    """Every span the tracer wraps by name, in its own layer or merged into a
    shared one (data.gen, experiments.check), is a public function."""
    method_spans = set(tracer.METHODS.values())
    missing = []
    for span in sorted((tracer.OWN_LAYER | set(tracer.MERGED_LAYER)) - method_spans):
        short, attr = span.split(".")
        module = importlib.import_module(f"labeldp.{short}")
        obj = getattr(module, attr, None)
        if attr.startswith("_") or not (
            inspect.isfunction(obj) and obj.__module__ == module.__name__
        ):
            missing.append(span)
    assert not missing, f"layers naming no public function of their module: {missing}"


def test_hooked_calls_bind_their_arguments_by_name():
    """The tracer's hooks read train_logistic's `train` and `hyper` and
    write_results' `path` from the bound arguments, and the csv-io set-up
    calls train_logistic(dataset, hyper, seed), write_csv(dataset, csv_path)
    and save_model(model, model_path) positionally; a renamed or reordered
    parameter would show only as a crashed set-up or traced run."""
    fit = inspect.signature(train_logistic).bind("dataset", "hyper", "seed").arguments
    assert (fit["train"], fit["hyper"]) == ("dataset", "hyper")
    dataset_csv = inspect.signature(write_csv).bind("dataset", "csv_path").arguments
    assert list(dataset_csv.values()) == ["dataset", "csv_path"]
    model_file = inspect.signature(save_model).bind("model", "model_path").arguments
    assert list(model_file.values()) == ["model", "model_path"]
    write = inspect.signature(experiments.write_results).bind(
        "rows", "out.csv", "csv", columns="columns", manifest="manifest"
    ).arguments
    assert write["path"] == "out.csv"


def test_csv_io_setup_unpacks_the_skewed_binary_draw():
    """The csv-io set-up unpacks `dataset, _ = gen_skewed_binary(spec, n,
    seed)`; a changed return value would show only as a crashed set-up."""
    dataset, posterior = gen_skewed_binary(SkewedBinarySpec(0.03, 20, 0.5, 0.1), 50, 0)
    assert isinstance(dataset, Dataset) and callable(posterior)
    probs = posterior(dataset.features)
    assert probs.shape == (50, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


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


def _attack(tmp_path):
    ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 12, seed=2)
    write_csv(ds, str(tmp_path / "d.csv"))
    save_model(train_logistic(ds, LogisticHyper(iterations=3), seed=0), str(tmp_path / "m.txt"))
    assert cli.main(["attack", "--model", str(tmp_path / "m.txt"), "--input",
                     str(tmp_path / "d.csv"), "--label-column", "label",
                     "--output", str(tmp_path / "o.csv")]) == 0


SPA_RUNS = {
    "simulate": lambda tmp_path: experiments.run_simulation(experiments.SimulationConfig(
        class_counts=(2,), dim=3, sigmas=(1.0,), n=10, trials=2, epsilons=(1.0,),
        iterations=3)),
    "thm1": lambda tmp_path: experiments.run_thm1_demo(
        experiments.Thm1Config(n_values=(4,), trials=2, seed=0)),
    "ctr": lambda tmp_path: experiments.run_ctr(experiments.CtrConfig(
        positive_rate=0.5, dim=2, n=25, epsilons=(1.0,), iterations=3)),
    "attack": _attack,
}


@pytest.mark.parametrize("workload", list(SPA_RUNS))
def test_simulation_runs_through_spa(monkeypatch, tmp_path, workload):
    """Every workload traces attacks.spa as every labeldp module holds it
    (perfbench/workloads.py lists it for all of them); a harness or command
    that inlines the attack would leave that layer empty."""
    attacks = importlib.import_module("labeldp.attacks")
    original = attacks.spa
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("labeldp") and getattr(module, "spa", None) is original:
            monkeypatch.setattr(module, "spa", counted)
    SPA_RUNS[workload](tmp_path)
    assert calls


def _count_calls(monkeypatch, short, attr, calls):
    """Rebind every labeldp module attribute that is `labeldp.<short>.<attr>`
    to a wrapper that counts its calls under `attr`."""
    original = getattr(importlib.import_module(f"labeldp.{short}"), attr)

    def counted(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("labeldp") and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counted)


def test_ctr_runs_through_the_traced_mechanisms(monkeypatch):
    """ctr-mech traces randomized_response, rr_with_prior and aggregate_votes
    (perfbench/workloads.py); a helper that inlined one would leave its layer
    empty."""
    calls = {}
    for attr in ("randomized_response", "rr_with_prior", "aggregate_votes"):
        _count_calls(monkeypatch, "mechanisms", attr, calls)
    experiments.run_ctr(experiments.CtrConfig(
        positive_rate=0.5, dim=2, n=60, epsilons=(1.0,), iterations=3,
        mechanisms=("rr", "lp2st", "pate")))
    assert set(calls) == {"randomized_response", "rr_with_prior", "aggregate_votes"}, calls


def test_simulation_runs_through_sample_categorical_rows(monkeypatch):
    """sim-mc traces data.sample_categorical_rows (perfbench/workloads.py)."""
    calls = {}
    _count_calls(monkeypatch, "data", "sample_categorical_rows", calls)
    experiments.run_simulation(experiments.SimulationConfig(
        class_counts=(2,), dim=3, sigmas=(1.0,), n=10, trials=2, epsilons=(1.0,),
        iterations=3))
    assert calls.get("sample_categorical_rows", 0) >= 1, calls
