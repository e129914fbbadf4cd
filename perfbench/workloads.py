"""The four benchmark workloads.

Each workload is a list of `labeldp` command lines, driven through
`labeldp.cli.main` exactly as a user would type them, plus the inputs the
commands need (built through the library during set-up) and the result rows
the correctness gate compares. README.md in this directory says why each
workload exists and which layer it isolates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

CSV_ROWS = 25_000
CSV_POSITIVE_RATE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    # Result cells one run attempts; the denominator of the failure ratio.
    cells: int
    # Layers (tracer names) that must record at least one call when traced.
    layers: tuple
    # (seed, workdir) -> command lines; builds any input files first.
    prepare: Callable[[int, str], list]
    # (workdir, captured stdout) -> result rows as lists of strings.
    rows: Callable[[str, str], list]


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _harness(argv: list) -> Callable[[int, str], list]:
    def prepare(seed: int, workdir: str) -> list:
        out = os.path.join(workdir, "results.csv")
        return [argv + ["--seed", str(seed), "--output", out, "--check"]]

    return prepare


def _harness_rows(workdir: str, stdout: str) -> list:
    return _csv_rows(os.path.join(workdir, "results.csv"))


def _csv_prepare(seed: int, workdir: str) -> list:
    """Write the skewed CSV and a saved logistic model through the library."""
    import numpy as np

    from labeldp import data, models

    spec = data.SkewedBinarySpec(CSV_POSITIVE_RATE, 20, 0.5, 0.1)
    dataset, _ = data.gen_skewed_binary(spec, CSV_ROWS, seed)
    csv_path = os.path.join(workdir, "data.csv")
    model_path = os.path.join(workdir, "model.txt")
    data.write_csv(dataset, csv_path)
    model = models.train_logistic(
        dataset.subset(np.arange(2000)), models.LogisticHyper(iterations=50), seed
    )
    models.save_model(model, model_path)
    marginal = f"{1.0 - CSV_POSITIVE_RATE!r},{CSV_POSITIVE_RATE!r}"
    return [
        ["privatize", "--input", csv_path, "--label-column", "label", "--mechanism", "rr",
         "--epsilon", "1.0", "--seed", str(seed),
         "--output", os.path.join(workdir, "private.csv")],
        ["attack", "--model", model_path, "--input", csv_path, "--label-column", "label",
         "--utility", "weighted", "--marginal", marginal, "--full-precision",
         "--output", os.path.join(workdir, "inferred.csv")],
    ]


def _csv_summary_rows(workdir: str, stdout: str) -> list:
    """One summary row per command: row count, label sum and, for the
    attack, the empirical EAU it printed."""

    def column_sum(name: str) -> tuple:
        rows = _csv_rows(os.path.join(workdir, name))[1:]
        return str(len(rows)), str(sum(int(row[1]) for row in rows))

    eau = json.loads(stdout.strip().splitlines()[-1])["empirical_eau"]
    return [
        ["command", "rows", "label_sum", "empirical_eau"],
        ["privatize", *column_sum("private.csv"), ""],
        ["attack", *column_sum("inferred.csv"), repr(float(eau))],
    ]


_COMMON = ("rng.substream", "attacks.spa", "metrics.best_response", "metrics.eau_empirical",
           "mechanisms.randomized_response", "cli")
_HARNESS = _COMMON + ("rng.derive_seed", "experiments", "experiments.write_results",
                      "experiments.check")

WORKLOADS = {
    "sim-mc": Workload(
        name="sim-mc",
        cells=36,
        layers=_HARNESS + ("models.train_logistic", "models.stability_threshold",
                           "models.predict_proba", "data.gen", "data.sample_categorical_rows",
                           "metrics.eau_monte_carlo", "metrics.leau_exact"),
        prepare=_harness(["simulate", "--preset", "fig1-reduced", "--trials", "10"]),
        rows=_harness_rows,
    ),
    "ctr-mech": Workload(
        name="ctr-mech",
        cells=9,
        layers=_HARNESS + ("models.train_logistic", "models.stability_threshold",
                           "models.predict_proba", "models.log_loss", "mechanisms.rr_with_prior",
                           "mechanisms.lp_mst", "mechanisms.alibi", "mechanisms.pate",
                           "mechanisms.aggregate_votes", "data.gen", "data.split",
                           "metrics.leau_exact"),
        prepare=_harness(["ctr", "--n", "20000", "--mechanisms", "rr,lp2st,alibi,pate",
                          "--epsilons", "inf,1.0"]),
        rows=_harness_rows,
    ),
    "thm1-majority": Workload(
        name="thm1-majority",
        cells=3,
        layers=_HARNESS + ("models.majority_table", "models.majority_predict"),
        prepare=_harness(["thm1", "--n-values", "100,1000,10000", "--trials", "100"]),
        rows=_harness_rows,
    ),
    "csv-io": Workload(
        name="csv-io",
        cells=2,
        layers=_COMMON + ("data.load_csv", "models.load_model", "models.predict_proba"),
        prepare=_csv_prepare,
        rows=_csv_summary_rows,
    ),
}
