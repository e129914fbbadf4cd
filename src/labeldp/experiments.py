"""End-to-end studies: the Gaussian-mixture simulation grid, the
randomized-response majority-vote demonstration, and the skewed
click-prediction study, plus deterministic result serialization.

Cells are enumerated in config order and each derives its own seed, so
output rows are byte-reproducible for a fixed (config, seed).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .attacks import spa
from .data import (
    Dataset,
    MixtureModel,
    SkewedBinarySpec,
    gen_mixture,
    gen_skewed_binary,
    load_csv,
    split,
    _atomic_write,
    _write_rows,
)
from .mechanisms import MECHANISMS, randomized_response, release
from .metrics import (
    UtilitySpec,
    advantage_bound,
    eau_empirical,
    eau_monte_carlo,
    hoeffding_lower_bound,
    leau_estimate,
    leau_exact,
    universal_bound,
)
from .models import (
    ConstantModel,
    LogisticHyper,
    LogisticModel,
    log_loss,
    majority_table,
    stability_threshold,
    train_logistic,
    _single_blas_thread,
)
from .rng import derive_seed

ATTACK_COLUMNS = ["eau", "eau_stderr", "leau", "advantage", "theoretical_bound"]
SIMULATION_COLUMNS = ["m", "sigma", "epsilon", "x_rep", "trials", *ATTACK_COLUMNS]
THM1_COLUMNS = ["epsilon", "n", "trials", "empirical_eau", "hoeffding_lower_bound"]
CTR_COLUMNS = ["mechanism", "epsilon", "test_log_loss", *ATTACK_COLUMNS, "utility_bound"]


def _attack_columns(eau: float, eau_stderr: float, leau: float, bound: float) -> dict:
    """The attack columns of a simulate or ctr row, in column order."""
    return dict(zip(ATTACK_COLUMNS, (eau, eau_stderr, leau, eau - leau, bound)))


def _check_mechanisms(names) -> None:
    for name in names:
        if name not in MECHANISMS:
            raise ValueError(f"unknown mechanism {name!r}")


def _check_grids(config, names) -> None:
    """An empty grid would run no cell and write an empty result file."""
    for name in names:
        if not len(getattr(config, name)):
            raise ValueError(f"{name} must not be empty")


@dataclass(frozen=True)
class SimulationConfig:
    """Gaussian-mixture study grid; defaults match the published protocol
    (d=100, n=100, T=1000, sigma in {1,10,100}, m in {2,100}). `presets`
    are named overrides of these defaults, a class constant, not a field."""

    presets: ClassVar[dict] = {"fig1": {}, "fig1-reduced": {"trials": 100}}

    class_counts: tuple = (2, 100)
    dim: int = 100
    sigmas: tuple = (1.0, 10.0, 100.0)
    n: int = 100
    trials: int = 1000
    epsilons: tuple = (0.1, 0.5, 1.0, 2.0, 4.0, 10.0)
    feature_redraws: int = 1
    mechanism: str = "rr"
    iterations: int = 35
    seed: int = 0

    def __post_init__(self):
        _check_grids(self, ("class_counts", "sigmas", "epsilons"))
        for name in ("dim", "n", "feature_redraws"):
            if not getattr(self, name) >= 1:  # NaN fails >= too
                raise ValueError(f"{name} must be positive")
        LogisticHyper(iterations=self.iterations)  # checks iterations
        if not self.trials >= 2:
            raise ValueError(f"trials must be >= 2 (a cell reports a standard error), "
                             f"got {self.trials}")
        bad = [eps for eps in self.epsilons if not eps >= 0]  # NaN fails >= too
        if bad:
            raise ValueError(f"epsilon grid values must be >= 0 or infinite, got {bad[0]}")
        if list(self.epsilons) != sorted(self.epsilons):
            raise ValueError("epsilon grid must be sorted ascending")
        _check_mechanisms([self.mechanism])
        # Each cell's mixture checks its class count, dim and sigma; build
        # them all here so a bad grid fails before the first cell runs.
        for m in self.class_counts:
            for sigma in self.sigmas:
                MixtureModel(m, self.dim, float(sigma))


def _fit_released(released: list, hyper: LogisticHyper, seeds) -> list:
    """Train one model per released Dataset, returned in input order.

    Sets that share one feature array (the same object: a mechanism that
    keeps its input rows releases them as they are) are fit as one stacked
    train_logistic call, in the order of their first member; any other set
    is a group of one. Within a group each distinct label vector is fit once,
    in first-occurrence order: a later member whose labels have the same
    bytes (labels are int64, so equal bytes are equal values) gets a model
    that shares that fit's weights, mu and sd and keeps its own seed.
    """
    groups: dict[int, list[int]] = {}
    for i, train in enumerate(released):
        groups.setdefault(id(train.features), []).append(i)
    models: list = [None] * len(released)
    for members in groups.values():
        first_with: dict[bytes, int] = {}
        owner = {i: first_with.setdefault(released[i].labels.tobytes(), i) for i in members}
        del first_with  # free the key copies before the fit
        kept = [i for i in members if owner[i] == i]
        first = released[members[0]]
        stack = np.stack([released[i].labels for i in kept])
        fitted = train_logistic(
            Dataset(first.features, stack, first.num_classes), hyper,
            [seeds[i] for i in kept],
        )
        for i, model in zip(kept, fitted):
            models[i] = model
        for i in members:
            if owner[i] != i:
                rep = models[owner[i]]
                models[i] = LogisticModel(rep.weights, rep.mu, rep.sd, rep.num_classes,
                                          seed=seeds[i], loss_history=rep.loss_history)
    return models


def mechanism_pipeline(name: str, num_classes: int, epsilon: float, hyper: LogisticHyper):
    """Label-to-model procedure for one mechanism at one epsilon.

    The returned callable takes (features, labels (B, n), seeds (B,)) as
    eau_monte_carlo passes them, releases each label vector through the
    named mechanism (with `release`'s default sizes) under its own seed and
    returns the B models trained on the released sets. Released sets that
    keep the given feature array are fit as one stacked train_logistic call
    (see _fit_released).
    """

    def pipeline(features: np.ndarray, labels: np.ndarray, seeds) -> list:
        features = np.asarray(features, dtype=np.float64)
        released = [
            release(name, Dataset(features, trial, num_classes), epsilon, hyper, seed).released
            for trial, seed in zip(labels, seeds)
        ]
        return _fit_released(released, hyper, seeds)

    return pipeline


@_single_blas_thread()
def run_simulation(config: SimulationConfig) -> list[dict]:
    """For every (m, sigma, epsilon) cell: fix the features, compute the
    exact L-EAU, Monte-Carlo the SPA EAU over the mechanism pipeline, and
    pair the advantage with its distribution-dependent bound (the expected
    supremum term is 1 for zero-one utility).

    The grid runs on one OpenBLAS thread: its products are too small to
    gain from a second one, which only spins. The thread count is
    process-global, so it holds for the whole process for the duration of
    the call; the caller's count is restored when the call returns or
    raises. Results do not depend on the thread count."""
    spec = UtilitySpec.zero_one()
    rows = []
    for mi, m in enumerate(config.class_counts):
        for si, sigma in enumerate(config.sigmas):
            mixture = MixtureModel(m, config.dim, float(sigma))
            for rep in range(config.feature_redraws):
                ds, posterior = gen_mixture(
                    mixture, config.n, derive_seed(config.seed, "sim-x", mi, si, rep)
                )
                features = ds.features
                probs = posterior(features)
                # The step size comes from the cell's full X, which is fixed
                # across its trials. It is part of the behaviour, not a cache:
                # PATE's teachers and student and LP-2ST's stage-1 model train
                # on subsets of X with this same step, not their own.
                hyper = LogisticHyper(
                    learning_rate=0.9 * stability_threshold(ds),
                    iterations=config.iterations,
                )
                leau = leau_exact(probs, spec)
                for ei, eps in enumerate(config.epsilons):
                    pipeline = mechanism_pipeline(config.mechanism, m, float(eps), hyper)
                    eau, stderr = eau_monte_carlo(
                        probs,
                        features,
                        pipeline,
                        spec,
                        config.trials,
                        derive_seed(config.seed, "sim-mc", mi, si, rep, ei),
                    )
                    bound = advantage_bound(float(eps), 0.0, 1.0)
                    rows.append({
                        "m": m, "sigma": float(sigma), "epsilon": float(eps),
                        "x_rep": rep, "trials": config.trials,
                        **_attack_columns(eau, stderr, leau, bound),
                    })
    return rows


@dataclass(frozen=True)
class Thm1Config:
    """Two-feature construction sizes; every n must be even (n = 2r).

    Trials run in blocks of at most block_labels labels (at least one trial
    per block), a fixed class constant, not an option.
    """

    block_labels: ClassVar[int] = 1 << 15

    epsilon: float = 1.0
    n_values: tuple = (100, 1000)
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_grids(self, ("n_values",))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.trials >= 1:
            raise ValueError("trials must be >= 1")
        if any(n < 2 or n % 2 for n in self.n_values):
            raise ValueError(f"each n must be even and >= 2, got {self.n_values}")


def run_thm1_demo(config: Thm1Config) -> list[dict]:
    """Binary RR on the deterministic two-valued-feature dataset, majority
    vote per feature value, SPA accuracy against the true labels, averaged
    over trials and paired with the matching Hoeffding lower bound.

    The feature matrix of an n is fixed over its trials, so they run in
    blocks of B = max(1, Thm1Config.block_labels // n): each trial's RR,
    under its own seed, fills one row of a (B, n) label stack, and the block
    is one Dataset and one stacked majority_table call."""
    spec = UtilitySpec.zero_one()
    rows = []
    for ni, n in enumerate(config.n_values):
        r = n // 2
        features = np.concatenate([np.ones(r), -np.ones(r)])[:, None]
        true_labels = np.concatenate(
            [np.ones(r, dtype=np.int64), np.zeros(r, dtype=np.int64)]
        )
        accs = np.empty(config.trials)
        size = min(max(1, config.block_labels // n), config.trials)
        block = np.empty((size, n), dtype=np.int64)
        for start in range(0, config.trials, size):
            trials = range(start, min(start + size, config.trials))
            private = block[: len(trials)]
            for row, t in zip(private, trials):
                row[:] = randomized_response(
                    true_labels, 2, config.epsilon, derive_seed(config.seed, "thm1", ni, t)
                )
            models = majority_table(Dataset(features, private, 2))
            for t, model in zip(trials, models):
                accs[t] = eau_empirical(spa(model, features, spec), true_labels, spec)
        rows.append(
            {
                "epsilon": float(config.epsilon),
                "n": n,
                "trials": config.trials,
                "empirical_eau": float(accs.mean()),
                "hoeffding_lower_bound": hoeffding_lower_bound(config.epsilon, n),
            }
        )
    return rows


@dataclass(frozen=True)
class CtrConfig:
    """Skewed click-prediction study over a synthetic source or a CSV file.

    The synthetic defaults (positive rate 0.03, 20 dims, separation 0.5,
    label noise 0.1) mimic a noisy, heavily imbalanced click log. The split
    and PATE's query count are fixed class constants, not options; LP-2ST
    and PATE otherwise run with `release`'s default sizes.
    """

    split_fractions: ClassVar[tuple] = (0.8, 0.04, 0.16)
    pate_queries: ClassVar[int] = 200

    csv_path: str | None = None
    label_column: str = "label"
    n: int = 100_000
    positive_rate: float = 0.03
    dim: int = 20
    separation: float = 0.5
    label_noise: float = 0.1
    mechanisms: tuple = ("rr",)
    epsilons: tuple = (math.inf, 8.0, 4.0, 2.0, 1.0, 0.1)
    iterations: int = 150
    seed: int = 0

    def __post_init__(self):
        _check_grids(self, ("mechanisms", "epsilons"))
        LogisticHyper(iterations=self.iterations)  # checks iterations
        if self.csv_path is None:
            # Building the synthetic source checks its four fields; a CSV
            # run draws no source, so they shape nothing and go unchecked.
            self.source  # noqa: B018
            if not self.n >= 25:
                raise ValueError(f"synthetic source needs n >= 25: a smaller n leaves a "
                                 f"part of the {self.split_fractions} split empty")
        if any(not e > 0 for e in self.epsilons):
            raise ValueError("epsilon grid values must be positive or infinite")
        _check_mechanisms(self.mechanisms)

    @property
    def source(self) -> SkewedBinarySpec:
        """The synthetic source the four flat source fields describe."""
        return SkewedBinarySpec(self.positive_rate, self.dim, self.separation, self.label_noise)


@_single_blas_thread()
def run_ctr(config: CtrConfig) -> list[dict]:
    """Per (mechanism, epsilon): train privately, record test log loss and
    the weighted-SPA training EAU, and compare the advantage against the
    universal bound with B = max_y 1/(2 p_y). The first row is the
    constant-predictor baseline; the marginal p_y is estimated from the
    training split.

    The study runs on one OpenBLAS thread, as run_simulation does: a
    second thread mostly spins here. The caller's count is restored when
    the call returns or raises, and results do not depend on it. The
    source dataset and the unused validation split are dropped once split,
    so only the training and test copies live through training."""
    if config.csv_path is not None:
        dataset = load_csv(config.csv_path, config.label_column)
        posterior = None
    else:
        dataset, posterior = gen_skewed_binary(
            config.source, config.n, derive_seed(config.seed, "ctr-data")
        )
    train, _val, test = split(dataset, config.split_fractions, derive_seed(config.seed, "ctr-split"))
    num_classes = dataset.num_classes
    del dataset, _val

    counts = np.bincount(train.labels, minlength=num_classes)
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ValueError(f"class {missing} absent from the training split; cannot weight")
    marginal = counts / counts.sum()
    spec = UtilitySpec.weighted(marginal)
    b = spec.bound
    hyper = LogisticHyper(iterations=config.iterations)

    # Every cell is released first; the cells that keep the training split's
    # feature array (all but PATE's) are then trained as one stack.
    cells, released, seeds = [], [], []
    for mech in config.mechanisms:
        for eps in config.epsilons:
            seed = derive_seed(config.seed, "ctr", mech, repr(float(eps)))
            report = release(mech, train, float(eps), hyper, seed, queries=config.pate_queries)
            cells.append((mech, float(eps)))
            released.append(report.released)
            seeds.append(seed)
    models = _fit_released(released, hyper, seeds)

    baseline = ConstantModel(marginal)
    candidates = [baseline, *models]
    entries = [("constant-baseline", math.inf, baseline)]
    entries += [(mech, eps, model) for (mech, eps), model in zip(cells, models)]

    if posterior is not None:
        leau = leau_exact(posterior(train.features), spec)
    else:
        leau = leau_estimate(candidates, test, spec)

    rows = []
    for mech, eps, model in entries:
        eau = eau_empirical(spa(model, train.features, spec), train.labels, spec)
        rows.append({
            "mechanism": mech, "epsilon": eps, "test_log_loss": log_loss(model, test),
            **_attack_columns(eau, 0.0, leau, universal_bound(eps, 0.0, b)),
            "utility_bound": b,
        })
    return rows


def write_results(rows, path: str, fmt: str, columns: list, manifest: dict) -> None:
    """Serialize dict rows in the order of `columns`, plus a sidecar
    manifest echoing the full configuration (including seeds).

    Formats: "csv" (header row always written, floats at full precision) and
    "structured-records" (one JSON object per line). Reruns with an
    identical config produce byte-identical files.
    """
    if fmt not in ("csv", "structured-records"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        _write_rows(path, columns, *([row[c] for row in rows] for c in columns))
    else:
        with _atomic_write(path) as fh:
            for row in rows:
                fh.write(_json_text({c: row[c] for c in columns}) + "\n")
    write_manifest(path, {"columns": columns, "format": fmt, "config": manifest})


def write_manifest(path: str, manifest: dict) -> None:
    """Write the sidecar `path`.manifest.json: manifest as JSON with sorted
    keys, indented by 2, plus a final newline."""
    with _atomic_write(path + ".manifest.json") as fh:
        fh.write(_json_text(manifest, sort_keys=True, indent=2) + "\n")


def _json_text(value, sort_keys: bool = False, indent: int | None = None) -> str:
    """The one JSON spelling of every record, echo line and manifest."""
    return json.dumps(_jsonable(value), sort_keys=sort_keys, indent=indent)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def config_manifest(config) -> dict:
    return {"type": type(config).__name__, **_jsonable(dataclasses.asdict(config))}


def _check_attack(row: dict) -> list[str]:
    """Violations of one simulate or ctr row's attack columns, naming the
    cell by its other columns. Every comparison is false for NaN, so a
    non-finite attack column is a violation of its own. ctr rows carry
    eau_stderr 0.0 (one release per cell), so their margin is zero."""
    cell = {key: value for key, value in row.items() if key not in ATTACK_COLUMNS}
    violations = [f"cell {cell}: {name} is {row[name]}"
                  for name in ATTACK_COLUMNS if not math.isfinite(row[name])]
    if row["advantage"] > row["theoretical_bound"] + 3.0 * row["eau_stderr"]:
        violations.append(f"cell {cell}: advantage {row['advantage']:.6f} exceeds bound "
                          f"{row['theoretical_bound']:.6f} + 3*stderr")
    return violations


def check_simulation(rows) -> list[str]:
    """Invariant checks for simulation rows; returns violation messages."""
    violations = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        violations += _check_attack(row)
        groups.setdefault((row["m"], row["sigma"], row["x_rep"]), []).append(row)
    for key, cells in groups.items():
        leaus = {row["leau"] for row in cells}
        if len(leaus) != 1:
            violations.append(f"group {key}: L-EAU varies across epsilon: {sorted(leaus)}")
        ordered = sorted(cells, key=lambda row: row["epsilon"])
        for lo, hi in zip(ordered, ordered[1:]):
            slack = 3.0 * math.hypot(lo["eau_stderr"], hi["eau_stderr"])
            if hi["eau"] < lo["eau"] - slack:
                violations.append(
                    f"group {key}: EAU drops from {lo['eau']:.4f} (eps={lo['epsilon']}) "
                    f"to {hi['eau']:.4f} (eps={hi['epsilon']}) beyond 3*stderr"
                )
    return violations


def check_thm1(rows) -> list[str]:
    return [
        f"n={row['n']}: empirical EAU {row['empirical_eau']:.6f} below the "
        f"Hoeffding lower bound {row['hoeffding_lower_bound']:.6f}"
        for row in rows
        if row["empirical_eau"] < row["hoeffding_lower_bound"]
    ]


def check_ctr(rows) -> list[str]:
    return [violation for row in rows for violation in _check_attack(row)]
