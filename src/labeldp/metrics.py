"""Attack utility functions, EAU / L-EAU / advantage estimators, and the
closed-form theoretical bounds on attack advantage.

All bounds share the factor 1 - (2 / (1 + e^eps)) * (1 - delta), which is 0
at eps = delta = 0 and tends to 1 as eps grows. An earlier, looser variant
of the factor, 1 - e^-eps * (1 - delta), is available behind the
draft_variant flag for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import Conditional, _first_non_distribution, sample_categorical_rows
from .models import Model
from .rng import derive_seed

ZERO_ONE = "zero-one"
WEIGHTED = "weighted-zero-one"
REGRESSION = "bounded-regression"


def probability_vector(marginal) -> np.ndarray:
    """marginal as a float64 vector; raises ValueError unless it is finite,
    non-negative and sums to 1 (within 1e-9)."""
    p = np.asarray(marginal, dtype=np.float64)
    if p.ndim != 1 or _first_non_distribution(p[None, :]) is not None:
        raise ValueError(f"marginal must be a probability vector, got {p}")
    return p


@dataclass(frozen=True)
class UtilitySpec:
    """Attack utility u(yhat, y) in [0, B].

    Kinds:
      zero-one           u = 1{yhat == y},                    B = 1
      weighted-zero-one  u = 1{yhat == y} / (2 p_y),          B = max_y 1/(2 p_y)
      bounded-regression u = 4 b^2 - (yhat - y)^2 for labels
                         in [-b, b],                          B = 4 b^2
    """

    kind: str
    marginal: np.ndarray | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind == ZERO_ONE:
            pass
        elif self.kind == WEIGHTED:
            p = probability_vector(self.marginal)
            if np.any(p == 0):
                raise ValueError("weighted utility needs strictly positive marginals")
            object.__setattr__(self, "marginal", p)
        elif self.kind == REGRESSION:
            if self.b is None or not self.b > 0:
                raise ValueError(f"regression utility needs b > 0, got {self.b}")
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @staticmethod
    def zero_one() -> "UtilitySpec":
        return UtilitySpec(ZERO_ONE)

    @staticmethod
    def weighted(marginal) -> "UtilitySpec":
        return UtilitySpec(WEIGHTED, marginal=np.asarray(marginal, dtype=np.float64))

    @staticmethod
    def regression(b: float) -> "UtilitySpec":
        return UtilitySpec(REGRESSION, b=b)

    @property
    def bound(self) -> float:
        if self.kind == ZERO_ONE:
            return 1.0
        if self.kind == WEIGHTED:
            return float(np.max(1.0 / (2.0 * self.marginal)))
        return 4.0 * self.b**2


def utility(spec: UtilitySpec, inferred, true) -> np.ndarray:
    """Per-pair utility values (vectorized)."""
    inferred = np.asarray(inferred)
    true = np.asarray(true)
    if inferred.shape != true.shape:
        raise ValueError(f"shape mismatch: {inferred.shape} vs {true.shape}")
    if spec.kind == ZERO_ONE:
        return (inferred == true).astype(np.float64)
    if spec.kind == WEIGHTED:
        return (inferred == true) / (2.0 * spec.marginal[true])
    return 4.0 * spec.b**2 - (inferred.astype(np.float64) - true.astype(np.float64)) ** 2


def utility_matrix(spec: UtilitySpec, num_classes: int) -> np.ndarray:
    """U[yhat, y] over class indices; regression treats indices as reals."""
    idx = np.arange(num_classes)
    grid_hat, grid_true = np.meshgrid(idx, idx, indexing="ij")
    return utility(spec, grid_hat.ravel(), grid_true.ravel()).reshape(num_classes, num_classes)


def expected_utilities(probs: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """E[u(yhat, y)] per row and candidate yhat, for y ~ the given rows."""
    probs = np.asarray(probs, dtype=np.float64)
    return probs @ utility_matrix(spec, probs.shape[1]).T


def best_response(probs: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """Per-row expected-utility-maximizing label; ties to the lowest index."""
    return np.argmax(expected_utilities(probs, spec), axis=1).astype(np.int64)


def eau_empirical(inferred, true_labels, spec: UtilitySpec) -> float:
    """Mean per-row utility of one realized label draw."""
    inferred = np.asarray(getattr(inferred, "labels", inferred))
    true_labels = np.asarray(true_labels)
    if inferred.shape[0] != true_labels.shape[0]:
        raise ValueError(
            f"length mismatch: {inferred.shape[0]} inferred vs {true_labels.shape[0]} labels"
        )
    return float(utility(spec, inferred, true_labels).mean())


# eau_monte_carlo hands the pipeline blocks of B = MC_BLOCK_ENTRIES // (n * k)
# trials (at least 1) at a time, so a stacked fit's (n, B * k) probability
# arrays hold at most this many entries (1 MiB of float64): B = 13 for the
# simulation's n = 100, k = 100 cells and 655 for its k = 2 cells.
MC_BLOCK_ENTRIES = 1 << 17


def eau_monte_carlo(
    conditional: Conditional,
    features: np.ndarray,
    pipeline: Callable[[np.ndarray, np.ndarray, list], Sequence[Model]],
    attack: Callable,
    spec: UtilitySpec,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo EAU with the feature matrix held fixed.

    Per trial: resample labels from the conditional, run the training
    pipeline, run the attack on the adversary's knowledge, and record the
    mean row utility. Returns (mean, stderr) over trials with the unbiased
    sample standard deviation; trials accumulate in index order so the
    result is schedule-independent.

    The pipeline runs on blocks of consecutive trials:
    pipeline(features, labels, seeds) gets the block's (B, n) label draws
    and its B pipeline seeds and returns B models, model b trained on
    labels[b] with seeds[b]. Trial t's labels and seed come from substreams
    keyed by t alone, so the block size changes no draw.
    """
    from .attacks import AdversaryKnowledge  # local import to avoid a cycle

    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    features = np.asarray(features, dtype=np.float64)
    conditional_probs = conditional(features)  # fixed X: evaluate once
    block = max(1, MC_BLOCK_ENTRIES // conditional_probs.size)
    values = np.empty(trials)
    for start in range(0, trials, block):
        block_trials = range(start, min(start + block, trials))
        labels = np.stack([
            sample_categorical_rows(conditional_probs, derive_seed(seed, "mc-labels", t))
            for t in block_trials
        ])
        seeds = [derive_seed(seed, "mc-pipeline", t) for t in block_trials]
        models = pipeline(features, labels, seeds)
        if len(models) != len(block_trials):
            raise ValueError(
                f"pipeline returned {len(models)} models for {len(block_trials)} label vectors"
            )
        for t, trial_labels, model in zip(block_trials, labels, models):
            knowledge = AdversaryKnowledge(
                features=features,
                model=model,
                conditional=conditional,
                marginal=spec.marginal if spec.kind == WEIGHTED else None,
            )
            inferred = attack(knowledge)
            values[t] = eau_empirical(inferred, trial_labels, spec)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def leau_exact(conditional: Conditional, features: np.ndarray, spec: UtilitySpec) -> float:
    """Label-independent EAU computed exactly: the mean over rows of
    max_y E[u(y, y_i) | x_i], enumerating candidate labels."""
    probs = conditional(np.asarray(features, dtype=np.float64))
    return float(expected_utilities(probs, spec).max(axis=1).mean())


def leau_estimate(models, test, spec: UtilitySpec) -> float:
    """Lower-bound estimate of L-EAU: the best mean test utility attained by
    the utility-respecting predictor of any candidate model."""
    models = list(models)
    if not models:
        raise ValueError("need at least one candidate model")
    best = -math.inf
    for model in models:
        inferred = best_response(model.predict_proba(test.features), spec)
        best = max(best, eau_empirical(inferred, test.labels, spec))
    return best


def advantage(eau: float, leau: float) -> float:
    """EAU minus L-EAU; negative values are reported as-is."""
    return eau - leau


@dataclass(frozen=True)
class BoundQuery:
    """Inputs to the closed-form bounds.

    exp_sup_utility is (1/n) sum_i E[sup_y u(y, y_i) | x_i] for the
    distribution-dependent bound (or its unconditional analogue for the
    weaker threat model); utility_bound is the global bound B.
    """

    epsilon: float
    delta: float = 0.0
    utility_bound: float | None = None
    exp_sup_utility: float | None = None

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN fails >= too
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.utility_bound is not None and not 0 < self.utility_bound < math.inf:
            raise ValueError(
                f"utility_bound must be positive and finite, got {self.utility_bound}"
            )
        if self.exp_sup_utility is not None:
            if not self.exp_sup_utility >= 0:
                raise ValueError(f"exp_sup_utility must be >= 0, got {self.exp_sup_utility}")
            if math.isinf(self.exp_sup_utility):
                raise ValueError("exp_sup_utility must be finite, got inf")


def bound_factor(epsilon: float, delta: float, draft_variant: bool = False) -> float:
    """The privacy factor 1 - (2 / (1 + e^eps)) (1 - delta); with
    draft_variant, the looser 1 - e^-eps (1 - delta)."""
    if draft_variant:
        return 1.0 - math.exp(-epsilon) * (1.0 - delta)
    if math.isinf(epsilon):
        return 1.0
    return 1.0 - (2.0 / (1.0 + math.exp(epsilon))) * (1.0 - delta)


def advantage_bound(query: BoundQuery, draft_variant: bool = False) -> float:
    """Distribution-dependent advantage bound: factor times the expected
    supremum utility conditioned on the features."""
    if query.exp_sup_utility is None:
        raise ValueError("advantage_bound needs exp_sup_utility")
    return bound_factor(query.epsilon, query.delta, draft_variant) * query.exp_sup_utility


def universal_bound(query: BoundQuery, draft_variant: bool = False) -> float:
    """Distribution-free advantage bound: factor times the utility bound B."""
    if query.utility_bound is None:
        raise ValueError("universal_bound needs utility_bound")
    return bound_factor(query.epsilon, query.delta, draft_variant) * query.utility_bound


def dp_generalization_gap_bound(
    epsilon: float, delta: float, draft_variant: bool = False
) -> float:
    """Bound on the train-test utility gap of a private learner, u in [0, 1]."""
    if not epsilon >= 0 or not 0.0 <= delta <= 1.0:
        raise ValueError(f"invalid privacy params ({epsilon}, {delta})")
    return bound_factor(epsilon, delta, draft_variant)


def weak_threat_bound(query: BoundQuery, draft_variant: bool = False) -> float:
    """Advantage bound in the feature-unaware threat model: same factor,
    applied to the unconditional expected supremum utility."""
    if query.exp_sup_utility is None:
        raise ValueError("weak_threat_bound needs exp_sup_utility")
    return bound_factor(query.epsilon, query.delta, draft_variant) * query.exp_sup_utility


def reconstruction_bound(epsilon: float, delta: float, domain_size: float) -> float:
    """Excess-advantage bound for reconstruction over a domain of the given
    size: 1 - e^-eps + delta * |Z|."""
    if not 0 < domain_size < math.inf:
        raise ValueError(f"domain_size must be positive and finite, got {domain_size}")
    if not epsilon >= 0 or not 0.0 <= delta <= 1.0:
        raise ValueError(f"invalid privacy params ({epsilon}, {delta})")
    return 1.0 - math.exp(-epsilon) + delta * domain_size


def hoeffding_lower_bound(epsilon: float, n: int) -> float:
    """Concentration lower bound on the RR-majority construction's SPA EAU:
    1 - 2 exp(-(e^eps/(e^eps + 1) - 1/2)^2 n), clamped below at 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    keep = 1.0 if math.isinf(epsilon) else 1.0 / (1.0 + math.exp(-epsilon))
    return max(0.0, 1.0 - 2.0 * math.exp(-((keep - 0.5) ** 2) * n))


@dataclass(frozen=True)
class CalibrationResult:
    epsilon: float
    feasible: bool
    note: str = ""


def calibrate_epsilon(target_advantage: float, delta: float, utility_bound: float) -> CalibrationResult:
    """Largest epsilon whose universal bound stays at or below the target.

    Inverts the universal bound: eps = ln(2 (1 - delta) / (1 - A/B) - 1).
    A target at or above B is met by any epsilon (tagged infinite); if even
    eps = 0 overshoots (bound there is delta * B), the result is infeasible.
    """
    if not target_advantage > 0:
        raise ValueError(f"target advantage must be > 0, got {target_advantage}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    if not 0 < utility_bound < math.inf:
        raise ValueError(f"utility_bound must be positive and finite, got {utility_bound}")
    if target_advantage >= utility_bound:
        return CalibrationResult(math.inf, True, "any epsilon meets the target")
    arg = 2.0 * (1.0 - delta) / (1.0 - target_advantage / utility_bound) - 1.0
    if arg < 1.0:
        return CalibrationResult(
            math.nan, False, "no epsilon >= 0 meets the target at this delta"
        )
    return CalibrationResult(math.log(arg), True)


@dataclass(frozen=True)
class MetricsReport:
    """One experimental cell: estimates, their difference, and the bound."""

    eau: float
    eau_stderr: float
    leau: float
    theoretical_bound: float
    cell: dict = field(default_factory=dict)
    advantage: float = field(init=False)

    def __post_init__(self):
        if self.eau_stderr < 0:
            raise ValueError("stderr must be >= 0")
        object.__setattr__(self, "advantage", self.eau - self.leau)

    def to_row(self) -> dict:
        row = dict(self.cell)
        row.update(
            eau=self.eau,
            eau_stderr=self.eau_stderr,
            leau=self.leau,
            advantage=self.advantage,
            theoretical_bound=self.theoretical_bound,
        )
        return row
