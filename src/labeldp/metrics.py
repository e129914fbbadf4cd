"""Attack utility functions, EAU / L-EAU / advantage estimators, and the
closed-form theoretical bounds on attack advantage.

All bounds share the factor 1 - (2 / (1 + e^eps)) * (1 - delta), which is 0
at eps = delta = 0 and tends to 1 as eps grows. Each bound is a function of
(epsilon, delta) and its own scalar term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import _first_non_distribution, sample_categorical_rows
from .mechanisms import keep_probability
from .models import Model
from .rng import derive_seed


def probability_vector(marginal) -> np.ndarray:
    """marginal as a float64 vector; raises ValueError unless it is finite,
    non-negative and sums to 1 (within 1e-9)."""
    p = np.asarray(marginal, dtype=np.float64)
    if p.ndim != 1 or _first_non_distribution(p[None, :]) is not None:
        raise ValueError(f"marginal must be a probability vector, got {p}")
    return p


# A marginal's weight 1 / (2p) is finite exactly when p is above this, the
# largest p whose weight overflows (about 2.78e-309).
_MIN_WEIGHTED_MARGINAL = 0.5 / sys.float_info.max


@dataclass(frozen=True)
class UtilitySpec:
    """Attack utility u(yhat, y) = 1{yhat == y} * w_y in [0, B], B = max_y w_y.
    weights is None for zero-one (w_y = 1, B = 1); weighted(p) gives
    w_y = 1 / (2 p_y)."""

    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.ndim != 1 or not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError(f"weights must be a finite, strictly positive vector, got {w}")
            object.__setattr__(self, "weights", w)

    @staticmethod
    def zero_one() -> "UtilitySpec":
        return UtilitySpec()

    @staticmethod
    def weighted(marginal) -> "UtilitySpec":
        p = probability_vector(marginal)
        if not np.all(p > _MIN_WEIGHTED_MARGINAL):
            raise ValueError(
                "weighted utility needs strictly positive marginals, each above "
                f"{_MIN_WEIGHTED_MARGINAL:.4g} so that its weight 1/(2p) is finite, got {p}"
            )
        return UtilitySpec(1.0 / (2.0 * p))

    @property
    def bound(self) -> float:
        return 1.0 if self.weights is None else float(np.max(self.weights))


def utility(spec: UtilitySpec, inferred, true) -> np.ndarray:
    """Per-pair utility values (vectorized)."""
    inferred = np.asarray(inferred)
    true = np.asarray(true)
    if inferred.shape != true.shape:
        raise ValueError(f"shape mismatch: {inferred.shape} vs {true.shape}")
    hits = (inferred == true).astype(np.float64)
    return hits if spec.weights is None else hits * spec.weights[true]


def expected_utilities(probs: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """E[u(yhat, y)] per row and candidate yhat, for y ~ the given rows:
    P(yhat | row) * w_yhat. For zero-one this is probs itself, not a copy,
    so callers must not write into the result."""
    probs = np.asarray(probs, dtype=np.float64)
    return probs if spec.weights is None else probs * spec.weights


def best_response(probs: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """Per-row expected-utility-maximizing label; ties to the lowest index.

    Gives exactly np.argmax's labels, NaN rows included (the first NaN
    wins). Two classes compare their columns instead, since np.argmax
    runs one short reduction per row: class 1 where column 0 is not NaN
    and not >= column 1."""
    scores = expected_utilities(probs, spec)
    if scores.shape[1] == 2:
        first, second = scores[:, 0], scores[:, 1]
        return (~(first >= second) & (first == first)).astype(np.int64)
    return np.argmax(scores, axis=1).astype(np.int64)


def eau_empirical(inferred, true_labels, spec: UtilitySpec) -> float:
    """Mean per-row utility of one realized label draw."""
    inferred = np.asarray(inferred)
    true_labels = np.asarray(true_labels)
    if inferred.shape[0] != true_labels.shape[0]:
        raise ValueError(
            f"length mismatch: {inferred.shape[0]} inferred vs {true_labels.shape[0]} labels"
        )
    return float(utility(spec, inferred, true_labels).mean())


# eau_monte_carlo hands the pipeline blocks of B = MC_BLOCK_ENTRIES // (n * k)
# trials (at least 1) at a time, so a stacked fit's class-major (k, B, n)
# probability arrays hold at most this many entries (1 MiB of float64):
# B = 13 for the simulation's n = 100, k = 100 cells and 655 for its k = 2
# cells.
MC_BLOCK_ENTRIES = 1 << 17


def eau_monte_carlo(
    probs: np.ndarray,
    features: np.ndarray,
    pipeline: Callable[[np.ndarray, np.ndarray, list], Sequence[Model]],
    spec: UtilitySpec,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo EAU of the simple prediction attack (attacks.spa) with the
    feature matrix held fixed.

    probs is the (n, k) matrix of P(y | x) at the n rows of features. Per
    trial: draw each row's label from its row of probs, run the training
    pipeline, run spa on the released model, and record the mean row
    utility. Returns (mean, stderr) over trials with the unbiased
    sample standard deviation; trials accumulate in index order so the
    result is schedule-independent.

    The pipeline runs on blocks of consecutive trials:
    pipeline(features, labels, seeds) gets the block's (B, n) label draws
    and its B pipeline seeds and returns B models, model b trained on
    labels[b] with seeds[b]. Trial t's labels and seed come from substreams
    keyed by t alone, so the block size changes no draw.
    """
    from .attacks import spa  # local import to avoid a cycle

    if not trials >= 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    features = np.asarray(features, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != features.shape[0]:
        raise ValueError(f"probs must have one row per feature row, got shape {probs.shape} "
                         f"for {features.shape[0]} rows")
    block = max(1, MC_BLOCK_ENTRIES // probs.size)
    values = np.empty(trials)
    for start in range(0, trials, block):
        block_trials = range(start, min(start + block, trials))
        labels = np.stack([
            sample_categorical_rows(probs, derive_seed(seed, "mc-labels", t))
            for t in block_trials
        ])
        seeds = [derive_seed(seed, "mc-pipeline", t) for t in block_trials]
        models = pipeline(features, labels, seeds)
        if len(models) != len(block_trials):
            raise ValueError(
                f"pipeline returned {len(models)} models for {len(block_trials)} label vectors"
            )
        for t, trial_labels, model in zip(block_trials, labels, models):
            values[t] = eau_empirical(spa(model, features, spec), trial_labels, spec)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def leau_exact(probs: np.ndarray, spec: UtilitySpec) -> float:
    """Label-independent EAU computed exactly from the (n, k) matrix of
    P(y | x_i): the mean over rows of max_y E[u(y, y_i) | x_i]."""
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


def _check_privacy(epsilon: float, delta: float) -> None:
    if not epsilon >= 0:  # NaN fails >= too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")


def bound_factor(epsilon: float, delta: float) -> float:
    """The privacy factor 1 - (2 / (1 + e^eps)) (1 - delta). It is also the
    bound on the train-test utility gap of a private learner with u in [0, 1]."""
    _check_privacy(epsilon, delta)
    # e^709 is finite and already makes the factor exactly 1.0, so clipping
    # epsilon there changes no result and keeps larger or infinite budgets
    # from overflowing.
    return 1.0 - (2.0 / (1.0 + math.exp(min(epsilon, 709.0)))) * (1.0 - delta)


def advantage_bound(epsilon: float, delta: float, exp_sup_utility: float) -> float:
    """Distribution-dependent advantage bound: factor times the expected
    supremum utility (1/n) sum_i E[sup_y u(y, y_i) | x_i]. In the
    feature-unaware threat model the same factor applies to the unconditional
    expected supremum utility, so this is that bound too (the CLI's
    weak-threat kind)."""
    if not exp_sup_utility >= 0:
        raise ValueError(f"exp_sup_utility must be >= 0, got {exp_sup_utility}")
    if math.isinf(exp_sup_utility):
        raise ValueError("exp_sup_utility must be finite, got inf")
    return bound_factor(epsilon, delta) * exp_sup_utility


def universal_bound(epsilon: float, delta: float, utility_bound: float) -> float:
    """Distribution-free advantage bound: factor times the utility bound B."""
    if not 0 < utility_bound < math.inf:
        raise ValueError(f"utility_bound must be positive and finite, got {utility_bound}")
    return bound_factor(epsilon, delta) * utility_bound


def reconstruction_bound(epsilon: float, delta: float, domain_size: float) -> float:
    """Excess-advantage bound for reconstruction over a domain of the given
    size: 1 - e^-eps + delta * |Z|."""
    if not 0 < domain_size < math.inf:
        raise ValueError(f"domain_size must be positive and finite, got {domain_size}")
    _check_privacy(epsilon, delta)
    return 1.0 - math.exp(-epsilon) + delta * domain_size


def hoeffding_lower_bound(epsilon: float, n: int) -> float:
    """Concentration lower bound on the RR-majority construction's SPA EAU:
    1 - 2 exp(-(e^eps/(e^eps + 1) - 1/2)^2 n), clamped below at 0."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    keep = keep_probability(epsilon, 2)
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
