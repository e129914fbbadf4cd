"""Label-DP mechanisms.

Each mechanism consumes a Dataset and produces a MechanismReport holding
the training set it releases (features plus private labels), the
accounted privacy spend, and per-stage diagnostics. The guarantee is
accounted on the released labels; a model trained on them is
post-processing and is left to the caller. `release` runs a mechanism by
name. All randomness flows through explicit seeds, so identical inputs
reproduce identical outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _first_non_distribution
from .models import LogisticHyper, train_logistic
from .rng import substream

BASIC = "basic-composition"
PARALLEL = "parallel-composition"

# Names accepted by `release`.
MECHANISMS = ("rr", "lp2st", "alibi", "pate")


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) guarantee with a note naming the accounting rule."""

    epsilon: float
    delta: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.epsilon < 0 or math.isnan(self.epsilon):
            raise ValueError(f"epsilon must be >= 0 (or inf), got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class MechanismReport:
    """What a mechanism releases: a training set whose labels are private,
    with the privacy spend they carry and diagnostics of the run."""

    released: Dataset
    params: PrivacyParams
    diagnostics: dict = field(default_factory=dict)

    @property
    def labels(self) -> np.ndarray:
        """Read-only view of the released labels."""
        view = self.released.labels.view()
        view.flags.writeable = False
        return view


def account(stage_epsilons, rule: str) -> PrivacyParams:
    """Compose stage epsilons: basic sums, parallel (disjoint data) takes the max.

    Every implemented mechanism is pure epsilon-DP, so delta stays 0.
    """
    eps = [float(e) for e in stage_epsilons]
    if any(e < 0 for e in eps):
        raise ValueError(f"stage epsilons must be >= 0, got {eps}")
    if rule == BASIC:
        total = math.fsum(eps) if all(math.isfinite(e) for e in eps) else math.inf
    elif rule == PARALLEL:
        total = max(eps, default=0.0)
    else:
        raise ValueError(f"unknown accounting rule {rule!r}")
    return PrivacyParams(total if eps else 0.0, 0.0, note=rule)


def keep_probability(epsilon: float, k: int) -> float:
    """Randomized-response keep probability e^eps / (e^eps + k - 1)."""
    if not epsilon >= 0:  # NaN fails >= too
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if math.isinf(epsilon):
        return 1.0
    # Computed as 1 / (1 + (k-1) e^-eps) to avoid overflow at large epsilon.
    return 1.0 / (1.0 + (k - 1) * math.exp(-epsilon))


def randomized_response(labels: np.ndarray, k: int, epsilon: float, seed: int) -> np.ndarray:
    """k-ary randomized response: keep each label with probability
    e^eps / (e^eps + k - 1), otherwise replace it uniformly among the other
    k - 1 classes. The output labels are epsilon-label-DP. The labels must
    lie in [0, k)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    p = keep_probability(epsilon, k)
    rng = substream(seed, "rr")
    keep = rng.random(labels.shape[0]) < p
    # label + offset lies in [1, 2k - 1), so subtracting k where it reaches k
    # is the modulo, at about half its cost.
    flipped = rng.integers(1, k, size=labels.shape[0])
    flipped += labels
    flipped -= k * (flipped >= k)
    return np.where(keep, labels, flipped)


def rr_with_prior(
    labels: np.ndarray,
    prior: np.ndarray,
    top_k: int,
    epsilon: float,
    seed: int,
) -> np.ndarray:
    """Randomized response restricted to each row's top_k classes by prior,
    an (n, k) matrix of per-row label distributions.

    A true label outside its row's top set is first mapped to the
    highest-prior in-set class, then k-ary RR runs over the restricted set
    with keep probability e^eps / (e^eps + top_k - 1).
    """
    prior = np.asarray(prior, dtype=np.float64)
    if prior.ndim != 2:
        raise ValueError(f"prior must be an (n, k) matrix, got shape {prior.shape}")
    bad = _first_non_distribution(prior)
    if bad is not None:
        raise ValueError(f"prior row {bad} is not a probability distribution")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = prior.shape
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels but prior has {n} rows")
    if not 1 <= top_k <= k:
        raise ValueError(f"top_k must be in [1, {k}], got {top_k}")

    # Stable sort on the negated prior: ties resolve to the lowest class index.
    order = np.argsort(-prior, axis=1, kind="stable")
    top = order[:, :top_k]
    in_set = (top == labels[:, None]).any(axis=1)
    mapped = np.where(in_set, labels, top[:, 0])

    rng = substream(seed, "rr-prior")
    keep = rng.random(n) < keep_probability(epsilon, top_k)
    if top_k == 1:
        return mapped.astype(np.int64)
    pos = (top == mapped[:, None]).argmax(axis=1)
    offset = rng.integers(1, top_k, size=n)
    new_pos = (pos + offset) % top_k
    chosen = np.take_along_axis(top, new_pos[:, None], axis=1)[:, 0]
    return np.where(keep, mapped, chosen).astype(np.int64)


def lp_mst(
    train: Dataset,
    epsilon: float,
    top_k: int,
    hyper: LogisticHyper,
    seed: int,
) -> MechanismReport:
    """Two-stage randomized response (LP-2ST).

    Stage 1 applies plain RR to a random half of the rows. A model trained
    on the stage-1 labels supplies a per-row prior for top-k restricted RR
    on the other half, and the release is the union. Each stage spends
    epsilon on disjoint rows, so parallel composition keeps the total at
    epsilon. With two classes and top_k = 2 the prior cannot change a
    released label, so that case trains no stage-1 model.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    k = train.num_classes
    n = len(train)
    perm = substream(seed, "lp-mst-split").permutation(n)
    half = n // 2
    idx1, idx2 = perm[:half], perm[half:]
    if idx1.size == 0 or idx2.size == 0:
        raise ValueError(f"cannot form two non-empty stages from n={n}")

    labels1, labels2 = train.labels[idx1], train.labels[idx2]
    private1 = randomized_response(labels1, k, epsilon, seed)
    if k == top_k == 2:
        # With two classes and top_k = 2 the prior picks nothing: every label
        # is in its row's top set, a kept label is the label, a flipped one is
        # the other class, and the random draws do not read the prior. So no
        # stage-1 model is trained, and a constant prior gives its release.
        prior = np.full((idx2.size, 2), 0.5)
    else:
        model1 = train_logistic(Dataset(train.features[idx1], private1, k), hyper, seed)
        prior = model1.predict_proba(train.features[idx2])
    private2 = rr_with_prior(labels2, prior, top_k, epsilon, seed)

    private = np.empty(n, dtype=np.int64)
    private[idx1] = private1
    private[idx2] = private2
    diagnostics = {
        "mechanism": "lp-2st",
        "stage_sizes": [int(idx1.size), int(idx2.size)],
        "flip_rates": [
            float(np.mean(private1 != labels1)),
            float(np.mean(private2 != labels2)),
        ],
    }
    return MechanismReport(
        train.with_labels(private), account([epsilon, epsilon], PARALLEL), diagnostics
    )


def alibi(train: Dataset, epsilon: float, seed: int) -> MechanismReport:
    """Laplace noise on one-hot labels followed by MAP denoising.

    A one-hot label change moves the encoding by 2 in L1, so coordinate-wise
    Laplace noise of scale 2/eps makes the noisy encodings epsilon-label-DP;
    the denoised labels follow by post-processing. Under a uniform prior the
    MAP label is the argmax of the noisy vector. ALIBI trains nothing.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    k = train.num_classes
    onehot = np.zeros((len(train), k))
    onehot[np.arange(len(train)), train.labels] = 1.0
    scale = 0.0 if math.isinf(epsilon) else 2.0 / epsilon
    noisy = onehot
    if scale > 0:
        noisy = onehot + substream(seed, "alibi").laplace(0.0, scale, size=onehot.shape)
    denoised = np.argmax(noisy, axis=1).astype(np.int64)
    diagnostics = {
        "mechanism": "alibi",
        "noise_scale": scale,
        "agreement_rate": float(np.mean(denoised == train.labels)),
    }
    return MechanismReport(train.with_labels(denoised), account([epsilon], BASIC), diagnostics)


def aggregate_votes(histogram: np.ndarray, epsilon_per_query: float, rng) -> int:
    """One noisy-vote aggregation step: Laplace(2/eps) on the histogram,
    clamp at zero, renormalize, sample a label from the result."""
    hist = np.asarray(histogram, dtype=np.float64)
    if not math.isinf(epsilon_per_query):
        hist = hist + rng.laplace(0.0, 2.0 / epsilon_per_query, size=hist.shape)
    hist = np.clip(hist, 0.0, None)
    total = hist.sum()
    # An infinite total (noise of scale 2/eps beyond the float range) says
    # as little about the votes as a zero one: both sample uniformly.
    probs = hist / total if 0 < total < math.inf else np.full(hist.shape, 1.0 / hist.size)
    u = rng.random()
    return int(min(np.searchsorted(np.cumsum(probs), u, side="right"), hist.size - 1))


def pate(
    train: Dataset,
    num_teachers: int,
    num_queries: int,
    epsilon_per_query: float,
    hyper: LogisticHyper,
    seed: int,
) -> MechanismReport:
    """Teacher ensemble with noisy sampled voting.

    Teachers train on disjoint label shards. For each student query every
    teacher samples a label from its predictive distribution, the vote
    histogram gets Laplace(2/eps_query) noise, is clamped and renormalized,
    and the student label is sampled from it. The release is the query rows
    with their answered labels. Accounting is data-independent basic
    composition: total epsilon = num_queries * epsilon_per_query.
    """
    if num_teachers < 2:
        raise ValueError(f"num_teachers must be >= 2, got {num_teachers}")
    if not 1 <= num_queries <= len(train):
        raise ValueError(f"num_queries must be in [1, {len(train)}], got {num_queries}")
    if not epsilon_per_query > 0:
        raise ValueError(f"epsilon_per_query must be > 0, got {epsilon_per_query}")
    if len(train) < num_teachers:
        raise ValueError(f"cannot shard n={len(train)} rows into {num_teachers} teachers")

    k = train.num_classes
    shard_perm = substream(seed, "pate-shards").permutation(len(train))
    shards = np.array_split(shard_perm, num_teachers)
    teachers = [
        train_logistic(train.subset(shard), hyper, seed) for shard in shards
    ]

    query_idx = substream(seed, "pate-queries").permutation(len(train))[:num_queries]
    query_x = train.features[query_idx]

    vote_rng = substream(seed, "pate-votes")
    votes = np.zeros((num_queries, k), dtype=np.float64)
    for teacher in teachers:
        probs = teacher.predict_proba(query_x)
        cdf = np.cumsum(probs, axis=1)
        u = vote_rng.random(num_queries)
        sampled = np.minimum((cdf < u[:, None]).sum(axis=1), k - 1)
        votes[np.arange(num_queries), sampled] += 1.0

    agg_rng = substream(seed, "pate-aggregate")
    student_labels = np.array(
        [aggregate_votes(votes[i], epsilon_per_query, agg_rng) for i in range(num_queries)],
        dtype=np.int64,
    )
    spent = account([epsilon_per_query] * num_queries, BASIC)
    diagnostics = {
        "mechanism": "pate",
        "num_teachers": num_teachers,
        "shard_sizes": [int(s.size) for s in shards],
        "query_count": num_queries,
    }
    return MechanismReport(Dataset(query_x, student_labels, k), spent, diagnostics)


def release(
    name: str,
    train: Dataset,
    epsilon: float,
    hyper: LogisticHyper,
    seed: int,
    top_k: int = 2,
    teachers: int = 5,
    queries: int = 50,
) -> MechanismReport:
    """Run the mechanism called `name` at a total budget of `epsilon`.

    "rr" is plain k-ary randomized response, which also accepts epsilon 0;
    "lp2st" is lp_mst with `top_k`; "alibi" is alibi; "pate" asks
    min(queries, n) queries of `teachers` teachers, splitting epsilon evenly
    over them. `hyper` trains the models internal to a mechanism (LP-2ST's
    stage-1 model, PATE's teachers).
    """
    if train.labels.ndim != 1:
        raise ValueError(
            f"release takes one label vector, got a stack of {train.labels.shape[0]}"
        )
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}")
    if name != "rr" and not epsilon > 0:
        raise ValueError(f"{name} needs epsilon > 0, got {epsilon}")
    # Mechanisms are looked up as module globals at call time, so a caller
    # that rebinds them (tracing, tests) sees every call.
    if name == "rr":
        private = randomized_response(train.labels, train.num_classes, epsilon, seed)
        diagnostics = {"mechanism": "rr", "flip_rate": float(np.mean(private != train.labels))}
        return MechanismReport(train.with_labels(private), account([epsilon], BASIC), diagnostics)
    if name == "lp2st":
        return lp_mst(train, epsilon, top_k, hyper, seed)
    if name == "alibi":
        return alibi(train, epsilon, seed)
    queries = min(queries, len(train))
    return pate(train, teachers, queries, epsilon / queries, hyper, seed)
