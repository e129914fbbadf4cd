"""Classifiers: trainable multinomial logistic regression plus the analytic
baselines (Bayes, constant, per-feature majority vote) used by the attack
and bound studies.

Every model exposes predict_proba(X) -> (n, k) rows summing to 1 and
predict(X) -> argmax labels with ties broken to the lowest class index.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, _atomic_write, _first_non_distribution

PROB_CLAMP = 1e-15
_LOSS_CAP = -np.log(PROB_CLAMP)
# Design entries (rows times d+1 columns) LogisticModel.predict_proba builds
# at a time: 1 MiB of float64, as metrics.MC_BLOCK_ENTRIES bounds a block.
_SCORE_BLOCK_ENTRIES = 2**17


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


# (getter, setter) names of the thread count: numpy's wheel, then plain OpenBLAS.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_control():
    """The (get, set) thread-count functions of the OpenBLAS loaded in this
    process, found once through /proc/self/maps; None where there is no
    such library or symbol (MKL, Accelerate, a host without /proc)."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            libs = sorted({os.fsdecode(line.split()[-1]) for line in fh
                           if b"openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count
    on exit, also when the block raises. The count is process-global, so
    every thread of the process runs on one BLAS thread meanwhile. Without
    a known OpenBLAS this does nothing."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


class Model:
    kind: str = "abstract"
    num_classes: int
    # Feature columns predict_proba expects, or None if it takes any width.
    num_features: int | None = None

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, features: np.ndarray) -> np.ndarray:
        # np.argmax returns the first maximum, i.e. the lowest class index.
        return np.argmax(self.predict_proba(features), axis=1).astype(np.int64)


@dataclass(frozen=True)
class LogisticHyper:
    """Hyperparameters for full-batch gradient-descent logistic regression.

    learning_rate None means 0.9 x the stability threshold of the training
    design matrix (the largest step size with guaranteed non-increasing
    loss).
    """

    learning_rate: float | None = None
    iterations: int = 300

    def __post_init__(self):
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not self.iterations >= 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


def _design(features: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """The (n, d+1) design [(features - mu) / sd, 1], built in one array.
    Where a deviation features - mu leaves float64 (cells near 1e308 on
    both sides of the mean), the block is formed as features / sd - mu / sd."""
    n, d = features.shape
    design = np.empty((n, d + 1))
    scaled = design[:, :d]
    try:
        with np.errstate(over="raise"):
            np.subtract(features, mu, out=scaled)
    except FloatingPointError:
        np.divide(features, sd, out=scaled)
        scaled -= mu / sd
    else:
        scaled /= sd
    design[:, d] = 1.0
    return design


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of (n, k) logits, computed in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _true_positions(labels: np.ndarray) -> np.ndarray:
    """The flat position of each (trial, row)'s true class in a class-major
    (k, T, n) array, from (T, n) labels: _softmax_loss's targets."""
    trials, n = labels.shape
    return labels * (trials * n) + np.arange(trials * n).reshape(trials, n)


def _softmax_loss(
    logits: np.ndarray, true: np.ndarray, scale: float | None, shared: int = 0
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cross-entropy of T label vectors from their class-major (k, T, n)
    logits, and (when scale is given) the residual probs - onehot times
    scale.

    true holds the (T, n) flat positions of the true classes in the logits
    (see _true_positions). A row's loss is its log-sum-exp minus its true
    logit, log(total) - z_true after the shift by the row's max, capped at
    _LOSS_CAP: -log p_true with p_true clamped below at PROB_CLAMP. Returns
    the (T,) per-trial sums. One pass over the class axis, in place in
    `logits`: its max and normalizer run over k contiguous (T, n) planes,
    and one multiply of those planes by the (T, n) plane scale / total
    forms the residual, whose true-class entries are then lowered by scale.
    `shared` counts the extra classes the last class row stands for, none
    of which is a label: they add shared times its exp to the normalizer.
    """
    logits -= logits.max(axis=0)
    flat = logits.reshape(-1)
    z_true = flat[true]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=0)
    if shared:
        total += shared * probs[-1]
    loss = np.minimum(np.log(total) - z_true, _LOSS_CAP).sum(axis=1)
    if scale is None:
        return loss, None
    np.divide(scale, total, out=total)
    probs *= total
    flat[true] -= scale  # (probs - onehot) * scale, in place
    return loss, probs


def _binary_loss(
    logits: np.ndarray, signs: np.ndarray, with_resid: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """_softmax_loss for two classes at W_t = [-w_t, w_t], from the (T, n)
    logits x.w_t.

    With (T, n) label signs s = +-1, p(y | x) = sigmoid(t) for t = 2 s x.w_t.
    The residual returned is column 1 of each trial's full residual (column 0
    is its negative), so the gradient it gives is column 1 of the full one.
    `logits` is overwritten: t is formed in it (both factors are exact).
    """
    t = logits
    t *= signs
    t *= 2.0
    # One exp serves both halves: -log sigmoid(t) = log1p(e) - min(t, 0) and
    # sigmoid(-t) = (1 if t < 0 else e) / (1 + e), with e = exp(-|t|) <= 1.
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    buf = np.log1p(e)
    np.minimum(t, 0.0, out=t)  # still < 0 exactly where t was
    buf -= t
    np.minimum(buf, _LOSS_CAP, out=buf)
    loss = buf.sum(axis=1)
    if not with_resid:
        return loss, None
    # p(1 | x) - y = -s * sigmoid(-t), formed in the loss buffer. As e <= 1,
    # max(e, t < 0) is 1 where t < 0 and e elsewhere.
    np.add(e, 1.0, out=buf)
    np.maximum(e, t < 0, out=e)
    np.divide(e, buf, out=buf)
    np.negative(buf, out=buf)
    buf *= signs
    return loss, buf


def _transpose_product(x: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """stack @ x over the stack's last axis, in one product of all its rows:
    (T, n) -> (T, m) or class-major (k, T, n) -> (k, T, m). x is the design
    for the step and the transposed design or Gram matrix for the logits."""
    return (stack.reshape(-1, stack.shape[-1]) @ x).reshape(*stack.shape[:-1], -1)


def _objective(
    params: np.ndarray,
    design: np.ndarray,
    gram: np.ndarray | None,
    targets: np.ndarray,
    lr: float,
    with_step: bool,
    shared: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The (T,) mean cross-entropies of T stacked fits over one design, and
    (when asked) the step of learning rate lr: params -= step is one
    gradient-descent iteration.

    params holds each trial's weights W_t class-major: as (k, T, d+1), row
    [c, t] the weight column of class c, for the softmax form, whose targets
    are the true classes' positions (see _true_positions); or, for two
    classes, as the (T, d+1) rows w_t of W_t = [-w_t, w_t], whose targets
    are label signs. With gram = design @ design.T, params instead holds
    coefficients A_t of W_t = design.T @ A_t, as (k, T, n) or (T, n). Then
    the logits are gram @ A_t, and the weight step lr * design.T @ R_t / n,
    R_t the residual, is design.T @ (the coefficient step lr * R_t / n).

    The softmax form folds lr / n into its residual (see _softmax_loss), so
    one multiply of the (k, T, n) probabilities forms the step. The binary
    form divides its step by n and then multiplies it by lr.

    In the softmax form the last class row may stand for `shared` more
    classes than its own, as train_logistic's collapsed fits use it (see
    _collapse_absent): they count in the normalizer, and the row's step is
    that of each of them.
    """
    n = design.shape[0]
    binary = params.ndim == 2
    logits = _transpose_product((design if gram is None else gram).T, params)
    if binary:
        loss, resid = _binary_loss(logits, targets, with_step)
    else:
        loss, resid = _softmax_loss(logits, targets, lr / n if with_step else None, shared)
    loss /= n
    if not with_step:
        return loss, None
    step = _transpose_product(design, resid) if gram is None else resid
    if binary:
        step /= n
        step *= lr
    return loss, step


def _collapse_absent(labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A (T, n) stack over k classes as a narrower problem in which every
    class absent from a trial shares one column: (targets, columns, shared).

    With j_t distinct classes in trial t, the problem has kc = max_t j_t + 1
    columns. targets holds each label's rank among its trial's present
    classes (in class order); in trial t, columns j_t .. kc-2 carry one
    absent class each and the last column the other shared + 1 = k - kc + 1.
    columns[t, c] is the column that class c of trial t takes its weights
    from: its rank if present, the last column if absent. Where kc >= k
    nothing narrows, and (labels, identity columns, 0) comes back.

    This is exact: two classes absent from trial t have equal weight columns
    at W = 0; equal columns give equal logits and probabilities, and with
    no one-hot entry both gradient columns are design.T @ p_c / n, so the
    columns stay equal at every step, in weight and in coefficient space.
    The last column counts k - kc + 1 times in the softmax normalizer
    (_objective's `shared`), and every absent class of a model takes its
    weights, so their columns are equal bit for bit and predict's ties
    still go to the lowest index.
    """
    trials = labels.shape[0]
    seen = np.zeros((trials, k), dtype=bool)
    seen[np.arange(trials)[:, None], labels] = True
    width = int(seen.sum(axis=1).max()) + 1
    if width >= k:
        return labels, np.broadcast_to(np.arange(k), (trials, k)), 0
    rank = np.cumsum(seen, axis=1)
    rank -= 1
    targets = np.take_along_axis(rank, labels, axis=1)
    return targets, np.where(seen, rank, width - 1), k - width


def stability_threshold(train: Dataset) -> float:
    """Largest learning rate with guaranteed non-increasing loss.

    The softmax cross-entropy Hessian is bounded by X^T X / (2n), so the
    objective is L-smooth with L = smax^2 / (2n) and gradient descent
    descends monotonically for any step below 2 / L. smax^2 is the largest
    eigenvalue of the (d+1) x (d+1) Gram matrix X^T X.
    """
    design = _design(train.features, *_fit_scaler(train.features))
    smax_sq = np.linalg.eigvalsh(design.T @ design)[-1]
    lipschitz = smax_sq / (2.0 * design.shape[0])
    return 2.0 / lipschitz


def _fit_scaler(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation; a constant column keeps sd 1.
    A column whose squared deviations overflow gets the sd of the column
    divided by its largest magnitude, times that magnitude; where its sum
    overflows too, its mean is formed the same way."""
    with np.errstate(over="ignore"):
        mu = features.mean(axis=0)
        sd = features.std(axis=0)
    huge = ~np.isfinite(sd)
    if huge.any():
        columns = features[:, huge]
        scale = np.abs(columns).max(axis=0)
        columns = columns / scale
        mu[huge] = np.where(np.isfinite(mu[huge]), mu[huge], scale * columns.mean(axis=0))
        sd[huge] = scale * columns.std(axis=0)
    sd[sd == 0] = 1.0
    return mu, sd


class LogisticModel(Model):
    kind = "logistic"

    def __init__(self, weights, mu, sd, num_classes, seed=None, loss_history=None):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sd = np.asarray(sd, dtype=np.float64)
        self.num_classes = int(num_classes)
        self.seed = seed
        self.loss_history = loss_history if loss_history is not None else []

    @property
    def num_features(self) -> int:
        return self.mu.size

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities of each row. The logits are filled into the
        (n, k) output a block of rows at a time, each block's design built
        and multiplied into its rows, then one softmax runs in place. Up to
        one block this is the one-shot product's arithmetic bit for bit;
        beyond it a block's product may round differently (tested to move
        no probability by more than 1e-13)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.mu.size:
            raise ValueError(
                f"logistic model was trained on {self.mu.size} feature columns, "
                f"query has {features.shape[1]}"
            )
        n = features.shape[0]
        rows = max(1, _SCORE_BLOCK_ENTRIES // (self.mu.size + 1))
        logits = np.empty((n, self.num_classes))
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            np.matmul(_design(features[block], self.mu, self.sd), self.weights,
                      out=logits[block])
        return _softmax(logits)


def train_logistic(
    train: Dataset, hyper: LogisticHyper, seed: int | Sequence[int] = 0
) -> LogisticModel | list[LogisticModel]:
    """Fit multinomial logistic regression by full-batch gradient descent
    from zero weights, on features standardized by _fit_scaler, at
    hyper.learning_rate or else 0.9 x stability_threshold(train).

    Weights start at zero, so a fit is deterministic; `seed` is recorded on
    the model for provenance only.

    A Dataset whose labels are a (T, n) stack over its one feature matrix
    gives a list of T models, trial t's being the fit of labels[t] alone
    (weights within 1e-12; bit for bit when T = 1), and `seed` may then be
    one seed per trial.

    The shape of the data alone, with no option, picks how the descent
    runs: two classes track one column w of W = [-w, w]; with fewer rows n
    than twice the design's d+1 columns, the coefficients A of
    W = design.T @ A are descended on (see _objective); for k > 2 the
    classes absent from a trial share one column (see _collapse_absent).
    On every path the tests hold the fit to textbook descent on the full
    (d+1, k) weight matrix: weights within 1e-12 relative to its largest
    weight, every loss-history entry within 1e-13 of the first loss, and
    the same argmax on every training row.

    Raises TrainingDivergedError("non-finite loss in trial t at iteration
    i", without the trial for a single label vector) when a loss turns
    non-finite.
    """
    stacked = train.labels.ndim == 2
    labels = train.labels if stacked else train.labels[None, :]
    trials, k = labels.shape[0], train.num_classes
    seeds = list(seed) if stacked and np.ndim(seed) else [seed] * trials
    if len(seeds) != trials:
        raise ValueError(f"{len(seeds)} seeds for a stack of {trials} label vectors")
    mu, sd = _fit_scaler(train.features)
    design = _design(train.features, mu, sd)

    lr = hyper.learning_rate
    if lr is None:
        lr = 0.9 * stability_threshold(train)

    # Descent from W = 0 never leaves the row space of the design, so with
    # fewer rows than twice its columns the loop carries the coefficients A
    # of W = design.T @ A: one (n, n) product per step instead of two
    # (n, d+1) ones (see _objective).
    n, cols = design.shape
    gram = design @ design.T if n < 2 * cols else None
    size = cols if gram is None else n
    # Descent from zero keeps W[:, 0] == -W[:, 1] for two classes, so the
    # binary form tracks the single column w = W[:, 1] of each trial.
    shared = 0
    if k == 2:
        targets, params = 2.0 * labels - 1.0, np.zeros((trials, size))
    else:
        targets, columns, shared = _collapse_absent(labels, k)
        targets, params = _true_positions(targets), np.zeros((k - shared, trials, size))
    history = []
    for it in range(hyper.iterations + 1):
        last = it == hyper.iterations
        loss, step = _objective(params, design, gram, targets, lr, not last, shared)
        finite = np.isfinite(loss)
        if not finite.all():
            trial = f" in trial {int(np.argmin(finite))}" if stacked else ""
            raise TrainingDivergedError(f"non-finite loss{trial} at iteration {it}")
        history.append(loss)
        if last:
            break
        params -= step
    weights = params if gram is None else _transpose_product(design, params)
    if k == 2:
        fitted = [np.column_stack([-w, w]) for w in weights]
    else:
        fitted = [np.take(weights[:, t].T, columns[t], axis=1) for t in range(trials)]
    histories = np.array(history).T.tolist()
    models = [
        LogisticModel(w, mu, sd, k, seed=s, loss_history=h)
        for w, s, h in zip(fitted, seeds, histories)
    ]
    return models if stacked else models[0]


class BayesModel(Model):
    """Predicts with the exact P(y | x) of the data source. posterior maps an
    (n, d) feature matrix to the (n, num_classes) matrix of P(y | x)."""

    kind = "bayes"

    def __init__(self, posterior: Callable[[np.ndarray], np.ndarray], num_classes: int):
        self.posterior = posterior
        self.num_classes = num_classes

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.posterior(features)


class ConstantModel(Model):
    kind = "constant"

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probs must be a vector over at least 2 classes")
        if _first_non_distribution(probs[None, :]) is not None:
            raise ValueError(f"probs must be a distribution, got {probs}")
        self.probs = probs
        self.num_classes = probs.size

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(features).shape[0]
        return np.tile(self.probs, (n, 1))


def _row_words(*blocks: np.ndarray) -> np.ndarray:
    """The rows of 2-D float64 arrays, stacked, as native uint64 words: each
    cell's bytes after + 0.0 (-0.0 becomes 0.0) read big-endian, so comparing
    two rows' words column by column orders them as memcmp orders their bytes."""
    return np.concatenate([(block + 0.0).view(">u8") for block in blocks], dtype=np.uint64)


def _rank_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an (n, d) word array in one stable np.lexsort.
    Returns, for each distinct row in sorted order, the index of its first
    occurrence, and for each row the rank of its distinct row."""
    n, d = words.shape
    order = np.lexsort(words.T[::-1]) if d else np.arange(n)
    ranked = np.take(words, order, axis=0)
    first = np.ones(n, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    del ranked  # freed before the two rank arrays are allocated
    rank = np.cumsum(first)
    rank -= 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank
    return order[first], inverse


class MajorityTableModel(Model):
    """Majority training label per distinct feature row, uniform elsewhere.

    rows holds the distinct training rows after + 0.0 and labels the majority
    label of each. A query is looked up by ranking the table's rows and the
    query rows together on their integer words (see _rank_rows), so it
    matches a row with its bytes after + 0.0; a NaN matches only its own bits.
    A model from majority_table also keeps its training rows and each one's
    table entry, so a query equal to those rows costs no ranking.
    """

    kind = "majority"

    def __init__(self, rows: np.ndarray, labels: np.ndarray, num_classes: int):
        self.rows = np.asarray(rows, dtype=np.float64) + 0.0
        self.labels = labels
        self.num_classes = num_classes
        self.num_features = self.rows.shape[1]
        # (features + 0.0, inverse) of the fit, set by majority_table.
        self._train = None
        # Output rows: one-hot per table entry, then a uniform row for misses.
        self._proba = np.vstack(
            [np.eye(num_classes)[labels], np.full((1, num_classes), 1.0 / num_classes)]
        )

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.num_features:
            raise ValueError(
                f"majority table was built on {self.num_features} feature columns, "
                f"query has {features.shape[1]}"
            )
        if self._train is not None and np.array_equal(features, self._train[0]):
            # Equal values have equal words after + 0.0 and NaN is never
            # equal, so the fit's ranking is the ranking of this query.
            return np.take(self._proba, self._train[1], axis=0)
        size = self.rows.shape[0]
        firsts, inverse = _rank_rows(_row_words(self.rows, features))
        # The table's rows are distinct and come first, and the sort is
        # stable, so a query equal to table row i shares its rank with it and
        # i is that rank's first occurrence; any other first index is >= size.
        entry = firsts[inverse[size:]]
        np.minimum(entry, size, out=entry)
        return np.take(self._proba, entry, axis=0)


def majority_table(train: Dataset) -> MajorityTableModel | list[MajorityTableModel]:
    """Memorize the majority label of each exact feature row; ties go to
    the lowest class index. The distinct rows come from one integer sort
    (see _rank_rows).

    A (T, n) label stack is fit vector by vector over one ranking of the
    rows: the result is the list of the T models, in stack order, each equal
    to the model of its vector alone. The models share a copy of the
    training rows and their ranking, which predict_proba reuses for a query
    equal to those rows.
    """
    k = train.num_classes
    firsts, inverse = _rank_rows(_row_words(train.features))
    rows = train.features[firsts]
    # A copy, so that changing the caller's array cannot leave a stale answer.
    fit = (train.features + 0.0, inverse)
    offsets = inverse * k
    stacked = train.labels.ndim == 2
    models = []
    for labels in train.labels if stacked else [train.labels]:
        votes = np.bincount(offsets + labels, minlength=firsts.size * k)
        # argmax returns the first maximum, i.e. the lowest class index.
        model = MajorityTableModel(rows, votes.reshape(firsts.size, k).argmax(axis=1), k)
        model._train = fit
        models.append(model)
    return models if stacked else models[0]


def log_loss(model: Model, dataset: Dataset) -> float:
    """Mean negative log-probability of the true labels, clamped to
    [1e-15, 1 - 1e-15] before the log."""
    probs = model.predict_proba(dataset.features)
    picked = probs[np.arange(len(dataset)), dataset.labels]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-np.log(picked)))


def save_model(model: Model, path: str) -> None:
    """Plain-text key-value dump: kind tag, shapes, row-major weights.

    Supported kinds: logistic, constant. Floats are written with repr so
    the round trip is bit-exact.
    """
    lines = [f"kind {model.kind}", f"classes {model.num_classes}"]
    if isinstance(model, LogisticModel):
        d = model.mu.size
        lines.append(f"features {d}")
        lines.append("mu " + " ".join(repr(float(v)) for v in model.mu))
        lines.append("sd " + " ".join(repr(float(v)) for v in model.sd))
        lines.append("weights " + " ".join(repr(float(v)) for v in model.weights.ravel()))
    elif isinstance(model, ConstantModel):
        lines.append("probs " + " ".join(repr(float(v)) for v in model.probs))
    else:
        raise ValueError(f"cannot serialize model kind {model.kind!r}")
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> Model:
    """Read a model written by save_model. A missing, repeated, non-numeric,
    non-finite or inconsistent field raises ValueError naming the path and
    the field."""
    fields: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition(" ")
                if key in fields:
                    raise ValueError(f"{path}: field {key!r} appears more than once")
                fields[key] = value
    kind = fields.get("kind")
    if kind not in ("logistic", "constant"):
        raise ValueError(f"unknown model kind {kind!r} in {path}")

    def numbers(key: str, parse) -> list:
        if key not in fields:
            raise ValueError(f"{path}: {kind} model has no {key!r} field")
        try:
            return [parse(v) for v in fields[key].split()]
        except ValueError:
            raise ValueError(
                f"{path}: field {key!r} holds {fields[key]!r}, not {parse.__name__} values"
            ) from None

    def count(key: str, least: int) -> int:
        values = numbers(key, int)
        if len(values) != 1 or values[0] < least:
            raise ValueError(f"{path}: field {key!r} must be one integer >= {least}")
        return values[0]

    def floats(key: str, size: int, expected: str) -> np.ndarray:
        values = np.array(numbers(key, float), dtype=np.float64)
        if values.size != size:
            raise ValueError(
                f"{path}: field {key!r} has {values.size} values, expected {size} ({expected})"
            )
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: field {key!r} holds a non-finite value")
        return values

    k = count("classes", 2)
    if kind == "logistic":
        d = count("features", 0)
        mu = floats("mu", d, "one per feature")
        sd = floats("sd", d, "one per feature")
        if np.any(sd <= 0):
            raise ValueError(f"{path}: field 'sd' holds a value <= 0")
        weights = floats("weights", (d + 1) * k, f"{d + 1} rows of {k} classes")
        return LogisticModel(weights.reshape(d + 1, k), mu, sd, k)
    probs = floats("probs", k, "one per class")
    try:
        return ConstantModel(probs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
