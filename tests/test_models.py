import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from labeldp.data import (
    Dataset,
    MixtureModel,
    SkewedBinarySpec,
    gen_mixture,
    gen_skewed_binary,
)
from labeldp.experiments import SimulationConfig
from labeldp.mechanisms import randomized_response
import labeldp.models as models
from labeldp.models import (
    _LOSS_CAP,
    PROB_CLAMP,
    LogisticHyper,
    _binary_loss,
    _design,
    _fit_scaler,
    _objective,
    _softmax,
    _true_positions,
    BayesModel,
    ConstantModel,
    TrainingDivergedError,
    load_model,
    log_loss,
    majority_table,
    save_model,
    stability_threshold,
    train_logistic,
)


def _one_trial(weights, onehot):
    """_objective's arguments for one fit given as a (d+1, k) weight matrix
    and (n, k) one-hot targets: the (k, 1, d+1) class-major weights and the
    true classes' positions."""
    labels = np.argmax(onehot, axis=1)
    if not np.array_equal(onehot, np.eye(onehot.shape[1])[labels]):
        raise ValueError("onehot must hold one 1 per row and 0 elsewhere")
    weights = np.asarray(weights, dtype=np.float64).T[:, None, :].copy()
    return weights, _true_positions(labels[None, :])


def cross_entropy_loss(weights, design, onehot):
    """Mean cross-entropy of a (d+1, k) weight matrix on an (n, d+1) design:
    the training objective, which the finite-difference oracles differentiate."""
    weights, labels = _one_trial(weights, onehot)
    return float(_objective(weights, design, None, labels, 1.0, False)[0][0])


def cross_entropy_grad(weights, design, onehot):
    weights, labels = _one_trial(weights, onehot)
    return _objective(weights, design, None, labels, 1.0, True)[1][:, 0].T


def toy_separable():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    return Dataset(X, y, 2)


OVERFLOW = LogisticHyper(learning_rate=1e308, iterations=200)


def conflicting_rows(k, n, seed=0):
    """n rows over 3 features and a (4, n) label stack. Rows 0 and 1 are
    equal and only trial 2 gives them different labels, so no weights fit
    trial 2 exactly: its residual cannot vanish, and at a step of 1e308 its
    weights overflow and its loss turns non-finite."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 3))
    features[1] = features[0]
    labels = rng.integers(0, k, size=(4, n))
    labels[:, 1] = labels[:, 0]
    labels[2, 1] = (labels[2, 0] + 1) % k
    return features, labels


class TestTrainLogistic:
    def test_separable_reaches_full_training_accuracy(self):
        ds = toy_separable()
        model = train_logistic(ds, LogisticHyper(iterations=500), seed=0)
        assert np.mean(model.predict(ds.features) == ds.labels) == 1.0

    def test_constant_labels_dominate_predictions(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        ds = Dataset(X, np.ones(20, dtype=int), 2)
        model = train_logistic(ds, LogisticHyper(iterations=2000), seed=0)
        assert np.all(model.predict_proba(X)[:, 1] >= 0.99)

    def test_gradient_matches_central_finite_differences(self):
        """Finite-difference oracle at step 1e-5, relative tolerance 1e-4,
        at 10 random weight settings."""
        rng = np.random.default_rng(42)
        design = np.hstack([rng.normal(size=(12, 3)), np.ones((12, 1))])
        onehot = np.zeros((12, 3))
        onehot[np.arange(12), rng.integers(0, 3, 12)] = 1.0
        h = 1e-5
        for trial in range(10):
            W = rng.normal(size=(4, 3))
            grad = cross_entropy_grad(W, design, onehot)
            numeric = np.zeros_like(W)
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    numeric[i, j] = (
                        cross_entropy_loss(Wp, design, onehot)
                        - cross_entropy_loss(Wm, design, onehot)
                    ) / (2 * h)
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(grad - numeric) / denom) < 1e-4

    def test_loss_non_increasing_at_stability_threshold(self):
        ds = toy_separable()
        lr = stability_threshold(ds)
        model = train_logistic(ds, LogisticHyper(learning_rate=lr, iterations=200), seed=0)
        diffs = np.diff(model.loss_history)
        assert np.all(diffs <= 1e-12)

    def test_divergence_error_names_iteration(self):
        features, labels = conflicting_rows(2, 5)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_logistic(Dataset(features, labels[2], 2), OVERFLOW, seed=0)
        assert str(err.value) == "non-finite loss at iteration 9"

    @pytest.mark.parametrize("lr", [math.inf, math.nan, 0.0, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            LogisticHyper(learning_rate=lr)

    def test_nan_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be >= 1, got nan"):
            LogisticHyper(iterations=math.nan)

    def test_deterministic(self):
        ds = toy_separable()
        a = train_logistic(ds, LogisticHyper(iterations=100), seed=0)
        b = train_logistic(ds, LogisticHyper(iterations=100), seed=0)
        np.testing.assert_array_equal(a.weights, b.weights)


def antisymmetric(w):
    return np.column_stack([-w, w])


def one_trial_binary(w, design, labels, with_grad):
    """The binary form on a stack of one: (loss, gradient column)."""
    loss, grad = _objective(w[None, :], design, None, (2.0 * labels - 1.0)[None, :], 1.0,
                            with_grad)
    return loss[0], None if grad is None else grad[0]


class TestBinaryKernel:
    """The k = 2 form tracks w of W = [-w, w]; it must agree with the full form."""

    @staticmethod
    def problem(seed, n=40, d=3):
        rng = np.random.default_rng(seed)
        design = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
        labels = rng.integers(0, 2, n)
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), labels] = 1.0
        return rng, design, labels, onehot

    def test_matches_full_form_on_antisymmetric_weights(self):
        rng, design, labels, onehot = self.problem(3)
        for _ in range(10):
            w = rng.normal(scale=2.0, size=design.shape[1])
            loss, grad = one_trial_binary(w, design, labels, True)
            W = antisymmetric(w)
            full_loss = cross_entropy_loss(W, design, onehot)
            full_grad = cross_entropy_grad(W, design, onehot)
            assert abs(loss - full_loss) <= 1e-14 * max(1.0, abs(full_loss))
            np.testing.assert_allclose(grad, full_grad[:, 1], rtol=0, atol=1e-14)
            np.testing.assert_allclose(-grad, full_grad[:, 0], rtol=0, atol=1e-14)

    def test_clamped_rows_match_full_form(self):
        # Huge margins push true-label probabilities below PROB_CLAMP.
        _, design, labels, onehot = self.problem(4)
        w = np.full(design.shape[1], 40.0)
        loss, _ = one_trial_binary(w, design, labels, False)
        full = cross_entropy_loss(antisymmetric(w), design, onehot)
        assert abs(loss - full) <= 1e-14 * full

    def test_fit_matches_plain_gradient_descent(self):
        hyper = LogisticHyper(iterations=60)
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(size=(80, 4)) * [1.0, 3.0, 0.2, 1.0], rng.integers(0, 2, 80), 2)
        assert_matches_reference(ds, hyper, train_logistic(ds, hyper, seed=0))

    @pytest.mark.parametrize("n, d", [(5000, 20), (100, 100)])
    def test_stability_threshold_matches_svd(self, n, d):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d), rng.integers(0, 2, n), 2)
        mu, sd = ds.features.mean(axis=0), ds.features.std(axis=0)
        design = np.hstack([(ds.features - mu) / sd, np.ones((n, 1))])
        svd_value = 2.0 / (np.linalg.norm(design, 2) ** 2 / (2.0 * n))
        assert abs(stability_threshold(ds) - svd_value) <= 1e-12 * svd_value


def design_plain(features, mu, sd):
    """_design as plain expressions."""
    scaled = (features - mu) / sd
    return np.hstack([scaled, np.ones((scaled.shape[0], 1))])


def binary_loss_plain(logits, signs, with_resid):
    """_binary_loss as plain expressions."""
    t = 2.0 * logits * signs
    e = np.exp(-np.abs(t))
    loss = np.minimum(np.log1p(e) - np.minimum(t, 0.0), _LOSS_CAP).sum(axis=1)
    if not with_resid:
        return loss, None
    return loss, -signs * np.where(t < 0, 1.0, e) / (1.0 + e)


class TestInPlaceKernels:
    """The design and the two-class kernel are built in place; their values
    must be the bits of design_plain and binary_loss_plain, at signed zeros,
    at the loss cap and where exp underflows too."""

    def test_design_is_bit_identical(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(300, 6)) * rng.uniform(0.1, 50.0, 6) + 3.0
        features[:, 2] = 7.5
        features[0, 1] = -0.0
        mu, sd = _fit_scaler(features)
        assert sd[2] == 1.0  # a constant column keeps sd 1
        design = _design(features, mu, sd)
        expected = design_plain(features, mu, sd)
        assert design.shape == expected.shape and design.flags.c_contiguous
        assert design.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("trials", [1, 6])
    def test_binary_loss_is_bit_identical(self, trials):
        rng = np.random.default_rng(9 + trials)
        logits = rng.normal(scale=5.0, size=(trials, 400))
        signs = rng.choice([-1.0, 1.0], size=logits.shape)
        # t = 2 s x at 0 and -0.0, past the loss cap (|t| > 40) and past the
        # underflow of e = exp(-|t|) (|t| > 745), under both signs.
        edge = [0.0, -0.0, 1e-300, -1e-300, 20.5, -20.5, 40.0, -40.0, 400.0, -400.0]
        logits[:, :2 * len(edge)] = edge * 2
        signs[:, :2 * len(edge)] = [1.0] * len(edge) + [-1.0] * len(edge)
        for with_resid in (False, True):
            loss, resid = _binary_loss(logits.copy(), signs, with_resid)
            expected_loss, expected_resid = binary_loss_plain(logits.copy(), signs, with_resid)
            assert loss.tobytes() == expected_loss.tobytes()
            if with_resid:
                assert resid.shape == expected_resid.shape
                assert resid.tobytes() == expected_resid.tobytes()
            else:
                assert resid is None


class TestBlockedScoring:
    """LogisticModel.predict_proba fills its output a block of rows at a
    time. Up to one block it must give the bits of the one-shot product;
    beyond one, every probability agrees with it within SCORE_BOUND
    (measured: at most 5.5e-15) and every row has the same argmax."""

    DIM = 127  # d+1 = 128 design columns, so one block is 1024 rows
    SCORE_BOUND = 1e-13

    def model_and_rows(self, k, n, seed):
        rng = np.random.default_rng(seed)
        features = (rng.normal(size=(n, self.DIM)) * rng.uniform(0.1, 10.0, self.DIM)
                    + rng.uniform(-5.0, 5.0, self.DIM))
        mu, sd = _fit_scaler(features)
        weights = rng.normal(size=(self.DIM + 1, k))
        return models.LogisticModel(weights, mu, sd, k), features

    @pytest.mark.parametrize("k", [2, 3, 100])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "B-1", "B", "B+1", "2B+1"])
    def test_matches_the_one_shot_product(self, k, blocks, extra):
        block = models._SCORE_BLOCK_ENTRIES // (self.DIM + 1)
        assert block == 1024
        n = blocks * block + extra
        model, features = self.model_and_rows(k, n, seed=n + k)
        probs = model.predict_proba(features)
        expected = _softmax(_design(features, model.mu, model.sd) @ model.weights)
        assert probs.shape == (n, k)
        if n <= block:
            assert probs.tobytes() == expected.tobytes()
        else:
            assert np.abs(probs - expected).max() <= self.SCORE_BOUND
            assert np.array_equal(probs.argmax(axis=1), expected.argmax(axis=1))

    @pytest.mark.parametrize("k", [2, 100])
    def test_peak_memory_is_the_output_and_two_blocks(self, k):
        """tracemalloc sees numpy's buffers. 20 000 rows of 21 design columns
        are more than three blocks, so a full design would break the bound."""
        rng = np.random.default_rng(k)
        features = rng.normal(size=(20_000, 20))
        model = models.LogisticModel(rng.normal(size=(21, k)), *_fit_scaler(features), k)
        tracemalloc.start()
        try:
            probs = model.predict_proba(features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes + 2 * models._SCORE_BLOCK_ENTRIES * 8


class TestScalerAtTheTopOfTheSigmaRange:
    """Squared deviations of a column near 1e154 overflow, and so does the
    sum of one near 1e308; its mean and sd must come out finite, and every
    other column's must keep features.mean's and features.std's bits."""

    def test_huge_column_gets_a_finite_sd(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(50, 4))
        features[:, 1] *= 9e153
        features[:, 3] = 2.0
        mu, sd = _fit_scaler(features)  # filterwarnings = error: no overflow warning
        assert np.isfinite(sd).all() and (sd > 0).all()
        with np.errstate(over="ignore"):
            expected = features.std(axis=0)
        assert not np.isfinite(expected[1])
        kept = [0, 2]
        assert sd[kept].tobytes() == expected[kept].tobytes()
        assert sd[3] == 1.0
        assert math.isclose(sd[1], 9e153 * (features[:, 1] / 9e153).std(), rel_tol=1e-12)
        design = _design(features, mu, sd)
        assert np.isfinite(design).all() and np.abs(design[:, 1]).max() > 0.5

    def test_column_whose_sum_overflows_gets_a_finite_mean(self):
        """Cells near 1e308: the column's sum leaves float64, and so do some
        of its deviations from the mean."""
        rng = np.random.default_rng(4)
        features = rng.normal(size=(4, 3))
        features[:, 0] = [1e308, 1.5e308, -1e308, 1.7e308]
        mu, sd = _fit_scaler(features)  # filterwarnings = error: no overflow warning
        assert np.isfinite(mu).all() and np.isfinite(sd).all()
        kept = [1, 2]
        assert mu[kept].tobytes() == features[:, kept].mean(axis=0).tobytes()
        assert sd[kept].tobytes() == features[:, kept].std(axis=0).tobytes()
        scale = 1.7e308
        assert mu[0] == scale * (features[:, 0] / scale).mean()
        assert sd[0] == scale * (features[:, 0] / scale).std()
        design = _design(features, mu, sd)
        assert np.isfinite(design).all()
        np.testing.assert_allclose(design[:, 0], (features[:, 0] / scale - mu[0] / scale)
                                   / (sd[0] / scale), rtol=1e-14)
        # A design whose deviations stay in range keeps the subtract-first bits.
        assert _design(features[:, kept], mu[kept], sd[kept])[:, :2].tobytes() == (
            np.ascontiguousarray((features[:, kept] - mu[kept]) / sd[kept]).tobytes()
        )


class TestStackedTraining:
    """A (T, n) label stack is fit in one loop; trial t must be the fit of
    labels[t] alone."""

    @staticmethod
    def problem(k, trials=5, n=60, d=4, seed=21):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0, d)
        return features, rng.integers(0, k, size=(trials, n))

    @pytest.mark.parametrize("k", [2, 100])
    def test_stack_matches_single_fits(self, k):
        features, labels = self.problem(k, n=120)
        hyper = LogisticHyper(iterations=40)
        stacked = train_logistic(Dataset(features, labels, k), hyper, seed=[1, 2, 3, 4, 5])
        assert len(stacked) == len(labels)
        for t, model in enumerate(stacked):
            single = train_logistic(Dataset(features, labels[t], k), hyper, seed=t + 1)
            assert model.seed == single.seed and model.weights.shape == single.weights.shape
            np.testing.assert_allclose(model.weights, single.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.loss_history, single.loss_history, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 5])
    def test_stack_of_one_is_bit_identical(self, k):
        features, labels = self.problem(k, trials=1)
        hyper = LogisticHyper(iterations=30)
        [stacked] = train_logistic(Dataset(features, labels, k), hyper, seed=4)
        single = train_logistic(Dataset(features, labels[0], k), hyper, seed=4)
        np.testing.assert_array_equal(stacked.weights, single.weights)
        assert stacked.loss_history == single.loss_history

    def test_divergence_names_iteration_and_trial(self):
        features, labels = conflicting_rows(2, 5)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_logistic(Dataset(features, labels, 2), OVERFLOW)
        assert str(err.value) == "non-finite loss in trial 2 at iteration 14"

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one label vector"):
            Dataset(np.zeros((3, 1)), np.zeros((0, 3), dtype=int), 2)


def standardized_design(features):
    """[Z, 1] for the features standardized by their mean and std, a
    constant column keeping sd 1."""
    mu, sd = features.mean(axis=0), features.std(axis=0)
    sd[sd == 0] = 1.0
    return design_plain(features, mu, sd)


def reference_fit(ds, hyper):
    """Textbook full-batch gradient descent on the full (d+1, k) weight
    matrix, one trial at a time, in plain numpy: (weights per trial, loss
    history per trial). Every equivalence test of train_logistic compares
    against it. The probabilities are held as (k, n), P.T of the textbook's
    (n, k), so that the softmax reduces over long rows."""
    X = standardized_design(ds.features)
    n, k = X.shape[0], ds.num_classes
    lr = hyper.learning_rate or 0.9 * stability_threshold(ds)
    weights, histories = [], []
    for y in np.atleast_2d(ds.labels):
        Y = np.eye(k)[:, y]
        W = np.zeros((X.shape[1], k))
        history = []
        for it in range(hyper.iterations + 1):
            Z = W.T @ X.T
            P = np.exp(Z - Z.max(axis=0))
            P /= P.sum(axis=0)
            history.append(np.mean(-np.log(np.clip(P[y, np.arange(n)], PROB_CLAMP, None))))
            if it < hyper.iterations:
                W -= lr * (X.T @ (P - Y).T) / n
        weights.append(W)
        histories.append(history)
    return weights, np.array(histories)


# train_logistic against reference_fit: weights within WEIGHT_BOUND of the
# reference's largest entry, every loss-history entry within LOSS_BOUND of
# the first loss (ln k: a bound relative to each entry would shrink with a
# loss that goes to 0, while the arithmetic's error does not).
WEIGHT_BOUND = 1e-12
LOSS_BOUND = 1e-13


def assert_matches_reference(ds, hyper, fitted, narrowed=False):
    """fitted, the model or models train_logistic returned for ds, against
    reference_fit: the bounds above, the same argmax on every training row
    and C-contiguous weights. Exactly, a two-class model stores [-w, w], and
    where the fit narrowed, the classes absent from a trial have bit-equal
    weight columns."""
    fitted = fitted if isinstance(fitted, list) else [fitted]
    weights, histories = reference_fit(ds, hyper)
    design = standardized_design(ds.features)
    labels = np.atleast_2d(ds.labels)
    for model, y, w, h in zip(fitted, labels, weights, histories, strict=True):
        assert model.weights.shape == w.shape == (ds.dim + 1, ds.num_classes)
        assert model.weights.flags.c_contiguous
        assert np.max(np.abs(model.weights - w)) <= WEIGHT_BOUND * np.max(np.abs(w))
        assert len(model.loss_history) == hyper.iterations + 1
        assert np.max(np.abs(np.array(model.loss_history) - h)) <= LOSS_BOUND * h[0]
        np.testing.assert_array_equal(model.predict(ds.features), np.argmax(design @ w, axis=1))
        if ds.num_classes == 2:
            np.testing.assert_array_equal(model.weights[:, 0], -model.weights[:, 1])
        if narrowed:
            absent = np.setdiff1d(np.arange(ds.num_classes), y)
            bits = model.weights[:, absent].T.view(np.uint64)
            assert (bits == bits[:1]).all()


def spy_objective(monkeypatch):
    """Record, per _objective call, (coefficient space?, parameter rows,
    shared): the parameter rows are the columns kc for k > 2 and the trials
    T for the binary form."""
    calls = []
    original = models._objective

    def spy(params, design, gram, targets, lr, with_step, shared=0):
        calls.append((gram is not None, len(params), shared))
        return original(params, design, gram, targets, lr, with_step, shared)

    monkeypatch.setattr(models, "_objective", spy)
    return calls


def labels_with_counts(k, n, counts, rng):
    """A (len(counts), n) label stack whose trial t holds exactly counts[t]
    distinct classes out of k, drawn at random."""
    stack = []
    for count in counts:
        classes = rng.choice(k, size=count, replace=False)
        labels = np.concatenate([classes, rng.choice(classes, size=n - count)])
        stack.append(rng.permutation(labels))
    return np.array(stack)


class TestAgainstTheReference:
    """train_logistic against reference_fit on every path it takes: the
    binary form and the class-major softmax form, narrowed or at full
    width, in weight and coefficient space, single or stacked, at 35 and
    300 iterations, and on the shapes the harnesses fit."""

    # (k, narrowed) -> distinct classes per trial. The first trial alone
    # narrows (kc = its count + 1 < k) exactly when the whole stack does.
    # (7, False) sits at kc == k: one class absent, and nothing narrows.
    COUNTS = {
        (2, False): [2, 2, 1],
        (3, True): [1, 1, 1], (3, False): [3, 1, 2],
        (7, True): [5, 2, 4], (7, False): [6, 3, 6],
        (100, True): [64, 30, 50], (100, False): [100, 64, 99],
    }

    @staticmethod
    def problem(k, counts, coefficients, stacked, seed=51):
        """n = 40 rows (more where a trial holds more classes) over d = n
        features for coefficient space or d = 4 for weight space."""
        rng = np.random.default_rng([k, max(counts), seed])
        n = max(40, max(counts))
        d = n if coefficients else 4
        features = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0, d) + rng.normal(size=d)
        labels = labels_with_counts(k, n, counts, rng)
        return Dataset(features, labels if stacked else labels[0], k)

    @pytest.mark.parametrize("iterations", [35, 300])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("coefficients", [False, True], ids=["weights", "coefficients"])
    @pytest.mark.parametrize("k, narrowed", list(COUNTS))
    def test_matches_the_reference(self, monkeypatch, k, narrowed, coefficients, stacked,
                                   iterations):
        hyper = LogisticHyper(iterations=iterations)
        counts = self.COUNTS[k, narrowed]
        ds = self.problem(k, counts, coefficients, stacked)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        width = min(counts[0] + 1, k)
        assert (width < k) == narrowed
        rows, shared = (width, k - width) if k > 2 else (len(counts) if stacked else 1, 0)
        assert set(calls) == {(coefficients, rows, shared)}
        assert_matches_reference(ds, hyper, fitted, narrowed)

    @pytest.mark.parametrize("sigma", SimulationConfig.sigmas)
    @pytest.mark.parametrize("k", SimulationConfig.class_counts)
    def test_simulate_cell(self, monkeypatch, k, sigma):
        """simulate's n = d = 100 cells (the k-class mixture at each of its
        sigmas) fit 13-trial stacks of RR-released labels in coefficient
        space at 35 iterations."""
        ds, _ = gen_mixture(MixtureModel(k, 100, sigma), 100, seed=71)
        stack = np.array([randomized_response(ds.labels, k, 1.0, 72 + t) for t in range(13)])
        ds = Dataset(ds.features, stack, k)
        hyper = LogisticHyper(iterations=35)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        [(coefficients, width, _)] = set(calls)
        assert coefficients and (k == 2 or width < k)
        assert_matches_reference(ds, hyper, fitted, narrowed=k > 2)

    @pytest.mark.parametrize("sigma", SimulationConfig.sigmas)
    @pytest.mark.parametrize("k", SimulationConfig.class_counts)
    def test_pate_teacher(self, monkeypatch, k, sigma):
        """PATE's teachers fit 20 of a cell's 100 rows at d = 100, with the
        step size of the cell's full feature matrix."""
        cell, _ = gen_mixture(MixtureModel(k, 100, sigma), 100, seed=73)
        hyper = LogisticHyper(learning_rate=0.9 * stability_threshold(cell), iterations=35)
        ds = Dataset(cell.features[:20], cell.labels[:20], k)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        [(coefficients, width, _)] = set(calls)
        assert coefficients and (k == 2 or width < k)
        assert_matches_reference(ds, hyper, fitted, narrowed=k > 2)

    @pytest.mark.parametrize("n, trials", [(3200, 1), (16000, 4)], ids=["teacher", "stack"])
    def test_ctr_fit(self, monkeypatch, n, trials):
        """ctr's two-class fits at 150 iterations over d = 20 features: a
        PATE teacher, and the training split's released labels as a stack."""
        ds, _ = gen_skewed_binary(SkewedBinarySpec(0.03, 20, 0.5, 0.1), n, seed=75)
        stack = np.array([randomized_response(ds.labels, 2, eps, 76 + t)
                          for t, eps in enumerate([8.0, 4.0, 1.0, 0.1][:trials])])
        ds = Dataset(ds.features, stack if trials > 1 else stack[0], 2)
        hyper = LogisticHyper(iterations=150)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        assert set(calls) == {(False, trials, 0)}
        assert_matches_reference(ds, hyper, fitted)

    # sha256 of each fit's weights.tobytes() + its loss history's bytes.
    TWO_CLASS_DIGESTS = {
        ("weights", "single"): [
            "7ffbd36e2d59cf7d3f1c9977aeb2b836beb15c99ff4bfa3acb6291ddd98618ba"],
        ("weights", "stack"): [
            "d8c06fe142e15ea85a45daa87274ea1813d2f4025582ae9a34241fb98c5e7959",
            "9f300e69f01ce88e492cd83aa699136cbe249cc194047171490b53af5d2e4bfb",
            "c6b2f06d763849cd26da63e888f8a92c2146666893ded987b2837aa88e017972"],
        ("coefficients", "single"): [
            "7efff2b4bd24523fab1f4f16f42f74fc591d9a5686bef52c31a19bdd6ad18093"],
        ("coefficients", "stack"): [
            "6abfafdfaf6b127ef4225460459e442764b93ced19c926a17fba64f1e8d7beda",
            "6cf2b3637e2c2582917b92c738c1f26d639e26b30d4428a55aa8d8441c7a279e",
            "18afa7e285bc339f119149c5cc3bd05fedfe6106bcbbdb093ac886b915707ad3"],
    }

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("coefficients", [False, True], ids=["weights", "coefficients"])
    def test_two_classes_keep_their_bytes(self, coefficients, stacked):
        """Every k = 2 digest elsewhere in the suite (CTR_DIGESTS among them)
        rests on these bits, so they are pinned exactly."""
        ds = self.problem(2, [2, 2, 1], coefficients, stacked)
        fitted = train_logistic(ds, LogisticHyper(iterations=35), seed=0)
        fitted = fitted if stacked else [fitted]
        digests = [
            hashlib.sha256(model.weights.tobytes()
                           + np.array(model.loss_history).tobytes()).hexdigest()
            for model in fitted
        ]
        key = ("coefficients" if coefficients else "weights", "stack" if stacked else "single")
        assert digests == self.TWO_CLASS_DIGESTS[key]


class TestCoefficientSpace:
    """With n < 2(d+1) rows, train_logistic descends on coefficients A of
    W = design.T @ A, and on the weights otherwise."""

    @staticmethod
    def problem(k, n, d, trials=None, seed=31):
        rng = np.random.default_rng([k, n, d, seed])
        features = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0, d) + rng.normal(size=d)
        shape = n if trials is None else (trials, n)
        return Dataset(features, rng.integers(0, k, size=shape), k)

    @pytest.mark.parametrize("k", [2, 3, 100])
    @pytest.mark.parametrize("trials", [None, 4])
    def test_matches_weight_space_descent(self, monkeypatch, k, trials):
        """n = 30 rows over d = 40 features descend on coefficients and
        agree with reference_fit, which descends on the weights."""
        hyper = LogisticHyper(iterations=35)
        ds = self.problem(k, n=30, d=40, trials=trials)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        assert calls and all(space for space, _, _ in calls)
        assert_matches_reference(ds, hyper, fitted, narrowed=k == 100)

    @pytest.mark.parametrize("k", [2, 5])
    def test_shape_boundary(self, monkeypatch, k):
        """Coefficient space runs exactly when n < 2(d+1)."""
        d = 6
        hyper = LogisticHyper(iterations=20)
        for n, coefficients in [(2 * (d + 1) - 1, True), (2 * (d + 1), False)]:
            ds = self.problem(k, n=n, d=d, trials=3)
            calls = spy_objective(monkeypatch)
            fitted = train_logistic(ds, hyper, seed=0)
            assert {space for space, _, _ in calls} == {coefficients}
            assert_matches_reference(ds, hyper, fitted)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n, seed, coefficients, iteration", [
        pytest.param(5, 0, True, 8, id="coefficients"),
        pytest.param(10, 2, False, 17, id="weights"),
    ])
    def test_divergence_names_trial_and_iteration(
        self, monkeypatch, stacked, n, seed, coefficients, iteration
    ):
        # The two spaces (and a stack and its single fits) round differently,
        # and overflow turns that into different divergence points, so each
        # space gets its own data and is not compared with the other. Near
        # 1e307 the equal rows 0 and 1 tie two classes' logits to the last
        # bit, so a step that rounds differently can move the point by one.
        features, labels = conflicting_rows(3, n, seed)
        calls = spy_objective(monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_logistic(Dataset(features, labels if stacked else labels[2], 3), OVERFLOW)
        assert {space for space, _, _ in calls} == {coefficients}
        trial = " in trial 2" if stacked else ""
        assert str(err.value) == f"non-finite loss{trial} at iteration {iteration}"


class TestAbsentClasses:
    """For k > 2 the classes absent from a trial share one column; the fit
    must agree with full-width descent, give every absent class the same
    weights and fall back to the full width where nothing narrows. Unlike
    TestAgainstTheReference's stacks, a later trial may set the width."""

    CASES = {
        3: [[1], [1, 1, 1, 1, 1], [1, 3, 2, 1, 2]],
        100: [[17], [1, 9, 30, 4, 22], [1, 9, 100, 4, 22]],
    }

    @staticmethod
    def problem(k, counts, coefficients, seed=41):
        rng = np.random.default_rng([k, len(counts), max(counts), seed])
        n = max(40, max(counts))
        d = n if coefficients else 4
        features = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0, d) + rng.normal(size=d)
        labels = labels_with_counts(k, n, counts, rng)
        return Dataset(features, labels if len(counts) > 1 else labels[0], k)

    @pytest.mark.parametrize("coefficients", [False, True], ids=["weights", "coefficients"])
    @pytest.mark.parametrize("k, counts", [(k, c) for k, cases in CASES.items() for c in cases])
    def test_matches_full_width_descent(self, monkeypatch, k, counts, coefficients):
        hyper = LogisticHyper(iterations=35)
        ds = self.problem(k, counts, coefficients)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        width = min(max(counts) + 1, k)
        assert set(calls) == {(coefficients, width, k - width)}
        assert_matches_reference(ds, hyper, fitted, narrowed=width < k)

    @pytest.mark.parametrize("k, counts", [(3, [2, 1, 2]), (100, [99, 50, 99])])
    def test_one_class_absent_runs_the_full_width(self, monkeypatch, k, counts):
        """kc = max_t j_t + 1 == k: nothing narrows."""
        hyper = LogisticHyper(iterations=20)
        ds = self.problem(k, counts, coefficients=False)
        calls = spy_objective(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        assert set(calls) == {(False, k, 0)}
        assert_matches_reference(ds, hyper, fitted)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n, seed, coefficients, iteration", [
        pytest.param(5, 0, True, 6, id="coefficients"),
        pytest.param(10, 2, False, 12, id="weights"),
    ])
    def test_divergence_names_trial_and_iteration(
        self, monkeypatch, stacked, n, seed, coefficients, iteration
    ):
        # As in TestCoefficientSpace, the collapsed and the full-width
        # fits round differently, so they may diverge at other iterations.
        features, labels = conflicting_rows(100, n, seed)
        calls = spy_objective(monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_logistic(Dataset(features, labels if stacked else labels[2], 100), OVERFLOW)
        [(space, width, shared)] = set(calls)
        assert space == coefficients and width <= n + 1 and shared == 100 - width
        trial = " in trial 2" if stacked else ""
        assert str(err.value) == f"non-finite loss{trial} at iteration {iteration}"


class TestFoldedStep:
    """The k > 2 step is one multiply of the probabilities by (lr/n)/total
    and the loss log-sum-exp minus the true logit (TestAgainstTheReference
    checks the fits); the loss must still be capped as -log of the clamped
    probability is, and the loss-only last pass must give a full pass's
    bits."""

    @pytest.mark.parametrize("shared", [0, 4])
    def test_clamped_row_costs_the_cap(self, shared):
        """A true class 50 below the row's max has p < PROB_CLAMP; its
        log-sum-exp loss is _LOSS_CAP exactly, as -log(clip(p)) is."""
        logits = np.array([50.0, 0.0, 0.0]).reshape(3, 1, 1)
        true = _true_positions(np.array([[1]]))
        assert 1.0 / (np.exp(50.0) + 2.0 + shared) < PROB_CLAMP
        assert -np.log(PROB_CLAMP) == _LOSS_CAP
        for scale in (None, 0.5):
            assert models._softmax_loss(logits.copy(), true, scale, shared)[0] == _LOSS_CAP

    @pytest.mark.parametrize("coefficients", [False, True], ids=["weights", "coefficients"])
    def test_loss_only_pass_matches_a_full_pass(self, coefficients):
        """The final pass stops after the loss; its history entry is the one
        a full pass at the same parameters gives, with clamped rows too."""
        ds = TestAgainstTheReference.problem(7, [7, 2, 4], coefficients, stacked=True)
        design = _design(ds.features, *_fit_scaler(ds.features))
        gram = design @ design.T if coefficients else None
        basis = design if gram is None else gram
        targets = _true_positions(ds.labels)
        params = np.random.default_rng(62).normal(scale=30.0, size=(7, 3, basis.shape[1]))
        logits = (params.reshape(21, -1) @ basis.T).reshape(7, 3, -1)
        probs = np.exp(logits - logits.max(axis=0))
        probs /= probs.sum(axis=0)
        assert (probs.reshape(-1)[targets] < PROB_CLAMP).any()
        loss_only, _ = _objective(params, design, gram, targets, 0.5, False)
        full, _ = _objective(params, design, gram, targets, 0.5, True)
        assert loss_only.tobytes() == full.tobytes()
        hyper = LogisticHyper(iterations=6)
        fitted = train_logistic(ds, hyper, seed=0)
        longer = train_logistic(ds, LogisticHyper(iterations=7), seed=0)
        for model, more in zip(fitted, longer, strict=True):
            assert np.array(model.loss_history).tobytes() == (
                np.array(more.loss_history[:7]).tobytes())


class TestAnalyticModels:
    def test_bayes_equidistant_point_is_symmetric(self):
        model = BayesModel(MixtureModel(2, 4, 1.0).posterior, 2)
        midpoint = np.array([[0.5, 0.5, 0.0, 0.0]])
        np.testing.assert_allclose(model.predict_proba(midpoint)[0], [0.5, 0.5], atol=1e-12)

    def test_bayes_at_component_mean(self):
        model = BayesModel(MixtureModel(2, 50, 1.0).posterior, 2)
        probs = model.predict_proba(np.eye(2, 50)[:1])[0]
        np.testing.assert_allclose(probs, [0.731059, 0.268941], atol=1e-6)

    def test_bayes_one_hot_conditional(self):
        model = BayesModel(lambda X: np.tile([1.0, 0.0], (X.shape[0], 1)), 2)
        assert np.all(model.predict(np.zeros((5, 1))) == 0)

    def test_constant_model_ignores_input(self):
        model = ConstantModel([0.97, 0.03])
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_array_equal(probs, np.tile([0.97, 0.03], (4, 1)))

    def test_constant_model_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            ConstantModel([0.5, 0.6])

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
    def test_constant_model_rejects_non_finite_probs(self, probs):
        with pytest.raises(ValueError, match="probs must be a distribution"):
            ConstantModel(probs)

    def test_constant_log_loss_is_label_entropy_at_matching_marginal(self):
        """Labels at exactly the 3% marginal: loss equals the entropy
        H(0.03) = 0.134742 nats."""
        labels = np.zeros(10000, dtype=int)
        labels[:300] = 1
        ds = Dataset(np.zeros((10000, 1)), labels, 2)
        loss = log_loss(ConstantModel([0.97, 0.03]), ds)
        np.testing.assert_allclose(loss, 0.13474216817976674, atol=1e-12)


class TestMajorityTable:
    def test_deterministic_labels_memorized(self):
        X = np.concatenate([np.ones(10), -np.ones(10)])[:, None]
        y = np.concatenate([np.ones(10, dtype=int), np.zeros(10, dtype=int)])
        ds = Dataset(X, y, 2)
        model = majority_table(ds)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_majority_vote(self):
        X = np.zeros((5, 1))
        ds = Dataset(X, np.array([1, 1, 1, 0, 0]), 2)
        assert majority_table(ds).predict(np.zeros((1, 1)))[0] == 1

    def test_tie_goes_to_lowest_class(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]), 2)
        assert majority_table(ds).predict(np.zeros((1, 1)))[0] == 0

    def test_unseen_features_are_uniform(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        probs = majority_table(ds).predict_proba(np.ones((1, 1)))
        np.testing.assert_allclose(probs[0], [0.5, 0.5])

    def test_signed_zeros_share_one_key(self):
        ds = Dataset(np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]), np.array([1, 0, 1]), 2)
        model = majority_table(ds)
        assert len(table_of(model)) == 1
        probs = model.predict_proba(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        np.testing.assert_array_equal(probs, [[0.0, 1.0], [0.0, 1.0]])

    def test_beats_every_constant_predictor_on_training_data(self):
        ds, _ = gen_mixture(MixtureModel(3, 3, 1.0), 200, seed=0)
        table_acc = np.mean(majority_table(ds).predict(ds.features) == ds.labels)
        for c in range(3):
            const_acc = np.mean(ds.labels == c)
            assert table_acc >= const_acc

    def test_zero_column_rows_share_one_key(self):
        ds = Dataset(np.zeros((5, 0)), np.array([2, 0, 2, 1, 0]), 3)
        model = majority_table(ds)
        assert table_of(model) == {b"": 0}
        np.testing.assert_array_equal(model.predict_proba(np.zeros((2, 0))), [[1, 0, 0]] * 2)

    def test_query_of_the_wrong_width_is_rejected(self):
        model = majority_table(Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2))
        with pytest.raises(ValueError, match="built on 2 feature columns, query has 3"):
            model.predict_proba(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="built on 2 feature columns, query has 1"):
            model.predict_proba(np.zeros(1))

    def test_one_vector_stack_returns_a_list_of_one(self):
        ds = Dataset(np.zeros((3, 1)), np.array([[0, 1, 1]]), 2)
        models = majority_table(ds)
        assert isinstance(models, list) and len(models) == 1
        np.testing.assert_array_equal(models[0].labels, [1])

    def test_nan_query_rows_are_unseen(self):
        model = majority_table(Dataset(np.zeros((2, 2)), np.array([1, 1]), 2))
        probs = model.predict_proba(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(probs, [[0.5, 0.5], [0.0, 1.0]])


def table_of(model):
    """The model's table as a dict of row bytes, like reference_table's."""
    return {row.tobytes(): int(label) for row, label in zip(model.rows, model.labels)}


def reference_table(features, labels, k):
    """The majority table as a dict of row bytes, counted one row at a time."""
    counts = {}
    for row, label in zip(features + 0.0, labels):
        counts.setdefault(row.tobytes(), np.zeros(k, dtype=np.int64))[label] += 1
    return {key: int(np.argmax(votes)) for key, votes in counts.items()}


def reference_proba(table, k, queries):
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64)) + 0.0
    out = np.full((queries.shape[0], k), 1.0 / k)
    for i, row in enumerate(queries):
        label = table.get(row.tobytes())
        if label is not None:
            out[i] = 0.0
            out[i, label] = 1.0
    return out


class TestMajorityTableAgainstReference:
    """majority_table and its predict_proba agree with a dict-of-bytes loop on
    random rows with repeats, signed zeros, vote ties and unseen queries."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [0, 1, 4])
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_random_rows_with_repeats(self, k, d, seed):
        rng = np.random.default_rng([k, d, seed])
        # Cells from {-1, -0.0, 0.0, 1, 2.5}: few distinct rows, many repeats,
        # and rows that differ only in the sign of a zero.
        cells = np.array([-1.0, -0.0, 0.0, 1.0, 2.5])
        n = int(rng.integers(1, 60))
        features = cells[rng.integers(0, cells.size, (n, d))]
        labels = rng.integers(0, k, n)
        model = majority_table(Dataset(features, labels, k))
        table = reference_table(features, labels, k)
        assert table_of(model) == table
        unseen = rng.normal(size=(5, d))
        queries = np.vstack([features, -features, cells[rng.integers(0, 5, (20, d))], unseen])
        expected = reference_proba(table, k, queries)
        np.testing.assert_array_equal(model.predict_proba(queries), expected)
        np.testing.assert_array_equal(model.predict_proba(np.asfortranarray(queries)), expected)
        for row in queries[[0, -1]]:
            np.testing.assert_array_equal(
                model.predict_proba(row), reference_proba(table, k, row)
            )

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_zero_row_query_has_zero_rows(self, d):
        features = np.ones((4, d))
        model = majority_table(Dataset(features, np.array([0, 2, 2, 1]), 3))
        queries = np.empty((0, d))
        probs = model.predict_proba(queries)
        assert probs.shape == (0, 3)
        np.testing.assert_array_equal(
            probs, reference_proba(reference_table(features, [0, 2, 2, 1], 3), 3, queries)
        )

    @pytest.mark.parametrize("d", [1, 3])
    def test_non_finite_query_rows_are_uniform(self, d):
        features = np.array([[0.0] * d, [1.0] * d, [1.0] * d])
        labels = np.array([1, 0, 0])
        model = majority_table(Dataset(features, labels, 2))
        # One non-finite cell per row, the others those of the key [1.0] * d.
        queries = np.ones((4, d))
        queries[[0, 1, 2], [0, min(1, d - 1), d - 1]] = [np.nan, np.inf, -np.inf]
        probs = model.predict_proba(queries)
        np.testing.assert_array_equal(
            probs, reference_proba(reference_table(features, labels, 2), 2, queries)
        )
        np.testing.assert_array_equal(probs[:3], 0.5)

    @pytest.mark.parametrize("d", [1, 3])
    def test_negative_zero_query_matches_zero_key(self, d):
        features = np.array([[0.0] * d, [2.5] * d])
        labels = np.array([1, 0])
        model = majority_table(Dataset(features, labels, 2))
        queries = np.array([[-0.0] * d, [0.0] * d, [-2.5] * d])
        probs = model.predict_proba(queries)
        np.testing.assert_array_equal(
            probs, reference_proba(reference_table(features, labels, 2), 2, queries)
        )
        np.testing.assert_array_equal(probs[:2], [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_vote_ties_go_to_the_lowest_tied_class(self, k):
        # Row 0.0: every class once. Row 1.0: classes k-1 and k-2 twice each.
        features = np.array([[0.0]] * k + [[1.0]] * 4)
        labels = np.concatenate([np.arange(k)[::-1], [k - 1, k - 2, k - 2, k - 1]])
        model = majority_table(Dataset(features, labels, k))
        assert table_of(model) == reference_table(features, labels, k)
        np.testing.assert_array_equal(model.predict(np.array([[-0.0], [1.0]])), [0, k - 2])


class TestMajorityTableStack:
    """A (T, n) label stack gives T models, each bit for bit the model of its
    vector alone: rows, labels and predict_proba on table rows, unseen rows
    and NaN queries."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_each_model_equals_its_single_vector_fit(self, k, d, seed):
        rng = np.random.default_rng([k, d, seed, 23])
        # Few cells, so rows repeat, votes tie and rows differ only in the
        # sign of a zero.
        cells = np.array([-1.0, -0.0, 0.0, 1.0])
        n = int(rng.integers(1, 40))
        trials = int(rng.integers(1, 6))
        features = cells[rng.integers(0, cells.size, (n, d))]
        stack = rng.integers(0, k, (trials, n))
        models = majority_table(Dataset(features, stack, k))
        assert isinstance(models, list) and len(models) == trials
        queries = np.vstack([
            features,
            rng.normal(size=(4, d)),
            np.full((2, d), np.nan),
            cells[rng.integers(0, cells.size, (10, d))],
        ])
        for labels, model in zip(stack, models):
            alone = majority_table(Dataset(features, labels, k))
            assert model.rows.tobytes() == alone.rows.tobytes()
            np.testing.assert_array_equal(model.labels, alone.labels)
            assert model.num_classes == alone.num_classes == k
            np.testing.assert_array_equal(model.predict_proba(queries),
                                          alone.predict_proba(queries))
            assert table_of(model) == reference_table(features, labels, k)

    def test_ties_go_to_the_lowest_class_per_vector(self):
        features = np.zeros((4, 1))
        stack = np.array([[0, 1, 0, 1], [2, 1, 1, 2], [2, 2, 1, 0]])
        models = majority_table(Dataset(features, stack, 3))
        assert [int(model.labels[0]) for model in models] == [0, 1, 2]

    # Queries built from the training rows f: the rows themselves, which
    # reuse the fit's ranking, and queries that must not.
    LOOKUP_QUERIES = {
        "training rows": lambda f, rng: f,
        "equal copy": lambda f, rng: f.copy(),
        "equal, Fortran order": lambda f, rng: np.asfortranarray(f),
        "signs of zeros flipped": lambda f, rng: np.where(f == 0.0, -f, f),
        "one changed row": lambda f, rng: np.where(
            np.arange(f.shape[0])[:, None] == rng.integers(f.shape[0]), 0.5, f),
        "one NaN cell": lambda f, rng: np.where(
            np.arange(f.size).reshape(f.shape) == rng.integers(f.size), np.nan, f),
        "unseen rows": lambda f, rng: rng.normal(size=f.shape),
        "one row fewer": lambda f, rng: f[:-1],
        "one row more": lambda f, rng: np.vstack([f, f[:1]]),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("case", list(LOOKUP_QUERIES))
    def test_lookup_equals_the_ranked_lookup(self, case, d, seed):
        rng = np.random.default_rng([d, seed, 25])
        cells = np.array([-1.0, -0.0, 0.0, 1.0])
        n = int(rng.integers(2, 40))
        features = cells[rng.integers(0, cells.size, (n, d))]
        stack = rng.integers(0, 3, (4, n))
        query = self.LOOKUP_QUERIES[case](features, rng)
        for model in majority_table(Dataset(features, stack, 3)):
            ranked = models.MajorityTableModel(model.rows, model.labels, 3)
            np.testing.assert_array_equal(model.predict_proba(query), ranked.predict_proba(query))

    def test_only_the_training_rows_skip_the_ranking(self, monkeypatch):
        features = np.array([[1.0, 0.0], [1.0, -0.0], [2.0, 0.0]])
        model = majority_table(Dataset(features, np.array([1, 0, 1]), 2))
        ranks = []
        rank_rows = models._rank_rows
        monkeypatch.setattr(models, "_rank_rows", lambda words: ranks.append(1) or rank_rows(words))
        model.predict_proba(features)
        model.predict_proba(np.where(features == 0.0, -features, features))
        assert ranks == []
        model.predict_proba(features[:2])
        assert ranks == [1]

    def test_features_changed_after_the_fit_are_looked_up_afresh(self):
        features = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        model, = majority_table(Dataset(features, np.array([[1, 1, 0, 0]]), 2))
        features[0, 0] = 5.0
        np.testing.assert_array_equal(model.predict_proba(features),
                                      [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


# Signed zeros, ones, a plain value, the smallest subnormals and the largest
# finite values: bytes that differ in the sign bit, the first byte or only
# the last one. NaN and the infinities cover the remaining bit patterns.
ORACLE_CELLS = np.array([
    0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan,
])


def oracle_layouts(features):
    """The same rows in C order, in Fortran order and as a column slice."""
    wide = np.zeros((features.shape[0], 2 * features.shape[1] + 1))
    wide[:, 1::2] = features
    return np.ascontiguousarray(features), np.asfortranarray(features), wide[:, 1::2]


FINITE_CELLS = ORACLE_CELLS[np.isfinite(ORACLE_CELLS)]


class TestMajorityTableOnOracleCells:
    """majority_table and predict_proba agree with reference_table and
    reference_proba on training rows of the finite oracle cells, in every
    layout, for queries that add NaN and infinite rows."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    def test_matches_the_reference(self, d, n, seed):
        rng = np.random.default_rng([d, n, seed])
        # Few cells per column so that rows repeat and share prefixes.
        cells = FINITE_CELLS[rng.integers(0, FINITE_CELLS.size, (n, d))]
        labels = rng.integers(0, 3, n)
        table = reference_table(cells, labels, 3)
        queries = np.vstack([
            cells,
            np.repeat([[np.nan], [np.inf], [-np.inf]], d, axis=1),
            ORACLE_CELLS[rng.integers(0, ORACLE_CELLS.size, (20, d))],
        ])
        expected = reference_proba(table, 3, queries)
        for features in oracle_layouts(cells):
            model = majority_table(Dataset(features, labels, 3))
            assert table_of(model) == table
            for layout in oracle_layouts(queries):
                np.testing.assert_array_equal(model.predict_proba(layout), expected)

    def test_every_cell_pair_is_its_own_row(self):
        rows = np.array([[a, b] for a in FINITE_CELLS for b in FINITE_CELLS])[::-1]
        labels = np.arange(rows.shape[0]) % 3
        model = majority_table(Dataset(rows, labels, 3))
        table = reference_table(rows, labels, 3)
        assert table_of(model) == table
        # +0.0 and -0.0 share a row; every other cell is its own.
        assert len(table) == (FINITE_CELLS.size - 1) ** 2
        queries = np.array([[a, b] for a in ORACLE_CELLS for b in ORACLE_CELLS])
        np.testing.assert_array_equal(
            model.predict_proba(queries), reference_proba(table, 3, queries)
        )


class TestLogLoss:
    def test_perfect_one_hot_is_tiny_after_clamping(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros(3, dtype=int), 2)
        assert log_loss(ConstantModel([1.0, 0.0]), ds) <= 1e-14

    def test_uniform_binary_is_ln_two(self):
        ds = Dataset(np.zeros((7, 1)), np.array([0, 1, 0, 1, 0, 1, 0]), 2)
        np.testing.assert_allclose(log_loss(ConstantModel([0.5, 0.5]), ds), math.log(2), atol=1e-12)

    def test_skewed_constant_on_all_zero_labels(self):
        ds = Dataset(np.zeros((9, 1)), np.zeros(9, dtype=int), 2)
        np.testing.assert_allclose(
            log_loss(ConstantModel([0.97, 0.03]), ds), 0.030459207484708574, atol=1e-12
        )


class TestModelContracts:
    @pytest.mark.parametrize("kind", ["logistic", "bayes", "constant", "majority"])
    def test_probability_rows_sum_to_one(self, kind):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1000, 3))
        if kind == "logistic":
            ds = Dataset(X[:50], rng.integers(0, 3, 50), 3)
            model = train_logistic(ds, LogisticHyper(iterations=20), seed=0)
        elif kind == "bayes":
            model = BayesModel(MixtureModel(3, 3, 2.0).posterior, 3)
        elif kind == "constant":
            model = ConstantModel([0.2, 0.3, 0.5])
        else:
            model = majority_table(Dataset(X[:10], rng.integers(0, 3, 10), 3))
        probs = model.predict_proba(X)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_save_load_round_trip_logistic(self, tmp_path):
        ds = toy_separable()
        model = train_logistic(ds, LogisticHyper(iterations=50), seed=0)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        back = load_model(str(path))
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(
            back.predict_proba(ds.features), model.predict_proba(ds.features)
        )

    def test_save_load_round_trip_constant(self, tmp_path):
        model = ConstantModel([0.97, 0.03])
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        back = load_model(str(path))
        np.testing.assert_array_equal(back.probs, model.probs)

    @pytest.mark.parametrize("text, message", [
        ("kind logistic\nclasses 2\n", "logistic model has no 'features' field"),
        ("kind logistic\nclasses 2\nfeatures 2\nmu 0 0\nsd 1 1\n",
         "logistic model has no 'weights' field"),
        ("kind logistic\nclasses 2\nfeatures 2\nmu 0 0\nsd 1 1\nweights 1 2 3\n",
         "field 'weights' has 3 values, expected 6 (3 rows of 2 classes)"),
        ("kind logistic\nclasses 2\nfeatures 2\nmu 0\nsd 1 1\nweights 0 0 0 0 0 0\n",
         "field 'mu' has 1 values, expected 2 (one per feature)"),
        ("kind logistic\nclasses two\n", "field 'classes' holds 'two', not int values"),
        ("kind logistic\nclasses 2\nfeatures 1\nmu x\n", "field 'mu' holds 'x', not float values"),
        ("kind logistic\nclasses 1\n", "field 'classes' must be one integer >= 2"),
        ("kind logistic\nclasses 2\nfeatures 1\nmu 0\nsd 0\nweights 1 -1 0 0\n",
         "field 'sd' holds a value <= 0"),
        ("kind logistic\nclasses 2\nfeatures 1\nmu nan\nsd 1\nweights 1 -1 0 0\n",
         "field 'mu' holds a non-finite value"),
        ("kind constant\nclasses 2\n", "constant model has no 'probs' field"),
        ("kind constant\nprobs 0.5 0.5\n", "constant model has no 'classes' field"),
        ("kind constant\nclasses 3\nprobs 0.5 0.5\n",
         "field 'probs' has 2 values, expected 3 (one per class)"),
        ("kind constant\nclasses 2\nprobs 0.5 0.6\n", "probs must be a distribution"),
        ("kind constant\nclasses 2\nprobs 0.5 0.5\nprobs 0.1 0.9\n",
         "field 'probs' appears more than once"),
        ("kind logistic\nkind constant\nclasses 2\nprobs 0.5 0.5\n",
         "field 'kind' appears more than once"),
    ])
    def test_load_rejects_malformed_file_naming_it(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    def test_num_features(self):
        model = train_logistic(toy_separable(), LogisticHyper(iterations=5))
        assert model.num_features == 2
        assert ConstantModel([0.5, 0.5]).num_features is None
        ds = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        assert majority_table(ds).num_features == 3

    @pytest.mark.parametrize("k", [2, 3])
    def test_logistic_query_of_the_wrong_width_is_rejected(self, k):
        model = models.LogisticModel(np.zeros((3, k)), np.zeros(2), np.ones(2), k)
        with pytest.raises(ValueError, match="trained on 2 feature columns, query has 5"):
            model.predict_proba(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="trained on 2 feature columns, query has 1"):
            model.predict(np.zeros(1))
