import math
import tracemalloc

import numpy as np
import pytest

from labeldp.data import Conditional, Dataset, MixtureModel, gen_mixture
import labeldp.models as models
from labeldp.models import (
    _LOSS_CAP,
    LogisticHyper,
    _binary_loss,
    _design,
    _fit_scaler,
    _objective,
    _softmax,
    TrainingDivergedError,
    bayes_model,
    constant_model,
    cross_entropy_grad,
    cross_entropy_loss,
    load_model,
    log_loss,
    majority_table,
    save_model,
    stability_threshold,
    train_logistic,
)


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

    def test_deterministic(self):
        ds = toy_separable()
        a = train_logistic(ds, LogisticHyper(iterations=100), seed=0)
        b = train_logistic(ds, LogisticHyper(iterations=100), seed=0)
        np.testing.assert_array_equal(a.weights, b.weights)


def antisymmetric(w):
    return np.column_stack([-w, w])


def one_trial_binary(w, design, labels, with_grad):
    """The binary form on a stack of one: (loss, gradient column)."""
    loss, grad = _objective(w[None, :], design, None, (2.0 * labels - 1.0)[None, :], with_grad)
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
        model = train_logistic(ds, hyper, seed=0)

        design = np.hstack([(ds.features - model.mu) / model.sd, np.ones((80, 1))])
        onehot = np.zeros((80, 2))
        onehot[np.arange(80), ds.labels] = 1.0
        lr = 0.9 * stability_threshold(ds)
        W = np.zeros((5, 2))
        history = [cross_entropy_loss(W, design, onehot)]
        for _ in range(hyper.iterations):
            W = W - lr * cross_entropy_grad(W, design, onehot)
            history.append(cross_entropy_loss(W, design, onehot))

        assert model.weights.shape == (5, 2)
        np.testing.assert_array_equal(model.weights[:, 0], -model.weights[:, 1])
        np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.loss_history, history, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, d", [(5000, 20), (100, 100)])
    def test_stability_threshold_matches_svd(self, n, d):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d), rng.integers(0, 2, n), 2)
        mu, sd = ds.features.mean(axis=0), ds.features.std(axis=0)
        design = np.hstack([(ds.features - mu) / sd, np.ones((n, 1))])
        svd_value = 2.0 / (np.linalg.norm(design, 2) ** 2 / (2.0 * n))
        assert abs(stability_threshold(ds) - svd_value) <= 1e-12 * svd_value


def design_before(features, mu, sd):
    """_design as it was before it was built in one array, kept verbatim."""
    scaled = (features - mu) / sd
    return np.hstack([scaled, np.ones((scaled.shape[0], 1))])


def binary_loss_before(logits, signs, with_resid):
    """_binary_loss as it was before it was built in place, kept verbatim."""
    t = 2.0 * logits * signs
    e = np.exp(-np.abs(t))
    loss = np.minimum(np.log1p(e) - np.minimum(t, 0.0), _LOSS_CAP).sum(axis=1)
    if not with_resid:
        return loss, None
    return loss, -signs * np.where(t < 0, 1.0, e) / (1.0 + e)


class TestInPlaceKernels:
    """The design and the two-class kernel are built in place; their values
    must be the bits of the expressions they replace."""

    def test_design_is_bit_identical(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(300, 6)) * rng.uniform(0.1, 50.0, 6) + 3.0
        features[:, 2] = 7.5
        features[0, 1] = -0.0
        mu, sd = _fit_scaler(features)
        assert sd[2] == 1.0  # a constant column keeps sd 1
        design = _design(features, mu, sd)
        expected = design_before(features, mu, sd)
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
            expected_loss, expected_resid = binary_loss_before(logits.copy(), signs, with_resid)
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


def weight_space_fit(ds, hyper):
    """Descent on the weights themselves, the path train_logistic takes when
    n >= 2(d+1), on any shape: (weights per trial, loss history per trial)."""
    stacked = ds.labels.ndim == 2
    labels = ds.labels if stacked else ds.labels[None, :]
    trials, k = labels.shape[0], ds.num_classes
    design = _design(ds.features, *_fit_scaler(ds.features))
    lr = hyper.learning_rate or 0.9 * stability_threshold(ds)
    if k == 2:
        targets, params = 2.0 * labels - 1.0, np.zeros((trials, design.shape[1]))
    else:
        targets, params = labels, np.zeros((design.shape[1], trials, k))
    history = []
    for it in range(hyper.iterations + 1):
        last = it == hyper.iterations
        loss, grad = _objective(params, design, None, targets, not last)
        history.append(loss)
        if not last:
            params -= lr * grad
    if k == 2:
        weights = [np.column_stack([-w, w]) for w in params]
    else:
        weights = list(params.transpose(1, 0, 2))
    return weights, np.array(history).T


def assert_close_relative(actual, expected, bound=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= bound * np.max(np.abs(expected))


class TestCoefficientSpace:
    """With n < 2(d+1) rows, train_logistic descends on coefficients A of
    W = design.T @ A; it must agree with descent on the weights."""

    @staticmethod
    def problem(k, n, d, trials=None, seed=31):
        rng = np.random.default_rng([k, n, d, seed])
        features = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0, d) + rng.normal(size=d)
        shape = n if trials is None else (trials, n)
        return Dataset(features, rng.integers(0, k, size=shape), k)

    @staticmethod
    def spy_paths(monkeypatch):
        """Record, per _objective call, whether it ran in coefficient space."""
        paths = []
        original = models._objective

        def spy(params, design, gram, *args):
            paths.append(gram is not None)
            return original(params, design, gram, *args)

        monkeypatch.setattr(models, "_objective", spy)
        return paths

    @pytest.mark.parametrize("k", [2, 3, 100])
    @pytest.mark.parametrize("trials", [None, 4])
    def test_matches_weight_space_descent(self, monkeypatch, k, trials):
        hyper = LogisticHyper(iterations=35)
        ds = self.problem(k, n=30, d=40, trials=trials)
        paths = self.spy_paths(monkeypatch)
        fitted = train_logistic(ds, hyper, seed=0)
        assert paths and all(paths)
        fitted = fitted if trials else [fitted]
        weights, histories = weight_space_fit(ds, hyper)
        for model, w, h in zip(fitted, weights, histories, strict=True):
            assert model.weights.shape == w.shape
            assert_close_relative(model.weights, w)
            np.testing.assert_allclose(model.loss_history, h, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(model.predict(ds.features),
                                          np.argmax(_design(ds.features, model.mu, model.sd) @ w,
                                                    axis=1))

    @pytest.mark.parametrize("k", [2, 5])
    def test_shape_boundary(self, monkeypatch, k):
        d = 6
        hyper = LogisticHyper(iterations=20)
        for n, coefficients in [(2 * (d + 1) - 1, True), (2 * (d + 1), False)]:
            ds = self.problem(k, n=n, d=d, trials=3)
            paths = self.spy_paths(monkeypatch)
            fitted = train_logistic(ds, hyper, seed=0)
            assert set(paths) == {coefficients}
            weights, histories = weight_space_fit(ds, hyper)
            for model, w, h in zip(fitted, weights, histories, strict=True):
                if coefficients:
                    assert_close_relative(model.weights, w)
                    np.testing.assert_allclose(model.loss_history, h, rtol=1e-12, atol=0)
                else:
                    np.testing.assert_array_equal(model.weights, w)
                    assert model.loss_history == h.tolist()

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n, seed, coefficients, iteration", [
        pytest.param(5, 0, True, 7, id="coefficients"),
        pytest.param(10, 2, False, 17, id="weights"),
    ])
    def test_divergence_names_trial_and_iteration(
        self, monkeypatch, stacked, n, seed, coefficients, iteration
    ):
        # The two spaces (and a stack and its single fits) round differently,
        # and overflow turns that into different divergence points, so each
        # space gets its own data and is not compared with the other.
        features, labels = conflicting_rows(3, n, seed)
        paths = self.spy_paths(monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train_logistic(Dataset(features, labels if stacked else labels[2], 3), OVERFLOW)
        assert set(paths) == {coefficients}
        trial = " in trial 2" if stacked else ""
        assert str(err.value) == f"non-finite loss{trial} at iteration {iteration}"


class TestAnalyticModels:
    def test_bayes_equidistant_point_is_symmetric(self):
        cond = MixtureModel(2, 4, 1.0).conditional()
        model = bayes_model(cond)
        midpoint = np.array([[0.5, 0.5, 0.0, 0.0]])
        np.testing.assert_allclose(model.predict_proba(midpoint)[0], [0.5, 0.5], atol=1e-12)

    def test_bayes_at_component_mean(self):
        cond = MixtureModel(2, 50, 1.0).conditional()
        probs = bayes_model(cond).predict_proba(np.eye(2, 50)[:1])[0]
        np.testing.assert_allclose(probs, [0.731059, 0.268941], atol=1e-6)

    def test_bayes_one_hot_conditional(self):
        cond = Conditional(2, lambda X: np.tile([1.0, 0.0], (X.shape[0], 1)))
        assert np.all(bayes_model(cond).predict(np.zeros((5, 1))) == 0)

    def test_constant_model_ignores_input(self):
        model = constant_model([0.97, 0.03])
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_array_equal(probs, np.tile([0.97, 0.03], (4, 1)))

    def test_constant_model_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            constant_model([0.5, 0.6])

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
    def test_constant_model_rejects_non_finite_probs(self, probs):
        with pytest.raises(ValueError, match="probs must be a distribution"):
            constant_model(probs)

    def test_constant_log_loss_is_label_entropy_at_matching_marginal(self):
        """Labels at exactly the 3% marginal: loss equals the entropy
        H(0.03) = 0.134742 nats."""
        labels = np.zeros(10000, dtype=int)
        labels[:300] = 1
        ds = Dataset(np.zeros((10000, 1)), labels, 2)
        loss = log_loss(constant_model([0.97, 0.03]), ds)
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

    def test_label_stack_is_rejected(self):
        ds = Dataset(np.zeros((3, 1)), np.array([[0, 1, 1], [1, 0, 0]]), 2)
        with pytest.raises(ValueError, match="one label vector, not a stack"):
            majority_table(ds)

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
        assert log_loss(constant_model([1.0, 0.0]), ds) <= 1e-14

    def test_uniform_binary_is_ln_two(self):
        ds = Dataset(np.zeros((7, 1)), np.array([0, 1, 0, 1, 0, 1, 0]), 2)
        np.testing.assert_allclose(log_loss(constant_model([0.5, 0.5]), ds), math.log(2), atol=1e-12)

    def test_skewed_constant_on_all_zero_labels(self):
        ds = Dataset(np.zeros((9, 1)), np.zeros(9, dtype=int), 2)
        np.testing.assert_allclose(
            log_loss(constant_model([0.97, 0.03]), ds), 0.030459207484708574, atol=1e-12
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
            model = bayes_model(MixtureModel(3, 3, 2.0).conditional())
        elif kind == "constant":
            model = constant_model([0.2, 0.3, 0.5])
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
        model = constant_model([0.97, 0.03])
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
        assert constant_model([0.5, 0.5]).num_features is None
        ds = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        assert majority_table(ds).num_features == 3
