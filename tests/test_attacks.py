import numpy as np
import pytest

from labeldp.attacks import marginal_guess, spa
from labeldp.data import MixtureModel, gen_mixture
from labeldp.metrics import UtilitySpec, eau_empirical
from labeldp.models import BayesModel, ConstantModel, majority_table


class FixedScoreModel:
    """Test double returning a fixed probability row for every input."""

    kind = "fixed"

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)
        self.num_classes = self.row.size

    def predict_proba(self, features):
        return np.tile(self.row, (np.atleast_2d(features).shape[0], 1))


class TestSpa:
    def test_label_revealing_model_recovers_labels(self):
        ds, _ = gen_mixture(MixtureModel(3, 3, 1.0), 50, seed=0)
        model = majority_table(ds)
        out = spa(model, ds.features, UtilitySpec.zero_one())
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, ds.labels)
        assert eau_empirical(out, ds.labels, UtilitySpec.zero_one()) == 1.0

    def test_weighted_scores_flip_the_argmax(self):
        """Direct ratio oracle: 0.04/0.03 > 0.96/0.97 so the minority class
        wins; 0.02/0.03 < 0.98/0.97 so the majority class wins."""
        spec = UtilitySpec.weighted([0.97, 0.03])
        x = np.zeros((1, 1))
        assert spa(FixedScoreModel([0.96, 0.04]), x, spec)[0] == 1
        assert spa(FixedScoreModel([0.98, 0.02]), x, spec)[0] == 0

    def test_zero_one_equals_weighted_under_uniform_marginal(self):
        ds, posterior = gen_mixture(MixtureModel(4, 5, 2.0), 200, seed=1)
        model = BayesModel(posterior, 4)
        a = spa(model, ds.features, UtilitySpec.zero_one())
        b = spa(model, ds.features, UtilitySpec.weighted([0.25] * 4))
        np.testing.assert_array_equal(a, b)

    def test_one_hot_constant_predicts_that_class_everywhere(self):
        model = ConstantModel([0.0, 1.0])
        assert np.all(spa(model, np.zeros((8, 2)), UtilitySpec.zero_one()) == 1)


def bayes_spa(features, posterior, num_classes):
    """SPA on the released exact posterior: the Bayes-classifier attack."""
    return spa(BayesModel(posterior, num_classes), features, UtilitySpec.zero_one())


class TestSpaOnBayesModel:
    def test_deterministic_conditional_is_perfect(self):
        def posterior(X):
            return np.column_stack([X[:, 0] < 0, X[:, 0] >= 0]).astype(float)

        X = np.array([[-1.0], [1.0], [2.0], [-3.0]])
        np.testing.assert_array_equal(bayes_spa(X, posterior, 2), [0, 1, 1, 0])

    def test_uniform_conditional_ties_to_class_zero(self):
        def posterior(X):
            return np.full((X.shape[0], 3), 1.0 / 3.0)

        assert np.all(bayes_spa(np.zeros((5, 1)), posterior, 3) == 0)

    def test_mixture_boundary_matches_brute_force(self):
        """Oracle: densities computed from scratch; the decision follows the
        perpendicular bisector of the two means."""
        model = MixtureModel(2, 6, 1.0)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 6), scale=2.0)
        out = bayes_spa(X, model.posterior, 2)
        means = model.means()
        expected = np.array(
            [np.argmin([np.sum((x - mu) ** 2) for mu in means]) for x in X]
        )
        np.testing.assert_array_equal(out, expected)

    def test_is_the_argmax_of_the_conditional(self):
        ds, posterior = gen_mixture(MixtureModel(3, 4, 1.0), 100, seed=2)
        base = bayes_spa(ds.features, posterior, 3)
        np.testing.assert_array_equal(base, np.argmax(posterior(ds.features), axis=1))


class TestMarginalGuess:
    def test_skewed_marginal_predicts_majority(self):
        out = marginal_guess(np.array([0.97, 0.03]), 100, UtilitySpec.zero_one())
        assert out.dtype == np.int64 and out.shape == (100,)
        assert np.all(out == 0)
        labels = np.zeros(100, dtype=np.int64)
        labels[:3] = 1
        assert eau_empirical(out, labels, UtilitySpec.zero_one()) == pytest.approx(0.97)

    def test_uniform_marginal_ties_to_class_zero(self):
        assert np.all(marginal_guess(np.array([0.5, 0.5]), 4, UtilitySpec.zero_one()) == 0)

    def test_weighted_utility_makes_naive_strategies_worth_half(self):
        """All-0, all-1, and marginal-random guessing all attain a weighted
        EAU of exactly 1/2 when the labels sit at the marginal."""
        p = np.array([0.97, 0.03])
        spec = UtilitySpec.weighted(p)
        labels = np.zeros(1000, dtype=np.int64)
        labels[:30] = 1
        all_zero = np.zeros(1000, dtype=np.int64)
        all_one = np.ones(1000, dtype=np.int64)
        rng = np.random.default_rng(0)
        marginal_random = (rng.random(1000) < 0.03).astype(np.int64)
        assert eau_empirical(all_zero, labels, spec) == pytest.approx(0.5, abs=1e-12)
        assert eau_empirical(all_one, labels, spec) == pytest.approx(0.5, abs=1e-12)
        expected = np.mean(
            np.where(marginal_random == labels, 1.0 / (2 * p[labels]), 0.0)
        )
        assert eau_empirical(marginal_random, labels, spec) == pytest.approx(expected)

    def test_missing_marginal_rejected(self):
        with pytest.raises(ValueError, match="marginal"):
            marginal_guess(None, 2, UtilitySpec.zero_one())

    @pytest.mark.parametrize("marginal", [
        [0.2, np.nan], [5.0, -3.0], [0.5, 0.4], [np.inf, 0.0], [[0.5, 0.5]],
    ])
    def test_marginal_must_be_a_probability_vector(self, marginal):
        with pytest.raises(ValueError, match="marginal must be a probability vector"):
            marginal_guess(marginal, 2, UtilitySpec.zero_one())

    def test_marginal_may_have_zero_entries(self):
        labels = marginal_guess([0.0, 1.0], 3, UtilitySpec.zero_one())
        np.testing.assert_array_equal(labels, [1, 1, 1])
