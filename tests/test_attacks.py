import numpy as np
import pytest

from labeldp.attacks import AdversaryKnowledge, InferredLabels, marginal_guess, prior_attack, spa
from labeldp.data import Conditional, MixtureModel, gen_mixture
from labeldp.metrics import UtilitySpec, eau_empirical
from labeldp.models import bayes_model, constant_model, majority_table


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
        out = spa(AdversaryKnowledge(features=ds.features, model=model), UtilitySpec.zero_one())
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert eau_empirical(out, ds.labels, UtilitySpec.zero_one()) == 1.0

    def test_weighted_scores_flip_the_argmax(self):
        """Direct ratio oracle: 0.04/0.03 > 0.96/0.97 so the minority class
        wins; 0.02/0.03 < 0.98/0.97 so the majority class wins."""
        spec = UtilitySpec.weighted([0.97, 0.03])
        x = np.zeros((1, 1))
        k1 = AdversaryKnowledge(features=x, model=FixedScoreModel([0.96, 0.04]))
        assert spa(k1, spec).labels[0] == 1
        k2 = AdversaryKnowledge(features=x, model=FixedScoreModel([0.98, 0.02]))
        assert spa(k2, spec).labels[0] == 0

    def test_zero_one_equals_weighted_under_uniform_marginal(self):
        ds, cond = gen_mixture(MixtureModel(4, 5, 2.0), 200, seed=1)
        knowledge = AdversaryKnowledge(features=ds.features, model=bayes_model(cond))
        a = spa(knowledge, UtilitySpec.zero_one())
        b = spa(knowledge, UtilitySpec.weighted([0.25] * 4))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_missing_model_rejected(self):
        cond = MixtureModel(2, 2, 1.0).conditional()
        knowledge = AdversaryKnowledge(features=np.zeros((3, 2)), conditional=cond)
        with pytest.raises(ValueError, match="model"):
            spa(knowledge, UtilitySpec.zero_one())

    def test_one_hot_constant_predicts_that_class_everywhere(self):
        model = constant_model([0.0, 1.0])
        knowledge = AdversaryKnowledge(features=np.zeros((8, 2)), model=model)
        assert np.all(spa(knowledge, UtilitySpec.zero_one()).labels == 1)


class TestPriorAttack:
    def test_deterministic_conditional_is_perfect(self):
        cond = Conditional(2, lambda X: np.column_stack([X[:, 0] < 0, X[:, 0] >= 0]).astype(float))
        X = np.array([[-1.0], [1.0], [2.0], [-3.0]])
        knowledge = AdversaryKnowledge(features=X, conditional=cond)
        np.testing.assert_array_equal(prior_attack(knowledge).labels, [0, 1, 1, 0])

    def test_uniform_conditional_ties_to_class_zero(self):
        cond = Conditional(3, lambda X: np.full((X.shape[0], 3), 1.0 / 3.0))
        knowledge = AdversaryKnowledge(features=np.zeros((5, 1)), conditional=cond)
        assert np.all(prior_attack(knowledge).labels == 0)

    def test_mixture_boundary_matches_brute_force(self):
        """Oracle: densities computed from scratch; the decision follows the
        perpendicular bisector of the two means."""
        model = MixtureModel(2, 6, 1.0)
        cond = model.conditional()
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 6), scale=2.0)
        knowledge = AdversaryKnowledge(features=X, conditional=cond)
        out = prior_attack(knowledge).labels
        means = model.means()
        expected = np.array(
            [np.argmin([np.sum((x - mu) ** 2) for mu in means]) for x in X]
        )
        np.testing.assert_array_equal(out, expected)

    def test_invariant_to_released_model(self):
        ds, cond = gen_mixture(MixtureModel(3, 4, 1.0), 100, seed=2)
        base = prior_attack(AdversaryKnowledge(features=ds.features, conditional=cond))
        for model in (constant_model([1.0, 0.0, 0.0]), majority_table(ds)):
            with_model = prior_attack(
                AdversaryKnowledge(features=ds.features, model=model, conditional=cond)
            )
            np.testing.assert_array_equal(with_model.labels, base.labels)

    def test_missing_conditional_rejected(self):
        knowledge = AdversaryKnowledge(
            features=np.zeros((2, 2)), model=constant_model([0.5, 0.5])
        )
        with pytest.raises(ValueError, match="conditional"):
            prior_attack(knowledge)


class TestMarginalGuess:
    def test_skewed_marginal_predicts_majority(self):
        knowledge = AdversaryKnowledge(
            features=np.zeros((100, 1)),
            model=constant_model([0.5, 0.5]),
            marginal=np.array([0.97, 0.03]),
        )
        out = marginal_guess(knowledge, UtilitySpec.zero_one())
        assert np.all(out.labels == 0)
        labels = np.zeros(100, dtype=np.int64)
        labels[:3] = 1
        assert eau_empirical(out, labels, UtilitySpec.zero_one()) == pytest.approx(0.97)

    def test_uniform_marginal_ties_to_class_zero(self):
        knowledge = AdversaryKnowledge(
            features=np.zeros((4, 1)),
            model=constant_model([0.5, 0.5]),
            marginal=np.array([0.5, 0.5]),
        )
        assert np.all(marginal_guess(knowledge).labels == 0)

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
        knowledge = AdversaryKnowledge(
            features=np.zeros((2, 1)), model=constant_model([0.5, 0.5])
        )
        with pytest.raises(ValueError, match="marginal"):
            marginal_guess(knowledge)


class TestKnowledgeContainer:
    def test_requires_model_or_conditional(self):
        with pytest.raises(ValueError):
            AdversaryKnowledge(features=np.zeros((2, 2)))

    @pytest.mark.parametrize("marginal", [
        [0.2, np.nan], [5.0, -3.0], [0.5, 0.4], [np.inf, 0.0], [[0.5, 0.5]],
    ])
    def test_marginal_must_be_a_probability_vector(self, marginal):
        with pytest.raises(ValueError, match="marginal must be a probability vector"):
            AdversaryKnowledge(np.zeros((2, 1)), constant_model([0.5, 0.5]), marginal=marginal)

    def test_marginal_may_have_zero_entries(self):
        knowledge = AdversaryKnowledge(
            np.zeros((3, 1)), constant_model([0.5, 0.5]), marginal=[0.0, 1.0]
        )
        np.testing.assert_array_equal(marginal_guess(knowledge).labels, [1, 1, 1])

    def test_inferred_labels_validate(self):
        with pytest.raises(ValueError):
            InferredLabels(np.array([0, -1]), "bad")

    def test_len(self):
        assert len(InferredLabels(np.array([0, 1, 0]), "x")) == 3
