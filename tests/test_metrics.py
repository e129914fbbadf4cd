import math

import mpmath
import numpy as np
import pytest

from labeldp import metrics
from labeldp.attacks import prior_attack, spa
from labeldp.data import Conditional, Dataset, MixtureModel, gen_mixture
from labeldp.mechanisms import randomized_response
from labeldp.metrics import (
    BoundQuery,
    MetricsReport,
    UtilitySpec,
    advantage,
    advantage_bound,
    best_response,
    bound_factor,
    calibrate_epsilon,
    dp_generalization_gap_bound,
    eau_empirical,
    eau_monte_carlo,
    expected_utilities,
    hoeffding_lower_bound,
    leau_estimate,
    leau_exact,
    reconstruction_bound,
    universal_bound,
    utility,
    utility_matrix,
    weak_threat_bound,
)
from labeldp.models import LogisticHyper, bayes_model, constant_model, majority_table, train_logistic

mpmath.mp.dps = 40


def mp_factor(eps, delta):
    return float(1 - 2 / (1 + mpmath.exp(eps)) * (1 - mpmath.mpf(delta)))


def mp_draft_factor(eps, delta):
    return float(1 - mpmath.exp(-mpmath.mpf(eps)) * (1 - mpmath.mpf(delta)))


class TestUtility:
    def test_zero_one(self):
        spec = UtilitySpec.zero_one()
        assert utility(spec, np.array([1, 2]), np.array([1, 0])).tolist() == [1.0, 0.0]
        assert spec.bound == 1.0

    def test_weighted_plug_in(self):
        spec = UtilitySpec.weighted([0.97, 0.03])
        value = utility(spec, np.array([1]), np.array([1]))[0]
        assert value == pytest.approx(1.0 / 0.06, abs=1e-9)
        assert spec.bound == pytest.approx(1.0 / 0.06)

    def test_regression_endpoints(self):
        spec = UtilitySpec.regression(1.0)
        assert utility(spec, np.array([0.0]), np.array([0.0]))[0] == 4.0
        assert utility(spec, np.array([2.0]), np.array([0.0]))[0] == 0.0
        assert spec.bound == 4.0

    def test_weighted_zero_marginal_rejected(self):
        with pytest.raises(ValueError):
            UtilitySpec.weighted([1.0, 0.0])

    @pytest.mark.parametrize("marginal", [[0.5, math.nan], [math.nan, math.nan], [math.inf, 0.5]])
    def test_weighted_non_finite_marginal_rejected(self, marginal):
        with pytest.raises(ValueError, match="marginal must be a probability vector"):
            UtilitySpec.weighted(marginal)

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(0)
        for spec in (UtilitySpec.zero_one(), UtilitySpec.weighted([0.7, 0.2, 0.1])):
            yhat = rng.integers(0, 3, 500)
            y = rng.integers(0, 3, 500)
            vals = utility(spec, yhat, y)
            assert np.all(vals >= 0) and np.all(vals <= spec.bound + 1e-12)

    def test_argmax_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=200)
        U = utility_matrix(UtilitySpec.weighted([0.4, 0.3, 0.2, 0.1]), 4)
        base = np.argmax(probs @ U.T, axis=1)
        scaled = np.argmax(probs @ (7.3 * U).T, axis=1)
        np.testing.assert_array_equal(base, scaled)


class TestEau:
    def test_empirical_exact_match(self):
        y = np.array([0, 1, 2])
        assert eau_empirical(y, y, UtilitySpec.zero_one()) == 1.0

    def test_empirical_all_zero_weighted_is_half(self):
        labels = np.zeros(1000, dtype=np.int64)
        labels[:30] = 1
        spec = UtilitySpec.weighted([0.97, 0.03])
        assert eau_empirical(np.zeros(1000, dtype=int), labels, spec) == pytest.approx(0.5)

    def test_empirical_disjoint_is_zero(self):
        assert eau_empirical(np.array([1, 1]), np.array([0, 0]), UtilitySpec.zero_one()) == 0.0

    def test_empirical_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            eau_empirical(np.array([0]), np.array([0, 1]), UtilitySpec.zero_one())

    def test_monte_carlo_label_revealing_pipeline(self):
        """Deterministic conditional plus a memorizing pipeline: every trial
        recovers the labels exactly, so the estimate is 1 with stderr 0."""
        cond = Conditional(2, lambda X: np.column_stack([X[:, 0] < 0, X[:, 0] >= 0]).astype(float))
        X = np.linspace(-1, 1, 20)[:, None]

        def pipeline(features, labels, seeds):
            return [majority_table(Dataset(features, row, 2)) for row in labels]

        est, se = eau_monte_carlo(
            cond, X, pipeline, lambda k: spa(k, UtilitySpec.zero_one()),
            UtilitySpec.zero_one(), trials=10, seed=0,
        )
        assert est == 1.0 and se == 0.0

    def test_monte_carlo_exhausted_budget_hits_chance(self):
        """With eps=0 the privatized labels carry no information, so SPA
        accuracy sits at 1/m (brute-force expectation over resampling)."""
        m = 4
        cond = Conditional(m, lambda X: np.full((X.shape[0], m), 1.0 / m))
        X = np.random.default_rng(0).normal(size=(40, 3))
        hyper = LogisticHyper(iterations=25)

        def pipeline(features, labels, seeds):
            return [
                train_logistic(
                    Dataset(features, randomized_response(row, m, 0.0, seed), m), hyper, seed
                )
                for row, seed in zip(labels, seeds)
            ]

        est, se = eau_monte_carlo(
            cond, X, pipeline, lambda k: spa(k, UtilitySpec.zero_one()),
            UtilitySpec.zero_one(), trials=300, seed=1,
        )
        assert abs(est - 1.0 / m) <= 3 * se

    def test_monte_carlo_prior_attack_matches_exact_leau(self):
        mixture = MixtureModel(3, 5, 2.0)
        ds, cond = gen_mixture(mixture, 60, seed=2)
        spec = UtilitySpec.zero_one()

        def pipeline(features, labels, seeds):
            return [constant_model([1 / 3] * 3) for _ in labels]

        est, se = eau_monte_carlo(
            cond, ds.features, pipeline, prior_attack, spec, trials=400, seed=3
        )
        assert abs(est - leau_exact(cond, ds.features, spec)) <= 3 * max(se, 1e-12)


class TestMonteCarloBlocks:
    """eau_monte_carlo hands the pipeline blocks of trials; the blocks must
    change neither the draws nor the result."""

    @staticmethod
    def run(monkeypatch, block, stacked, trials=8):
        mixture = MixtureModel(3, 4, 1.0)
        ds, cond = gen_mixture(mixture, 30, seed=4)
        monkeypatch.setattr(metrics, "MC_BLOCK_ENTRIES", block * 30 * 3)
        hyper = LogisticHyper(iterations=20)
        blocks = []

        def pipeline(features, labels, seeds):
            blocks.append(len(labels))
            if stacked:
                return train_logistic(Dataset(features, labels, 3), hyper, seeds)
            return [train_logistic(Dataset(features, row, 3), hyper, seed)
                    for row, seed in zip(labels, seeds)]

        result = eau_monte_carlo(cond, ds.features, pipeline,
                                 lambda k: spa(k, UtilitySpec.zero_one()),
                                 UtilitySpec.zero_one(), trials=trials, seed=9)
        return result, blocks

    def test_stacked_blocks_match_per_trial_fits(self, monkeypatch):
        stacked, blocks = self.run(monkeypatch, 3, stacked=True)
        assert blocks == [3, 3, 2]
        single, ones = self.run(monkeypatch, 1, stacked=False)
        assert ones == [1] * 8
        assert stacked == single

    def test_pipeline_must_return_one_model_per_trial(self):
        cond = Conditional(2, lambda X: np.full((X.shape[0], 2), 0.5))
        with pytest.raises(ValueError, match="returned 1 models for 4 label vectors"):
            eau_monte_carlo(cond, np.zeros((5, 1)), lambda f, labels, s: [constant_model([0.5, 0.5])],
                            lambda k: spa(k, UtilitySpec.zero_one()),
                            UtilitySpec.zero_one(), trials=4, seed=0)


class TestLeau:
    def test_deterministic_conditional_gives_one(self):
        cond = Conditional(2, lambda X: np.tile([0.0, 1.0], (X.shape[0], 1)))
        assert leau_exact(cond, np.zeros((10, 1)), UtilitySpec.zero_one()) == 1.0

    def test_uniform_conditional_gives_one_over_m(self):
        cond = Conditional(5, lambda X: np.full((X.shape[0], 5), 0.2))
        assert leau_exact(cond, np.zeros((7, 1)), UtilitySpec.zero_one()) == pytest.approx(0.2)

    def test_single_binary_row(self):
        cond = Conditional(2, lambda X: np.tile([0.2689, 0.7311], (X.shape[0], 1)))
        assert leau_exact(cond, np.zeros((1, 1)), UtilitySpec.zero_one()) == pytest.approx(0.7311)

    def test_estimate_with_bayes_candidate_matches_exact(self):
        ds, cond = gen_mixture(MixtureModel(2, 4, 1.0), 4000, seed=4)
        spec = UtilitySpec.zero_one()
        est = leau_estimate([bayes_model(cond)], ds, spec)
        exact = leau_exact(cond, ds.features, spec)
        assert abs(est - exact) < 0.03

    def test_estimate_constant_weighted_is_half(self):
        labels = np.zeros(2000, dtype=np.int64)
        labels[:60] = 1
        ds = Dataset(np.zeros((2000, 1)), labels, 2)
        spec = UtilitySpec.weighted([0.97, 0.03])
        est = leau_estimate([constant_model([0.97, 0.03])], ds, spec)
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_estimate_is_monotone_in_candidates(self):
        ds, cond = gen_mixture(MixtureModel(2, 3, 1.0), 500, seed=5)
        spec = UtilitySpec.zero_one()
        good = leau_estimate([bayes_model(cond)], ds, spec)
        both = leau_estimate([bayes_model(cond), constant_model([0.5, 0.5])], ds, spec)
        assert both >= good

    def test_estimate_needs_candidates(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)
        with pytest.raises(ValueError):
            leau_estimate([], ds, UtilitySpec.zero_one())


class TestAdvantage:
    def test_values(self):
        assert advantage(0.9, 0.9) == 0.0
        assert advantage(0.5, 0.676) == pytest.approx(-0.176)
        assert advantage(1.0, 0.0) == 1.0

    def test_report_advantage_is_exact_difference(self):
        rep = MetricsReport(eau=0.7, eau_stderr=0.01, leau=0.9, theoretical_bound=0.5)
        assert rep.advantage == 0.7 - 0.9


class TestBounds:
    def test_advantage_bound_anchors(self):
        assert advantage_bound(BoundQuery(0.0, 0.0, exp_sup_utility=1.0)) == 0.0
        assert advantage_bound(BoundQuery(math.log(3), 0.0, exp_sup_utility=1.0)) == pytest.approx(0.5, abs=1e-12)
        assert advantage_bound(BoundQuery(0.1, 0.0, exp_sup_utility=1.0)) == pytest.approx(
            0.049958374957879972, abs=1e-12
        )

    def test_universal_bound_anchors(self):
        assert universal_bound(BoundQuery(0.0, 0.0, utility_bound=1.0)) == 0.0
        assert universal_bound(BoundQuery(5.0, 1.0, utility_bound=1.0)) == 1.0
        assert universal_bound(BoundQuery(2.0, 0.0, utility_bound=1.0)) == pytest.approx(
            math.tanh(1.0), abs=1e-12
        )

    def test_generalization_gap_anchors(self):
        assert dp_generalization_gap_bound(0.0, 0.0) == 0.0
        assert dp_generalization_gap_bound(math.inf, 0.0) == 1.0
        assert dp_generalization_gap_bound(1.0, 0.01) == pytest.approx(
            0.4674959856874097, abs=1e-12
        )

    def test_weak_threat_bound(self):
        assert weak_threat_bound(BoundQuery(0.0, 0.0, exp_sup_utility=1.0)) == 0.0
        assert weak_threat_bound(BoundQuery(math.log(3), 0.0, exp_sup_utility=1.0)) == pytest.approx(0.5)
        # With the supremum attained on every row, it coincides with the
        # universal bound.
        b = 16.0
        assert weak_threat_bound(BoundQuery(1.3, 0.0, exp_sup_utility=b)) == pytest.approx(
            universal_bound(BoundQuery(1.3, 0.0, utility_bound=b))
        )

    def test_reconstruction_bound_anchors(self):
        assert reconstruction_bound(0.0, 0.0, 10) == 0.0
        assert reconstruction_bound(math.log(2), 0.0, 10) == pytest.approx(0.5, abs=1e-12)
        assert reconstruction_bound(1.0, 1e-5, 1000) == pytest.approx(
            0.6421205588285577, abs=1e-12
        )

    def test_hoeffding_anchor_values(self):
        assert hoeffding_lower_bound(1.0, 100) == pytest.approx(0.9903968056906015, abs=1e-12)
        assert hoeffding_lower_bound(1.0, 10**9) == 1.0
        assert hoeffding_lower_bound(1e-9, 100) == 0.0

    def test_against_high_precision_grid(self):
        """mpmath reference on a 50-point (eps, delta) grid, 1e-12 agreement."""
        eps_grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
        delta_grid = [0.0, 1e-6, 1e-3, 0.05, 0.3]
        for eps in eps_grid:
            for delta in delta_grid:
                ref = mp_factor(eps, delta)
                q = BoundQuery(eps, delta, utility_bound=2.0, exp_sup_utility=1.5)
                assert abs(bound_factor(eps, delta) - ref) < 1e-12
                assert abs(advantage_bound(q) - ref * 1.5) < 1e-12
                assert abs(universal_bound(q) - ref * 2.0) < 1e-12
                assert abs(weak_threat_bound(q) - ref * 1.5) < 1e-12
                assert abs(dp_generalization_gap_bound(eps, delta) - ref) < 1e-12
                draft_ref = mp_draft_factor(eps, delta)
                assert abs(bound_factor(eps, delta, draft_variant=True) - draft_ref) < 1e-12
                recon_ref = float(1 - mpmath.exp(-mpmath.mpf(eps)) + mpmath.mpf(delta) * 50)
                assert abs(reconstruction_bound(eps, delta, 50) - recon_ref) < 1e-12

    def test_draft_variant_is_looser(self):
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert bound_factor(eps, 0.0, draft_variant=True) >= bound_factor(eps, 0.0)

    def test_monotone_in_epsilon_and_delta(self):
        eps_grid = np.linspace(0.0, 10.0, 50)
        vals = [bound_factor(e, 0.0) for e in eps_grid]
        assert np.all(np.diff(vals) >= 0)
        delta_grid = np.linspace(0.0, 1.0, 50)
        vals = [bound_factor(1.0, d) for d in delta_grid]
        assert np.all(np.diff(vals) >= 0)

    def test_distribution_dependent_never_exceeds_universal(self):
        for eps in (0.1, 1.0, 4.0):
            for term in (0.2, 0.7, 1.0):
                adv = advantage_bound(BoundQuery(eps, 0.0, exp_sup_utility=term))
                uni = universal_bound(BoundQuery(eps, 0.0, utility_bound=1.0))
                assert adv <= uni + 1e-15

    def test_nan_epsilon_and_expected_supremum_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
            BoundQuery(math.nan, 0.0, utility_bound=1.0)
        with pytest.raises(ValueError, match="exp_sup_utility must be >= 0, got nan"):
            BoundQuery(1.0, 0.0, exp_sup_utility=math.nan)
        for epsilon in (math.nan, -1.0):
            with pytest.raises(ValueError, match="invalid privacy params"):
                dp_generalization_gap_bound(epsilon, 0.0)
            with pytest.raises(ValueError, match="invalid privacy params"):
                reconstruction_bound(epsilon, 0.0, 10.0)

    def test_infinite_terms_rejected(self):
        with pytest.raises(ValueError, match="utility_bound must be positive and finite, got inf"):
            BoundQuery(1.0, 0.0, utility_bound=math.inf)
        with pytest.raises(ValueError, match="exp_sup_utility must be finite, got inf"):
            BoundQuery(1.0, 0.0, exp_sup_utility=math.inf)
        with pytest.raises(ValueError, match="domain_size must be positive and finite, got inf"):
            reconstruction_bound(1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="utility_bound must be positive and finite, got inf"):
            calibrate_epsilon(0.5, 0.0, math.inf)
        assert universal_bound(BoundQuery(math.inf, 0.0, utility_bound=2.0)) == 2.0

    def test_missing_terms_rejected(self):
        with pytest.raises(ValueError):
            advantage_bound(BoundQuery(1.0, 0.0))
        with pytest.raises(ValueError):
            universal_bound(BoundQuery(1.0, 0.0))
        with pytest.raises(ValueError):
            reconstruction_bound(1.0, 0.0, 0.0)


class TestCalibrate:
    def test_ln3_anchor(self):
        result = calibrate_epsilon(0.5, 0.0, 1.0)
        assert result.feasible
        assert result.epsilon == pytest.approx(math.log(3), abs=1e-12)

    def test_small_target_small_epsilon(self):
        result = calibrate_epsilon(1e-6, 0.0, 1.0)
        assert result.feasible and 0 < result.epsilon < 1e-5

    def test_round_trip_on_feasible_grid(self):
        for frac in (0.01, 0.1, 0.5, 0.9):
            for delta in (0.0, 1e-4, 0.005):
                for b in (1.0, 4.0):
                    if frac <= delta:
                        continue
                    target = frac * b
                    result = calibrate_epsilon(target, delta, b)
                    assert result.feasible
                    back = universal_bound(BoundQuery(result.epsilon, delta, utility_bound=b))
                    assert back == pytest.approx(target, abs=1e-9)

    def test_target_above_bound_is_tagged_infinite(self):
        result = calibrate_epsilon(2.0, 0.0, 1.0)
        assert result.feasible and math.isinf(result.epsilon)

    def test_infeasible_delta(self):
        # At eps=0 the bound is delta * B = 0.5 > target 0.1.
        result = calibrate_epsilon(0.1, 0.5, 1.0)
        assert not result.feasible


class TestExpectedUtilityMachinery:
    def test_best_response_reduces_to_argmax_for_zero_one(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(5), size=100)
        np.testing.assert_array_equal(
            best_response(probs, UtilitySpec.zero_one()), np.argmax(probs, axis=1)
        )

    def test_expected_utilities_shape(self):
        probs = np.array([[0.2, 0.8]])
        scores = expected_utilities(probs, UtilitySpec.weighted([0.5, 0.5]))
        np.testing.assert_allclose(scores, [[0.2, 0.8]])
