import math
import re
import sys

import mpmath
import numpy as np
import pytest

from labeldp import metrics
from labeldp.attacks import marginal_guess
from labeldp.data import Dataset, MixtureModel, gen_mixture
from labeldp.mechanisms import randomized_response
from labeldp.metrics import (
    UtilitySpec,
    advantage_bound,
    best_response,
    bound_factor,
    calibrate_epsilon,
    eau_empirical,
    eau_monte_carlo,
    expected_utilities,
    hoeffding_lower_bound,
    leau_estimate,
    leau_exact,
    reconstruction_bound,
    universal_bound,
    utility,
)
from labeldp.models import BayesModel, ConstantModel, LogisticHyper, majority_table, train_logistic

mpmath.mp.dps = 40


def mp_factor(eps, delta):
    return float(1 - 2 / (1 + mpmath.exp(eps)) * (1 - mpmath.mpf(delta)))


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

    def test_weighted_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="weighted utility needs strictly positive marginals"):
            UtilitySpec.weighted([1.0, 0.0])

    def test_weighted_marginal_at_the_overflow_edge(self):
        """1 / (2p) overflows exactly for p <= 0.5 / max float: that p is
        rejected, naming the marginal, with no overflow warning (warnings
        are errors in this suite), and the next float up is kept."""
        edge = 0.5 / sys.float_info.max
        with pytest.raises(ValueError, match=re.escape("finite, got [1.00000000e+000 2.78134232e-309]")):
            UtilitySpec.weighted([1.0, edge])
        above = np.nextafter(edge, 1.0)
        weights = UtilitySpec.weighted([1.0, above]).weights
        assert np.isfinite(weights).all() and weights[1] == 1.0 / (2.0 * above)

    def test_weighted_weights_bit_for_bit(self):
        p = np.array([0.97, 0.03])
        assert UtilitySpec.weighted([0.97, 0.03]).weights.tobytes() == (1.0 / (2.0 * p)).tobytes()

    @pytest.mark.parametrize("weights", [
        pytest.param([1.0, -0.5], id="negative"),
        pytest.param([1.0, math.nan], id="nan"),
        pytest.param([[1.0, 2.0]], id="2-d"),
    ])
    def test_direct_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights must be a finite, strictly positive vector"):
            UtilitySpec(np.array(weights))

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
        scores = expected_utilities(probs, UtilitySpec.weighted([0.4, 0.3, 0.2, 0.1]))
        base = np.argmax(scores, axis=1)
        scaled = np.argmax(7.3 * scores, axis=1)
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
        X = np.linspace(-1, 1, 20)[:, None]
        probs = np.column_stack([X[:, 0] < 0, X[:, 0] >= 0]).astype(float)

        def pipeline(features, labels, seeds):
            return [majority_table(Dataset(features, row, 2)) for row in labels]

        est, se = eau_monte_carlo(probs, X, pipeline, UtilitySpec.zero_one(), trials=10, seed=0)
        assert est == 1.0 and se == 0.0

    @pytest.mark.parametrize("trials", [1, math.nan])
    def test_monte_carlo_needs_two_trials(self, trials):
        """NaN passes a `<` test; the check rejects it before any trial runs."""
        def pipeline(features, labels, seeds):
            raise AssertionError("a trial ran")

        with pytest.raises(ValueError, match=f"^need at least 2 trials, got {trials}$"):
            eau_monte_carlo(np.full((4, 2), 0.5), np.zeros((4, 1)), pipeline,
                            UtilitySpec.zero_one(), trials=trials, seed=0)

    def test_monte_carlo_exhausted_budget_hits_chance(self):
        """With eps=0 the privatized labels carry no information, so SPA
        accuracy sits at 1/m (brute-force expectation over resampling)."""
        m = 4
        X = np.random.default_rng(0).normal(size=(40, 3))
        hyper = LogisticHyper(iterations=25)

        def pipeline(features, labels, seeds):
            return [
                train_logistic(
                    Dataset(features, randomized_response(row, m, 0.0, seed), m), hyper, seed
                )
                for row, seed in zip(labels, seeds)
            ]

        est, se = eau_monte_carlo(np.full((40, m), 1.0 / m), X, pipeline, UtilitySpec.zero_one(),
                                  trials=300, seed=1)
        assert abs(est - 1.0 / m) <= 3 * se

    def test_monte_carlo_bayes_model_matches_exact_leau(self):
        """A pipeline that releases the exact conditional ignores the labels,
        so SPA on it is the label-independent attack."""
        mixture = MixtureModel(3, 5, 2.0)
        ds, posterior = gen_mixture(mixture, 60, seed=2)
        probs = posterior(ds.features)
        spec = UtilitySpec.zero_one()

        def pipeline(features, labels, seeds):
            return [BayesModel(posterior, 3) for _ in labels]

        est, se = eau_monte_carlo(probs, ds.features, pipeline, spec, trials=400, seed=3)
        assert abs(est - leau_exact(probs, spec)) <= 3 * max(se, 1e-12)


class TestMonteCarloBlocks:
    """eau_monte_carlo hands the pipeline blocks of trials; the blocks must
    change neither the draws nor the result."""

    @staticmethod
    def run(monkeypatch, block, stacked, trials=8):
        mixture = MixtureModel(3, 4, 1.0)
        ds, posterior = gen_mixture(mixture, 30, seed=4)
        monkeypatch.setattr(metrics, "MC_BLOCK_ENTRIES", block * 30 * 3)
        hyper = LogisticHyper(iterations=20)
        blocks = []

        def pipeline(features, labels, seeds):
            blocks.append(len(labels))
            if stacked:
                return train_logistic(Dataset(features, labels, 3), hyper, seeds)
            return [train_logistic(Dataset(features, row, 3), hyper, seed)
                    for row, seed in zip(labels, seeds)]

        result = eau_monte_carlo(posterior(ds.features), ds.features, pipeline,
                                 UtilitySpec.zero_one(), trials=trials, seed=9)
        return result, blocks

    def test_stacked_blocks_match_per_trial_fits(self, monkeypatch):
        stacked, blocks = self.run(monkeypatch, 3, stacked=True)
        assert blocks == [3, 3, 2]
        single, ones = self.run(monkeypatch, 1, stacked=False)
        assert ones == [1] * 8
        assert stacked == single

    def test_probs_must_have_one_row_per_feature_row(self):
        with pytest.raises(ValueError, match=r"one row per feature row, got shape \(4, 2\) for 5"):
            eau_monte_carlo(np.full((4, 2), 0.5), np.zeros((5, 1)),
                            lambda f, labels, s: [ConstantModel([0.5, 0.5])] * len(labels),
                            UtilitySpec.zero_one(), trials=4, seed=0)

    def test_pipeline_must_return_one_model_per_trial(self):
        with pytest.raises(ValueError, match="returned 1 models for 4 label vectors"):
            eau_monte_carlo(np.full((5, 2), 0.5), np.zeros((5, 1)),
                            lambda f, labels, s: [ConstantModel([0.5, 0.5])],
                            UtilitySpec.zero_one(), trials=4, seed=0)


class TestLeau:
    def test_deterministic_conditional_gives_one(self):
        assert leau_exact(np.tile([0.0, 1.0], (10, 1)), UtilitySpec.zero_one()) == 1.0

    def test_uniform_conditional_gives_one_over_m(self):
        assert leau_exact(np.full((7, 5), 0.2), UtilitySpec.zero_one()) == pytest.approx(0.2)

    def test_single_binary_row(self):
        probs = np.array([[0.2689, 0.7311]])
        assert leau_exact(probs, UtilitySpec.zero_one()) == pytest.approx(0.7311)

    def test_estimate_with_bayes_candidate_matches_exact(self):
        ds, posterior = gen_mixture(MixtureModel(2, 4, 1.0), 4000, seed=4)
        spec = UtilitySpec.zero_one()
        est = leau_estimate([BayesModel(posterior, 2)], ds, spec)
        exact = leau_exact(posterior(ds.features), spec)
        assert abs(est - exact) < 0.03

    def test_estimate_constant_weighted_is_half(self):
        labels = np.zeros(2000, dtype=np.int64)
        labels[:60] = 1
        ds = Dataset(np.zeros((2000, 1)), labels, 2)
        spec = UtilitySpec.weighted([0.97, 0.03])
        est = leau_estimate([ConstantModel([0.97, 0.03])], ds, spec)
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_estimate_is_monotone_in_candidates(self):
        ds, posterior = gen_mixture(MixtureModel(2, 3, 1.0), 500, seed=5)
        spec = UtilitySpec.zero_one()
        good = leau_estimate([BayesModel(posterior, 2)], ds, spec)
        both = leau_estimate([BayesModel(posterior, 2), ConstantModel([0.5, 0.5])], ds, spec)
        assert both >= good

    def test_estimate_needs_candidates(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)
        with pytest.raises(ValueError):
            leau_estimate([], ds, UtilitySpec.zero_one())


class TestBounds:
    def test_advantage_bound_anchors(self):
        assert advantage_bound(0.0, 0.0, 1.0) == 0.0
        assert advantage_bound(math.log(3), 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert advantage_bound(0.1, 0.0, 1.0) == pytest.approx(
            0.049958374957879972, abs=1e-12
        )

    def test_universal_bound_anchors(self):
        assert universal_bound(0.0, 0.0, 1.0) == 0.0
        assert universal_bound(5.0, 1.0, 1.0) == 1.0
        assert universal_bound(2.0, 0.0, 1.0) == pytest.approx(
            math.tanh(1.0), abs=1e-12
        )

    def test_generalization_gap_anchors(self):
        assert bound_factor(0.0, 0.0) == 0.0
        assert bound_factor(math.inf, 0.0) == 1.0
        assert bound_factor(1.0, 0.01) == pytest.approx(
            0.4674959856874097, abs=1e-12
        )

    @pytest.mark.parametrize("epsilon", [709.79, 1000.0, 1e308])
    def test_factor_is_one_where_exp_overflows(self, epsilon):
        for delta in (0.0, 0.5, 1.0):
            assert bound_factor(epsilon, delta) == 1.0

    def test_weak_threat_bound(self):
        assert advantage_bound(0.0, 0.0, 1.0) == 0.0
        assert advantage_bound(math.log(3), 0.0, 1.0) == pytest.approx(0.5)
        # With the supremum attained on every row, it coincides with the
        # universal bound.
        b = 16.0
        assert advantage_bound(1.3, 0.0, b) == pytest.approx(
            universal_bound(1.3, 0.0, b)
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

    def test_hoeffding_rejects_nan_n(self):
        with pytest.raises(ValueError, match="n must be >= 1, got nan"):
            hoeffding_lower_bound(1.0, math.nan)

    def test_against_high_precision_grid(self):
        """mpmath reference on a 50-point (eps, delta) grid, 1e-12 agreement."""
        eps_grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
        delta_grid = [0.0, 1e-6, 1e-3, 0.05, 0.3]
        for eps in eps_grid:
            for delta in delta_grid:
                ref = mp_factor(eps, delta)
                assert abs(bound_factor(eps, delta) - ref) < 1e-12
                assert abs(advantage_bound(eps, delta, 1.5) - ref * 1.5) < 1e-12
                assert abs(universal_bound(eps, delta, 2.0) - ref * 2.0) < 1e-12
                recon_ref = float(1 - mpmath.exp(-mpmath.mpf(eps)) + mpmath.mpf(delta) * 50)
                assert abs(reconstruction_bound(eps, delta, 50) - recon_ref) < 1e-12

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
                adv = advantage_bound(eps, 0.0, term)
                uni = universal_bound(eps, 0.0, 1.0)
                assert adv <= uni + 1e-15

    def test_nan_epsilon_and_expected_supremum_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
            universal_bound(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError, match="exp_sup_utility must be >= 0, got nan"):
            advantage_bound(1.0, 0.0, math.nan)
        for epsilon in (math.nan, -1.0):
            message = re.escape(f"epsilon must be >= 0, got {epsilon}")
            with pytest.raises(ValueError, match=message):
                bound_factor(epsilon, 0.0)
            with pytest.raises(ValueError, match=message):
                reconstruction_bound(epsilon, 0.0, 10.0)
        for delta in (math.nan, -0.1, 1.5):
            with pytest.raises(ValueError, match=re.escape(f"delta must be in [0, 1], got {delta}")):
                bound_factor(1.0, delta)

    def test_infinite_terms_rejected(self):
        with pytest.raises(ValueError, match="utility_bound must be positive and finite, got inf"):
            universal_bound(1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="exp_sup_utility must be finite, got inf"):
            advantage_bound(1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="domain_size must be positive and finite, got inf"):
            reconstruction_bound(1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="utility_bound must be positive and finite, got inf"):
            calibrate_epsilon(0.5, 0.0, math.inf)
        assert universal_bound(math.inf, 0.0, 2.0) == 2.0

    def test_missing_terms_rejected(self):
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
                    back = universal_bound(result.epsilon, delta, b)
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


class TestTwoClassBestResponse:
    """Two classes compare their score columns; the labels must be
    np.argmax's, ties and NaN rows included (the first NaN wins)."""

    SPECS = [
        pytest.param(UtilitySpec.zero_one(), id="zero-one"),
        pytest.param(UtilitySpec.weighted([0.97, 0.03]), id="weighted-skewed"),
        pytest.param(UtilitySpec.weighted([0.5, 0.5]), id="weighted-even"),
    ]

    @staticmethod
    def rows():
        nan, inf = math.nan, math.inf
        special = [
            [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
            [inf, inf], [-inf, -inf], [inf, 1.0], [1.0, inf], [-inf, 0.0],
            [nan, 0.3], [0.3, nan], [nan, nan], [nan, inf], [inf, nan], [-inf, nan],
            [0.97, 0.03],  # ties the weighted-skewed scores up to rounding
        ]
        rng = np.random.default_rng(300)
        random = rng.dirichlet(np.ones(2), size=500)
        coarse = rng.integers(0, 3, size=(200, 2)) / 2.0  # many exact ties
        return np.vstack([np.array(special), random, coarse])

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_argmax(self, spec):
        probs = self.rows()
        expected = np.argmax(expected_utilities(probs, spec), axis=1).astype(np.int64)
        assert best_response(probs, spec).tobytes() == expected.tobytes()


def _oracle_matrix(marginal, k):
    """The dense utility matrix U[yhat, y] = 1{yhat == y} w_y, built here from
    the case's marginal (None for zero-one) as the reference the per-class
    weight form must match bit for bit."""
    hit = np.arange(k)[:, None] == np.arange(k)[None, :]
    if marginal is None:
        return hit.astype(np.float64)
    return hit / (2.0 * marginal)[None, :]


def _parity_specs():
    """(k, marginal, spec) cases; the marginal is None for zero-one."""
    cases = []
    for k in (2, 3, 100):
        cases.append((k, None))
        cases.append((k, np.random.default_rng(k).dirichlet(np.ones(k))))
    cases.append((2, np.array([0.97, 0.03])))
    return [
        pytest.param(
            k, marginal,
            UtilitySpec.zero_one() if marginal is None else UtilitySpec.weighted(marginal),
            id=f"{k}-spec{i}",
        )
        for i, (k, marginal) in enumerate(cases)
    ]


class TestWeightFormParity:
    """The per-class weight form against the dense (k, k) oracle, by tobytes()."""

    @staticmethod
    def rows(k, marginal):
        rng = np.random.default_rng(100 + k)
        ties = [np.full(k, 1.0 / k), np.zeros(k), np.zeros(k)]
        ties[1][[0, k - 1]] = 0.5  # an exact tie between the first and last class
        ties[2][-2:] = 0.5
        rows = [rng.dirichlet(np.ones(k), size=50), np.array(ties)]
        if marginal is not None:
            # Rows proportional to 1 / w tie every weighted score up to rounding.
            rows.append(marginal[None, :])
        return np.vstack(rows)

    @pytest.mark.parametrize("k, marginal, spec", _parity_specs())
    def test_scores_and_best_response(self, k, marginal, spec):
        probs = self.rows(k, marginal)
        expected = probs @ _oracle_matrix(marginal, k).T
        assert expected_utilities(probs, spec).tobytes() == expected.tobytes()
        best = np.argmax(expected, axis=1).astype(np.int64)
        assert best_response(probs, spec).tobytes() == best.tobytes()

    @pytest.mark.parametrize("k, marginal, spec", _parity_specs())
    def test_utility(self, k, marginal, spec):
        rng = np.random.default_rng(200 + k)
        inferred = rng.integers(0, k, 500)
        true = np.where(rng.random(500) < 0.5, inferred, rng.integers(0, k, 500))
        expected = _oracle_matrix(marginal, k)[inferred, true]
        assert utility(spec, inferred, true).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k, marginal, spec", _parity_specs())
    def test_marginal_guess(self, k, marginal, spec):
        U = _oracle_matrix(marginal, k)
        for p in self.rows(k, marginal):
            label = np.full(3, np.argmax(U @ p), dtype=np.int64)
            assert marginal_guess(p, 3, spec).tobytes() == label.tobytes()
