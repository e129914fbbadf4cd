import math

import numpy as np
import pytest
from scipy import stats

import labeldp.mechanisms as mechanisms
from labeldp.data import Dataset, gen_mixture, MixtureModel
from labeldp.mechanisms import (
    BASIC,
    PARALLEL,
    account,
    aggregate_votes,
    alibi,
    keep_probability,
    MECHANISMS,
    lp_mst,
    pate,
    randomized_response,
    release,
    rr_with_prior,
)
from labeldp.models import LogisticHyper, train_logistic
from labeldp.rng import substream

FAST = LogisticHyper(iterations=30)


class TestRandomizedResponse:
    def test_keep_probability_binary_ln3(self):
        assert keep_probability(math.log(3), 2) == pytest.approx(0.75, abs=1e-12)

    def test_keep_probability_exhausted_budget(self):
        assert keep_probability(0.0, 10) == pytest.approx(0.1, abs=1e-12)

    def test_keep_probability_infinite(self):
        assert keep_probability(math.inf, 5) == 1.0

    @pytest.mark.parametrize("epsilon", [math.nan, -1.0])
    def test_nan_or_negative_epsilon_rejected_by_both_rr_forms(self, epsilon):
        # A NaN keep probability keeps no label: every binary label flipped.
        labels = np.array([0, 1, 1, 0])
        message = f"epsilon must be >= 0, got {epsilon}$"
        with pytest.raises(ValueError, match=message):
            keep_probability(epsilon, 2)
        with pytest.raises(ValueError, match=message):
            randomized_response(labels, 2, epsilon, seed=0)
        with pytest.raises(ValueError, match=message):
            rr_with_prior(labels, np.full((4, 2), 0.5), 2, epsilon, seed=0)

    def test_empirical_keep_rate(self):
        """Binomial oracle: 1e6 draws at eps=1 keep within 0.0014 of e/(e+1)."""
        labels = np.zeros(10**6, dtype=np.int64)
        out = randomized_response(labels, 2, 1.0, seed=0)
        assert abs(np.mean(out == 0) - 0.7310585786300049) < 0.0014

    def test_flips_go_to_other_classes_only(self):
        labels = np.full(10**4, 2, dtype=np.int64)
        out = randomized_response(labels, 5, 0.5, seed=1)
        flipped = out[out != 2]
        assert flipped.size > 0
        assert set(np.unique(flipped)) <= {0, 1, 3, 4}

    def test_output_frequency_ratio_respects_epsilon(self):
        """For a fixed input, the ratio of any two output frequencies stays
        below e^eps up to 3-sigma sampling slack."""
        eps, k, n = 1.0, 4, 10**6
        out = randomized_response(np.zeros(n, dtype=np.int64), k, eps, seed=2)
        counts = np.bincount(out, minlength=k).astype(float)
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                eta = 3.0 * math.sqrt(1.0 / counts[a] + 1.0 / counts[b])
                assert counts[a] / counts[b] <= math.exp(eps) * (1.0 + eta)

    def test_reproducible(self):
        labels = np.arange(1000) % 3
        a = randomized_response(labels, 3, 0.7, seed=9)
        b = randomized_response(labels, 3, 0.7, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_infinite_epsilon_identity(self):
        labels = np.arange(100) % 4
        np.testing.assert_array_equal(randomized_response(labels, 4, math.inf, 0), labels)


class TestRrWithPrior:
    def test_uniform_prior_full_top_k_matches_plain_rr(self):
        """Two-sample chi-squared at alpha=0.001 over 1e5 draws per side."""
        n, k, eps = 10**5, 3, 1.0
        labels = np.zeros(n, dtype=np.int64)
        prior = np.full((n, k), 1.0 / k)
        plain = randomized_response(labels, k, eps, seed=3)
        restricted = rr_with_prior(labels, prior, top_k=k, epsilon=eps, seed=4)
        table = np.vstack(
            [np.bincount(plain, minlength=k), np.bincount(restricted, minlength=k)]
        )
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_top_one_returns_prior_argmax(self):
        labels = np.array([0, 0, 1, 1])
        prior = np.array([[0.2, 0.8], [0.9, 0.1], [0.2, 0.8], [0.9, 0.1]])
        out = rr_with_prior(labels, prior, top_k=1, epsilon=0.5, seed=5)
        np.testing.assert_array_equal(out, [1, 0, 1, 0])

    def test_binary_keep_rate_with_prior(self):
        """Same keep-rate oracle as plain RR: output-0 rate 0.75 +- 0.0013."""
        n = 10**6
        labels = np.zeros(n, dtype=np.int64)
        prior = np.tile([0.9, 0.1], (n, 1))
        out = rr_with_prior(labels, prior, top_k=2, epsilon=math.log(3), seed=6)
        assert abs(np.mean(out == 0) - 0.75) < 0.0013

    def test_out_of_set_label_maps_to_top_prior_class(self):
        labels = np.array([2, 2])
        prior = np.tile([0.5, 0.4, 0.1], (2, 1))
        out = rr_with_prior(labels, prior, top_k=2, epsilon=math.inf, seed=7)
        # True label 2 is outside {0, 1}; it maps to class 0 and eps=inf keeps it.
        np.testing.assert_array_equal(out, [0, 0])

    def test_invalid_prior_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            rr_with_prior(np.array([0, 0]), np.array([[0.5, 0.5], [0.9, 0.3]]), 2, 1.0, 0)

    def test_prior_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"^prior must be an \(n, k\) matrix, got shape \(2,\)$"):
            rr_with_prior(np.array([0, 1]), np.array([0.5, 0.5]), 2, 1.0, 0)

    @pytest.mark.parametrize("row", [[math.nan, math.nan], [math.inf, 0.0]])
    def test_non_finite_prior_row_rejected(self, row):
        prior = np.array([row, [0.5, 0.5]])
        with pytest.raises(ValueError, match="^prior row 0 is not a probability distribution$"):
            rr_with_prior(np.array([1, 1]), prior, 2, 1.0, 0)


class TestLpMst:
    def test_parallel_accounting_identity(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 40, seed=2)
        report = lp_mst(ds, 2.5, top_k=2, hyper=FAST, seed=0)
        assert report.params.epsilon == 2.5
        assert report.params.note == PARALLEL

    def test_two_stages_cover_all_rows(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 41, seed=3)
        report = lp_mst(ds, 1.0, top_k=2, hyper=FAST, seed=0)
        assert report.labels.shape == (41,)
        assert report.diagnostics["stage_sizes"] == [20, 21]

    def test_single_row_cannot_split(self):
        ds = Dataset(np.zeros((1, 2)), np.array([0]), 2)
        with pytest.raises(ValueError):
            lp_mst(ds, 1.0, top_k=2, hyper=FAST, seed=0)

    def test_reproducible(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 50, seed=4)
        a = lp_mst(ds, 1.0, top_k=2, hyper=FAST, seed=8)
        b = lp_mst(ds, 1.0, top_k=2, hyper=FAST, seed=8)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.diagnostics == b.diagnostics

    @staticmethod
    def trained_stage_one(train, epsilon, top_k, seed):
        """Oracle: LP-2ST with its stage-1 model always trained, and that
        model's prior passed to rr_with_prior. Returns the release and the
        prior."""
        n, k = len(train), train.num_classes
        perm = substream(seed, "lp-mst-split").permutation(n)
        idx1, idx2 = perm[: n // 2], perm[n // 2:]
        private1 = randomized_response(train.labels[idx1], k, epsilon, seed)
        model1 = train_logistic(Dataset(train.features[idx1], private1, k), FAST, seed)
        prior = model1.predict_proba(train.features[idx2])
        private = np.empty(n, dtype=np.int64)
        private[idx1] = private1
        private[idx2] = rr_with_prior(train.labels[idx2], prior, top_k, epsilon, seed)
        return private, prior

    @pytest.fixture
    def fits(self, monkeypatch):
        """Every train_logistic call lp_mst makes."""
        calls = []

        def counted(train, hyper, seed=0):
            calls.append(train)
            return train_logistic(train, hyper, seed)

        monkeypatch.setattr(mechanisms, "train_logistic", counted)
        return calls

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, math.inf])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_binary_top_two_trains_nothing_and_matches_the_trained_prior(
        self, fits, epsilon, seed
    ):
        """With k = top_k = 2 the stage-1 prior cannot pick a label, so the
        release with no stage-1 model equals the one with it, bit for bit."""
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 61, seed=seed)
        report = lp_mst(ds, epsilon, top_k=2, hyper=FAST, seed=seed)
        assert fits == []
        expected, prior = self.trained_stage_one(ds, epsilon, 2, seed)
        # The trained prior ranks the classes both ways across rows, so the
        # equality does not hold by a constant order alone.
        assert set(np.argmax(prior, axis=1)) == {0, 1}
        assert report.labels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k, top_k", [(3, 2), (3, 3), (2, 1)])
    def test_prior_that_picks_labels_is_trained(self, fits, k, top_k):
        ds, _ = gen_mixture(MixtureModel(k, 4, 1.0), 60, seed=5)
        report = lp_mst(ds, 1.0, top_k=top_k, hyper=FAST, seed=3)
        assert len(fits) == 1 and len(fits[0]) == 30
        expected, _ = self.trained_stage_one(ds, 1.0, top_k, 3)
        assert report.labels.tobytes() == expected.tobytes()


class TestAlibi:
    def test_infinite_epsilon_preserves_labels(self):
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 50, seed=0)
        report = alibi(ds, math.inf, seed=0)
        np.testing.assert_array_equal(report.labels, ds.labels)

    def test_map_reduces_to_argmax(self):
        """Brute-force Laplace log-likelihoods over k=3 on 1e4 noisy rows:
        the argmax of the noisy one-hot always maximizes the likelihood.
        (The likelihood plateaus outside [0, 1], so the maximizer need not
        be unique; the argmax is always in the maximizing set.)"""
        rng = np.random.default_rng(11)
        k, n, scale = 3, 10**4, 2.0
        true = rng.integers(0, k, n)
        onehot = np.eye(k)[true]
        noisy = onehot + rng.laplace(0, scale, size=(n, k))
        loglik = np.stack(
            [-np.abs(noisy - np.eye(k)[c]).sum(axis=1) / scale for c in range(k)],
            axis=1,
        )
        picked = loglik[np.arange(n), np.argmax(noisy, axis=1)]
        assert np.all(picked >= loglik.max(axis=1) - 1e-12)

    def test_agreement_rate_matches_simulation_oracle(self):
        """Independent Monte-Carlo of the same noise model (own rng, MAP by
        explicit likelihood), k=2, eps=2, 1e6 rows, tolerance 0.003."""
        n, eps = 10**6, 2.0
        ds = Dataset(
            np.zeros((n, 1)), (np.arange(n) % 2).astype(np.int64), 2
        )
        report = alibi(ds, eps, seed=5)
        impl_rate = np.mean(report.labels == ds.labels)

        rng = np.random.default_rng(999)
        scale = 2.0 / eps
        true = rng.integers(0, 2, n)
        noisy = np.eye(2)[true] + rng.laplace(0, scale, size=(n, 2))
        loglik0 = -np.abs(noisy - np.array([1.0, 0.0])).sum(axis=1) / scale
        loglik1 = -np.abs(noisy - np.array([0.0, 1.0])).sum(axis=1) / scale
        oracle_map = (loglik1 > loglik0).astype(np.int64)
        oracle_rate = np.mean(oracle_map == true)
        assert abs(impl_rate - oracle_rate) < 0.003

    def test_basic_accounting(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 30, seed=0)
        report = alibi(ds, 1.5, seed=0)
        assert report.params.epsilon == 1.5 and report.params.note == BASIC


class TestPate:
    def test_consensus_votes_pass_through_at_infinite_epsilon(self):
        rng = substream(0, "test")
        for k in (2, 5):
            hist = np.zeros(k)
            hist[k - 1] = 7.0
            assert aggregate_votes(hist, math.inf, rng) == k - 1

    def test_aggregation_matches_brute_force_simulation(self):
        """5 teachers voting (4,1), eps_query=1 (Laplace scale 2): the
        majority-emission rate over 1e5 draws matches an independent
        simulation of the clamp-renormalize-sample pipeline within 0.005."""
        trials = 10**5
        rng = substream(1, "agg")
        impl = np.array([aggregate_votes([4.0, 1.0], 1.0, rng) for _ in range(trials)])
        impl_rate = np.mean(impl == 0)

        # 10x draws on the oracle side so its own noise is negligible.
        oracle_rng = np.random.default_rng(555)
        noisy = np.array([4.0, 1.0]) + oracle_rng.laplace(0, 2.0, size=(10 * trials, 2))
        clamped = np.clip(noisy, 0.0, None)
        totals = clamped.sum(axis=1)
        p0 = np.where(totals > 0, clamped[:, 0] / np.where(totals > 0, totals, 1.0), 0.5)
        draws = oracle_rng.random(10 * trials)
        oracle_rate = np.mean(draws < p0)
        assert abs(impl_rate - oracle_rate) < 0.005

    def test_spent_epsilon_is_queries_times_per_query(self):
        ds, _ = gen_mixture(MixtureModel(2, 4, 1.0), 60, seed=0)
        report = pate(ds, num_teachers=3, num_queries=20, epsilon_per_query=0.25,
                      hyper=FAST, seed=0)
        assert report.params.epsilon == pytest.approx(5.0, abs=1e-12)
        assert report.params.note == BASIC

    def test_shards_are_disjoint_and_cover(self):
        ds, _ = gen_mixture(MixtureModel(2, 4, 1.0), 61, seed=1)
        report = pate(ds, 4, 10, 0.5, FAST, seed=0)
        assert sum(report.diagnostics["shard_sizes"]) == 61

    def test_too_many_teachers(self):
        ds, _ = gen_mixture(MixtureModel(2, 4, 1.0), 3, seed=0)
        with pytest.raises(ValueError):
            pate(ds, 5, 2, 0.5, FAST, seed=0)

    def test_reproducible(self):
        ds, _ = gen_mixture(MixtureModel(2, 4, 1.0), 60, seed=2)
        a = pate(ds, 3, 15, 0.5, FAST, seed=7)
        b = pate(ds, 3, 15, 0.5, FAST, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.released.features, b.released.features)


class TestRelease:
    def test_rr_is_plain_randomized_response_with_basic_accounting(self):
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 60, seed=0)
        report = release("rr", ds, 0.7, FAST, seed=4)
        np.testing.assert_array_equal(report.labels, randomized_response(ds.labels, 3, 0.7, 4))
        np.testing.assert_array_equal(report.released.features, ds.features)
        assert report.params.epsilon == 0.7 and report.params.note == BASIC

    def test_rr_accepts_exhausted_budget(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 20, seed=0)
        assert release("rr", ds, 0.0, FAST, seed=0).params.epsilon == 0.0

    def test_lp2st_and_alibi_are_the_named_mechanisms(self):
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 50, seed=1)
        np.testing.assert_array_equal(
            release("lp2st", ds, 1.0, FAST, seed=2, top_k=2).labels,
            lp_mst(ds, 1.0, 2, FAST, seed=2).labels,
        )
        np.testing.assert_array_equal(
            release("alibi", ds, 1.0, FAST, seed=2).labels, alibi(ds, 1.0, seed=2).labels
        )

    def test_pate_splits_the_total_budget_over_the_queries(self):
        ds, _ = gen_mixture(MixtureModel(2, 4, 1.0), 30, seed=3)
        report = release("pate", ds, 2.0, FAST, seed=0, teachers=3, queries=50)
        assert report.diagnostics["query_count"] == 30
        assert len(report.released) == 30
        assert report.params.epsilon == pytest.approx(2.0, abs=1e-12)

    def test_unknown_name_rejected(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 20, seed=0)
        with pytest.raises(ValueError, match="unknown mechanism 'bogus'"):
            release("bogus", ds, 1.0, FAST, seed=0)

    @pytest.mark.parametrize("name", MECHANISMS)
    def test_released_labels_are_read_only(self, name):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 40, seed=5)
        report = release(name, ds, 1.0, FAST, seed=0, teachers=2, queries=10)
        assert not hasattr(report, "model")
        with pytest.raises(ValueError):
            report.labels[0] = 1

    def test_rejects_a_label_stack(self):
        stack = Dataset(np.zeros((4, 1)), np.zeros((2, 4), dtype=int), 2)
        with pytest.raises(ValueError, match="one label vector, got a stack of 2"):
            release("rr", stack, 1.0, FAST, seed=0)


class TestAccount:
    def test_basic_sums(self):
        assert account([1.0, 1.0, 2.0], BASIC).epsilon == 4.0

    def test_parallel_takes_max(self):
        assert account([1.0, 3.0], PARALLEL).epsilon == 3.0

    def test_empty_is_zero(self):
        assert account([], BASIC).epsilon == 0.0
        assert account([], PARALLEL).epsilon == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            account([1.0, -0.5], BASIC)

    def test_delta_stays_zero(self):
        assert account([1.0], BASIC).delta == 0.0
