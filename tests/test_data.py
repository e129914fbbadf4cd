import math

import numpy as np
import pytest
from scipy import stats

from labeldp.data import (
    _atomic_write,
    _first_non_distribution,
    CsvFormatError,
    Dataset,
    MixtureModel,
    SkewedBinarySpec,
    gen_mixture,
    gen_skewed_binary,
    load_csv,
    load_csv_features,
    sample_categorical_rows,
    split,
    write_csv,
)


def brute_posterior(x, means, sigma):
    """Independent oracle: normalize the full Gaussian densities."""
    dens = np.array([math.exp(-np.sum((x - mu) ** 2) / (2 * sigma**2)) for mu in means])
    return dens / dens.sum()


class TestDataset:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0, 2]), num_classes=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), np.array([], dtype=int), num_classes=2)

    def test_rejects_ragged_via_object_array(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.array([0, 1, 0]), num_classes=2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_feature_naming_row_and_column(self, value):
        features = np.zeros((3, 2))
        features[2, 1] = value
        with pytest.raises(ValueError, match=r"row 2, column 1: non-finite"):
            Dataset(features, np.array([0, 1, 0]), num_classes=2)

    def test_rejects_non_finite_label_naming_row(self):
        with pytest.raises(ValueError, match=r"labels row 1: non-finite"):
            Dataset(np.zeros((2, 1)), np.array([0.0, math.nan]), num_classes=2)

    @pytest.mark.parametrize("labels, message", [
        ([0.0, 1.7, 0.0], "labels row 1: non-integer value 1.7"),
        ([[0.0, 1.0, 0.0], [1.0, 1.0, -0.5]], "labels row 2 of trial 1: non-integer value -0.5"),
    ])
    def test_rejects_fractional_label_naming_row(self, labels, message):
        with pytest.raises(ValueError) as err:
            Dataset(np.zeros((3, 1)), np.array(labels), num_classes=2)
        assert str(err.value) == message

    def test_whole_float_labels_become_integers(self):
        ds = Dataset(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]), num_classes=2)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    @pytest.mark.parametrize("labels", [np.array(["0", "1"]), np.array([0, 1], dtype=object)])
    def test_rejects_labels_that_are_not_numbers(self, labels):
        with pytest.raises(ValueError) as err:
            Dataset(np.zeros((2, 1)), labels, num_classes=2)
        assert str(err.value) == f"labels must be integers, got an array of dtype {labels.dtype}"

    def test_label_stack(self):
        ds = Dataset(np.zeros((3, 1)), np.array([[0, 1, 0], [1, 1, 0]]), num_classes=2)
        assert len(ds) == 3 and ds.labels.shape == (2, 3)
        np.testing.assert_array_equal(ds.subset(np.array([2, 0])).labels, [[0, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"labels row 2 of trial 1: non-finite"):
            Dataset(np.zeros((3, 1)), np.array([[0.0, 1, 0], [1, 1, math.nan]]), num_classes=2)
        with pytest.raises(ValueError, match="one entry per feature row"):
            Dataset(np.zeros((3, 1)), np.zeros((2, 4), dtype=int), num_classes=2)


class TestAtomicWrite:
    def test_raise_midway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="midway"):
            with _atomic_write(str(path)) as fh:
                fh.write("partial")
                raise RuntimeError("midway")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with _atomic_write(str(path)) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_directory_names_the_path(self, tmp_path):
        target = tmp_path / "nodir" / "x.csv"
        with pytest.raises(OSError, match=f"cannot write {target}: No such file"):
            with _atomic_write(str(target)):
                pass


class TestFirstNonDistribution:
    def test_distributions_pass(self):
        assert _first_non_distribution(np.array([[0.25, 0.75], [1.0, 0.0]])) is None
        assert _first_non_distribution(np.empty((0, 3))) is None

    @pytest.mark.parametrize("bad_row", [
        [math.nan, math.nan], [0.5, math.nan], [math.inf, 0.5], [-math.inf, 2.0],
        [-0.5, 1.5], [0.5, 0.6],
    ])
    def test_first_bad_row_is_named(self, bad_row):
        probs = np.array([[0.5, 0.5], bad_row, [0.9, 0.3]])
        assert _first_non_distribution(probs) == 1


class TestMixture:
    def test_posterior_at_component_mean(self):
        """m=2, sigma=1, query at e_0: the squared distance gap is 2, so
        P(y=0 | e_0) = 1 / (1 + e^-1) = 0.7310585786300049."""
        _, cond = gen_mixture(MixtureModel(2, 100, 1.0), 1, seed=0)
        x = np.eye(2, 100)[0]
        probs = cond(x[None, :])[0]
        np.testing.assert_allclose(probs[0], 0.7310585786300049, atol=1e-12)
        np.testing.assert_allclose(probs[1], 0.2689414213699951, atol=1e-12)

    def test_posterior_matches_density_ratio_oracle(self):
        model = MixtureModel(4, 7, 2.5)
        cond = model.conditional()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 7), scale=3.0)
        expected = np.array([brute_posterior(x, model.means(), model.sigma) for x in X])
        np.testing.assert_allclose(cond(X), expected, atol=1e-10)

    def test_small_sigma_is_degenerate(self):
        cond = MixtureModel(2, 4, 1e-3).conditional()
        probs = cond(np.eye(2, 4)[0][None, :])[0]
        assert probs[0] > 1.0 - 1e-12

    def test_large_sigma_is_uniform(self):
        cond = MixtureModel(5, 8, 1e6).conditional()
        probs = cond(np.ones((1, 8)))[0]
        np.testing.assert_allclose(probs, 0.2, atol=1e-9)

    def test_too_many_classes_is_invalid(self):
        with pytest.raises(ValueError, match="invalid model"):
            MixtureModel(5, 3, 1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}$"):
            MixtureModel(2, 3, sigma)

    def test_rows_are_distributions(self):
        cond = MixtureModel(3, 10, 2.0).conditional()
        X = np.random.default_rng(0).normal(size=(1000, 10), scale=5.0)
        probs = cond(X)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_generation_is_bit_reproducible(self):
        model = MixtureModel(3, 5, 1.0)
        a, _ = gen_mixture(model, 200, seed=11)
        b, _ = gen_mixture(model, 200, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_are_roughly_uniform(self):
        ds, _ = gen_mixture(MixtureModel(4, 4, 1.0), 40000, seed=5)
        counts = np.bincount(ds.labels, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.001


class TestSampleCategoricalRows:
    """Label draws from P(. | x), one per row: sample_categorical_rows(cond(X), seed)."""

    def test_deterministic_conditional_is_exact(self):
        from labeldp.data import Conditional

        cond = Conditional(3, lambda X: np.tile([0.0, 0.0, 1.0], (X.shape[0], 1)))
        labels = sample_categorical_rows(cond(np.zeros((100, 2))), seed=0)
        assert np.all(labels == 2)

    def test_uniform_conditional_concentrates(self):
        """Binomial oracle: class-1 rate over 1e6 draws is 0.5 +- 0.0015."""
        from labeldp.data import Conditional

        cond = Conditional(2, lambda X: np.full((X.shape[0], 2), 0.5))
        labels = sample_categorical_rows(cond(np.zeros((10**6, 1))), seed=1)
        assert abs(labels.mean() - 0.5) < 0.0015

    def test_same_seed_identical(self):
        cond = MixtureModel(3, 4, 1.0).conditional()
        X = np.random.default_rng(2).normal(size=(500, 4))
        a = sample_categorical_rows(cond(X), seed=9)
        b = sample_categorical_rows(cond(X), seed=9)
        np.testing.assert_array_equal(a, b)

    def test_per_row_frequencies_match_conditional(self):
        """Chi-squared goodness of fit on 1e5 draws of one fixed row."""
        cond = MixtureModel(3, 3, 1.0).conditional()
        row = np.array([[0.4, 0.3, 0.1]])
        expected = cond(row)[0]
        X = np.repeat(row, 10**5, axis=0)
        draws = sample_categorical_rows(cond(X), seed=4)
        counts = np.bincount(draws, minlength=3)
        result = stats.chisquare(counts, f_exp=expected * 10**5)
        assert result.pvalue > 0.001


class TestSkewedBinary:
    def test_positive_count_concentrates(self):
        """Binomial oracle: count is within 3 sigma of n * p1."""
        spec = SkewedBinarySpec(0.03, 5, separation=0.5, label_noise=0.1)
        ds, _ = gen_skewed_binary(spec, 10**5, seed=0)
        tol = 3 * math.sqrt(0.03 * 0.97 * 10**5)
        assert abs(ds.labels.sum() - 3000) <= tol

    def test_noiseless_wide_separation_is_bayes_learnable(self):
        spec = SkewedBinarySpec(0.3, 3, separation=50.0, label_noise=0.0)
        ds, cond = gen_skewed_binary(spec, 2000, seed=1)
        bayes = np.argmax(cond(ds.features), axis=1)
        assert np.mean(bayes == ds.labels) == 1.0

    def test_uninformative_features_cap_accuracy_at_half(self):
        spec = SkewedBinarySpec(0.5, 3, separation=0.0, label_noise=0.0)
        ds, cond = gen_skewed_binary(spec, 20000, seed=2)
        bayes = np.argmax(cond(ds.features), axis=1)
        assert abs(np.mean(bayes == ds.labels) - 0.5) < 0.02

    def test_conditional_marginal_matches_positive_rate(self):
        # Integrating P(y=1|x) over generated features must recover p1.
        spec = SkewedBinarySpec(0.1, 4, separation=1.0, label_noise=0.2)
        ds, cond = gen_skewed_binary(spec, 10**5, seed=3)
        assert abs(cond(ds.features)[:, 1].mean() - 0.1) < 0.005

    def test_reproducible(self):
        spec = SkewedBinarySpec(0.2, 2, 1.0, 0.1)
        a, _ = gen_skewed_binary(spec, 500, seed=6)
        b, _ = gen_skewed_binary(spec, 500, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n0.5,1.0,0\n0.25,2.0,1\n0.125,3.0,0\n")
        ds = load_csv(str(path), "label")
        assert len(ds) == 3 and ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_allclose(ds.features[:, 0], [0.5, 0.25, 0.125])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="click"):
            load_csv(str(path), "click")

    def test_label_column_must_be_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n")
        with pytest.raises(CsvFormatError, match="label column"):
            load_csv(str(path), None)

    def test_features_only_reads_every_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n0.5,1.0,0\n0.25,2.0,1\n")
        np.testing.assert_array_equal(
            load_csv_features(str(path)), [[0.5, 1.0, 0.0], [0.25, 2.0, 1.0]]
        )

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,0\noops,1\n")
        with pytest.raises(CsvFormatError, match=r"row 1.*'a'"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,label,b\n1.0,0,2.0\n1.0,1,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column 'b': non-finite"):
            load_csv(str(path), "label")
        with pytest.raises(CsvFormatError, match=r"row 1, column 'b': non-finite"):
            load_csv_features(str(path))

    def test_non_finite_label_is_not_an_integer(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,nan\n")
        with pytest.raises(CsvFormatError, match=r"row 0.*not an integer"):
            load_csv(str(path), "label")

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,0.25\n")
        with pytest.raises(CsvFormatError, match="integer"):
            load_csv(str(path), "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(str(path), "label")

    def test_round_trip(self, tmp_path):
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 50, seed=0)
        path = tmp_path / "round.csv"
        write_csv(ds, str(path), "label")
        back = load_csv(str(path), "label")
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)


class TestSplit:
    def test_published_ratios(self):
        ds, _ = gen_mixture(MixtureModel(2, 2, 1.0), 100, seed=0)
        train, val, test = split(ds, (0.8, 0.04, 0.16), seed=0)
        assert (len(train), len(val), len(test)) == (80, 4, 16)

    def test_zero_fraction_rejected(self):
        ds, _ = gen_mixture(MixtureModel(2, 2, 1.0), 10, seed=0)
        with pytest.raises(ValueError):
            split(ds, (1.0, 0.0, 0.0), seed=0)

    def test_fractions_must_sum_to_one(self):
        ds, _ = gen_mixture(MixtureModel(2, 2, 1.0), 10, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.3, 0.3), seed=0)

    def test_same_seed_identical(self):
        ds, _ = gen_mixture(MixtureModel(2, 2, 1.0), 97, seed=1)
        a = split(ds, (0.6, 0.2, 0.2), seed=5)
        b = split(ds, (0.6, 0.2, 0.2), seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_is_partition(self):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 101, seed=2)
        # Tag each row with a unique feature value so rows are recoverable.
        ds = Dataset(np.arange(101, dtype=float)[:, None], ds.labels, 2)
        parts = split(ds, (0.5, 0.25, 0.25), seed=3)
        seen = np.concatenate([p.features[:, 0] for p in parts])
        assert sorted(seen.astype(int).tolist()) == list(range(101))
