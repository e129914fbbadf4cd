import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from labeldp import data
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

    @pytest.mark.parametrize("sigma", [1e160, 1e154, 1e-155, 1e-160, 1e-200])
    def test_sigma_must_keep_two_var_and_its_reciprocal_finite(self, sigma):
        message = f"sigma {sigma} is out of range: 2*sigma**2 and its reciprocal must be"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            MixtureModel(2, 3, sigma)

    @pytest.mark.parametrize("sigma", [9e153, 1e150, 1e-100, 6e-155])
    def test_sigma_near_the_range_ends_is_valid(self, sigma):
        assert 0 < MixtureModel(2, 3, sigma)._inv_two_var() < math.inf

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


class TestPosteriorAgainstDistanceOracle:
    """The posterior is a softmax of x[:, :k] / sigma^2; it must agree with
    the softmax of -||x - e_y||^2 / (2 sigma^2) from the one-shot (n, k, d)
    broadcast below, to rounding, with the same argmax in every row."""

    @staticmethod
    def one_shot(model, x):
        sq = ((x[:, None, :] - model.means()[None, :, :]) ** 2).sum(axis=2)
        logits = -sq * (1.0 / (2.0 * model.sigma**2))
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    @pytest.mark.parametrize("sigma", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n", [1, 257, 1000])
    @pytest.mark.parametrize("k, d", [(2, 100), (100, 100), (3, 300)])
    def test_matches_the_one_shot_distances(self, k, d, n, sigma):
        model = MixtureModel(k, d, sigma)
        rng = np.random.default_rng(k * d + n)
        x = model.means()[rng.integers(0, k, n)] + sigma * rng.normal(size=(n, d))
        got, want = model.conditional()(x), self.one_shot(model, x)
        assert np.abs(got - want).max() <= 1e-13
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))

    @pytest.mark.parametrize("sigma", [6e-155, 9e153])
    def test_range_ends_give_finite_distributions(self, sigma):
        """At 9e153 a squared distance over 2 sigma^2 overflows; at 6e-155
        1 / sigma^2 does. Neither may warn or leave a non-finite row."""
        model = MixtureModel(2, 3, sigma)
        ds, cond = gen_mixture(model, 200, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = cond(ds.features)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


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

    # numpy's C reader skips blank lines, warns on an empty input and takes
    # any width; the reader must still report these files as before.
    @pytest.mark.parametrize("text, row", [("a,label\n1,0\n\n2,1\n", 1),
                                           ("a,label\n1,0\n2,1\n\n", 2),
                                           ("a,label\n1,0\r\n\r\n2,1\r\n", 1)])
    def test_blank_line_is_a_row_of_no_cells(self, tmp_path, text, row):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        message = f"{path}: row {row} has 0 cells, expected 2"
        for load in (lambda p: load_csv(p, "label"), load_csv_features):
            with pytest.raises(CsvFormatError) as err:
                load(str(path))
            assert str(err.value) == message

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for load in (lambda p: load_csv(p, "label"), load_csv_features):
                with pytest.raises(CsvFormatError) as err:
                    load(str(path))
                assert str(err.value) == f"{path}: no data rows"

    def test_rows_one_cell_short_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,0\n2,1\n")
        for load in (lambda p: load_csv(p, "label"), load_csv_features):
            with pytest.raises(CsvFormatError) as err:
                load(str(path))
            assert str(err.value) == f"{path}: row 0 has 2 cells, expected 3"

    @pytest.mark.parametrize("cell", ["1e20", "-1e19", "9223372036854775808"])
    def test_label_outside_int64_is_rejected(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,label\n1.0,0\n2.0,{cell}\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path), "label")
        assert str(err.value) == (
            f"{path}: row 1, column 'label': label '{cell}' does not fit int64"
        )

    def test_largest_int64_labels_are_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,-9.223372036854775e18\n2.0,9223372036854774784\n")
        labels = data._read_csv(str(path), "label")[1]
        assert labels.dtype == np.int64
        assert labels.tolist() == [-9223372036854774784, 9223372036854774784]


def _oracle(path, label_column):
    """Independent reference reader: csv.reader and float() per cell.

    Returns (features, labels) as load_csv should, or None when the file is
    invalid: a row of the wrong width, a cell float() rejects, a non-finite
    feature, or a label that is not an integer in [0, 2**63)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if not rows or any(len(row) != len(header) for row in rows):
        return None
    try:
        table = [[float(cell) for cell in row] for row in rows]
    except ValueError:
        return None
    label_idx = header.index(label_column) if label_column is not None else None
    features = np.array([[v for i, v in enumerate(row) if i != label_idx] for row in table],
                        dtype=np.float64).reshape(len(rows), -1)
    if not np.isfinite(features).all():
        return None
    if label_idx is None:
        return features, None
    raw = [row[label_idx] for row in table]
    if not all(v.is_integer() and 0 <= v < 2**63 for v in raw):
        return None
    return features, np.array([int(v) for v in raw], dtype=np.int64)


def _bit_pattern_csv(path):
    """write_csv output whose features are random finite bit patterns plus
    the extremes of float64: signed zeros, subnormals and the largest."""
    rng = np.random.default_rng(13)
    values = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]
    values = np.concatenate([extremes, values])[: 4 * 900].reshape(-1, 4)
    labels = rng.integers(0, 3, size=values.shape[0])
    write_csv(Dataset(values, labels, 3), str(path))


# Valid files: (name, text, whether numpy's C reader parses them). The
# other files fall back to the row scan.
VALID_CSVS = [
    ("spaces-tabs-crlf", "a,label,b\r\n 1.5 ,0,\t2e3\r\n+1.,1,.5\r\n-.5E-3 , 2 ,1E+2\t\r\n", True),
    ("exponents-digits", "a,label\n1e-320,1e1\n"
     "0.1000000000000000055511151231257827021181583404541015625,-0.0\n"
     "123456789012345678901234567890,3\n-1.5e-330,2\n", True),
    ("quoted-header", '"a",label\n1,0\n', True),
    ("quoted-cells", 'a,label\n"1.5",0\n2,"1"\n', False),
    ("quoted-newline", 'a,label\n"1.5\n",0\n', False),
    ("underscore", "a,label\n1_5,0\n", False),
    ("arabic-digits", "a,label\n\u0661\u0662,0\n", False),
    ("label-only", "label\n0\n1\n", True),
    ("old-mac", "a,label\r1,0\r2.5,1\r", True),
    # The C reader drops the label column in place, wherever it stands.
    ("label-first", "label,a,b,c\n2,1.5,-0.0,3e-5\n0,-7,8.25,1e300\n1,0.1,5e-324,-2\n", True),
    ("label-middle", "a,b,label,c\n1.5,-0.0,2,3e-5\n-7,8.25,0,1e300\n0.1,5e-324,1,-2\n", True),
    ("label-last", "a,b,c,label\n1.5,-0.0,3e-5,2\n-7,8.25,1e300,0\n0.1,5e-324,-2,1\n", True),
]

# Invalid files: (name, text, load_csv's message after the path).
INVALID_CSVS = [
    ("ragged", "a,label\n1,0\n2\n", "row 1 has 1 cells, expected 2"),
    ("empty-cell", "a,b,label\n1,,0\n", "row 0, column 'b': non-numeric cell ''"),
    ("trailing-comma", "a,label\n1,0,\n", "row 0 has 3 cells, expected 2"),
    ("label-nan", "a,label\n1,0\n2,nan\n", "row 1, column 'label': label 'nan' is not an integer"),
    ("label-inf", "a,label\n1,inf\n", "row 0, column 'label': label 'inf' is not an integer"),
    ("label-half", "a,label\n1,0.5\n", "row 0, column 'label': label '0.5' is not an integer"),
    ("label-huge", "a,label\n1,1e20\n", "row 0, column 'label': label '1e20' does not fit int64"),
    ("label-word", "a,label\n1,one\n", "row 0, column 'label': non-numeric label 'one'"),
    ("feature-inf", "a,label\n1,0\n1e400,1\n", "row 1, column 'a': non-finite cell inf"),
    ("quoted-bad-cell", 'a,label\n"x",0\n', "row 0, column 'a': non-numeric cell 'x'"),
]


class TestCsvParity:
    """load_csv and load_csv_features against the oracle, on the C reader's
    path and with the row scan forced, compared bit for bit."""

    @pytest.fixture(params=["auto", "row-scan"])
    def reader(self, request, monkeypatch):
        if request.param == "row-scan":
            monkeypatch.setattr(data, "_parse_plain", lambda *args: None)

    @staticmethod
    def check_valid(path, label_column="label"):
        features, labels = _oracle(str(path), label_column)
        ds = load_csv(str(path), label_column)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        expected_all = _oracle(str(path), None)[0]
        assert load_csv_features(str(path)).tobytes() == expected_all.tobytes()

    def test_bit_patterns(self, tmp_path, reader):
        path = tmp_path / "bits.csv"
        _bit_pattern_csv(path)
        self.check_valid(path)

    @pytest.mark.parametrize("name, text, fast", VALID_CSVS, ids=[c[0] for c in VALID_CSVS])
    def test_valid_files(self, tmp_path, reader, name, text, fast):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        self.check_valid(path)

    @pytest.mark.parametrize("name, text, message", INVALID_CSVS,
                             ids=[c[0] for c in INVALID_CSVS])
    def test_invalid_files(self, tmp_path, reader, name, text, message):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        assert _oracle(str(path), "label") is None
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path), "label")
        assert str(err.value) == f"{path}: {message}"
        expected = _oracle(str(path), None)
        if expected is None:
            with pytest.raises(CsvFormatError):
                load_csv_features(str(path))
        else:
            assert load_csv_features(str(path)).tobytes() == expected[0].tobytes()

    @staticmethod
    def c_reader_parses(path):
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
            return data._parse_plain(fh, len(header), header.index("label")) is not None

    @pytest.mark.parametrize("name, text, fast", VALID_CSVS, ids=[c[0] for c in VALID_CSVS])
    def test_plain_files_take_the_c_reader(self, tmp_path, name, text, fast):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        assert self.c_reader_parses(path) == fast

    def test_write_csv_output_takes_the_c_reader(self, tmp_path):
        path = tmp_path / "bits.csv"
        _bit_pattern_csv(path)
        assert self.c_reader_parses(path)


@pytest.mark.parametrize("label_idx", [0, 10, 20])
def test_load_csv_peak_memory_is_one_table(tmp_path, label_idx):
    """tracemalloc sees numpy's buffers. A 20 000 x 20 file read by the C
    reader peaks below 1.25 times the bytes load_csv returns: one table
    (the label column included), not a second copy without it."""
    rng = np.random.default_rng(label_idx)
    table = np.insert(rng.normal(size=(20_000, 20)), label_idx, rng.integers(0, 2, 20_000),
                      axis=1)
    names = [f"x{i}" for i in range(20)]
    names.insert(label_idx, "label")
    path = tmp_path / "big.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    tracemalloc.start()
    try:
        ds = load_csv(str(path), "label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == np.delete(table, label_idx, axis=1).tobytes()
    assert peak < 1.25 * (ds.features.nbytes + ds.labels.nbytes)


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
