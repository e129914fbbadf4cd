"""Dataset containers, synthetic generators, CSV ingestion, and splits.

Generators return the dataset together with its source's posterior, the
function from an (n, d) feature matrix to the (n, k) matrix of exact
P(y | x). The metrics take that matrix for the exact label-independent
attack utility and the Monte-Carlo label draws.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

import numpy as np

from .rng import substream


class CsvFormatError(ValueError):
    """Raised when a dataset CSV violates the documented format."""


# Entries of a feature array whose finiteness _first_non_finite tests at a
# time: a 64 KiB mask.
_FINITE_BLOCK_ENTRIES = 2**16
# Cells _write_rows turns into text at a time.
_WRITE_CELLS = 2**12
# 2**63: CSV labels lie in [-_INT64_END, _INT64_END), the floats that fit int64.
_INT64_END = 2.0**63


def _first_false(ok: np.ndarray) -> tuple | None:
    """Index of the first False entry in row-major order, or None."""
    if ok.all():
        return None
    return tuple(int(i) for i in np.argwhere(~ok)[0])


def _first_non_finite(x: np.ndarray) -> tuple | None:
    """_first_false(np.isfinite(x)) for a 2-D array, checked a block of
    rows at a time, so the mask never exceeds _FINITE_BLOCK_ENTRIES."""
    rows = max(1, _FINITE_BLOCK_ENTRIES // max(1, x.shape[1]))
    for start in range(0, x.shape[0], rows):
        bad = _first_false(np.isfinite(x[start:start + rows]))
        if bad is not None:
            return start + bad[0], bad[1]
    return None


def _first_non_distribution(probs: np.ndarray) -> int | None:
    """Index of the first row of a 2-D array that is not a probability
    distribution (finite, non-negative, summing to 1 within 1e-9), or None.
    A NaN entry fails the sign test, an infinite one the sum test."""
    ok = (probs >= 0).all(axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    return None if ok.all() else int(np.argmin(ok))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer class labels.

    Attributes:
        features: (n, d) float array of finite values, one row per sample.
        labels: (n,) integer array with values in {0, ..., num_classes-1};
            or a (T, n) stack of T such vectors over the same rows, which
            train_logistic and majority_table fit at once (other consumers
            take one vector).
        num_classes: number of classes k >= 2.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim not in (1, 2) or labels.shape[-1] != features.shape[0]:
            raise ValueError(
                "labels must be a vector with one entry per feature row, "
                "or a (T, n) stack of such vectors"
            )
        if labels.ndim == 2 and labels.shape[0] < 1:
            raise ValueError("a label stack must hold at least one label vector")
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        bad = _first_false(np.isfinite(features))
        if bad is not None:
            raise ValueError(
                f"features row {bad[0]}, column {bad[1]}: non-finite value {features[bad]}"
            )
        if labels.dtype.kind not in "biuf":
            raise ValueError(f"labels must be integers, got an array of dtype {labels.dtype}")
        if labels.dtype.kind == "f":
            for problem, ok in (("non-finite", np.isfinite(labels)),
                                ("non-integer", labels == np.floor(labels))):
                if (bad := _first_false(ok)) is not None:
                    trial = f" of trial {bad[0]}" if labels.ndim == 2 else ""
                    raise ValueError(f"labels row {bad[-1]}{trial}: {problem} value {labels[bad]}")
        labels = labels.astype(np.int64, copy=False)
        if not self.num_classes >= 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[..., indices], self.num_classes)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels, self.num_classes)


@dataclass(frozen=True)
class MixtureModel:
    """Uniform mixture of isotropic Gaussians with basis-vector means.

    Class i draws features from N(e_i, sigma^2 I_d), so the number of
    classes cannot exceed the feature dimension.
    """

    num_classes: int
    dim: int
    sigma: float

    def __post_init__(self):
        if not self.num_classes >= 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if not self.num_classes <= self.dim:
            raise ValueError(
                f"invalid model: {self.num_classes} classes need {self.num_classes} "
                f"basis vectors but dim is {self.dim}"
            )
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0 < self._inv_two_var() < np.inf:
            raise ValueError(
                f"sigma {self.sigma} is out of range: 2*sigma**2 and its reciprocal "
                f"must be positive finite floats"
            )

    def _inv_two_var(self) -> float:
        """1 / (2 sigma^2); 0.0 where sigma**2 overflows or 2 sigma^2 is 0."""
        try:
            return 1.0 / (2.0 * self.sigma**2)
        except (OverflowError, ZeroDivisionError):
            return 0.0

    def means(self) -> np.ndarray:
        return np.eye(self.num_classes, self.dim)

    def posterior(self, x: np.ndarray) -> np.ndarray:
        """Exact P(y | x): an (n, k) matrix of probability rows for an (n, d)
        feature matrix."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k, inv_two_var = self.num_classes, self._inv_two_var()
        # exp(-1000.0) is 0.0, so clipping differences at -500 / inv_two_var
        # leaves their probability 0 and keeps the scaled logits finite at the
        # smallest sigma, where 2 * inv_two_var overflows.
        floor = -500.0 / inv_two_var
        # The means are e_y, so -||x - e_y||^2 / (2 sigma^2) is
        # x_y / sigma^2 plus a per-row constant, which the softmax drops.
        logits = x[:, :k] - x[:, :k].max(axis=1, keepdims=True)
        np.maximum(logits, floor, out=logits)
        logits *= inv_two_var
        logits *= 2.0
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs


@dataclass(frozen=True)
class SkewedBinarySpec:
    """Synthetic skewed binary source with a known posterior P(y | x).

    Clean labels are Bernoulli(positive_rate); features are N(y * separation
    * e_1, I_d). With probability label_noise a label is replaced by a fresh
    Bernoulli(positive_rate) draw independent of the features, which keeps
    the marginal P(y=1) exactly at positive_rate while washing out the
    feature signal.
    """

    positive_rate: float
    dim: int
    separation: float = 1.0
    label_noise: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.positive_rate < 1.0:
            raise ValueError(f"positive_rate must be in (0, 1), got {self.positive_rate}")
        if not self.dim >= 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 <= self.separation < np.inf:  # NaN fails too
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")
        if not 0.0 <= self.label_noise < 0.5:  # NaN fails too
            raise ValueError(f"label_noise must be in [0, 0.5), got {self.label_noise}")

    def posterior(self, x: np.ndarray) -> np.ndarray:
        """Exact P(y | x): an (n, 2) matrix of probability rows for an (n, d)
        feature matrix."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        p1, s, rho = self.positive_rate, self.separation, self.label_noise
        bias = np.log(p1 / (1.0 - p1))
        # Only the first coordinate carries signal; the noisy label mixes
        # the clean posterior with the marginal.
        logit = bias + s * x[:, 0] - 0.5 * s * s
        e = np.exp(-np.abs(logit))
        clean = np.where(logit >= 0, 1.0, e) / (1.0 + e)
        pos = (1.0 - rho) * clean + rho * p1
        return np.column_stack([1.0 - pos, pos])


def gen_mixture(
    model: MixtureModel, n: int, seed: int
) -> tuple[Dataset, Callable[[np.ndarray], np.ndarray]]:
    """Draw n samples from the Gaussian mixture.

    Labels are uniform over the classes; features come from the labelled
    component. Returns the dataset and the mixture's posterior.
    """
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels = substream(seed, "mixture-labels").integers(0, model.num_classes, size=n)
    noise = substream(seed, "mixture-features").standard_normal((n, model.dim))
    features = model.means()[labels] + model.sigma * noise
    return Dataset(features, labels, model.num_classes), model.posterior


def gen_skewed_binary(
    spec: SkewedBinarySpec, n: int, seed: int
) -> tuple[Dataset, Callable[[np.ndarray], np.ndarray]]:
    """Draw n samples from the skewed binary source. Returns the dataset and
    the source's posterior."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p1 = spec.positive_rate
    clean = (substream(seed, "skew-labels").random(n) < p1).astype(np.int64)
    features = substream(seed, "skew-features").standard_normal((n, spec.dim))
    features[:, 0] += spec.separation * clean
    labels = clean
    if spec.label_noise > 0:
        replace = substream(seed, "skew-noise").random(n) < spec.label_noise
        redraw = (substream(seed, "skew-redraw").random(n) < p1).astype(np.int64)
        labels = np.where(replace, redraw, clean)
    return Dataset(features, labels, 2), spec.posterior


def sample_categorical_rows(probs: np.ndarray, seed: int) -> np.ndarray:
    """One draw per row of a row-stochastic matrix, by inverse CDF."""
    u = substream(seed, "resample").random(probs.shape[0])
    return _inverse_cdf(probs, u).astype(np.int64)


def _inverse_cdf(probs: np.ndarray, u) -> np.ndarray:
    """The class each uniform u in [0, 1) picks from probability rows over the
    last axis: the first class whose cumulative sum exceeds u, clamped to
    k - 1 against rounding. A class of probability 0 is picked only through
    that clamp. u has the shape of probs without its last axis."""
    cdf = np.cumsum(probs, axis=-1)
    return np.minimum((cdf <= np.asarray(u)[..., None]).sum(axis=-1), probs.shape[-1] - 1)


def load_csv(path: str, label_column: str) -> Dataset:
    """Load a dataset from a UTF-8 CSV with a header row.

    The named label column must hold integer class indices that fit int64;
    every other column is parsed as a finite decimal real. Row order is
    preserved and num_classes is 1 + the largest label index.
    """
    if not isinstance(label_column, str):
        raise CsvFormatError(f"{path}: label column must be a name, got {label_column!r}")
    features, labels = _read_csv(path, label_column)
    if labels.min() < 0:
        raise CsvFormatError(f"{path}: negative label {labels.min()}")
    num_classes = max(2, int(labels.max()) + 1)
    return Dataset(features, labels, num_classes)


def load_csv_features(path: str) -> np.ndarray:
    """Load every column of a headed CSV as features, with load_csv's checks."""
    return _read_csv(path, None)[0]


def _read_csv(path: str, label_column: str | None) -> tuple[np.ndarray, np.ndarray]:
    """The CSV loaders' reader: (n, d) features and the int64 labels (empty
    when label_column is None, which makes every column a feature).

    numpy's C reader parses a plain file; any file it cannot take as is goes
    to the row scan, which gives the same values and reports every error."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty") from None
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise CsvFormatError(
                    f"{path}: label column {label_column!r} not in header {header}"
                )
            label_idx = header.index(label_column)
        parsed = _parse_plain(fh, len(header), label_idx)
        if parsed is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)  # the header
            parsed = _scan_rows(reader, path, header, label_idx)

    features, labels = parsed
    # In row blocks: load_csv's Dataset checks the table again, with the one
    # (n, d) mask it builds.
    bad = _first_non_finite(features)
    if bad is not None:
        row, col = bad
        name = [h for i, h in enumerate(header) if i != label_idx][col]
        raise CsvFormatError(
            f"{path}: row {row}, column {name!r}: non-finite cell {features[row, col]}"
        )
    return features, labels


def _parse_plain(
    fh: TextIO, width: int, label_idx: int | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """_read_csv's result for the data lines left in fh, parsed by np.loadtxt.

    None when the row scan must read the file instead: a line holds a quote
    (csv quoting) or is blank (loadtxt skips it), there is no data line,
    loadtxt rejects a cell or a row, the width is not the header's, or a
    label is not an integer that fits int64."""
    plain = True

    def lines() -> Iterator[str]:
        nonlocal plain
        for line in fh:
            if '"' in line or line.isspace():
                plain = False
                return
            yield line

    rest = lines()
    first = next(rest, None)
    if first is None:  # loadtxt would warn about an empty input
        return None
    try:
        table = np.loadtxt(itertools.chain([first], rest), dtype=np.float64,
                           delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not plain or table.shape[1] != width:
        return None
    if label_idx is None:
        return table, np.empty(0, dtype=np.int64)
    labels = table[:, label_idx]
    # NaN and +-inf fail these tests too. Casting them, or a float outside
    # int64, to int64 is undefined.
    fits = (labels == np.floor(labels)) & (labels >= -_INT64_END) & (labels < _INT64_END)
    if not fits.all():
        return None
    labels = labels.astype(np.int64)
    # Drop the label column in place: each column right of it moves one step
    # left, one column at a time, so no second table is made.
    d = width - 1
    for col in range(label_idx, d):
        table[:, col] = table[:, col + 1]
    return table[:, :d], labels


def _scan_rows(
    reader: Iterator[list], path: str, header: list, label_idx: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """_read_csv's result, one csv row and one float() per cell at a time:
    the reference reader, which names the first bad row and cell."""
    label_column = None if label_idx is None else header[label_idx]
    features, labels = [], []
    for row_num, row in enumerate(reader):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        if label_idx is not None:
            raw_label = row[label_idx]
            try:
                as_float = float(raw_label)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {label_column!r}: "
                    f"non-numeric label {raw_label!r}"
                ) from None
            if not as_float.is_integer():
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {label_column!r}: "
                    f"label {raw_label!r} is not an integer"
                )
            if not -_INT64_END <= as_float < _INT64_END:
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {label_column!r}: "
                    f"label {raw_label!r} does not fit int64"
                )
            labels.append(int(as_float))
        feats = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                feats.append(float(cell))
            except ValueError:
                name = header[i]
                raise CsvFormatError(
                    f"{path}: row {row_num}, column {name!r}: non-numeric cell {cell!r}"
                ) from None
        features.append(feats)

    if not features:
        raise CsvFormatError(f"{path}: no data rows")
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


@contextlib.contextmanager
def _atomic_write(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` for UTF-8 text writing so that it only ever holds a
    complete file.

    The text goes to a temporary file in the same directory, named after
    `path` and the process id, which replaces `path` (os.replace) when the
    block exits normally. If the block raises, the temporary file is removed
    and `path` keeps its previous contents.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _write_rows(path: str, header: list, *columns) -> None:
    """Write a CSV of the header cells and one line per row of the 1-D
    columns (arrays, ranges or lists): every CSV file labeldp writes.

    Cells are spelled by str, so a float keeps full precision (its repr).
    Rows become text a block of at most _WRITE_CELLS cells at a time, so no
    text or list as long as the file is built.
    """
    line = ",".join(["{}"] * len(columns)) + "\n"
    step = max(1, _WRITE_CELLS // len(columns))
    with _atomic_write(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(columns[0]), step):
            block = (column[start : start + step] for column in columns)
            block = (c.tolist() if isinstance(c, np.ndarray) else c for c in block)
            fh.writelines(itertools.starmap(line.format, zip(*block)))


def write_csv(dataset: Dataset, path: str, label_column: str = "label") -> None:
    """Write a dataset in the format load_csv reads back (full float precision)."""
    header = [f"x{i}" for i in range(dataset.dim)] + [label_column]
    _write_rows(path, header, *dataset.features.T, dataset.labels)


def split(
    dataset: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Shuffle and partition into (train, val, test).

    Train and validation sizes are floor(fraction * n); the remainder goes
    to the test split. All three fractions must be positive and sum to 1.
    """
    fracs = tuple(float(f) for f in fractions)
    if len(fracs) != 3:
        raise ValueError("fractions must be a (train, val, test) triple")
    if any(not f > 0 for f in fracs):
        raise ValueError(f"all fractions must be positive, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    n = len(dataset)
    perm = substream(seed, "split").permutation(n)
    n_train = int(np.floor(fracs[0] * n))
    n_val = int(np.floor(fracs[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split of n={n} with fractions {fracs} leaves an empty part "
            f"(sizes {n_train}, {n_val}, {n_test})"
        )
    return (
        dataset.subset(perm[:n_train]),
        dataset.subset(perm[n_train : n_train + n_val]),
        dataset.subset(perm[n_train + n_val :]),
    )
