"""Labeled example pools: synthetic generation, CSV ingestion, round draws.

A :class:`DatasetPool` owns every example available to an experiment and a
consumption flag per example.  Round draws and the test draw mark what they
take, so no example is ever used by two (client, round) pairs or shared
between training and the test set.  All draws are seeded and deterministic.

Tensors everywhere are plain float64 numpy arrays; labels are integer class
ids in ``[0, n_classes)``.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


class PoolExhaustedError(ValueError):
    """Raised when a draw asks for more unconsumed examples than remain."""


def class_ids(values, n_classes: int, what: str, row: str) -> np.ndarray:
    """``values`` as an int array, once every entry has proved a whole
    number in ``0..n_classes-1`` (``np.int64(2)`` and ``3.0`` are, ``-1``
    and ``0.7`` are not); the first that is not raises ``ValueError``
    naming it and its ``row``.  Checked before the cast, which would
    truncate 2.9 to class 2."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iuf":
        raise ValueError(f"{what}s must be class ids, not {ids.dtype}")
    valid = (ids >= 0) & (ids < n_classes)
    if ids.dtype.kind == "f":
        valid &= ids == np.trunc(ids)
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"{what} {ids[i].item()!r} for {row} {i} "
                         f"is not a class id in 0..{n_classes - 1}")
    return ids.astype(int, copy=False)


@dataclass
class RoundBatch:
    """The labeled data one client trains on in one round."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = class_ids(self.labels, self.n_classes, "label", "batch row")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree in length")

    def __len__(self) -> int:
        return len(self.labels)

    def one_hot(self) -> np.ndarray:
        out = np.zeros((len(self.labels), self.n_classes))
        out[np.arange(len(self.labels)), self.labels] = 1.0
        return out


@dataclass
class TestSet:
    """Fixed class-balanced evaluation set, shared by every model."""

    __test__ = False  # not a pytest case despite the name

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class DatasetPool:
    """All examples available to one experiment, with consumption tracking."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    consumed: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = class_ids(self.labels, self.n_classes, "label", "pool row")
        if self.consumed is None:
            self.consumed = np.zeros(len(self.labels), dtype=bool)

    def __len__(self) -> int:
        return len(self.labels)


def generate_synthetic(n_classes: int, per_class: int, feature_dim: int,
                       separation: float, seed) -> DatasetPool:
    """Gaussian class clusters with unit noise.

    Each class is centered on a seeded random unit-norm direction scaled by
    ``separation`` (the separation is therefore expressed in units of the
    within-class standard deviation).
    """
    if n_classes < 2 or per_class < 1 or feature_dim < 1:
        raise ValueError("n_classes, per_class and feature_dim must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, feature_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= separation
    labels = np.repeat(np.arange(n_classes), per_class)
    noise = rng.standard_normal((len(labels), feature_dim))
    return DatasetPool(centers[labels] + noise, labels, n_classes)


def _looks_numeric(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, n_classes: int = 6) -> DatasetPool:
    """Load a pool from CSV rows of F feature columns followed by an integer label.

    A non-numeric first row is treated as a header.  Ragged rows, non-numeric
    features and out-of-range labels are rejected with their line number.
    The rows are parsed in one vectorized pass; a file that pass rejects or
    whose labels fail a check is scanned again row by row, which either
    names the offending line or, for spellings only Python's ``float``
    reads, returns the pool.
    """
    table = _parse_table(path)
    if table is not None and table.shape[0] > 0 and table.shape[1] >= 2:
        try:
            return DatasetPool(np.ascontiguousarray(table[:, :-1]), table[:, -1], n_classes)
        except ValueError:
            pass  # a bad label: the scan names its line
    return _scan_csv_rows(path, n_classes)


def _parse_table(path) -> np.ndarray | None:
    """The numeric rows below an optional header as one 2-d array, or
    None if ``np.loadtxt`` rejects them."""
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            first = next(csv.reader([fh.readline()]), [])
            if not first or _looks_numeric(first):
                fh.seek(0)
            warnings.simplefilter("ignore")  # an empty file is reported by the scan
            return np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):
        return None


def _scan_csv_rows(path, n_classes: int) -> DatasetPool:
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if lineno == 1 and not _looks_numeric(row):
                continue  # header
            if width is None:
                width = len(row)
                if width < 2:
                    raise ValueError(f"{path}: line {lineno}: need at least one feature and a label")
            elif len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row[:-1]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric feature") from None
            try:
                label_value = float(row[-1])
                label = int(label_value)
                if label != label_value:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer label") from None
            if not 0 <= label < n_classes:
                raise ValueError(
                    f"{path}: line {lineno}: label {label} outside [0, {n_classes})")
            features.append(values)
            labels.append(label)
    if not features:
        raise ValueError(f"{path}: no data rows")
    return DatasetPool(np.array(features, dtype=float), np.array(labels, dtype=int), n_classes)


def save_csv(pool: DatasetPool, path) -> None:
    """Companion writer; ``load_csv(save_csv(pool))`` reproduces the pool exactly."""
    n_features = pool.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(n_features)] + ["label"])
        for row, label in zip(pool.features, pool.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _allocate_per_class(classes: list[int], size: int) -> dict[int, int]:
    # Remainder goes to the lexicographically smallest classes.
    base, rem = divmod(size, len(classes))
    ordered = sorted(classes)
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(ordered)}


def draw_round_data(pool: DatasetPool, classes, size: int, seed) -> np.ndarray:
    """The pool indices of ``size`` unconsumed examples of the given
    classes, drawn without replacement, in a seeded random order.

    Class proportions are as uniform as integer division allows.  Drawn
    examples are marked consumed, so later draws and the test set stay
    disjoint from them.
    """
    classes = sorted(int(c) for c in set(classes))
    if not classes:
        raise ValueError("class set must be nonempty")
    if size < 1:
        raise ValueError("size must be positive")
    rng = np.random.default_rng(seed)
    wanted = _allocate_per_class(classes, size)
    picks = []
    for c in classes:
        want = wanted[c]
        if want == 0:
            continue
        candidates = np.flatnonzero(~pool.consumed & (pool.labels == c))
        if len(candidates) < want:
            raise PoolExhaustedError(
                f"class {c}: need {want} unconsumed examples, only {len(candidates)} left")
        picks.append(rng.choice(candidates, size=want, replace=False))
    chosen = np.concatenate(picks)
    chosen = chosen[rng.permutation(len(chosen))]
    pool.consumed[chosen] = True
    return chosen


def draw_test_set(pool: DatasetPool, per_class: int, seed) -> TestSet:
    """Draw the fixed balanced test set (``per_class`` examples of every
    class), ordered by class, then by pool index."""
    rows = draw_round_data(pool, range(pool.n_classes), per_class * pool.n_classes, seed)
    rows = rows[np.lexsort((rows, pool.labels[rows]))]
    return TestSet(pool.features[rows], pool.labels[rows], pool.n_classes)
