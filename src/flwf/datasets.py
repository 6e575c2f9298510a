"""Labeled example pools: synthetic generation, CSV ingestion, round draws.

A :class:`DatasetPool` owns every example available to an experiment and a
consumption flag per example.  Round draws and the test draw mark what they
take, so no example is ever used by two (client, round) pairs or shared
between training and the test set.  All draws are seeded and deterministic.

Tensors everywhere are plain float64 numpy arrays; labels are integer class
ids in ``[0, n_classes)``.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import os
import stat
import tempfile
import warnings
import zipfile
import zlib
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

    The parsed table is cached in a hidden sidecar next to a regular file,
    ``.<name>.flwf.npz``, keyed by the sha256 of the file's bytes.  It is
    written (atomically, with the CSV's permission bits) only once the
    vectorized pass's table has made a pool, and used only while its
    digest matches the file's; a stale, unreadable or malformed sidecar
    means a fresh parse, and a sidecar that cannot be written is skipped.
    The cached table meets every check a fresh one does.  Deleting the
    sidecar is always safe.  The digest is no secret, so a sidecar is read
    only if it is a regular file (opened without following a symlink or
    waiting on a pipe), owned by the current user or by the CSV's owner,
    and with no write bit the CSV lacks; any other is ignored, and a
    sidecar another user planted in a shared directory such as ``/tmp``
    only costs a fresh parse on each load.
    """
    sidecar = _sidecar_path(path)
    table = None if sidecar is None else _cached_table(path, sidecar)
    digest = None  # set by a fresh parse
    if table is None:
        table, digest = _parse_table(path)
    if table is not None and table.shape[0] > 0 and table.shape[1] >= 2:
        try:
            pool = DatasetPool(np.ascontiguousarray(table[:, :-1]), table[:, -1], n_classes)
        except ValueError:
            pass  # a bad label: the scan names its line
        else:
            if digest is not None and sidecar is not None:
                _write_sidecar(path, sidecar, digest, table)
            return pool
    return _scan_csv_rows(path, n_classes)


# Prefixed to the file's bytes before hashing; a change to the parse or to
# the sidecar's layout changes the tag, so older sidecars stop matching.
_SIDECAR_TAG = b"flwf.load_csv table 1\n"
_HASH_BLOCK = 1 << 20
# What reading a missing, truncated, corrupt or symlinked sidecar raises
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error)


def _sidecar_path(path) -> str | None:
    """Where ``path``'s parsed table is cached, or None for a path that is
    not a regular file (a pipe cannot be read twice)."""
    if not os.path.isfile(path):
        return None
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.flwf.npz")


class _Hashed(io.RawIOBase):
    """A binary file whose bytes feed the sidecar's key, sha256 over the
    tag and the file's bytes, as they are read."""

    def __init__(self, raw):
        self._raw, self._hash = raw, hashlib.sha256(_SIDECAR_TAG)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self._hash.update(memoryview(buffer)[:n])
        return n

    def digest(self) -> bytes:
        """The key of the whole file, once the bytes no read took are hashed."""
        for block in iter(lambda: self._raw.read(_HASH_BLOCK), b""):
            self._hash.update(block)
        return self._hash.digest()


def _open_trusted(sidecar: str, csv_stat: os.stat_result) -> io.BufferedReader | None:
    """``sidecar`` open for reading if it is a regular file owned by this
    user or by the CSV's owner and has no write bit the CSV lacks, else
    None.  The open follows no symlink and does not wait on a pipe."""
    fh = os.fdopen(os.open(sidecar, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK), "rb")
    st = os.fstat(fh.fileno())
    if (stat.S_ISREG(st.st_mode) and st.st_uid in (os.geteuid(), csv_stat.st_uid)
            and not st.st_mode & 0o222 & ~csv_stat.st_mode):
        return fh
    fh.close()
    return None


def _cached_table(path, sidecar: str) -> np.ndarray | None:
    """The sidecar's table if the sidecar is trusted and records the digest
    of ``path``'s current bytes, else None.  The file is hashed block by
    block."""
    try:
        with open(path, "rb") as csv_fh:
            fh = _open_trusted(sidecar, os.fstat(csv_fh.fileno()))
            if fh is None:
                return None
            with fh:
                stored = np.load(fh, allow_pickle=False)
                if not isinstance(stored, np.lib.npyio.NpzFile):
                    return None
                with stored:
                    digest = stored["digest"]
                    if (digest.dtype != np.uint8
                            or digest.tobytes() != _Hashed(csv_fh).digest()):
                        return None
                    table = stored["table"]
    except _UNREADABLE:
        return None
    return table if table.dtype == np.float64 and table.ndim == 2 else None


def _parse_table(path) -> tuple[np.ndarray | None, bytes]:
    """``(table, digest)``: the numeric rows below an optional header as
    one 2-d array, or None if ``np.loadtxt`` rejects them, and the digest
    of the bytes parsed.  The file is read once, parsed as
    ``open(path, newline="")`` would read it and hashed as it is read, so
    no copy of the whole file is held."""
    with open(path, "rb", buffering=0) as raw:
        hashed = _Hashed(raw)
        try:
            with (io.TextIOWrapper(io.BufferedReader(hashed, _HASH_BLOCK), newline="") as fh,
                  warnings.catch_warnings()):
                first = fh.readline()
                header = next(csv.reader([first]), [])
                lines = (fh if header and not _looks_numeric(header)
                         else itertools.chain([first], fh))
                warnings.simplefilter("ignore")  # an empty file is reported by the scan
                table = np.loadtxt(lines, dtype=float, delimiter=",", comments=None,
                                   ndmin=2)
        except (ValueError, csv.Error):
            table = None
        return table, hashed.digest()


def _write_sidecar(path, sidecar: str, digest: bytes, table: np.ndarray) -> None:
    """Cache ``table`` under ``digest``: a temp file beside the sidecar,
    readable by whoever can read the CSV at ``path``, then ``os.replace``.
    A place that cannot be written is skipped."""
    head, name = os.path.split(sidecar)
    try:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=head or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode) & 0o666)
            np.savez(fh, digest=np.frombuffer(digest, dtype=np.uint8), table=table)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


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
