"""Data plumbing: synthetic pools, disjoint draws, CSV round trips."""

import errno
import hashlib
import os
import re
import signal
import struct
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flwf.datasets import (_SIDECAR_TAG, DatasetPool, PoolExhaustedError,
                           _allocate_per_class, _parse_table, _scan_csv_rows,
                           draw_round_data, draw_test_set, generate_synthetic, load_csv,
                           save_csv)


def small_pool(seed=0, per_class=40, n_classes=3, dim=4):
    return generate_synthetic(n_classes=n_classes, per_class=per_class,
                              feature_dim=dim, separation=2.0, seed=seed)


# -- synthetic generation --------------------------------------------------------


def test_generate_synthetic_shapes_and_counts():
    pool = small_pool()
    assert pool.features.shape == (120, 4)
    assert pool.labels.shape == (120,)
    for c in range(3):
        assert (pool.labels == c).sum() == 40
    assert not pool.features.flags.writeable and not pool.labels.flags.writeable


def test_generate_synthetic_deterministic():
    a = small_pool(seed=5)
    b = small_pool(seed=5)
    c = small_pool(seed=6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_zero_separation_gives_indistinguishable_classes():
    pool = generate_synthetic(n_classes=2, per_class=500, feature_dim=4,
                              separation=0.0, seed=1)
    mean0 = pool.features[pool.labels == 0].mean(axis=0)
    mean1 = pool.features[pool.labels == 1].mean(axis=0)
    # class means coincide up to sampling noise ~ 1/sqrt(500)
    assert np.abs(mean0 - mean1).max() < 0.2


def test_large_separation_is_linearly_separable():
    # nearest-center classification is essentially perfect at 10 sigma
    pool = generate_synthetic(n_classes=3, per_class=200, feature_dim=6,
                              separation=10.0, seed=2)
    centers = np.stack([pool.features[pool.labels == c].mean(axis=0)
                        for c in range(3)])
    d = ((pool.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == pool.labels).mean() >= 0.99


def test_generate_synthetic_rejects_bad_counts():
    with pytest.raises(ValueError):
        generate_synthetic(n_classes=0, per_class=5, feature_dim=3,
                           separation=1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(n_classes=2, per_class=0, feature_dim=3,
                           separation=1.0, seed=0)


# -- labeled rows ------------------------------------------------------------------


@pytest.mark.parametrize("n_features, n_labels", [(2, 4), (3, 2), (0, 1)])
def test_a_pool_refuses_features_and_labels_of_different_lengths(n_features, n_labels):
    """Refused when built, so no draw can pick a label without its row."""
    with pytest.raises(ValueError, match=f"^{n_features} feature rows but {n_labels} labels$"):
        DatasetPool(np.zeros((n_features, 2)), np.arange(n_labels) % 2, 2)
    with pytest.raises(ValueError, match="is not a class id"):
        DatasetPool(np.zeros((2, 2)), np.array([0, 5]), 2)  # label out of range


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.data())
def test_a_taken_subset_is_read_only_and_equals_the_gathered_rows(n_classes, rows, data):
    """``take`` gathers features and labels alike, in the order asked,
    repeats and the empty subset included, and hands them over read-only."""
    pool = DatasetPool(data.draw(hnp.arrays(float, (rows, 3), elements=st.floats(-9, 9))),
                       data.draw(hnp.arrays(int, rows, elements=st.integers(0, n_classes - 1))),
                       n_classes)
    picked = np.array(data.draw(st.lists(st.integers(0, rows - 1), max_size=2 * rows)),
                      dtype=int)
    subset = pool.take(picked)
    assert np.array_equal(subset.features, pool.features[picked])
    assert np.array_equal(subset.labels, pool.labels[picked])
    assert subset.n_classes == n_classes and len(subset) == len(picked)
    assert subset.features.shape == (len(picked), 3)
    for array in (subset.features, subset.labels):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert np.array_equal(subset.one_hot(), np.eye(n_classes)[pool.labels[picked]])


def test_pool_one_hot():
    pool = DatasetPool(np.zeros((3, 2)), np.array([0, 2, 1]), 3)
    assert pool.one_hot().tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_allocate_per_class_remainder_to_smallest():
    assert _allocate_per_class((0, 1, 2), 7) == {0: 3, 1: 2, 2: 2}
    assert _allocate_per_class((4, 2), 5) == {2: 3, 4: 2}
    assert _allocate_per_class((1,), 120) == {1: 120}


def fresh_mask(pool):
    return np.zeros(len(pool), dtype=bool)


def test_draw_round_data_basics():
    pool = small_pool()
    taken = fresh_mask(pool)
    rows = draw_round_data(pool, (0, 2), 10, seed=3, taken=taken)
    labels = pool.labels[rows]
    assert len(rows) == 10 and len(set(rows.tolist())) == 10
    assert set(labels.tolist()) <= {0, 2}
    assert (labels == 0).sum() == 5
    assert (labels == 2).sum() == 5
    # the draw returns pool indices, and exactly those rows are marked taken
    assert np.array_equal(np.flatnonzero(taken), np.sort(rows))


def test_draws_are_disjoint_across_calls():
    pool = small_pool()
    taken = fresh_mask(pool)
    seen: set[int] = set()
    for r in range(5):
        rows = set(draw_round_data(pool, (0, 1, 2), 12, seed=r, taken=taken).tolist())
        assert not rows & seen
        seen |= rows
    assert len(seen) == 60


def test_draw_exhaustion_names_class_and_shortfall():
    pool = small_pool(per_class=8)
    taken = fresh_mask(pool)
    draw_round_data(pool, (1,), 6, seed=0, taken=taken)
    with pytest.raises(PoolExhaustedError) as err:
        draw_round_data(pool, (1,), 6, seed=1, taken=taken)
    assert "class 1" in str(err.value)
    assert "2" in str(err.value)  # only 2 rows remained


def test_draw_deterministic_per_seed():
    pool = small_pool()
    a = draw_round_data(pool, (0, 1), 10, seed=9, taken=fresh_mask(pool))
    b = draw_round_data(pool, (0, 1), 10, seed=9, taken=fresh_mask(pool))
    assert np.array_equal(a, b)


def test_draw_rejects_unknown_class_and_bad_size():
    pool = small_pool()
    with pytest.raises(ValueError):
        draw_round_data(pool, (7,), 5, seed=0, taken=fresh_mask(pool))
    with pytest.raises(ValueError):
        draw_round_data(pool, (0,), 0, seed=0, taken=fresh_mask(pool))
    for taken in (np.zeros(len(pool) - 1, dtype=bool), np.zeros(len(pool), dtype=int)):
        with pytest.raises(ValueError, match="bool mask"):
            draw_round_data(pool, (0,), 5, seed=0, taken=taken)


def mask_scan_draw(pool, classes, size, seed, *, taken):
    """The draw as it was before the class index: each class's candidates
    found by scanning the whole ``taken`` mask.  The oracle of the draws."""
    classes = sorted(int(c) for c in set(classes))
    if not classes:
        raise ValueError("class set must be nonempty")
    if size < 1:
        raise ValueError("size must be positive")
    if taken.dtype != bool or taken.shape != pool.labels.shape:
        raise ValueError(f"taken must be a bool mask of {len(pool)} rows")
    rng = np.random.default_rng(seed)
    wanted = _allocate_per_class(classes, size)
    picks = []
    for c in classes:
        want = wanted[c]
        if want == 0:
            continue
        candidates = np.flatnonzero(~taken & (pool.labels == c))
        if len(candidates) < want:
            raise PoolExhaustedError(
                f"class {c}: need {want} unconsumed examples, only {len(candidates)} left")
        picks.append(rng.choice(candidates, size=want, replace=False))
    chosen = np.concatenate(picks)
    chosen = chosen[rng.permutation(len(chosen))]
    taken[chosen] = True
    return chosen


def outcome(draw, *args, taken):
    """The rows ``draw`` returns, or its error's type and message."""
    try:
        return draw(*args, taken=taken)
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 60), st.data())
def test_draws_take_the_rows_a_mask_scan_takes(n_classes, rows, data):
    """On random pools (classes absent included), random masks and class
    sets (ids outside the pool's range included), each of a run of draws
    returns the rows, leaves the mask, or fails with the message, that the
    mask-scan oracle does."""
    labels = data.draw(hnp.arrays(int, rows, elements=st.integers(0, n_classes - 1)))
    pool = DatasetPool(np.zeros((rows, 2)), labels, n_classes)
    taken = data.draw(hnp.arrays(bool, rows))
    oracle_taken = taken.copy()
    for i in range(data.draw(st.integers(1, 4))):
        classes = data.draw(st.lists(st.integers(-1, n_classes), min_size=1, max_size=4))
        size = data.draw(st.integers(1, 12))
        want = outcome(mask_scan_draw, pool, classes, size, i, taken=oracle_taken)
        got = outcome(draw_round_data, pool, classes, size, i, taken=taken)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(taken, oracle_taken)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 80), st.data())
def test_rows_of_is_each_class_in_ascending_order(n_classes, rows, data):
    """The class index of a pool, and of a pool ``take`` gathered, is each
    class's rows as ``flatnonzero`` finds them, read-only; an id outside
    the classes has none."""
    labels = data.draw(hnp.arrays(int, rows, elements=st.integers(0, n_classes - 1)))
    pool = DatasetPool(np.zeros((rows, 1)), labels, n_classes)
    picked = data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows))
    for p in (pool, pool.take(np.array(picked, dtype=int))):
        for c in (-1, *range(n_classes), n_classes):
            index = p.rows_of(c)
            assert index.dtype == np.intp and not index.flags.writeable
            assert np.array_equal(index, np.flatnonzero(p.labels == c))


def test_a_pools_fields_cannot_be_rebound():
    """The class index describes ``labels`` for the pool's whole life."""
    pool = small_pool()
    pool.rows_of(0)
    for field in ("features", "labels", "n_classes"):
        with pytest.raises(AttributeError):
            setattr(pool, field, getattr(pool, field))


def test_test_set_balanced_and_disjoint_from_training():
    pool = small_pool(per_class=40)
    taken = fresh_mask(pool)
    test = draw_test_set(pool, 10, seed=0, taken=taken)
    assert isinstance(test, DatasetPool) and test.n_classes == 3
    assert len(test.labels) == 30
    for c in range(3):
        assert (test.labels == c).sum() == 10
    # labels come out sorted, features grouped per class
    assert np.array_equal(test.labels, np.sort(test.labels))
    # the test set is the taken rows, by class, then by pool index
    test_rows = np.flatnonzero(taken)
    test_rows = test_rows[np.argsort(pool.labels[test_rows], kind="stable")]
    assert np.array_equal(test.features, pool.features[test_rows])
    rows = draw_round_data(pool, (0, 1, 2), 30, seed=1, taken=taken)
    test_rows = {tuple(row) for row in test.features}
    assert all(tuple(row) not in test_rows for row in pool.features[rows])


# -- CSV ---------------------------------------------------------------------------


def test_csv_roundtrip_is_exact(tmp_path):
    pool = small_pool(seed=4)
    path = tmp_path / "pool.csv"
    save_csv(pool, path)
    loaded = load_csv(path, n_classes=3)
    assert np.array_equal(pool.features, loaded.features)
    assert np.array_equal(pool.labels, loaded.labels)


def test_csv_header_is_optional(tmp_path):
    with_header = tmp_path / "a.csv"
    with_header.write_text("f0,f1,label\n0.5,1.5,0\n2.5,3.5,1\n")
    bare = tmp_path / "b.csv"
    bare.write_text("0.5,1.5,0\n2.5,3.5,1\n")
    a = load_csv(with_header, n_classes=2)
    b = load_csv(bare, n_classes=2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("body,fragment", [
    ("1.0,2.0,0\n3.0,4.0\n", "line 2"),          # ragged row
    ("1.0,2.0,0\n1.0,abc,0\n", "line 2"),        # non-numeric feature
    ("1.0,2.0,1.5\n", "line 1"),                 # non-integer label
    ("1.0,2.0,9\n", "line 1"),                   # label out of range
    ("", "no data"),                             # nothing at all
    ("1.0,2.0,0\n \n3.0,4.0,0\n", "line 2"),    # whitespace-only line
])
def test_csv_loader_rejects_malformed_input(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        load_csv(path, n_classes=6)
    assert fragment in str(err.value)
    assert os.listdir(tmp_path) == ["bad.csv"]  # no sidecar for a rejected file


def assert_same_pool(a, b):
    assert a.features.dtype == b.features.dtype and a.features.flags.c_contiguous
    assert np.array_equal(a.features, b.features, equal_nan=True)
    assert a.labels.dtype == b.labels.dtype
    assert np.array_equal(a.labels, b.labels)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.floats()),
       st.integers(0, 2**32 - 1))
def test_csv_parses_repr_floats_exactly_as_the_row_scan(tmp_path_factory, features,
                                                        seed):
    labels = np.random.default_rng(seed).integers(0, 6, size=len(features))
    pool = DatasetPool(features, labels, 6)
    path = tmp_path_factory.mktemp("csv") / "pool.csv"
    save_csv(pool, path)
    loaded = load_csv(path, n_classes=6)
    assert_same_pool(loaded, pool)
    assert_same_pool(loaded, _scan_csv_rows(path, 6))


def test_csv_fixed_point_table_parses_as_the_row_scan(tmp_path):
    """The benchmark's spelling: ``np.savetxt`` with ``%.6f`` features and
    ``%d`` labels under a header line."""
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.normal(0.0, 2.0, (60, 40)), rng.integers(0, 6, 60)])
    path = tmp_path / "har.csv"
    np.savetxt(path, table, fmt=["%.6f"] * 40 + ["%d"], delimiter=",",
               header=",".join([f"f{i}" for i in range(40)] + ["label"]),
               comments="")
    loaded = load_csv(path, n_classes=6)
    assert_same_pool(loaded, _scan_csv_rows(path, 6))
    assert loaded.features.shape == (60, 40)


@pytest.mark.parametrize("body", [
    "1_0,2.5,1\n3.0,4.0,0\n",         # underscores: Python's float only
    '"1.0",2.5,1\n3.0,4.0,0\n',        # quoted cells
    "1.0,2.5,1\r3.0,4.0,0\r",          # bare carriage returns
    "\nf0,f1,label\n1.0,2.5,1\n",     # blank first line, header-like row after
    "1.0,2.5,1.0\n3.0,4.0,-0.0\n",     # integer-valued float labels
])
def test_csv_loader_agrees_with_the_row_scan_on_odd_spellings(tmp_path, body):
    path = tmp_path / "odd.csv"
    path.write_text(body, newline="")
    try:
        want = _scan_csv_rows(path, 6)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            load_csv(path, n_classes=6)
    else:
        assert_same_pool(load_csv(path, n_classes=6), want)


def test_loaded_pool_runs_through_draws(tmp_path):
    pool = small_pool(seed=7)
    path = tmp_path / "pool.csv"
    save_csv(pool, path)
    loaded = load_csv(path, n_classes=3)
    rows = draw_round_data(loaded, (0, 1), 8, seed=0, taken=fresh_mask(loaded))
    assert len(rows) == 8


# -- the parsed-table sidecar ------------------------------------------------------


def sidecar_of(path) -> str:
    return os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.flwf.npz")


def parses_nothing():
    """Within this context ``np.loadtxt`` fails the test: a load must hit."""
    return mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed afresh"))


def assert_identical_pool(a, b):
    for x, y in ((a.features, b.features), (a.labels, b.labels)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()  # -0.0 and NaN bits included


def write_rows(path, features, labels, header):
    lines = [",".join([f"f{i}" for i in range(features.shape[1])] + ["label"])] if header else []
    lines += [",".join([repr(float(v)) for v in row] + [str(int(label))])
              for row, label in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n")


FEATURE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),  # exponents
    st.sampled_from([-0.0, 0.0, -1.5, 1e22, -2.5e-8, float("inf")]))


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=FEATURE_VALUES),
       st.integers(0, 2**32 - 1), st.booleans())
def test_a_warm_load_reads_the_sidecar_and_gives_the_cold_pool(tmp_path_factory, features,
                                                               seed, header):
    labels = np.random.default_rng(seed).integers(0, 6, size=len(features))
    path = tmp_path_factory.mktemp("csv") / "pool.csv"
    write_rows(path, features, labels, header)
    cold = load_csv(path, n_classes=6)
    assert np.array_equal(cold.features, features)
    sidecar = sidecar_of(path)
    want = hashlib.sha256(_SIDECAR_TAG + path.read_bytes()).digest()
    assert _digest_of(sidecar).tobytes() == want
    before = os.stat(sidecar)
    written = Path(sidecar).read_bytes()
    with parses_nothing():
        warm = load_csv(path, n_classes=6)
    assert_identical_pool(warm, cold)
    assert warm.features.flags.c_contiguous
    after = os.stat(sidecar)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert Path(sidecar).read_bytes() == written
    assert sorted(os.listdir(path.parent)) == [os.path.basename(sidecar), "pool.csv"]


def test_a_cold_parse_holds_no_copy_of_the_whole_file(tmp_path):
    """The bytes are hashed as the parser reads them, so the traced peak of
    a cold parse stays below the table plus the file."""
    rng = np.random.default_rng(8)
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.column_stack([rng.normal(size=(1500, 200)), rng.integers(0, 6, 1500)]),
               fmt=["%.6f"] * 200 + ["%d"], delimiter=",")
    tracemalloc.start()
    try:
        table, digest = _parse_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (1500, 201)
    assert digest == hashlib.sha256(_SIDECAR_TAG + path.read_bytes()).digest()
    assert peak < table.nbytes + path.stat().st_size


def test_a_rewrite_of_the_same_size_and_mtime_is_parsed_afresh(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("f0,label\n1.25,0\n2.5,1\n")
    assert load_csv(path, n_classes=2).features.tolist() == [[1.25], [2.5]]
    stat = os.stat(path)
    path.write_text("f0,label\n7.25,1\n2.5,0\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    fresh = load_csv(path, n_classes=2)
    assert fresh.features.tolist() == [[7.25], [2.5]]
    assert fresh.labels.tolist() == [1, 0]
    with parses_nothing():  # the sidecar now holds the new table
        assert_identical_pool(load_csv(path, n_classes=2), fresh)


def _digest_of(sidecar) -> np.ndarray:
    with np.load(sidecar) as stored:
        return stored["digest"]


def _save_npy(sidecar, array):
    with open(sidecar, "wb") as fh:
        np.save(fh, array)


def _corrupt_deflated(sidecar):
    """A compressed sidecar whose table's deflate stream is broken."""
    np.savez_compressed(sidecar, digest=_digest_of(sidecar), table=np.zeros((40, 3)))
    with zipfile.ZipFile(sidecar) as zf:
        info = zf.getinfo("table.npy")
    data = bytearray(sidecar.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len  # the local header's end
    data[start:start + 4] = b"\xff\xff\xff\xff"
    sidecar.write_bytes(bytes(data))


SPOILERS = {
    "truncated": lambda f: f.write_bytes(f.read_bytes()[:f.stat().st_size // 2]),
    "garbage": lambda f: f.write_bytes(b"not a sidecar" * 40),
    "empty": lambda f: f.write_bytes(b""),
    "npy": lambda f: _save_npy(f, np.zeros((3, 2))),
    "no-digest": lambda f: np.savez(f, table=np.zeros((3, 2))),
    "stale": lambda f: np.savez(f, digest=np.zeros(32, np.uint8), table=np.zeros((3, 2))),
    "float32": lambda f: np.savez(f, digest=_digest_of(f),
                                  table=np.zeros((3, 2), np.float32)),
    "1-d": lambda f: np.savez(f, digest=_digest_of(f), table=np.zeros(6)),
    "pickled": lambda f: np.savez(f, digest=np.array(["x"], dtype=object),
                                  table=np.zeros((3, 2))),
    "deflated": _corrupt_deflated,
}


@pytest.mark.parametrize("spoil", SPOILERS)
def test_a_spoilt_sidecar_is_ignored_and_rewritten(tmp_path, spoil):
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=3), path)
    want = load_csv(path, n_classes=3)
    sidecar = sidecar_of(path)
    SPOILERS[spoil](Path(sidecar))
    assert_identical_pool(load_csv(path, n_classes=3), want)
    with parses_nothing():
        assert_identical_pool(load_csv(path, n_classes=3), want)
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(sidecar), "pool.csv"]


def test_a_sidecar_that_cannot_be_written_is_skipped(tmp_path):
    """Root ignores mode bits, so a directory stands where the sidecar goes."""
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=5), path)
    os.mkdir(sidecar_of(path))
    for _ in range(2):
        pool = load_csv(path, n_classes=3)
        assert_identical_pool(pool, _scan_csv_rows(path, 3))
    assert os.path.isdir(sidecar_of(path))
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(sidecar_of(path)), "pool.csv"]


def _forge(path, sidecar):
    """A sidecar holding ``path``'s real digest and a table of nines."""
    Path(sidecar).unlink(missing_ok=True)
    real = load_csv(path, n_classes=3)  # writes the true sidecar
    with np.load(sidecar) as stored:
        digest = stored["digest"]
    forged = np.column_stack([np.full_like(real.features, 9.0), real.labels])
    os.remove(sidecar)
    np.savez(sidecar, digest=digest, table=forged)
    return real


def _plant_foreign(path, sidecar):
    _forge(path, sidecar)
    os.chown(sidecar, FOREIGN_UID, FOREIGN_UID)


def _plant_writable(path, sidecar):
    _forge(path, sidecar)
    os.chmod(sidecar, 0o666)  # the CSV is 0o644


def _plant_symlink(path, sidecar):
    _forge(path, sidecar)
    os.rename(sidecar, sidecar + ".real")
    os.symlink(os.path.basename(sidecar) + ".real", sidecar)


def _plant_fifo(path, sidecar):
    os.mkfifo(sidecar)  # opened blocking, this would wait for a writer for ever


FOREIGN_UID = 54321
UNTRUSTED = {"foreign-owner": _plant_foreign, "group-writable": _plant_writable,
             "symlink": _plant_symlink, "fifo": _plant_fifo}


def _fail_after(seconds):
    def expired(signum, frame):
        raise AssertionError(f"load_csv still blocked after {seconds} s")
    signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)


@pytest.mark.skipif(os.geteuid() != 0, reason="planting a foreign owner needs root")
@pytest.mark.parametrize("plant", UNTRUSTED)
def test_a_sidecar_it_cannot_trust_is_never_read(tmp_path, plant):
    """The digest is no secret: anyone who can read the CSV can forge a
    sidecar that matches it, so only a trusted one is read."""
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=4), path)
    os.chmod(path, 0o644)
    want = _scan_csv_rows(path, 3)
    UNTRUSTED[plant](path, sidecar_of(path))
    _fail_after(10)
    try:
        got = load_csv(path, n_classes=3)
    finally:
        signal.alarm(0)
    assert_identical_pool(got, want)


@pytest.mark.skipif(os.geteuid() != 0, reason="changing a file's owner needs root")
def test_a_forged_sidecar_is_read_when_its_owner_is_trusted(tmp_path):
    """The control for the test above: the same forgery, owned by the
    current user or by the CSV's owner, is what a load returns."""
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=4), path)
    os.chmod(path, 0o644)
    sidecar = sidecar_of(path)
    for owner in (os.geteuid(), FOREIGN_UID):
        os.chown(path, owner, owner)
        real = _forge(path, sidecar)
        os.chown(sidecar, owner, owner)
        with parses_nothing():
            forged = load_csv(path, n_classes=3)
        assert np.all(forged.features == 9.0)
        assert np.array_equal(forged.labels, real.labels)


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o755])
def test_the_sidecar_is_as_readable_as_its_csv(tmp_path, mode):
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=2), path)
    os.chmod(path, mode)
    load_csv(path, n_classes=3)
    assert os.stat(sidecar_of(path)).st_mode & 0o777 == mode & 0o666


def test_a_scanned_pool_leaves_no_sidecar(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("1_0,2.5,1\n3.0,4.0,0\n")  # only Python's float reads 1_0
    assert load_csv(path, n_classes=6).features.tolist() == [[10.0, 2.5], [3.0, 4.0]]
    assert os.listdir(tmp_path) == ["odd.csv"]


def test_a_missing_csv_raises_file_not_found_and_writes_nothing(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(FileNotFoundError) as err:
        load_csv(path, n_classes=6)
    assert (err.value.errno, err.value.filename) == (errno.ENOENT, str(path))
    assert os.listdir(tmp_path) == []


def test_the_sidecar_is_one_uncompressed_npz_of_digest_and_table(tmp_path):
    path = tmp_path / "pool.csv"
    save_csv(small_pool(seed=6), path)
    pool = load_csv(path, n_classes=3)
    with np.load(sidecar_of(path), allow_pickle=False) as stored:
        assert sorted(stored.files) == ["digest", "table"]
        assert stored["digest"].dtype == np.uint8 and stored["digest"].shape == (32,)
        table = stored["table"]
        assert stored.zip.infolist()[0].compress_type == 0
    assert np.array_equal(table, np.column_stack([pool.features, pool.labels]))
