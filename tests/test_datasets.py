"""Data plumbing: synthetic pools, disjoint draws, CSV round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flwf.datasets import (DatasetPool, PoolExhaustedError, RoundBatch, TestSet,
                           _allocate_per_class, _scan_csv_rows, draw_round_data,
                           draw_test_set, generate_synthetic, load_csv, save_csv)


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
    assert not pool.consumed.any()


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


# -- round batches -----------------------------------------------------------------


def test_round_batch_validation():
    with pytest.raises(ValueError):
        RoundBatch(np.zeros((3, 2)), np.array([0, 1]), 2)  # length mismatch
    with pytest.raises(ValueError):
        RoundBatch(np.zeros((2, 2)), np.array([0, 5]), 2)  # label out of range


def test_round_batch_one_hot():
    batch = RoundBatch(np.zeros((3, 2)), np.array([0, 2, 1]), 3)
    assert batch.one_hot().tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_allocate_per_class_remainder_to_smallest():
    assert _allocate_per_class((0, 1, 2), 7) == {0: 3, 1: 2, 2: 2}
    assert _allocate_per_class((4, 2), 5) == {2: 3, 4: 2}
    assert _allocate_per_class((1,), 120) == {1: 120}


def test_draw_round_data_basics():
    pool = small_pool()
    rows = draw_round_data(pool, (0, 2), 10, seed=3)
    labels = pool.labels[rows]
    assert len(rows) == 10 and len(set(rows.tolist())) == 10
    assert set(labels.tolist()) <= {0, 2}
    assert (labels == 0).sum() == 5
    assert (labels == 2).sum() == 5
    # the draw returns pool indices, and exactly those rows are flagged
    assert np.array_equal(np.flatnonzero(pool.consumed), np.sort(rows))


def test_draws_are_disjoint_across_calls():
    pool = small_pool()
    seen: set[int] = set()
    for r in range(5):
        rows = set(draw_round_data(pool, (0, 1, 2), 12, seed=r).tolist())
        assert not rows & seen
        seen |= rows
    assert len(seen) == 60


def test_draw_exhaustion_names_class_and_shortfall():
    pool = small_pool(per_class=8)
    draw_round_data(pool, (1,), 6, seed=0)
    with pytest.raises(PoolExhaustedError) as err:
        draw_round_data(pool, (1,), 6, seed=1)
    assert "class 1" in str(err.value)
    assert "2" in str(err.value)  # only 2 rows remained


def test_draw_deterministic_per_seed():
    a = draw_round_data(small_pool(), (0, 1), 10, seed=9)
    b = draw_round_data(small_pool(), (0, 1), 10, seed=9)
    assert np.array_equal(a, b)


def test_draw_rejects_unknown_class_and_bad_size():
    pool = small_pool()
    with pytest.raises(ValueError):
        draw_round_data(pool, (7,), 5, seed=0)
    with pytest.raises(ValueError):
        draw_round_data(pool, (0,), 0, seed=0)


def test_test_set_balanced_and_disjoint_from_training():
    pool = small_pool(per_class=40)
    test = draw_test_set(pool, 10, seed=0)
    assert isinstance(test, TestSet)
    assert len(test.labels) == 30
    for c in range(3):
        assert (test.labels == c).sum() == 10
    # labels come out sorted, features grouped per class
    assert np.array_equal(test.labels, np.sort(test.labels))
    # the test set is the consumed rows, by class, then by pool index
    taken = np.flatnonzero(pool.consumed)
    taken = taken[np.argsort(pool.labels[taken], kind="stable")]
    assert np.array_equal(test.features, pool.features[taken])
    rows = draw_round_data(pool, (0, 1, 2), 30, seed=1)
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
    rows = draw_round_data(loaded, (0, 1), 8, seed=0)
    assert len(rows) == 8
