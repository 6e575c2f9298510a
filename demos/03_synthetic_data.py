"""
The data pool: generation, disjoint round draws, and exhaustion
================================================================

Clients never see the same training row twice.  The pool is read-only;
each seeded draw marks the rows it takes in a ``taken`` mask that the
caller keeps (a run keeps one), the test set is carved out first, and
running dry raises instead of silently recycling data.
"""

import os
import tempfile

import numpy as np

from flwf import (PoolExhaustedError, draw_round_data, draw_test_set,
                  generate_synthetic, load_csv, save_csv)

# -- generation -----------------------------------------------------------------

# classes are isotropic Gaussian blobs around random unit-norm centers
# scaled by the separation; at 1.5 the blobs overlap enough that a model
# which only ever trains on one class collapses onto it
pool = generate_synthetic(n_classes=3, per_class=200, feature_dim=8,
                          separation=1.5, seed=0)
print(f"pool: {len(pool.labels)} rows, "
      f"{np.bincount(pool.labels).tolist()} per class")

centers = [pool.features[pool.labels == c].mean(axis=0) for c in range(3)]
gaps = [np.linalg.norm(centers[a] - centers[b])
        for a in range(3) for b in range(a + 1, 3)]
print(f"pairwise class-mean distances: {np.round(gaps, 2)}")

# -- the test set comes out first ----------------------------------------------------

taken = np.zeros(len(pool), dtype=bool)  # the caller's mask: what draws took
test = draw_test_set(pool, per_class=20, seed=1, taken=taken)
print(f"\ntest set: {len(test.labels)} rows, balanced "
      f"{np.bincount(test.labels).tolist()}")

# -- seeded, disjoint training draws --------------------------------------------------

seen = set()
for r in range(1, 4):
    drawn = draw_round_data(pool, classes=(0, 1), size=30, seed=100 + r, taken=taken)
    rows = set(drawn.tolist())  # pool indices
    print(f"round {r}: drew {len(drawn)} rows of classes (0, 1), "
          f"overlap with earlier draws: {len(seen & rows)}")
    assert not seen & rows
    seen |= rows

remaining = (~taken[pool.labels == 0]).sum()
print(f"class 0 rows not yet taken: {remaining}")

# the same seed always selects the same rows (on a fresh mask)
taken2 = np.zeros(len(pool), dtype=bool)
draw_test_set(pool, per_class=20, seed=1, taken=taken2)
again = draw_round_data(pool, classes=(0, 1), size=30, seed=101, taken=taken2)
first = sorted(b for b in seen if b in set(again.tolist()))
print(f"re-drawing round 1 on a fresh mask takes the same rows: "
      f"{len(first) == 30}")

# -- exhaustion is loud ----------------------------------------------------------------

try:
    while True:
        draw_round_data(pool, classes=(0,), size=50, seed=len(seen), taken=taken)
except PoolExhaustedError as err:
    print(f"\npool refused an over-draw: {err}")

# -- CSV round trip ---------------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "pool.csv")
    save_csv(pool, path)
    reloaded = load_csv(path, n_classes=3)
    exact = (np.array_equal(reloaded.features, pool.features)
             and np.array_equal(reloaded.labels, pool.labels))
    print(f"CSV round trip preserves every value exactly: {exact}")
