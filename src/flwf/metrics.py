"""Accuracy and forgetting metrics over a round-by-round evaluation ledger.

The ledger stores, for every evaluated model (each client after its local
training, the server after aggregation), the model's argmax predictions
on the one fixed test set.  Storing raw predictions rather than summary
numbers keeps every derived metric re-checkable by a brute-force pass.
Records are keyed by ``(owner, round)`` in one dict kept in append order;
each is also reduced to per-class hit counts when appended.

A stored record holds its predictions in the narrowest unsigned integer
type that holds ``n_classes - 1``: one byte per test row up to 256
classes, two up to 65,536.  The predictions are the only ledger state
that grows with rounds x owners x test rows.  The ``long-horizon``
benchmark workload holds 1,681 records of 300 rows: 3.85 MB as int64,
0.48 MB as one byte each, and its peak RSS is 46.33 MB with the former
and 43.15 MB with the latter (medians of 10 runs each).
:meth:`MetricsLedger.append` narrows only ids that
:func:`flwf.datasets.class_ids` has passed: a cast would wrap -1 to 255,
a class when there are 256.

Every accuracy comes from one table and one rule.  The table ``H`` holds
each record's hit counts (records x classes, in append order); it is
stacked from the per-record counts on the first read after an append and
dropped on the next append, so appending stays O(1).  The rule
(:meth:`MetricsLedger._accuracies`) divides ``H[rows] @ M.T`` by
``counts @ M.T``, with ``M`` the 0/1 membership matrix of the class sets
asked for: every value is one float64 division of two exact integer sums,
which is what ``np.mean`` over a boolean mask gives.  The exports read a
whole owner (or the whole ledger) in one call.  Every mean over rounds is
``np.mean`` of a 1-D array in round order, never ``mean(axis=0)`` of a 2-D
block, whose summation order can differ in the last bit.  Window means
``abar`` are kept once computed and dropped on every append.

Notation used throughout (k = owner, r = round, t/d = task indices):

* ``a0(k, r)``            whole-test accuracy of owner k's round-r model.
* ``a(k, r, d)``          accuracy restricted to task d's classes.
* ``abar(k, t, d)``       a(k, r', d) averaged over the rounds r' of task t.
* ``A_gen(k)``            mean of a0 over rounds 1..R.
* ``A_per(k)``            mean accuracy on the classes learnt so far.
* ``A_task(k, t)``        (1/t) sum over d <= t of abar(k, t, d).
* ``f(k, t, d)``          max over i in d..t-1 of abar(k, i, d), minus
                          abar(k, t, d); negative values (backward
                          transfer) are kept, never clamped.
* ``F(k, t)``             mean of f(k, t, d) over d < t.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .continual import TaskSequence
from .datasets import class_ids, read_only
from .network import ModelParams, forward

SERVER = "server"


def predict(params: ModelParams, features) -> np.ndarray:
    """Argmax class ids; ties resolve to the lowest class index."""
    return np.argmax(forward(params, features), axis=1)


@dataclass(frozen=True)
class RoundRecord:
    """What one owner's round produced: its model's predictions on the test
    set, class ids as given (a ledger checks and narrows them when
    appended), and the loss mode a client trained with (None for the
    server)."""

    owner: str
    round_index: int
    predictions: np.ndarray
    mode: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "predictions", np.asarray(self.predictions))
        if self.round_index < 0:
            raise ValueError("round index must be >= 0")


@dataclass
class MetricsLedger:
    """Append-only store of per-round predictions plus the task layout.

    ``tasks[k]`` is owner k's task sequence; owners without an entry (the
    server) only support whole-test metrics.  ``records`` maps ``(owner,
    round)`` to its :class:`RoundRecord` in append order, each holding its
    predictions in the narrowest unsigned type that holds ``n_classes - 1``.
    Those predictions and ``test_labels`` are read-only.
    """

    test_labels: np.ndarray
    n_classes: int
    total_rounds: int
    tasks: dict[str, TaskSequence] = field(default_factory=dict)
    records: dict[tuple[str, int], RoundRecord] = field(default_factory=dict, init=False)

    def __post_init__(self):
        labels = np.asarray(self.test_labels)
        if labels.size == 0:
            raise ValueError("ledger needs a nonempty test set")
        self.test_labels = read_only(
            class_ids(labels, self.n_classes, "test label", "test row"), self.test_labels)
        # Test examples per class; per record, its correct predictions per
        # class (row i of the hit table H is the i-th record appended).
        self._class_counts = np.bincount(self.test_labels, minlength=self.n_classes)
        self._id_dtype = np.min_scalar_type(self.n_classes - 1)
        self._row_of: dict[tuple[str, int], int] = {}
        self._hit_rows: list[np.ndarray] = []
        # Both dropped on every append: H stacked from _hit_rows, and
        # abar(k, t, d) by (owner, t, d), which forgetting rereads many times.
        self._table: np.ndarray | None = None
        self._window_means: dict[tuple[str, int, int], float] = {}
        for owner, seq in self.tasks.items():
            if seq.total_rounds != self.total_rounds:
                raise ValueError(f"{owner}: round budgets do not sum to {self.total_rounds}")

    # -- recording ---------------------------------------------------------

    def append(self, record: RoundRecord) -> None:
        """Store a copy of ``record`` with its predictions narrowed, once
        each has passed :func:`flwf.datasets.class_ids`, and read-only."""
        if record.predictions.shape != self.test_labels.shape:
            raise ValueError("prediction vector length does not match the test set")
        predictions = class_ids(record.predictions, self.n_classes, "prediction", "test row")
        key = (record.owner, record.round_index)
        if key in self.records:
            raise ValueError(
                f"duplicate record for {record.owner!r} round {record.round_index}")
        predictions = read_only(predictions.astype(self._id_dtype, copy=False),
                                record.predictions)
        self.records[key] = replace(record, predictions=predictions)
        correct = self.test_labels[predictions == self.test_labels]
        self._row_of[key] = len(self._hit_rows)
        self._hit_rows.append(np.bincount(correct, minlength=self.n_classes))
        self._table = None
        self._window_means.clear()

    def record_for(self, owner: str, round_index: int) -> RoundRecord:
        if (owner, round_index) not in self.records:
            raise KeyError(f"no record for {owner!r} round {round_index}")
        return self.records[(owner, round_index)]

    def n_tasks(self, owner: str) -> int:
        return len(self.tasks[owner].tasks)

    # -- the accuracy table ------------------------------------------------

    def _hit_table(self) -> np.ndarray:
        """H: (records x classes) hit counts in append order, stacked on the
        first read after an append."""
        if self._table is None:
            self._table = np.array(self._hit_rows, dtype=np.int64).reshape(
                -1, self.n_classes)
        return self._table

    def _rows(self, owner: str, rounds) -> list[int]:
        """H's rows for ``rounds`` of ``owner``; a missing record raises
        ``KeyError((owner, round))``."""
        return [self._row_of[(owner, r)] for r in rounds]

    def _accuracies(self, rows, class_sets) -> np.ndarray:
        """The one accuracy rule: a (rows x sets) float64 table of each
        row's hits on the distinct in-range classes of each set over their
        test counts, ``(H[rows] @ M.T) / (counts @ M.T)`` with ``M`` the 0/1
        class membership of the sets.  Each value is one true division of
        two exact int64 sums, as ``np.mean`` over a boolean mask gives."""
        masks = np.zeros((len(class_sets), self.n_classes), dtype=np.int64)
        for i, classes in enumerate(class_sets):
            masks[i, [c for c in {int(c) for c in classes} if 0 <= c < self.n_classes]] = 1
        counts = self._class_counts @ masks.T
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(
                f"no test examples for classes {sorted(class_sets[empty[0]])}")
        return (self._hit_table()[rows] @ masks.T) / counts

    # -- per-round accuracies ----------------------------------------------

    def whole_test_accuracy(self, owner: str, round_index: int) -> float:
        return self.class_subset_accuracy(owner, round_index, range(self.n_classes))

    def class_subset_accuracy(self, owner: str, round_index: int,
                              classes) -> float:
        """Accuracy of one record on the test examples of ``classes``
        (duplicates and out-of-range classes are ignored)."""
        rows = self._rows(owner, (round_index,))
        return float(self._accuracies(rows, (tuple(classes),))[0, 0])

    def task_accuracy(self, owner: str, round_index: int, d: int) -> float:
        """a(k, r, d): accuracy on the test examples of task d's classes."""
        return self.class_subset_accuracy(
            owner, round_index, self.tasks[owner].tasks[d - 1].classes)

    # -- aggregate metrics ---------------------------------------------------

    def _require_rounds(self, owner: str, rounds: range) -> range:
        missing = [r for r in rounds if (owner, r) not in self.records]
        if missing:
            raise ValueError(f"{owner!r} is missing rounds {missing}")
        return rounds

    def general_accuracy(self, owner: str) -> float:
        """A_gen: mean whole-test accuracy over rounds 1..R."""
        rounds = self._require_rounds(owner, range(1, self.total_rounds + 1))
        column = self._accuracies(self._rows(owner, rounds), (range(self.n_classes),))
        return float(np.mean(column[:, 0]))

    def personal_accuracy(self, owner: str) -> float:
        """A_per: mean accuracy on the classes learnt so far; in task t's
        window, the classes of tasks 1..t (``classes_started_by``)."""
        rounds = self._require_rounds(owner, range(1, self.total_rounds + 1))
        seq = self.tasks[owner]
        windows = [seq.window(t) for t in range(1, len(seq.tasks) + 1)]
        class_sets = [seq.classes_started_by(w.start) for w in windows]
        column = [t for t, w in enumerate(windows) for _ in w]
        table = self._accuracies(self._rows(owner, rounds), class_sets)
        return float(np.mean(table[np.arange(len(rounds)), column]))

    def window_task_accuracy(self, owner: str, t: int, d: int) -> float:
        """abar(k, t, d): task-d accuracy averaged over task t's rounds,
        computed once per (owner, t, d) between appends."""
        key = (owner, t, d)
        if key not in self._window_means:
            seq = self.tasks[owner]
            column = self._accuracies(self._rows(owner, seq.window(t)),
                                      (seq.tasks[d - 1].classes,))
            self._window_means[key] = float(np.mean(column[:, 0]))
        return self._window_means[key]

    def avg_task_accuracy(self, owner: str, t: int) -> float:
        """A_task(k, t) = (1/t) sum over d = 1..t of abar(k, t, d)."""
        self._require_rounds(owner, self.tasks[owner].window(t))
        return float(np.mean([self.window_task_accuracy(owner, t, d)
                              for d in range(1, t + 1)]))

    def forgetting(self, owner: str, t: int, d: int) -> float:
        """f(k, t, d) = max over i in d..t-1 of abar(k, i, d) - abar(k, t, d)."""
        if t < 2:
            raise ValueError("forgetting needs t >= 2")
        if not 1 <= d < t:
            raise ValueError("forgetting needs 1 <= d < t")
        best = max(self.window_task_accuracy(owner, i, d) for i in range(d, t))
        return best - self.window_task_accuracy(owner, t, d)

    def average_forgetting(self, owner: str, t: int) -> float:
        """F(k, t) = mean of f(k, t, d) over d = 1..t-1."""
        if t < 2:
            raise ValueError("average forgetting needs t >= 2")
        return float(np.mean([self.forgetting(owner, t, d)
                              for d in range(1, t)]))

    # -- export --------------------------------------------------------------

    def csv_rows(self) -> list[tuple]:
        """Rows (owner, round, metric, task, value); '' task for whole-test.

        Each owner's records are read in one table against the whole test
        set and its tasks, so an owner's task set without test examples
        raises once the owner has any record.
        """
        rows: dict[str, list[int]] = {}
        for i, (owner, _) in enumerate(self.records):
            rows.setdefault(owner, []).append(i)

        def class_sets(owner):
            tasks = self.tasks[owner].tasks if owner in self.tasks else ()
            return [range(self.n_classes), *(task.classes for task in tasks)]

        tables = {owner: iter(self._accuracies(owner_rows, class_sets(owner)).tolist())
                  for owner, owner_rows in rows.items()}
        out: list[tuple] = []
        for owner, r in self.records:
            whole, *tasks = next(tables[owner])
            out.append((owner, r, "whole_test_accuracy", "", whole))
            if tasks and r >= 1:
                out.extend((owner, r, "task_accuracy", d, value)
                           for d, value in enumerate(tasks, 1))
        return out

    def figure_rows(self) -> list[tuple]:
        """Rows (round, owner, class, accuracy) for per-class curves."""
        table = self._accuracies(slice(None),
                                 [(c,) for c in range(self.n_classes)]).tolist()
        return [(r, owner, c, value)
                for (owner, r), values in zip(self.records, table)
                for c, value in enumerate(values)]
