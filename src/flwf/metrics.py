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
and 43.15 MB with the latter (medians of 10 runs each).  Ids are checked
once, where they are made: :func:`predict` returns :class:`Predictions`,
argmax ids over ``n_classes`` logits already narrowed, which a ledger of
``n_classes`` classes stores as they are.  Any other array is narrowed by
:meth:`MetricsLedger.append` only after :func:`flwf.datasets.class_ids`
has passed it: a cast would wrap -1 to 255, a class when there are 256.

Every accuracy comes from one table and one rule.  The table ``H`` holds
each record's hit counts (records x classes, in append order); it is
stacked from the per-record counts on the first read after an append and
dropped on the next append, so appending stays O(1).  The rule
(:meth:`MetricsLedger._accuracies`) divides ``H[rows] @ M.T`` by
``counts @ M.T``, with ``M`` the 0/1 membership matrix of the class sets
asked for: every value is one float64 division of two exact integer sums,
which is what ``np.mean`` over a boolean mask gives.  Each owner's
records are read once per export into one owner table (its records x
[whole test, task 1..T]), which also holds ``abar`` for every task
window whose rounds are all recorded.  ``metrics.csv``, every per-round
accuracy and the summary's ``A_gen``, ``A_task`` and ``F`` read it;
``A_per`` reads its own class sets, and the per-class curves the whole
ledger in one call.  Every mean over rounds is ``np.mean`` of a 1-D
array in round order, or a row of a contiguous array reduced as such,
never ``mean(axis=0)`` of a 2-D block, whose summation order can differ
in the last bit.  The owner tables are kept once built and dropped on
every append.  The table's ``rows`` is the one place a read of a round
without a record raises: a ``ValueError`` naming the missing rounds.

The CSV exports return their text lines, the bytes ``csv.writer(...,
lineterminator="\\n")`` writes, formatted straight from the tables: each
owner name is quoted once, by the writer's own minimal rule
(:func:`_csv_field`), and each distinct float's ``repr`` is computed once
per export (:func:`_float_texts`).  The tables and texts are read when an
export is called; its lines are formatted as they are iterated, so they
are never all held at once.

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

import csv
import functools
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .continual import TaskSequence
from .datasets import class_ids, read_only
from .network import ModelParams, forward

SERVER = "server"


class Predictions(np.ndarray):
    """Class ids as :func:`predict` makes them: argmax ids over
    ``n_classes`` logits, each in ``0..n_classes-1`` by construction, held
    read-only in the narrowest unsigned type that holds ``n_classes - 1``.
    An array computed from one is not one: its ``n_classes`` is unset."""

    __slots__ = ("n_classes",)


def predict(params: ModelParams, features) -> Predictions:
    """Argmax class ids; ties resolve to the lowest class index."""
    logits = forward(params, features)
    n_classes = logits.shape[1]
    ids = Predictions(len(logits), np.min_scalar_type(n_classes - 1))
    ids[...] = np.argmax(logits, axis=1)
    ids.n_classes = n_classes
    ids.setflags(write=False)
    return ids


@dataclass(frozen=True)
class RoundRecord:
    """What one owner's round produced: its model's predictions on the test
    set, class ids as given (a ledger checks and narrows them when
    appended, unless :func:`predict` made them), and the loss mode a
    client trained with (None for the server)."""

    owner: str
    round_index: int
    predictions: np.ndarray
    mode: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "predictions", np.asanyarray(self.predictions))
        if self.round_index < 0:
            raise ValueError("round index must be >= 0")


@functools.lru_cache(maxsize=1024)
def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(..., lineterminator="\\n")`` writes it as
    one field among others: quoted by the writer's own minimal rule, once
    per distinct text (owner names recur in every export)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text, ""))
    return out.getvalue()[:-2]  # the empty second field's "," and the "\n"


# Above this many values, one np.unique pass finds the distinct ones faster
# than a dict over their bits; at or below it the dict skips np.unique's
# ~0.1 ms first call, which a small run's one export would pay in full.
DICT_TEXTS_MAX = 1024


def _float_texts(tables) -> list[list]:
    """Each float table's values as ``repr`` strings, in nested lists of
    the table's shape (``tolist``'s), as ``csv.writer`` writes a float.
    Each distinct value of the float64 ``tables`` is formatted once over
    all of them; values are keyed by their bits, so -0.0 and 0.0 stay
    apart."""
    bits = np.concatenate([table.ravel() for table in tables]).view(np.int64)
    if bits.size <= DICT_TEXTS_MAX:
        keys = bits.tolist()
        distinct = list(dict.fromkeys(keys))
        values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
        text = dict(zip(distinct, map(repr, values)))
        texts = np.array([text[key] for key in keys], dtype=object)
    else:
        distinct, index = np.unique(bits, return_inverse=True)
        texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                         dtype=object)[index]
    out, start = [], 0
    for table in tables:
        out.append(texts[start:start + table.size].reshape(table.shape).tolist())
        start += table.size
    return out


@dataclass(frozen=True)
class _OwnerTable:
    """One owner's accuracies, read once per export: ``values`` is (its
    records in append order) x [whole test, task 1..T] by the one rule
    over ``class_sets``, ``at[r]`` the row of round r, and ``abar[t]``
    each column's mean over task t's rounds, for every window whose rounds
    are all recorded.  A column whose classes have no test examples is
    NaN, and raises when it is read."""

    owner: str
    at: dict[int, int]
    values: np.ndarray
    class_sets: list
    abar: dict[int, np.ndarray]

    def rows(self, rounds) -> list[int]:
        """The rows of ``rounds`` in their order: the one place a round
        without a record raises."""
        missing = [r for r in rounds if r not in self.at]
        if missing:
            raise ValueError(f"{self.owner!r} is missing rounds {missing}")
        return [self.at[r] for r in rounds]

    def check(self, columns) -> None:
        """Raise for the first of ``columns`` without test examples."""
        first = self.values[0]
        for col in columns:
            if math.isnan(first[col]):
                raise _no_examples(self.class_sets[col])

    def task(self, d: int) -> int:
        """Task d's column, once d is in 1..T and its classes have test
        examples; an owner without tasks (the server) raises ``KeyError``."""
        n_tasks = len(self.class_sets) - 1
        if not 1 <= d <= n_tasks:
            raise (ValueError if n_tasks else KeyError)(
                f"{self.owner!r} has no task {d}, only tasks 1..{n_tasks}")
        self.check((d,))
        return d


def _no_examples(classes) -> ValueError:
    return ValueError(f"no test examples for classes {sorted(classes)}")


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
        self._row_of: dict[str, dict[int, int]] = {}  # owner -> round -> row of H
        self._hit_rows: list[np.ndarray] = []
        # Both dropped on every append: H stacked from _hit_rows, and the
        # owner tables read from it.
        self._table: np.ndarray | None = None
        self._owner_tables: dict[str, _OwnerTable] = {}
        for owner, seq in self.tasks.items():
            if seq.total_rounds != self.total_rounds:
                raise ValueError(f"{owner}: round budgets do not sum to {self.total_rounds}")

    # -- recording ---------------------------------------------------------

    def append(self, record: RoundRecord) -> None:
        """Store a copy of ``record`` with its predictions narrowed and
        read-only: as they are if :func:`predict` made them for this many
        classes, else once each has passed :func:`flwf.datasets.class_ids`."""
        if record.predictions.shape != self.test_labels.shape:
            raise ValueError("prediction vector length does not match the test set")
        predictions = record.predictions
        if getattr(predictions, "n_classes", None) != self.n_classes:
            predictions = class_ids(predictions, self.n_classes, "prediction", "test row")
        key = (record.owner, record.round_index)
        if key in self.records:
            raise ValueError(
                f"duplicate record for {record.owner!r} round {record.round_index}")
        predictions = read_only(predictions.astype(self._id_dtype, copy=False),
                                record.predictions)
        self.records[key] = replace(record, predictions=predictions)
        correct = self.test_labels[predictions == self.test_labels]
        self._row_of.setdefault(record.owner, {})[record.round_index] = len(self._hit_rows)
        self._hit_rows.append(np.bincount(correct, minlength=self.n_classes))
        self._table = None
        self._owner_tables.clear()

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

    def _accuracies(self, rows, class_sets, empty_ok: bool = False) -> np.ndarray:
        """The one accuracy rule: a (rows x sets) float64 table of each
        row's hits on the distinct in-range classes of each set over their
        test counts, ``(H[rows] @ M.T) / (counts @ M.T)`` with ``M`` the 0/1
        class membership of the sets.  Each value is one true division of
        two exact int64 sums, as ``np.mean`` over a boolean mask gives.  A
        set without test examples raises, or with ``empty_ok`` gets a NaN
        column."""
        masks = np.zeros((len(class_sets), self.n_classes), dtype=np.int64)
        for i, classes in enumerate(class_sets):
            masks[i, [c for c in {int(c) for c in classes} if 0 <= c < self.n_classes]] = 1
        counts = self._class_counts @ masks.T
        empty = np.flatnonzero(counts == 0)
        if empty.size and not empty_ok:
            raise _no_examples(class_sets[empty[0]])
        with np.errstate(invalid="ignore"):  # 0 / 0 in an empty set's column
            return (self._hit_table()[rows] @ masks.T) / counts

    def _owner_table(self, owner: str) -> _OwnerTable:
        """Owner k's table, built once between appends, with abar(k, t, d)
        for every complete window t; a missing owner raises ``KeyError``."""
        if owner not in self._owner_tables:
            owner_rows = self._row_of[owner]
            seq = self.tasks.get(owner)
            tasks = seq.tasks if seq else ()
            class_sets = [range(self.n_classes), *(task.classes for task in tasks)]
            values = self._accuracies(list(owner_rows.values()), class_sets, empty_ok=True)
            at = {r: i for i, r in enumerate(owner_rows)}
            windows = {t: seq.window(t) for t in range(1, len(tasks) + 1)}
            # one np.mean per row of the window block's contiguous transpose:
            # each column's mean in round order, the bits of np.mean of it
            abar = {t: np.ascontiguousarray(values[[at[r] for r in w]].T).mean(axis=1)
                    for t, w in windows.items() if all(r in at for r in w)}
            self._owner_tables[owner] = _OwnerTable(owner, at, values, class_sets, abar)
        return self._owner_tables[owner]

    # -- per-round accuracies ----------------------------------------------

    def whole_test_accuracy(self, owner: str, round_index: int) -> float:
        """a0(k, r): accuracy on the whole test set."""
        table = self._owner_table(owner)
        return float(table.values[table.rows((round_index,))[0], 0])

    def task_accuracy(self, owner: str, round_index: int, d: int) -> float:
        """a(k, r, d): accuracy on the test examples of task d's classes."""
        table = self._owner_table(owner)
        return float(table.values[table.rows((round_index,))[0], table.task(d)])

    # -- aggregate metrics ---------------------------------------------------

    def general_accuracy(self, owner: str) -> float:
        """A_gen: mean whole-test accuracy over rounds 1..R."""
        table = self._owner_table(owner)
        return float(np.mean(table.values[table.rows(range(1, self.total_rounds + 1)), 0]))

    def personal_accuracy(self, owner: str) -> float:
        """A_per: mean accuracy on the classes learnt so far; in task t's
        window, the classes of tasks 1..t (``classes_started_by``)."""
        seq = self.tasks[owner]
        rows = self._owner_table(owner).rows(range(1, self.total_rounds + 1))
        h_rows = list(self._row_of[owner].values())  # H's row of each table row
        windows = [seq.window(t) for t in range(1, len(seq.tasks) + 1)]
        class_sets = [seq.classes_started_by(w.start) for w in windows]
        column = [t for t, w in enumerate(windows) for _ in w]
        table = self._accuracies([h_rows[i] for i in rows], class_sets)
        return float(np.mean(table[np.arange(len(rows)), column]))

    def window_task_accuracy(self, owner: str, t: int, d: int) -> float:
        """abar(k, t, d): task-d accuracy averaged over task t's rounds."""
        table = self._owner_table(owner)
        if t not in table.abar:  # raises: no tasks, no task t, or a missing round
            table.rows(self.tasks[owner].window(t))
        return float(table.abar[t][table.task(d)])

    def avg_task_accuracy(self, owner: str, t: int) -> float:
        """A_task(k, t) = (1/t) sum over d = 1..t of abar(k, t, d)."""
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

    def csv_rows(self) -> Iterator[str]:
        """``metrics.csv``'s lines below its header, each ending in "\\n":
        ``owner,round,metric,task,value``, the task empty for whole-test.

        The owner tables and their value texts are read when called, so an
        owner's task set without test examples raises here once the owner
        has any record.  The lines are formatted as they are iterated, so
        they are never all held at once.
        """
        tables = {owner: self._owner_table(owner) for owner in self._row_of}
        for table in tables.values():
            table.check(range(table.values.shape[1]))
        texts = _float_texts([table.values for table in tables.values()])
        rows = {owner: iter(text) for owner, text in zip(tables, texts)}
        names = {owner: _csv_field(owner) for owner in tables}

        def lines(records):
            for owner, r in records:
                whole, *tasks = next(rows[owner])
                head = f"{names[owner]},{r},"
                yield f"{head}whole_test_accuracy,,{whole}\n"
                if r >= 1:
                    for d, value in enumerate(tasks, 1):
                        yield f"{head}task_accuracy,{d},{value}\n"
        return lines(list(self.records))

    def figure_rows(self) -> Iterator[str]:
        """``figure_data.csv``'s lines below its header, each ending in
        "\\n": ``round,owner,class,accuracy`` for per-class curves.  As
        with :meth:`csv_rows`, the table and its texts are read when
        called and the lines formatted as they are iterated."""
        table = self._accuracies(slice(None), [(c,) for c in range(self.n_classes)])
        (texts,) = _float_texts([table])
        names = {owner: _csv_field(owner) for owner in self._row_of}
        classes = [f"{c}," for c in range(self.n_classes)]

        def lines(records):
            for (owner, r), values in zip(records, texts):
                head = f"{r},{names[owner]},"
                for c, value in zip(classes, values):
                    yield f"{head}{c}{value}\n"
        return lines(list(self.records))
