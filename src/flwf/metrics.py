"""Accuracy and forgetting metrics over a round-by-round evaluation ledger.

The ledger stores, for every evaluated model (each client after its local
training, the server after aggregation), the model's argmax predictions
on the one fixed test set.  Storing raw predictions rather than summary
numbers keeps every derived metric re-checkable by a brute-force pass.
Records are keyed by ``(owner, round)`` in one dict kept in append order;
each is also reduced to per-class hit counts when appended, so every
accuracy is one ratio of counts (:meth:`MetricsLedger.class_subset_accuracy`).
Window means ``abar`` are kept once computed and dropped on every append.

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

import json
from dataclasses import dataclass, field

import numpy as np

from .network import ModelParams, forward

SERVER = "server"


def predict(params: ModelParams, features) -> np.ndarray:
    """Argmax class ids; ties resolve to the lowest class index."""
    return np.argmax(forward(params, features), axis=1)


def accuracy_on(params: ModelParams, features, labels) -> float:
    """Fraction of argmax-correct predictions on a nonempty subset."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("accuracy over an empty subset is undefined")
    return float(np.mean(predict(params, features) == labels))


@dataclass(frozen=True)
class RoundRecord:
    """Predictions of one owner's model on the test set after one round."""

    owner: str
    round_index: int
    predictions: np.ndarray
    current_task: int | None = None
    learnt_classes: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "predictions",
                           np.asarray(self.predictions, dtype=int))
        object.__setattr__(self, "learnt_classes",
                           tuple(int(c) for c in self.learnt_classes))
        if self.round_index < 0:
            raise ValueError("round index must be >= 0")


@dataclass
class MetricsLedger:
    """Append-only store of per-round predictions plus the task layout.

    ``task_classes[k]`` lists the class tuples of owner k's tasks in
    order and ``task_rounds[k]`` their round budgets; owners without an
    entry (the server) only support whole-test metrics.  ``records`` maps
    ``(owner, round)`` to its :class:`RoundRecord` in append order.
    """

    test_labels: np.ndarray
    n_classes: int
    total_rounds: int
    task_classes: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    task_rounds: dict[str, tuple[int, ...]] = field(default_factory=dict)
    records: dict[tuple[str, int], RoundRecord] = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.test_labels = np.asarray(self.test_labels, dtype=int)
        if self.test_labels.size == 0:
            raise ValueError("ledger needs a nonempty test set")
        if self.test_labels.min() < 0 or self.test_labels.max() >= self.n_classes:
            raise ValueError("test labels outside 0..n_classes-1")
        # Test examples per class; per record, its correct predictions per class.
        self._class_counts = np.bincount(self.test_labels, minlength=self.n_classes)
        self._hits: dict[tuple[str, int], np.ndarray] = {}
        # abar(k, t, d) by (owner, t, d): forgetting and A_task reread each many times.
        self._window_means: dict[tuple[str, int, int], float] = {}
        if set(self.task_classes) != set(self.task_rounds):
            raise ValueError("task_classes and task_rounds must cover the same owners")
        for owner, budgets in self.task_rounds.items():
            if len(budgets) != len(self.task_classes[owner]):
                raise ValueError(f"{owner}: task counts disagree")
            if sum(budgets) != self.total_rounds:
                raise ValueError(f"{owner}: round budgets do not sum to {self.total_rounds}")

    # -- recording ---------------------------------------------------------

    def append(self, record: RoundRecord) -> None:
        if len(record.predictions) != len(self.test_labels):
            raise ValueError("prediction vector length does not match the test set")
        if record.predictions.min() < 0 or record.predictions.max() >= self.n_classes:
            raise ValueError("predictions outside 0..n_classes-1")
        key = (record.owner, record.round_index)
        if key in self.records:
            raise ValueError(
                f"duplicate record for {record.owner!r} round {record.round_index}")
        self.records[key] = record
        correct = self.test_labels[record.predictions == self.test_labels]
        self._hits[key] = np.bincount(correct, minlength=self.n_classes)
        self._window_means.clear()

    def record_for(self, owner: str, round_index: int) -> RoundRecord:
        if (owner, round_index) not in self.records:
            raise KeyError(f"no record for {owner!r} round {round_index}")
        return self.records[(owner, round_index)]

    def owners(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(owner for owner, _ in self.records))

    # -- task geometry -----------------------------------------------------

    def task_window(self, owner: str, t: int) -> range:
        """Round indices belonging to owner's task t (1-based)."""
        budgets = self.task_rounds[owner]
        if not 1 <= t <= len(budgets):
            raise ValueError(f"{owner!r} has no task {t}")
        start = sum(budgets[:t - 1])
        return range(start + 1, start + budgets[t - 1] + 1)

    def n_tasks(self, owner: str) -> int:
        return len(self.task_rounds[owner])

    # -- per-round accuracies ----------------------------------------------

    def whole_test_accuracy(self, owner: str, round_index: int) -> float:
        return self.class_subset_accuracy(owner, round_index, range(self.n_classes))

    def class_subset_accuracy(self, owner: str, round_index: int,
                              classes) -> float:
        """The one accuracy rule: hits over the distinct in-range ``classes``
        divided by their test counts, an exact k/n rounded once, as
        ``np.mean`` over a boolean mask would give."""
        hits = self._hits[(owner, round_index)]  # a missing record: KeyError((owner, round))
        idx = [c for c in {int(c) for c in classes} if 0 <= c < self.n_classes]
        n = self._class_counts[idx].sum()
        if n == 0:
            raise ValueError(f"no test examples for classes {sorted(classes)}")
        return float(hits[idx].sum() / n)

    def task_accuracy(self, owner: str, round_index: int, d: int) -> float:
        """a(k, r, d): accuracy on the test examples of task d's classes."""
        return self.class_subset_accuracy(
            owner, round_index, self.task_classes[owner][d - 1])

    def class_accuracy(self, owner: str, round_index: int, class_id: int) -> float:
        return self.class_subset_accuracy(owner, round_index, (class_id,))

    # -- aggregate metrics ---------------------------------------------------

    def _require_rounds(self, owner: str, rounds: range) -> range:
        missing = [r for r in rounds if (owner, r) not in self.records]
        if missing:
            raise ValueError(f"{owner!r} is missing rounds {missing}")
        return rounds

    def general_accuracy(self, owner: str) -> float:
        """A_gen: mean whole-test accuracy over rounds 1..R."""
        rounds = self._require_rounds(owner, range(1, self.total_rounds + 1))
        return float(np.mean([self.whole_test_accuracy(owner, r) for r in rounds]))

    def personal_accuracy(self, owner: str) -> float:
        """A_per: mean accuracy on the classes learnt so far.

        Rounds with an empty learnt set contribute nothing and shrink the
        denominator.
        """
        learnt = {r: self.records[(owner, r)].learnt_classes
                  for r in self._require_rounds(owner, range(1, self.total_rounds + 1))}
        terms = [self.class_subset_accuracy(owner, r, c) for r, c in learnt.items() if c]
        if not terms:
            raise ValueError(f"{owner!r} never learnt any class")
        return float(np.mean(terms))

    def window_task_accuracy(self, owner: str, t: int, d: int) -> float:
        """abar(k, t, d): task-d accuracy averaged over task t's rounds,
        computed once per (owner, t, d) between appends."""
        key = (owner, t, d)
        if key not in self._window_means:
            window = self.task_window(owner, t)
            self._window_means[key] = float(
                np.mean([self.task_accuracy(owner, r, d) for r in window]))
        return self._window_means[key]

    def avg_task_accuracy(self, owner: str, t: int) -> float:
        """A_task(k, t) = (1/t) sum over d = 1..t of abar(k, t, d)."""
        self._require_rounds(owner, self.task_window(owner, t))
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
        """Rows (owner, round, metric, task, value); '' task for whole-test."""
        rows: list[tuple] = []
        for owner, r in self.records:
            rows.append((owner, r, "whole_test_accuracy", "",
                         self.whole_test_accuracy(owner, r)))
            if owner in self.task_classes and r >= 1:
                for d in range(1, self.n_tasks(owner) + 1):
                    rows.append((owner, r, "task_accuracy", d,
                                 self.task_accuracy(owner, r, d)))
        return rows

    def figure_rows(self) -> list[tuple]:
        """Rows (round, owner, class, accuracy) for per-class curves."""
        rows: list[tuple] = []
        for owner, r in self.records:
            for c in range(self.n_classes):
                rows.append((r, owner, c, self.class_accuracy(owner, r, c)))
        return rows

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "test_labels": self.test_labels.tolist(),
            "n_classes": self.n_classes,
            "total_rounds": self.total_rounds,
            "task_classes": {k: [list(c) for c in v]
                             for k, v in self.task_classes.items()},
            "task_rounds": {k: list(v) for k, v in self.task_rounds.items()},
            "records": [
                {"owner": r.owner,
                 "round": r.round_index,
                 "predictions": r.predictions.tolist(),
                 "current_task": r.current_task,
                 "learnt_classes": list(r.learnt_classes)}
                for r in self.records.values()],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsLedger":
        doc = json.loads(text)
        ledger = cls(
            test_labels=np.asarray(doc["test_labels"], dtype=int),
            n_classes=doc["n_classes"],
            total_rounds=doc["total_rounds"],
            task_classes={k: tuple(tuple(c) for c in v)
                          for k, v in doc["task_classes"].items()},
            task_rounds={k: tuple(v) for k, v in doc["task_rounds"].items()},
        )
        for r in doc["records"]:
            ledger.append(RoundRecord(r["owner"], r["round"],
                                      np.asarray(r["predictions"], dtype=int),
                                      r["current_task"],
                                      tuple(r["learnt_classes"])))
        return ledger
