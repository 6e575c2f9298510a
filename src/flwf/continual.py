"""Task sequences, exemplar memory, and the per-round strategy selector.

A client's lifetime is an ordered list of tasks; each task owns a set of
class ids and a budget of rounds, and the budgets partition ``1..R`` so
every round belongs to exactly one task.  An exemplar store maps a task
id to the pool indices of at most ``capacity`` of its examples; a task's
entry is refreshed, not appended to, on every revisit.  The strategy
selector is the one rule for a client-round's loss mode, distillation or
plain fine-tuning: from the client's algo and policy, whether its teacher
exists yet, and the label entropy of the composed training batch.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .checks import check_fields
from .datasets import read_only

POLICY_DISTILL_ALL = "distill-all"
POLICY_HYBRID = "hybrid"
POLICY_FINE_TUNE_ALL = "fine-tune-all"
POLICIES = (POLICY_DISTILL_ALL, POLICY_HYBRID, POLICY_FINE_TUNE_ALL)


@dataclass(frozen=True)
class TaskSpec:
    """One task: the classes it introduces and how many rounds it occupies."""

    classes: tuple[int, ...]
    rounds: int

    def __post_init__(self):
        check_fields(self)
        if not self.classes:
            raise ValueError("task must own at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("task classes must be distinct")
        if any(c < 0 for c in self.classes):
            raise ValueError("class ids must be non-negative")
        if self.rounds < 1:
            raise ValueError("task round budget must be positive")


@dataclass(frozen=True)
class TaskSequence:
    """Ordered tasks of one client; class sets are pairwise disjoint."""

    tasks: tuple[TaskSpec, ...]

    def __post_init__(self):
        check_fields(self)
        if not self.tasks:
            raise ValueError("sequence must contain at least one task")
        seen: set[int] = set()
        for i, task in enumerate(self.tasks):
            overlap = seen & set(task.classes)
            if overlap:
                raise ValueError(f"task {i + 1} reuses classes {sorted(overlap)}")
            seen |= set(task.classes)
        # the budgets' running sums, from 0: task t ends at round _ends[t]
        object.__setattr__(self, "_ends", tuple(itertools.accumulate(
            (task.rounds for task in self.tasks), initial=0)))

    @property
    def total_rounds(self) -> int:
        return self._ends[-1]

    def window(self, t: int) -> range:
        """Rounds of task t (1-based): ``(sum of earlier budgets, sum
        through t]``, so the windows partition ``1..total_rounds``."""
        if not 1 <= t <= len(self.tasks):
            raise ValueError(f"no task {t} in a sequence of {len(self.tasks)}")
        return range(self._ends[t - 1] + 1, self._ends[t] + 1)

    def classes_started_by(self, round_index: int) -> tuple[int, ...]:
        """Union of classes of every task whose window starts at or before
        the given round; these are the classes the client has learnt."""
        out: set[int] = set()
        for t, task in enumerate(self.tasks, start=1):
            if self.window(t).start <= round_index:
                out |= set(task.classes)
        return tuple(sorted(out))


def current_task(seq: TaskSequence, round_index: int) -> tuple[int, TaskSpec]:
    """The (1-based task index, TaskSpec) whose round window contains the round."""
    for t, task in enumerate(seq.tasks, start=1):
        if round_index in seq.window(t):
            return t, task
    raise ValueError(f"round {round_index} outside 1..{seq.total_rounds}")


def normalized_label_entropy(labels, n_classes: int) -> float:
    """Shannon entropy of the empirical label distribution over ``n_classes``
    possible classes, divided by its maximum ``ln(n_classes)``."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("entropy of an empty batch is undefined")
    if n_classes < 2:
        raise ValueError("normalized entropy needs at least 2 classes")
    counts = np.bincount(labels, minlength=n_classes)
    p = counts[counts > 0] / labels.size
    # + 0.0 turns the -0.0 of a single-class batch into plain 0.0
    return float(-(p * np.log(p)).sum() / math.log(n_classes) + 0.0)


@dataclass(frozen=True)
class StrategyPolicy:
    """How a client picks its per-round objective."""

    mode: str = POLICY_DISTILL_ALL
    balance_threshold: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.mode not in POLICIES:
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if not 0.0 <= self.balance_threshold <= 1.0:
            raise ValueError("balance_threshold must lie in [0, 1]")


def select_loss_mode(policy: StrategyPolicy, labels, n_classes: int, algo: str,
                     has_client_teacher: bool) -> str:
    """The loss mode a client-round trains with: ``algo`` or fine-tune.

    Fine-tune for the ``fine-tune`` algo, for the ``fine-tune-all`` policy,
    for flwf1 without a client teacher (a client's first round; flwf2
    folds that term onto the server teacher instead), and for ``hybrid``
    when the normalized entropy of the composed batch's labels is at or
    above the policy's threshold.  Otherwise the algo's own mode.
    """
    if (algo == losses.MODE_FINE_TUNE or policy.mode == POLICY_FINE_TUNE_ALL
            or (algo == losses.MODE_FLWF1 and not has_client_teacher)
            or (policy.mode == POLICY_HYBRID and normalized_label_entropy(
                labels, n_classes) >= policy.balance_threshold)):
        return losses.MODE_FINE_TUNE
    return algo


def update_exemplars(store: dict[int, np.ndarray], task_id: int, fresh: np.ndarray,
                     capacity: int, seed=0) -> dict[int, np.ndarray]:
    """Store (or refresh) the task's exemplars: a seeded random pick of at
    most ``capacity`` of the ``fresh`` pool indices, kept in their order in
    ``fresh`` and read-only.  A revisited task's entry is replaced
    wholesale, and fewer fresh rows than the capacity are stored in full.
    Returns a new store; the input store and ``fresh`` are left untouched."""
    if capacity < 1:
        raise ValueError("capacity must be positive")
    if len(fresh) == 0:
        raise ValueError("cannot draw exemplars from an empty batch")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(fresh), size=min(capacity, len(fresh)), replace=False)
    picks.sort()
    return {**store, int(task_id): read_only(fresh[picks])}


def compose_training_batch(fresh: np.ndarray, store: dict[int, np.ndarray],
                           current_task_id: int, seed=0) -> np.ndarray:
    """Pool indices of the round's training batch: the ``fresh`` ones plus
    every stored exemplar of the OTHER tasks, reshuffled.

    Exemplars of the current task are dropped (fresh round data covers
    them).  With nothing to add ``fresh`` is returned as-is.
    """
    replay = [store[t] for t in sorted(store) if t != current_task_id]
    if not replay:
        return fresh
    rows = np.concatenate([fresh] + replay)
    return rows[np.random.default_rng(seed).permutation(len(rows))]
