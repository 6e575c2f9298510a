"""Ledger accounting: per-round accuracies, aggregates, forgetting, export."""

import csv
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flwf import metrics
from flwf.continual import TaskSequence, TaskSpec
from flwf.datasets import DatasetPool
from flwf.metrics import (SERVER, MetricsLedger, Predictions, RoundRecord, _csv_field,
                          _float_texts, predict)
from flwf.network import KIND_DENSE, KIND_SOFTMAX_OUTPUT, LayerConfig, forward, init_params

# Hand ledger: 2 classes, tasks [{0}, {1}] with budgets [2, 2], test set of
# 4 examples per class.  All subset sizes are powers of two, so every
# accuracy below is a dyadic rational and float arithmetic is exact.
LABELS = np.array([0, 0, 0, 0, 1, 1, 1, 1])
PREDS = {
    1: np.array([0, 0, 0, 1, 0, 0, 0, 0]),  # task1 3/4, task2 0/4
    2: np.array([0, 0, 0, 0, 1, 0, 0, 0]),  # task1 4/4, task2 1/4
    3: np.array([0, 0, 1, 1, 1, 1, 1, 1]),  # task1 2/4, task2 4/4
    4: np.array([0, 1, 1, 1, 1, 1, 1, 1]),  # task1 1/4, task2 4/4
}
LEARNT = {1: (0,), 2: (0,), 3: (0, 1), 4: (0, 1)}
TASKS = TaskSequence((TaskSpec((0,), 2), TaskSpec((1,), 2)))
MODES = {1: "fine-tune", 2: "flwf1", 3: "flwf1", 4: "flwf1"}


def hand_ledger():
    ledger = MetricsLedger(test_labels=LABELS, n_classes=2, total_rounds=4,
                           tasks={"c": TASKS})
    ledger.append(RoundRecord(SERVER, 0, np.zeros(8, dtype=int)))
    for r in range(1, 5):
        ledger.append(RoundRecord("c", r, PREDS[r], MODES[r]))
        ledger.append(RoundRecord(SERVER, r, PREDS[r]))
    return ledger


def rebuilt(ledger, owners=None, **changes):
    """A new ledger of ``ledger``'s geometry, ``changes`` applied, holding
    its records appended again in order, each owner renamed by ``owners``."""
    geometry = dict(test_labels=ledger.test_labels, n_classes=ledger.n_classes,
                    total_rounds=ledger.total_rounds, tasks=ledger.tasks)
    fresh = MetricsLedger(**{**geometry, **changes})
    for record in ledger.records.values():
        fresh.append(record if owners is None else
                     RoundRecord(owners[record.owner], record.round_index,
                                 record.predictions, record.mode))
    return fresh


# -- model-level helpers ----------------------------------------------------


def test_predict_matches_forward_argmax():
    layers = (LayerConfig(KIND_DENSE, units=4), LayerConfig(KIND_SOFTMAX_OUTPUT))
    rng = np.random.default_rng(0)
    params = init_params(layers, (3,), seed=1)
    x = rng.normal(size=(20, 3))
    logits = forward(params, x)
    assert np.array_equal(predict(params, x), np.argmax(logits, axis=1))


def test_predict_breaks_ties_toward_lowest_class():
    layers = (LayerConfig(KIND_DENSE, units=3), LayerConfig(KIND_SOFTMAX_OUTPUT))
    params = init_params(layers, (2,), seed=0)
    params.weights[0]["W"][:] = 0.0
    params.weights[0]["b"][:] = 0.0
    assert (predict(params, np.ones((5, 2))) == 0).all()


def biased_model(n_logits: int, favourite: int):
    """A dense net on 2 features that predicts ``favourite`` for every row."""
    layers = (LayerConfig(KIND_DENSE, units=n_logits), LayerConfig(KIND_SOFTMAX_OUTPUT))
    params = init_params(layers, (2,), seed=0)
    params.weights[0]["W"][:] = 0.0
    params.weights[0]["b"][:] = 0.0
    params.weights[0]["b"][favourite] = 1.0
    return params


@pytest.mark.parametrize("n_classes, dtype", [(3, np.uint8), (256, np.uint8),
                                               (257, np.uint16), (300, np.uint16)])
def test_predict_ids_are_checked_once_where_they_are_made(monkeypatch, n_classes, dtype):
    """``predict``'s ids come narrowed and read-only, and a ledger of as
    many classes stores them as they are, no copy made; any other array,
    one computed from them among them, passes ``class_ids`` before it is
    narrowed."""
    ids = predict(biased_model(n_classes, n_classes - 1), np.ones((6, 2)))
    assert isinstance(ids, Predictions) and ids.n_classes == n_classes
    assert ids.dtype == dtype and not ids.flags.writeable
    assert ids.tolist() == [n_classes - 1] * 6

    checked = []
    real_class_ids = metrics.class_ids

    def counted(values, *args):
        checked.append(type(values))
        return real_class_ids(values, *args)

    ledger = MetricsLedger(test_labels=np.arange(6) % n_classes, n_classes=n_classes,
                           total_rounds=2)
    narrower = MetricsLedger(test_labels=np.arange(6) % 2, n_classes=n_classes - 1,
                             total_rounds=1)
    monkeypatch.setattr(metrics, "class_ids", counted)
    ledger.append(RoundRecord("c", 1, ids))
    assert ledger.record_for("c", 1).predictions is ids
    assert checked == []

    ledger.append(RoundRecord("c", 2, np.array(ids)))  # a plain copy is checked
    assert checked == [np.ndarray]
    with pytest.raises(ValueError, match=re.escape(
            f"prediction {n_classes} for test row 0 is not a class id in 0..{n_classes - 1}")):
        ledger.append(RoundRecord("d", 1, ids.astype(np.int64) + 1))
    with pytest.raises(ValueError, match=re.escape(
            f"prediction {n_classes - 1} for test row 0 is not a class id")):
        narrower.append(RoundRecord("d", 1, ids))
    assert len(checked) == 3 and ("d", 1) not in ledger.records


# -- ledger construction -------------------------------------------------------


def test_ledger_validates_geometry():
    with pytest.raises(ValueError, match="round budgets do not sum to 4"):
        MetricsLedger(test_labels=LABELS, n_classes=2, total_rounds=4,
                      tasks={"c": TaskSequence((TaskSpec((0,), 2), TaskSpec((1,), 3)))})
    with pytest.raises(ValueError):
        MetricsLedger(test_labels=np.array([0, 2]), n_classes=2, total_rounds=1)


def test_append_rejects_duplicates_and_bad_predictions():
    ledger = hand_ledger()
    with pytest.raises(ValueError) as err:
        ledger.append(RoundRecord("c", 2, PREDS[2]))
    assert "duplicate" in str(err.value)
    with pytest.raises(ValueError):
        ledger.append(RoundRecord("d", 1, np.zeros(5, dtype=int)))
    with pytest.raises(ValueError, match=re.escape(
            "prediction 7 for test row 0 is not a class id in 0..1")):
        ledger.append(RoundRecord("d", 1, np.full(8, 7)))

    # checked before the ids are narrowed to one byte, where -1 would
    # wrap to class 255 and 2.9 truncate to class 2
    wide = MetricsLedger(test_labels=np.arange(256), n_classes=256, total_rounds=1)
    for row, bad in ((5, -1), (200, 256)):
        predictions = np.arange(256)
        predictions[row] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"prediction {bad} for test row {row} is not a class id in 0..255")):
            wide.append(RoundRecord("d", 1, predictions))
    three = MetricsLedger(test_labels=[0, 1, 2], n_classes=3, total_rounds=1)
    for predictions, named in (([0.7, 1.2, 2.9], "prediction 0.7 for test row 0"),
                               ([0, np.nan, 2], "prediction nan for test row 1")):
        with pytest.raises(ValueError, match=re.escape(f"{named} is not a class id in 0..2")):
            three.append(RoundRecord("c", 1, predictions))
    assert not wide.records and not three.records
    three.append(RoundRecord("c", 1, [np.int64(0), 1.0, 2]))  # whole numbers pass
    assert three.record_for("c", 1).predictions.dtype == np.uint8
    assert three.whole_test_accuracy("c", 1) == 1.0

    # test labels pass the same check, before they are cast to int, and so
    # do the labels of a pool
    for labels, named in (([0.7, 1.2, 2.9], "0.7 for {} row 0"),
                          ([0, 1, 3], "3 for {} row 2"),
                          ([0, -1, 2], "-1 for {} row 1")):
        with pytest.raises(ValueError, match=re.escape(
                f"test label {named.format('test')} is not a class id in 0..2")):
            MetricsLedger(test_labels=labels, n_classes=3, total_rounds=1)
        with pytest.raises(ValueError, match=re.escape(
                f"label {named.format('pool')} is not a class id in 0..2")):
            DatasetPool(np.zeros((3, 2)), labels, 3)
    assert MetricsLedger(test_labels=[0.0, 2.0], n_classes=3,
                         total_rounds=1).test_labels.tolist() == [0, 2]
    assert DatasetPool(np.zeros((2, 2)), [0.0, 2.0], 3).labels.tolist() == [0, 2]
    assert len(DatasetPool(np.zeros((0, 2)), [], 3)) == 0  # an empty pool is legal


def test_owner_listing_and_lookup():
    ledger = hand_ledger()
    assert list(ledger.records)[:3] == [(SERVER, 0), ("c", 1), (SERVER, 1)]
    assert [ledger.record_for("c", r).mode for r in range(1, 5)] == list(MODES.values())
    assert ledger.record_for(SERVER, 3).mode is None
    with pytest.raises(KeyError):
        ledger.record_for("c", 9)


def test_task_windows():
    seq = hand_ledger().tasks["c"]
    assert list(seq.window(1)) == [1, 2]
    assert list(seq.window(2)) == [3, 4]
    assert [seq.classes_started_by(r) for r in range(1, 5)] == list(LEARNT.values())
    with pytest.raises(ValueError):
        seq.window(3)


# -- per-round accuracies: exact dyadic values ----------------------------------


def test_whole_test_accuracy_exact():
    ledger = hand_ledger()
    assert ledger.whole_test_accuracy("c", 1) == 3 / 8
    assert ledger.whole_test_accuracy("c", 2) == 5 / 8
    assert ledger.whole_test_accuracy("c", 3) == 6 / 8
    assert ledger.whole_test_accuracy("c", 4) == 5 / 8


def test_task_accuracy_exact():
    ledger = hand_ledger()
    expected = {(1, 1): 3 / 4, (1, 2): 0.0, (2, 1): 1.0, (2, 2): 1 / 4,
                (3, 1): 2 / 4, (3, 2): 1.0, (4, 1): 1 / 4, (4, 2): 1.0}
    for (r, d), value in expected.items():
        assert ledger.task_accuracy("c", r, d) == value


def test_class_accuracy_matches_task_accuracy_for_singleton_tasks():
    ledger = hand_ledger()
    for r in range(1, 5):
        assert ledger.class_subset_accuracy("c", r, (0,)) == ledger.task_accuracy("c", r, 1)
        assert ledger.class_subset_accuracy("c", r, (1,)) == ledger.task_accuracy("c", r, 2)


# -- aggregates: brute force over the raw prediction table ----------------------


def test_general_accuracy_exact():
    ledger = hand_ledger()
    brute = np.mean([np.mean(PREDS[r] == LABELS) for r in range(1, 5)])
    assert ledger.general_accuracy("c") == brute == 19 / 32


def test_personal_accuracy_exact():
    ledger = hand_ledger()
    terms = []
    for r in range(1, 5):
        mask = np.isin(LABELS, LEARNT[r])
        terms.append(np.mean(PREDS[r][mask] == LABELS[mask]))
    assert ledger.personal_accuracy("c") == np.mean(terms) == 25 / 32


def test_window_and_avg_task_accuracy_exact():
    ledger = hand_ledger()
    assert ledger.window_task_accuracy("c", 1, 1) == 7 / 8
    assert ledger.window_task_accuracy("c", 2, 1) == 3 / 8
    assert ledger.window_task_accuracy("c", 2, 2) == 1.0
    assert ledger.avg_task_accuracy("c", 1) == 7 / 8
    assert ledger.avg_task_accuracy("c", 2) == 11 / 16


def test_forgetting_exact():
    ledger = hand_ledger()
    assert ledger.forgetting("c", 2, 1) == 1 / 2
    assert ledger.average_forgetting("c", 2) == 1 / 2


def test_forgetting_takes_max_over_earlier_windows():
    # task-1 accuracy per round: window1 -> 1/4, window2 -> 1, window3 -> 1/2;
    # the reference for f(3, 1) is the best earlier window, not the first.
    # Task 3's class has no test examples: f(3, d < 3) never reads it.
    ledger = MetricsLedger(
        test_labels=np.array([0, 0, 0, 0, 1, 1, 1, 1]), n_classes=3, total_rounds=3,
        tasks={"c": TaskSequence((TaskSpec((0,), 1), TaskSpec((1,), 1),
                                  TaskSpec((2,), 1)))})
    table = {1: np.array([0, 1, 1, 1, 0, 0, 0, 0]),
             2: np.array([0, 0, 0, 0, 1, 1, 0, 0]),
             3: np.array([0, 0, 1, 1, 1, 1, 1, 1])}
    for r, preds in table.items():
        ledger.append(RoundRecord("c", r, preds))
    assert ledger.forgetting("c", 3, 1) == 1.0 - 1 / 2
    assert ledger.forgetting("c", 3, 2) == 1 / 2 - 1.0  # negative, not clamped
    assert ledger.average_forgetting("c", 3) == 0.0


def test_forgetting_argument_validation():
    ledger = hand_ledger()
    for t, d in ((1, 1), (2, 0), (2, 2), (3, 1)):
        with pytest.raises(ValueError):
            ledger.forgetting("c", t, d)
    with pytest.raises(ValueError):
        ledger.average_forgetting("c", 1)


def test_personal_equals_general_when_everything_learnt_from_start():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=16)
    ledger = MetricsLedger(test_labels=labels, n_classes=3, total_rounds=3,
                           tasks={"c": TaskSequence((TaskSpec((0, 1, 2), 3),))})
    for r in range(1, 4):
        ledger.append(RoundRecord("c", r, rng.integers(0, 3, size=16)))
    assert ledger.personal_accuracy("c") == ledger.general_accuracy("c")


def test_aggregates_require_complete_round_coverage():
    ledger = MetricsLedger(test_labels=LABELS, n_classes=2, total_rounds=4,
                           tasks={"c": TASKS})
    ledger.append(RoundRecord("c", 1, PREDS[1]))
    with pytest.raises(ValueError) as err:
        ledger.general_accuracy("c")
    assert "missing rounds" in str(err.value)
    with pytest.raises(ValueError):
        ledger.avg_task_accuracy("c", 1)


def test_server_supports_only_whole_test_metrics():
    ledger = hand_ledger()
    assert ledger.general_accuracy(SERVER) == np.mean(
        [np.mean(PREDS[r] == LABELS) for r in range(1, 5)])
    with pytest.raises(KeyError):
        ledger.task_accuracy(SERVER, 1, 1)


# -- export ---------------------------------------------------------------------


def parsed(lines):
    """The export's lines as ``csv.reader`` reads them, one row per line."""
    lines = list(lines)
    assert all(line.endswith("\n") for line in lines)
    rows = list(csv.reader(lines))
    assert len(rows) == len(lines)
    return rows


def test_csv_rows_shape_and_content():
    rows = parsed(hand_ledger().csv_rows())
    whole = [r for r in rows if r[2] == "whole_test_accuracy"]
    tasks = [r for r in rows if r[2] == "task_accuracy"]
    assert len(whole) == 9  # server 0..4 plus client 1..4
    assert len(tasks) == 8  # client only: 4 rounds x 2 tasks
    assert all(r[0] == "c" for r in tasks)
    assert ["c", "1", "whole_test_accuracy", "", repr(3 / 8)] in whole
    assert ["c", "4", "task_accuracy", "1", repr(1 / 4)] in tasks


def test_figure_rows_cover_every_record_and_class():
    ledger = hand_ledger()
    rows = parsed(ledger.figure_rows())
    assert len(rows) == 9 * 2
    assert ["1", "c", "0", repr(3 / 4)] in rows
    assert ["0", SERVER, "1", repr(0.0)] in rows


# -- properties: random ledgers against brute force ----------------------------


@st.composite
def random_ledgers(draw):
    """Client "c", up to two more clients and the server over random tasks,
    labels and predictions, appended in a random order.

    Per-class test counts of 1..7 make most subset sizes non-powers of two,
    so an accuracy computed in another order or precision would show up.
    Each client's tasks are a valid :class:`TaskSequence`: disjoint class
    sets, "c"'s covering every class, with budgets summing to the run's
    rounds.  ``n_classes`` is 2..6 or one of 255, 256 and 257, around the
    largest class count whose ids fit one byte.  For those three, with too
    many values to draw one at a time, the counts, the label order and the
    predictions come from a numpy generator seeded by one drawn integer;
    to keep the per-class brute force affordable, "c" has at most two
    tasks of one round each and no other client joins.  Predictions are
    int64 arrays, as ``predict`` returns.  ``subset`` is a class list for
    :meth:`MetricsLedger.class_subset_accuracy` that may repeat classes
    and name ones out of range, which the ledger ignores.
    """
    n_classes = draw(st.integers(2, 6) | st.sampled_from([255, 256, 257]))
    wide = n_classes > 6
    if wide:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

        def ints(low, high, size):
            return rng.integers(low, high + 1, size)

        def permutation(n):
            return rng.permutation(n).tolist()
    else:
        def ints(low, high, size):
            return np.array(draw(st.lists(st.integers(low, high),
                                          min_size=size, max_size=size)), dtype=np.int64)

        def permutation(n):
            return draw(st.permutations(range(n)))

    def split(items, parts):
        """``items`` cut into ``parts`` nonempty consecutive slices."""
        cuts = draw(st.sets(st.integers(1, len(items) - 1),
                            min_size=parts - 1, max_size=parts - 1)) if parts > 1 else ()
        bounds = [0, *sorted(cuts), len(items)]
        return [items[a:b] for a, b in zip(bounds, bounds[1:])]

    labels = np.repeat(np.arange(n_classes), ints(1, 7, n_classes))
    labels = labels[permutation(len(labels))]

    n_tasks = draw(st.integers(1, 2 if wide else min(n_classes, 4)))
    tasks = {"c": TaskSequence(tuple(
        TaskSpec(tuple(part), draw(st.integers(1, 1 if wide else 3)))
        for part in split(permutation(n_classes), n_tasks)))}
    rounds = tasks["c"].total_rounds
    for owner in ("c1", "c2")[:draw(st.integers(0, 0 if wide else 2))]:
        n_tasks = draw(st.integers(1, min(3, rounds, n_classes)))
        classes = permutation(n_classes)[:draw(st.integers(n_tasks, n_classes))]
        tasks[owner] = TaskSequence(tuple(
            TaskSpec(tuple(part), len(window))
            for part, window in zip(split(classes, n_tasks),
                                    split(range(rounds), n_tasks))))
    owners = (*tasks, SERVER)
    preds = {key: ints(0, n_classes - 1, len(labels))
             for key in [(SERVER, 0)] + [(o, r) for r in range(1, rounds + 1)
                                         for o in owners]}
    append_order = draw(st.permutations(list(preds)))
    ledger = MetricsLedger(test_labels=labels, n_classes=n_classes,
                           total_rounds=rounds, tasks=tasks)
    for owner, r in append_order:
        ledger.append(RoundRecord(owner, r, preds[(owner, r)]))
    subset = draw(st.lists(st.integers(-1, n_classes), min_size=1, max_size=4))
    return ledger, labels, preds, append_order, subset


def assert_stored_narrow(ledger, preds):
    """Every record holds its int64 input's values, one byte per test row
    up to 256 classes and two above."""
    narrowest = np.uint8 if ledger.n_classes <= 256 else np.uint16
    for key, record in ledger.records.items():
        assert record.predictions.dtype == narrowest
        assert np.array_equal(record.predictions, preds[key])


@settings(max_examples=150, deadline=None)
@given(random_ledgers())
def test_ledger_matches_brute_force_on_random_ledgers(case):
    ledger, labels, preds, append_order, subset = case
    assert_stored_narrow(ledger, preds)
    task_classes = [task.classes for task in ledger.tasks["c"].tasks]
    rounds = ledger.total_rounds

    def acc(owner, r, classes):
        mask = np.isin(labels, list(classes))
        return np.mean(preds[(owner, r)][mask] == labels[mask])

    for owner, r in preds:
        assert ledger.whole_test_accuracy(owner, r) == np.mean(preds[(owner, r)] == labels)
        for c in range(ledger.n_classes):
            assert ledger.class_subset_accuracy(owner, r, (c,)) == acc(owner, r, (c,))
        if np.isin(labels, subset).any():
            assert ledger.class_subset_accuracy(owner, r, subset) == acc(owner, r, subset)
        else:
            with pytest.raises(ValueError):
                ledger.class_subset_accuracy(owner, r, subset)
        if owner == "c":
            for d, classes in enumerate(task_classes, 1):
                assert ledger.task_accuracy(owner, r, d) == acc(owner, r, classes)

    for owner in ("c", SERVER):
        assert ledger.general_accuracy(owner) == np.mean(
            [np.mean(preds[(owner, r)] == labels) for r in range(1, rounds + 1)])
    for owner, seq in ledger.tasks.items():
        assert ledger.personal_accuracy(owner) == np.mean(
            [acc(owner, r, seq.classes_started_by(r)) for r in range(1, rounds + 1)])

    starts = np.cumsum([0] + [task.rounds for task in ledger.tasks["c"].tasks])

    def abar(t, d):
        return np.mean([acc("c", r, task_classes[d - 1])
                        for r in range(starts[t - 1] + 1, starts[t] + 1)])

    for t in range(1, len(task_classes) + 1):
        assert ledger.avg_task_accuracy("c", t) == np.mean(
            [abar(t, d) for d in range(1, t + 1)])
        if t >= 2:
            f = [max(abar(i, d) for i in range(d, t)) - abar(t, d) for d in range(1, t)]
            assert [ledger.forgetting("c", t, d) for d in range(1, t)] == f
            assert ledger.average_forgetting("c", t) == np.mean(f)

    assert list(ledger.records) == append_order
    with pytest.raises(KeyError):
        ledger.record_for("c", 0)
    with pytest.raises(KeyError):
        ledger.whole_test_accuracy("nobody", 1)
    owner, r = append_order[-1]
    with pytest.raises(ValueError, match="duplicate"):
        ledger.append(RoundRecord(owner, r, preds[(owner, r)]))


@settings(max_examples=60, deadline=None)
@given(random_ledgers())
def test_window_means_are_computed_once_per_owner_and_task_pair(case):
    """The summary's A_task and F values equal those of fresh ledgers; every
    abar(c, t, d) behind them is computed once, from one owner table read
    from a hit table stacked once between appends and once more after one."""
    ledger, labels, preds = case[:3]
    n = ledger.n_tasks("c")

    def summary(of):
        return ([of().avg_task_accuracy("c", t) for t in range(1, n + 1)],
                [of().average_forgetting("c", t) for t in range(2, n + 1)])

    stacks: list[int] = []
    reads: list[int] = []
    hit_table, accuracies = ledger._hit_table, ledger._accuracies

    def counted_table():
        if ledger._table is None:
            stacks.append(len(ledger.records))
        return hit_table()

    def counted_accuracies(rows, class_sets, **kwargs):
        reads.append(len(class_sets))
        return accuracies(rows, class_sets, **kwargs)

    ledger._hit_table, ledger._accuracies = counted_table, counted_accuracies
    assert summary(lambda: ledger) == summary(lambda: rebuilt(ledger))
    assert stacks == [len(ledger.records)]
    assert reads == [1 + n]  # one owner table: whole test, tasks 1..n
    ledger.append(RoundRecord("other", 1, preds[("c", 1)]))  # drops the table
    ledger.avg_task_accuracy("c", n)
    assert stacks == [len(ledger.records) - 1, len(ledger.records)]


def brute_export(ledger, labels, preds):
    """csv_rows and figure_rows rebuilt from the raw predictions, one
    ``np.mean`` over a boolean mask per value."""
    def acc(owner, r, classes):
        mask = np.isin(labels, list(classes))
        return float(np.mean(preds[(owner, r)][mask] == labels[mask]))

    csv_rows, figure_rows = [], []
    for owner, r in ledger.records:
        csv_rows.append((owner, r, "whole_test_accuracy", "", acc(owner, r, labels)))
        if owner in ledger.tasks and r >= 1:
            csv_rows += [(owner, r, "task_accuracy", d, acc(owner, r, task.classes))
                         for d, task in enumerate(ledger.tasks[owner].tasks, 1)]
        figure_rows += [(r, owner, c, acc(owner, r, (c,))) for c in range(ledger.n_classes)]
    return csv_rows, figure_rows


def csv_text(rows) -> str:
    """What ``csv.writer(..., lineterminator="\\n")`` writes for ``rows``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# owner names that csv.writer quotes, doubles the quotes of, or leaves as
# they are: delimiters, quotes, line breaks, edge spaces, non-ASCII text
NAMES = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\té名')), max_size=6)
FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([0.0, -0.0, 1e-05, 2.5e-07, 5e-324, 1e16, 1 / 3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(NAMES, st.integers(-10**12, 10**12), NAMES, FLOATS, FLOATS),
                min_size=1, max_size=12),
       st.sampled_from([0, metrics.DICT_TEXTS_MAX]))
@example([("a", 1, "b", 0.0, -0.0), ('x, "y"', -2, " é\n", -0.0, 1e-05)], 0)
@example([("a", 1, "b", 0.0, -0.0), ('x, "y"', -2, " é\n", -0.0, 1e-05)], 1024)
def test_line_formatter_writes_the_bytes_of_csv_writer(rows, dict_max):
    """Names quoted by ``_csv_field``, ints by ``str`` and float tables by
    ``_float_texts``, joined by commas, are csv.writer's line; each
    distinct float (by its bits, so -0.0 apart from 0.0) is formatted once
    over two tables, whether a dict or ``np.unique`` finds the distinct
    values."""
    table = np.array([row[3:] for row in rows], dtype=np.float64)
    formatted = []
    with mock.patch.multiple(metrics, DICT_TEXTS_MAX=dict_max), \
            mock.patch.object(metrics, "repr", create=True,
                              new=lambda v: formatted.append(v) or repr(v)):
        first, second = _float_texts([table[:len(rows) // 2], table[len(rows) // 2:]])
    texts = first + second
    lines = [f"{_csv_field(a)},{n},{_csv_field(b)},{x},{y}\n"
             for (a, n, b, _, _), (x, y) in zip(rows, texts)]
    assert "".join(lines).encode("utf-8") == csv_text(rows).encode("utf-8")
    assert len(formatted) == len(set(table.view(np.int64).ravel().tolist()))


def assert_same_rows(lines, brute):
    """The lines parse to the brute-force rows, each float read back
    exactly and written as its ``repr``, and are csv.writer's bytes."""
    lines = list(lines)
    rows = parsed(lines)
    assert [row[:-1] for row in rows] == [[str(v) for v in row[:-1]] for row in brute]
    assert [float(row[-1]) for row in rows] == [row[-1] for row in brute]
    assert [row[-1] for row in rows] == [repr(row[-1]) for row in brute]
    assert "".join(lines) == csv_text(brute)


@settings(max_examples=100, deadline=None)
@given(random_ledgers(), st.data())
def test_exports_match_brute_force_rows(case, data):
    ledger, labels, preds = case[:3]
    assert_stored_narrow(ledger, preds)
    brute = brute_export(ledger, labels, preds)
    assert_same_rows(ledger.csv_rows(), brute[0])
    assert_same_rows(ledger.figure_rows(), brute[1])

    # one more record after an export: the table is rebuilt and shows it
    owner = data.draw(st.sampled_from(["c", "late"]))
    late = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, ledger.n_classes, len(labels))
    ledger.append(RoundRecord(owner, ledger.total_rounds + 1, late))
    preds = {**preds, (owner, ledger.total_rounds + 1): late}
    assert_stored_narrow(ledger, preds)
    brute = brute_export(ledger, labels, preds)
    assert_same_rows(ledger.csv_rows(), brute[0])
    assert_same_rows(ledger.figure_rows(), brute[1])

    # owner names that need quoting are quoted as csv.writer quotes them
    names = data.draw(st.lists(NAMES, min_size=4, max_size=4, unique=True))
    rename = dict(zip(("c", "c1", "c2", "late", SERVER), names + ["late"]))
    renamed = rebuilt(ledger, tasks={rename[o]: seq for o, seq in ledger.tasks.items()},
                      owners=rename)
    brute = brute_export(renamed, labels,
                         {(rename[o], r): p for (o, r), p in preds.items()})
    for lines, rows in zip((renamed.csv_rows(), renamed.figure_rows()), brute):
        lines = list(lines)
        assert len(lines) == len(rows)
        assert "".join(lines) == csv_text(rows)

    # a task whose classes have no test examples fails the export by name
    tasks = list(ledger.tasks["c"].tasks)
    d = data.draw(st.integers(0, len(tasks) - 1))
    absent = [ledger.n_classes, ledger.n_classes + 3]
    empty = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=2, unique=True))
    tasks[d] = TaskSpec(tuple(empty), tasks[d].rounds)
    broken = rebuilt(ledger, tasks={**ledger.tasks, "c": TaskSequence(tuple(tasks))})
    message = f"no test examples for classes {sorted(empty)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        broken.csv_rows()
    with pytest.raises(ValueError, match=re.escape(message)):
        broken.task_accuracy("c", 1, d + 1)
