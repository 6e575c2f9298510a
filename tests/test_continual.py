"""Task scheduling, unbalanced-task detection, exemplars, strategy selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flwf.continual import (POLICIES, StrategyPolicy, TaskSequence,
                            TaskSpec, compose_training_batch, current_task,
                            normalized_label_entropy, select_loss_mode,
                            update_exemplars)
from flwf.config import ClientConfig, ConfigError
from flwf.losses import MODES, LossSpec
# frozen hand computation: 90% / 10% split over a 6-class problem
ENTROPY_90_10 = 0.1814322619606436

PAPER_LIKE = TaskSequence((TaskSpec((1,), 4), TaskSpec((2,), 4)))


# -- task sequences ------------------------------------------------------------


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec((), 3)
    with pytest.raises(ValueError):
        TaskSpec((1, 1), 3)
    with pytest.raises(ValueError):
        TaskSpec((1,), 0)


@pytest.mark.parametrize("bad", [1.7, True, "3"])
def test_task_spec_rejects_a_class_id_it_would_have_to_convert(bad):
    """``int`` would truncate 1.7 to class 1 and read True as class 1; a
    whole float is no class id either."""
    with pytest.raises(ValueError, match=f"^classes: must be an integer, got {bad!r}$"):
        TaskSpec((0, bad), 3)
    with pytest.raises(ValueError, match="^classes: must be an integer, got 3.0$"):
        TaskSpec((np.int64(2), 3.0), 3)
    classes = TaskSpec((np.int64(2), 3), 3).classes
    assert classes == (2, 3) and all(type(c) is int for c in classes)


def test_sequence_rejects_overlapping_classes():
    with pytest.raises(ValueError) as err:
        TaskSequence((TaskSpec((1, 2), 2), TaskSpec((2, 3), 2)))
    assert "task 2" in str(err.value)


def test_current_task_paper_scenario():
    for r in (1, 2, 3, 4):
        t, task = current_task(PAPER_LIKE, r)
        assert (t, task.classes) == (1, (1,))
    for r in (5, 6, 7, 8):
        t, task = current_task(PAPER_LIKE, r)
        assert (t, task.classes) == (2, (2,))


def test_current_task_single_task_sequence():
    seq = TaskSequence((TaskSpec((0, 1, 2), 8),))
    for r in range(1, 9):
        assert current_task(seq, r)[0] == 1


def test_current_task_uneven_budgets():
    seq = TaskSequence((TaskSpec((0,), 3), TaskSpec((1,), 5)))
    assert current_task(seq, 3)[0] == 1
    assert current_task(seq, 4)[0] == 2
    assert current_task(seq, 8)[0] == 2


def test_current_task_rejects_out_of_range_rounds():
    with pytest.raises(ValueError):
        current_task(PAPER_LIKE, 0)
    with pytest.raises(ValueError):
        current_task(PAPER_LIKE, 9)


def test_classes_started_by():
    assert PAPER_LIKE.classes_started_by(1) == (1,)
    assert PAPER_LIKE.classes_started_by(4) == (1,)
    assert PAPER_LIKE.classes_started_by(5) == (1, 2)
    assert PAPER_LIKE.classes_started_by(8) == (1, 2)


@st.composite
def task_sequences(draw):
    """1-5 tasks with budgets 1-6 over disjoint, shuffled class sets."""
    budgets = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(budgets),
                          max_size=len(budgets)))
    classes = draw(st.permutations(range(sum(sizes))))
    tasks, start = [], 0
    for budget, size in zip(budgets, sizes):
        tasks.append(TaskSpec(tuple(classes[start:start + size]), budget))
        start += size
    return TaskSequence(tuple(tasks))


@settings(max_examples=200, deadline=None)
@given(task_sequences())
def test_task_geometry_agrees_with_a_round_by_round_scan(seq):
    """current_task, classes_started_by and TaskSequence.window all follow
    from walking the rounds and spending each task's budget in turn."""
    t, spent, learnt = 1, 0, set(seq.tasks[0].classes)
    windows = {}
    for r in range(1, seq.total_rounds + 1):
        if spent == seq.tasks[t - 1].rounds:
            t, spent = t + 1, 0
            learnt |= set(seq.tasks[t - 1].classes)
        spent += 1
        windows.setdefault(t, []).append(r)
        assert current_task(seq, r) == (t, seq.tasks[t - 1])
        assert seq.classes_started_by(r) == tuple(sorted(learnt))
    assert t == len(seq.tasks) and spent == seq.tasks[-1].rounds
    for t, rounds in windows.items():
        assert list(seq.window(t)) == rounds
    for r in (0, seq.total_rounds + 1):
        with pytest.raises(ValueError):
            current_task(seq, r)
    for t in (0, len(seq.tasks) + 1):
        with pytest.raises(ValueError):
            seq.window(t)


# -- unbalanced detection ----------------------------------------------------------


def hybrid_distills(labels, n_classes, threshold):
    """Whether the hybrid policy keeps a flwf2 client with a teacher on flwf2."""
    policy = StrategyPolicy(mode="hybrid", balance_threshold=threshold)
    return select_loss_mode(policy, labels, n_classes, "flwf2", True) == "flwf2"


def test_single_class_batch_is_unbalanced():
    labels = [2] * 30
    for tau in (0.1, 0.5, 0.99):
        assert hybrid_distills(labels, 6, tau)
    # its entropy of 0 is not below a threshold of 0
    assert not hybrid_distills(labels, 6, 0.0)


def test_uniform_batch_is_balanced():
    labels = [0, 1, 2, 3, 4, 5] * 10
    assert normalized_label_entropy(labels, 6) == pytest.approx(1.0)
    for tau in (0.1, 0.5, 0.99):
        assert not hybrid_distills(labels, 6, tau)


def test_entropy_hand_value_90_10():
    labels = [1] * 90 + [2] * 10
    assert normalized_label_entropy(labels, 6) == pytest.approx(
        ENTROPY_90_10, abs=1e-12)
    assert hybrid_distills(labels, 6, 0.5)


def test_entropy_invariant_to_label_permutation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        labels = rng.integers(0, 6, size=50)
        base = normalized_label_entropy(labels, 6)
        relabeled = rng.permutation(6)[labels]  # bijective class renaming
        assert normalized_label_entropy(relabeled, 6) == pytest.approx(
            base, abs=1e-12)


def test_entropy_rejects_degenerate_input():
    with pytest.raises(ValueError):
        normalized_label_entropy([], 6)
    with pytest.raises(ValueError):
        normalized_label_entropy([0, 0], 1)
    with pytest.raises(ValueError):
        hybrid_distills([], 6, 0.5)


# -- exemplar store -----------------------------------------------------------------


def test_update_exemplars_new_task_stores_capacity():
    fresh = np.random.default_rng(2).permutation(1000)[:120]
    store = update_exemplars({}, 1, fresh, 10, seed=0)
    rows = store[1]
    assert len(rows) == 10 and len(set(rows.tolist())) == 10
    # stored rows really come from the batch, in the batch's order
    positions = [fresh.tolist().index(i) for i in rows]
    assert positions == sorted(positions)


def test_update_exemplars_refresh_replaces_entry():
    first, second = np.arange(40), np.arange(100, 140)
    store = update_exemplars({}, 1, first, 5, seed=0)
    store = update_exemplars(store, 1, second, 5, seed=1)
    rows = set(store[1].tolist())
    assert len(rows) == 5
    assert rows <= set(second.tolist())
    assert not rows & set(first.tolist())


def test_update_exemplars_small_batch_stored_whole():
    store = update_exemplars({}, 2, np.array([7, 3, 5]), 10, seed=0)
    assert store[2].tolist() == [7, 3, 5]


def test_update_exemplars_leaves_other_tasks_untouched():
    store = update_exemplars({}, 1, np.arange(30), 4, seed=0)
    before = store[1].copy()
    store2 = update_exemplars(store, 2, np.arange(30, 60), 4, seed=1)
    assert np.array_equal(store2[1], before)
    assert sum(len(rows) for rows in store2.values()) == 8  # 2M
    assert sorted(store2) == [1, 2]


def test_update_exemplars_does_not_mutate_input_store():
    fresh = np.arange(20)
    store = {}
    update_exemplars(store, 1, fresh, 5, seed=0)
    assert store == {}
    assert fresh.tolist() == list(range(20))
    assert fresh.flags.writeable


@settings(max_examples=50, deadline=None)
@given(st.integers(-2, 12), st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_store_capacity_invariant(capacity, sizes):
    """Every stored entry holds at most ``capacity`` rows, read-only, and a
    capacity below 1 is refused, as the store's own rule had it."""
    store = {}
    for task_id, size in enumerate(sizes, start=1):
        fresh = np.arange(100 * task_id, 100 * task_id + size)
        if capacity < 1:
            with pytest.raises(ValueError, match="capacity must be positive"):
                update_exemplars(store, task_id, fresh, capacity, seed=task_id)
            return
        store = update_exemplars(store, task_id, fresh, capacity, seed=task_id)
    assert [len(rows) for rows in store.values()] == [min(capacity, n) for n in sizes]
    for rows in store.values():
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = -1


# -- batch composition ---------------------------------------------------------------


def test_compose_with_empty_store_is_identity():
    fresh = np.arange(7)
    out = compose_training_batch(fresh, {}, 1, seed=0)
    assert out is fresh


def test_compose_adds_other_task_exemplars():
    store = update_exemplars({}, 1, np.arange(500, 620), 10, seed=0)
    fresh = np.arange(120)
    out = compose_training_batch(fresh, store, 2, seed=1)
    assert len(out) == 130
    # replayed rows keep their pool index, fresh rows keep theirs
    assert sorted(out[out >= 500].tolist()) == sorted(store[1].tolist())
    assert sorted(out[out < 500].tolist()) == list(range(120))
    assert out.tolist() != sorted(out.tolist())  # reshuffled


def test_compose_excludes_current_task_exemplars():
    store = update_exemplars({}, 2, np.arange(50), 10, seed=0)
    fresh = np.arange(50, 90)
    out = compose_training_batch(fresh, store, 2, seed=1)
    assert out is fresh


def test_compose_shuffle_is_seeded():
    store = update_exemplars({}, 1, np.arange(30), 5, seed=0)
    fresh = np.arange(30, 50)
    a = compose_training_batch(fresh, store, 2, seed=42)
    b = compose_training_batch(fresh, store, 2, seed=42)
    assert np.array_equal(a, b)


# -- strategy selection ----------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        StrategyPolicy(mode="sometimes")
    with pytest.raises(ValueError):
        StrategyPolicy(balance_threshold=-0.1)


@pytest.mark.parametrize("algo", ["flwf1", "flwf2"])
def test_select_loss_mode_matrix(algo):
    single = [2] * 20       # unbalanced
    uniform = [0, 1, 2, 3, 4, 5] * 4  # balanced
    distill = StrategyPolicy(mode="distill-all")
    hybrid = StrategyPolicy(mode="hybrid")
    ft = StrategyPolicy(mode="fine-tune-all")
    assert select_loss_mode(distill, uniform, 6, algo, True) == algo
    assert select_loss_mode(distill, single, 6, algo, True) == algo
    assert select_loss_mode(hybrid, single, 6, algo, True) == algo
    assert select_loss_mode(hybrid, uniform, 6, algo, True) == "fine-tune"
    assert select_loss_mode(ft, single, 6, algo, True) == "fine-tune"
    assert select_loss_mode(ft, uniform, 6, algo, True) == "fine-tune"


def test_an_unknown_algo_is_refused_by_the_client_config_and_the_loss_spec():
    """``select_loss_mode`` trusts its algo; the client config refuses an
    unknown one, and so does the objective it would train with."""
    tasks = TaskSequence((TaskSpec((0,), 1),))
    with pytest.raises(ConfigError, match=r"^algo: must be one of "):
        ClientConfig(name="c", weight=1.0, algo="flwf3", tasks=tasks)
    mode = select_loss_mode(StrategyPolicy(), [0], 6, "flwf3", True)
    with pytest.raises(ValueError, match="unknown loss mode 'flwf3'"):
        LossSpec(mode=mode)


def test_select_loss_mode_is_pure():
    labels = np.array([1] * 9 + [2] * 1)
    policy = StrategyPolicy(mode="hybrid", balance_threshold=0.5)
    first = select_loss_mode(policy, labels, 6, "flwf2", True)
    for _ in range(5):
        assert select_loss_mode(policy, labels, 6, "flwf2", True) == first
    assert labels.tolist() == [1] * 9 + [2]


# select_loss_mode's rule spelled out.  (algo, policy) -> the mode for
# (no client teacher, unbalanced), (no teacher, balanced), (teacher,
# unbalanced) and (teacher, balanced); a batch is unbalanced when its
# normalized label entropy is below the policy's threshold.
FT = "fine-tune"
MODE_TABLE = {
    ("fine-tune", "distill-all"): (FT, FT, FT, FT),
    ("fine-tune", "hybrid"): (FT, FT, FT, FT),
    ("fine-tune", "fine-tune-all"): (FT, FT, FT, FT),
    ("flwf1", "distill-all"): (FT, FT, "flwf1", "flwf1"),
    ("flwf1", "hybrid"): (FT, FT, "flwf1", FT),
    ("flwf1", "fine-tune-all"): (FT, FT, FT, FT),
    ("flwf2", "distill-all"): ("flwf2", "flwf2", "flwf2", "flwf2"),
    ("flwf2", "hybrid"): ("flwf2", FT, "flwf2", FT),
    ("flwf2", "fine-tune-all"): (FT, FT, FT, FT),
}


@st.composite
def labelled_thresholds(draw):
    """A label multiset over 2-6 classes and a threshold, half the time
    exactly the labels' normalized entropy (capped at 1)."""
    n_classes = draw(st.integers(2, 6))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=40))
    entropy = min(normalized_label_entropy(labels, n_classes), 1.0)
    return labels, n_classes, draw(st.one_of(st.just(entropy), st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(labelled_thresholds())
@example(([2] * 30, 6, 0.1))
@example(([2] * 30, 6, 0.5))
@example(([2] * 30, 6, 0.99))
@example(([2] * 30, 6, 0.0))  # entropy 0 == threshold
@example(([0, 1, 2, 3, 4, 5] * 10, 6, 0.1))
@example(([0, 1, 2, 3, 4, 5] * 10, 6, 0.5))
@example(([0, 1, 2, 3, 4, 5] * 10, 6, 0.99))
@example(([0, 1] * 5, 2, 1.0))  # entropy 1 == threshold
@example(([1] * 90 + [2] * 10, 6, 0.5))
@example(([1] * 90 + [2] * 10, 6, ENTROPY_90_10))
def test_select_loss_mode_agrees_with_the_table(case):
    """Every algo x policy x client-teacher choice picks the table's mode."""
    labels, n_classes, threshold = case
    assert set(MODE_TABLE) == {(a, p) for a in MODES for p in POLICIES}
    unbalanced = normalized_label_entropy(labels, n_classes) < threshold
    for (algo, policy), modes in MODE_TABLE.items():
        policy = StrategyPolicy(mode=policy, balance_threshold=threshold)
        for has_teacher in (False, True):
            want = modes[2 * has_teacher + (not unbalanced)]
            assert select_loss_mode(policy, labels, n_classes, algo, has_teacher) == want
