"""Round protocol: aggregation, client updates, scheduling, determinism."""

import dataclasses
import gc
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flwf import federation, losses, network
from flwf.config import ClientConfig, ScenarioConfig, SyntheticSource
from flwf.continual import (POLICIES, StrategyPolicy, TaskSequence, TaskSpec,
                            compose_training_batch, current_task, select_loss_mode,
                            update_exemplars)
from flwf.datasets import DatasetPool, PoolExhaustedError, draw_round_data, draw_test_set
from flwf.federation import (SEED_COMPOSE, SEED_DATA_GEN, SEED_EXEMPLAR,
                             SEED_ROUND_DRAW, SEED_TEST_DRAW,
                             SEED_TRAIN, ClientPlan, ClientRuntime, client_update,
                             fedavg, run_experiment, run_round, start_run,
                             stream_seed)
from flwf.metrics import SERVER, predict
from flwf.network import (KIND_DENSE, KIND_DROPOUT, KIND_RELU,
                          KIND_SOFTMAX_OUTPUT, LayerConfig, ModelParams,
                          ShapeMismatchError, forward, init_params)
from helpers import same_model

LAYERS = (LayerConfig(KIND_DENSE, units=16), LayerConfig(KIND_RELU),
          LayerConfig(KIND_DROPOUT, rate=0.2), LayerConfig(KIND_DENSE, units=3),
          LayerConfig(KIND_SOFTMAX_OUTPUT))
INPUT = (8,)


def model(seed):
    return init_params(LAYERS, INPUT, seed=seed)


def brute_average(params_list, sizes):
    w = np.asarray(sizes, dtype=float)
    w = w / w.sum()
    out = params_list[0].copy()
    for i in range(len(out.weights)):
        for key in out.weights[i]:
            out.weights[i][key][...] = sum(
                wi * p.weights[i][key] for wi, p in zip(w, params_list))
    return out


def max_abs_gap(a: ModelParams, b: ModelParams) -> float:
    return max(np.abs(wa[k] - wb[k]).max()
               for wa, wb in zip(a.weights, b.weights) for k in wa)


def ledger_outputs(ledger):
    """Everything a finished ledger holds and exports: its test labels, both
    exports, and each record's key, predictions and mode."""
    return (ledger.test_labels.tolist(), list(ledger.csv_rows()), list(ledger.figure_rows()),
            [(key, r.predictions.tolist(), r.mode) for key, r in ledger.records.items()])


def tiny_clients(algo="flwf2", use_exemplars=False):
    flwf2 = algo == losses.MODE_FLWF2
    split = TaskSequence((TaskSpec((1,), 1), TaskSpec((2,), 1)))
    joint = TaskSequence((TaskSpec((0, 1, 2), 2),))
    return (
        ClientConfig(name="c1", weight=1.0, algo=algo, tasks=split,
                     alpha=0.4, beta=0.3 if flwf2 else None,
                     policy=StrategyPolicy(mode="hybrid"),
                     use_exemplars=use_exemplars),
        ClientConfig(name="cg", weight=4.0, algo=algo, tasks=joint,
                     alpha=0.4, beta=0.3 if flwf2 else None,
                     policy=StrategyPolicy(mode="hybrid"),
                     use_exemplars=use_exemplars),
    )


def tiny_scenario(seed=0, rounds=2, algo="flwf2", use_exemplars=False,
                  clients=None):
    return ScenarioConfig(
        label="tiny", seed=seed, rounds=rounds, epochs=2, batch_size=16,
        learning_rate=0.05, dropout=0.2, n_classes=3, input_shape=INPUT,
        layers=LAYERS, total_clients=2,
        clients=clients if clients is not None else tiny_clients(algo, use_exemplars),
        data=SyntheticSource(per_class=80, feature_dim=8, separation=1.5),
        round_data_size=24, test_per_class=10, exemplar_capacity=5)


# -- seed streams -------------------------------------------------------------


def test_stream_seeds_are_distinct_across_coordinates():
    coords = [(s, p, c, r) for s in (0, 1) for p in range(7)
              for c in (0, 1) for r in (0, 1, 2)]
    states = [tuple(stream_seed(*co).random_raw(4).tolist()) for co in coords]
    assert len(set(states)) == len(states)


def test_stream_seed_is_reproducible():
    a = stream_seed(3, SEED_TRAIN, 1, 4)
    b = stream_seed(3, SEED_TRAIN, 1, 4)
    assert a is not b and a.state == b.state


KEY_PART = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80),
                     st.sampled_from([0, 2**32 - 1, 2**32]))


def numpy_stream(key):
    """The stream of ``key`` as numpy builds it: ``default_rng`` of the
    ``SeedSequence`` of the key tuple."""
    return np.random.default_rng(np.random.SeedSequence(key)).bit_generator


@settings(max_examples=150, deadline=None)
@given(st.tuples(KEY_PART, KEY_PART, KEY_PART, KEY_PART))
def test_stream_seed_is_the_seed_sequence_of_its_key_tuple(key):
    """Whatever the width of each part, a stream is the ``PCG64`` that
    ``default_rng(SeedSequence(key))`` gives: the same state and draws."""
    got, want = stream_seed(*key), numpy_stream(key)
    assert isinstance(got, np.random.PCG64) and got.state == want.state
    assert np.array_equal(np.random.default_rng(got).integers(0, 2**63, size=4),
                          np.random.default_rng(want).integers(0, 2**63, size=4))


SEED_128 = st.one_of(st.integers(0, 2**128 - 1), st.integers(0, 2**64),
                     st.integers(0, 2**32), st.sampled_from([0, 1, 2**32, 2**96, 2**128 - 1]))


def windows(limit, most):
    """Ranges of 1 to ``most`` consecutive ints in ``0..limit``."""
    return st.tuples(st.integers(0, limit), st.integers(1, most)).map(
        lambda t: range(min(t[0], limit + 1 - t[1]), min(t[0], limit + 1 - t[1]) + t[1]))


@settings(max_examples=100, deadline=None)
@given(SEED_128, windows(2**16, 3), windows(2**16, 4))
def test_round_seed_table_holds_numpys_streams(seed, clients, rounds):
    """Every stream of a block's table is numpy's: for each round purpose,
    client and round, the ``PCG64`` built from the table has the state of
    ``default_rng(SeedSequence(key))``; for the training stream, of
    ``default_rng(SeedSequence(<the key's first four state words>))``.
    Seeds up to 2**128 take one to four entropy words, zero words among
    them, and clients and rounds run up to 2**16."""
    table = federation._round_seeds(seed, clients, rounds)
    assert table.shape == (len(federation.ROUND_PURPOSES), len(clients), len(rounds), 4)
    assert table.dtype == np.uint64 and not table.flags.writeable
    for k, purpose in enumerate(federation.ROUND_PURPOSES):
        for i, client in enumerate(clients):
            for j, r in enumerate(rounds):
                key = (seed, purpose, client, r)
                if purpose == SEED_TRAIN:
                    words = np.random.SeedSequence(key).generate_state(4)
                    want = np.random.default_rng(np.random.SeedSequence(words)).bit_generator
                else:
                    want = numpy_stream(key)
                assert federation._stream(table[k, i, j]).state == want.state, key


def test_stream_seed_refuses_a_negative_part_as_seed_sequence_does():
    for key in ((-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -(2**40))):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence(key)
        with pytest.raises(ValueError, match="non-negative"):
            stream_seed(*key)
    with pytest.raises(ValueError, match="non-negative"):
        federation._round_seeds(-1, range(2), range(1, 3))


def test_a_preseeded_stream_takes_only_four_contiguous_uint64_words():
    """PCG64 reads a seed sequence's answer from memory unchecked, so a
    plan's training seed of any other form is refused, never read."""
    words = federation._round_seeds(1, range(1), range(1, 2))[0, 0, 0]
    assert federation._stream(words).state == numpy_stream((1, SEED_ROUND_DRAW, 0, 1)).state
    for bad in (words[::2], words[:3], words.astype(np.int64), words.tolist(), 5,
                np.repeat(words, 2)[::2]):
        with pytest.raises(ValueError, match="four contiguous uint64 words"):
            federation._stream(bad)
    with pytest.raises(ValueError, match="four contiguous uint64 words"):
        federation._Preseeded(words).generate_state(8)


# -- fedavg ---------------------------------------------------------------------


def test_fedavg_matches_brute_force_weighted_mean():
    rng = np.random.default_rng(0)
    for trial in range(10):
        models = [model(seed=100 + 10 * trial + i) for i in range(3)]
        sizes = rng.integers(1, 200, size=3)
        got = fedavg(models, sizes)
        want = brute_average(models, sizes)
        assert max_abs_gap(got, want) < 1e-12


CONV_LAYERS = (LayerConfig("conv1d", filters=3, kernel=3), LayerConfig(KIND_RELU),
               LayerConfig("maxpool1d", pool=2), LayerConfig(KIND_DENSE, units=3),
               LayerConfig(KIND_SOFTMAX_OUTPUT))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(LAYERS, INPUT), (CONV_LAYERS, (10, 2))]),
       st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(0.1, 500.0)),
                min_size=1, max_size=5),
       st.booleans())
def test_fedavg_equals_delta_form_sum_and_keeps_inputs(net, members, read_only):
    """Bit-for-bit ``base + sum_i w_i * (src_i - base)``, accumulated in
    client order, and no input buffer written, read-only ones included."""
    arch, input_shape = net
    models = []
    for seed, _ in members:
        m = init_params(arch, input_shape, seed=seed)
        rng = np.random.default_rng(seed)
        for w in m.weights:
            if "b" in w:
                w["b"][...] = rng.normal(size=w["b"].shape)
            for arr in w.values():
                arr.setflags(write=not read_only)
        models.append(m)
    snapshots = [m.copy() for m in models]
    sizes = [size for _, size in members]
    got = fedavg(models, sizes)
    weights = np.asarray(sizes) / np.sum(sizes)
    base = models[0]
    for i, target in enumerate(got.weights):
        for key in target:
            want = base.weights[i][key].copy()
            for m, w in zip(models[1:], weights[1:]):
                want += w * (m.weights[i][key] - base.weights[i][key])
            assert np.array_equal(target[key], want)
    assert all(same_model(m, snap) for m, snap in zip(models, snapshots))


def test_fedavg_of_identical_models_is_exact():
    base = model(seed=7)
    out = fedavg([base, base.copy(), base.copy()], [3, 5, 2])
    assert same_model(out, base)


def test_fedavg_two_party_hand_weights():
    a, b = model(seed=1), model(seed=2)
    got = fedavg([a, b], [1.0 * 120, 4.0 * 120])  # hint x draw size -> 0.2 / 0.8
    for wa, wb, wg in zip(a.weights, b.weights, got.weights):
        for key in wa:
            assert np.allclose(wg[key], wa[key] + 0.8 * (wb[key] - wa[key]),
                               atol=1e-15)


def test_fedavg_permutation_invariance():
    models = [model(seed=i) for i in (11, 12, 13, 14)]
    sizes = [5, 1, 9, 3]
    base = fedavg(models, sizes)
    rng = np.random.default_rng(1)
    for _ in range(5):
        order = rng.permutation(4)
        shuffled = fedavg([models[i] for i in order], [sizes[i] for i in order])
        assert max_abs_gap(base, shuffled) < 1e-12


def test_fedavg_stays_inside_convex_hull():
    models = [model(seed=i) for i in (21, 22, 23)]
    out = fedavg(models, [2, 3, 4])
    for i in range(len(out.weights)):
        for key in out.weights[i]:
            stack = np.stack([m.weights[i][key] for m in models])
            assert (out.weights[i][key] >= stack.min(axis=0) - 1e-12).all()
            assert (out.weights[i][key] <= stack.max(axis=0) + 1e-12).all()


NETS = st.sampled_from([(LAYERS, INPUT), (CONV_LAYERS, (10, 2))])
MEMBERS = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(0.1, 500.0)),
                   min_size=1, max_size=5)


def random_model(net, seed):
    """Glorot weights with normal biases, so every buffer is nonzero."""
    m = init_params(*net, seed=seed)
    rng = np.random.default_rng(seed)
    for w in m.weights:
        if "b" in w:
            w["b"][...] = rng.normal(size=w["b"].shape)
    return m


@settings(max_examples=60, deadline=None)
@given(NETS, MEMBERS, st.integers(0, 2**32 - 1))
def test_fedavg_is_permutation_invariant_for_random_models(net, members, order_seed):
    models = [random_model(net, seed) for seed, _ in members]
    sizes = [size for _, size in members]
    order = np.random.default_rng(order_seed).permutation(len(models))
    shuffled = fedavg([models[i] for i in order], [sizes[i] for i in order])
    assert max_abs_gap(fedavg(models, sizes), shuffled) < 1e-12


@settings(max_examples=60, deadline=None)
@given(NETS, MEMBERS)
def test_fedavg_of_random_models_stays_inside_their_convex_hull(net, members):
    models = [random_model(net, seed) for seed, _ in members]
    out = fedavg(models, [size for _, size in members])
    for i, target in enumerate(out.weights):
        for key in target:
            stack = np.stack([m.weights[i][key] for m in models])
            slack = 1e-12 * max(1.0, np.abs(stack).max())
            assert (target[key] >= stack.min(axis=0) - slack).all()
            assert (target[key] <= stack.max(axis=0) + slack).all()


def test_fedavg_of_two_models_allocates_one_model():
    """The first delta is computed into the output: the traced peak of
    averaging two N-byte models is one model, no full-size temporary."""
    arch = (LayerConfig(KIND_DENSE, units=256), LayerConfig(KIND_SOFTMAX_OUTPUT))
    a, b = init_params(arch, (512,), seed=1), init_params(arch, (512,), seed=2)
    n_bytes = sum(arr.nbytes for w in a.weights for arr in w.values())
    tracemalloc.start()
    try:
        out = fedavg([a, b], [1, 3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_bytes <= peak <= 1.1 * n_bytes
    assert max_abs_gap(out, brute_average([a, b], [1, 3])) < 1e-12


def three_pass_fedavg(params_list, sizes):
    """The former FedAvg: the delta form in three whole-buffer passes
    into a fresh buffer, later deltas through one full-size temporary."""
    sizes = np.asarray(list(sizes), dtype=float)
    weights = sizes / sizes.sum()
    base = params_list[0]
    if len(params_list) == 1:
        return base.copy()
    out = np.subtract(params_list[1].flat, base.flat)
    out *= weights[1]
    out += base.flat
    delta = None
    for params, w in zip(params_list[2:], weights[2:]):
        delta = np.subtract(params.flat, base.flat, out=delta)
        delta *= w
        out += delta
    return base.with_flat(out)


@settings(max_examples=80, deadline=None)
@given(NETS, st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(0.1, 500.0)),
                      min_size=1, max_size=4),
       st.integers(1, 80), st.booleans())
def test_sliced_fedavg_equals_the_three_pass_form_bit_for_bit(net, members, chunk,
                                                              with_out):
    """Slices as small as one element straddle every buffer edge of both
    nets (60 and 195 weights); a given ``out``, filled with NaN, is
    overwritten whole and returned."""
    models = [random_model(net, seed) for seed, _ in members]
    sizes = [size for _, size in members]
    want = three_pass_fedavg(models, sizes)
    out = models[0].with_flat(np.full(models[0].flat.shape, np.nan)) if with_out else None
    with mock.patch.object(federation, "SGD_CHUNK", chunk):
        got = fedavg(models, sizes, out=out)
    assert np.array_equal(got.flat.view(np.uint64), want.flat.view(np.uint64))
    assert got.same_layout(want)
    if with_out:
        assert got is out


@pytest.mark.parametrize("sizes, message", [
    ([1.0, np.inf], "sizes must be finite, got [1.0, inf]"),
    ([1.0, np.nan], "sizes must be finite, got [1.0, nan]"),
    ([1e308, 1e308], "sizes [1e+308, 1e+308] sum to inf, past float64's range"),
], ids=["inf", "nan", "overflowing-total"])
def test_fedavg_rejects_sizes_it_cannot_weigh(sizes, message):
    """Each used to fail a bare ``assert`` with an empty message (or pass
    unchecked under ``python -O``)."""
    a, b = model(seed=1), model(seed=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        fedavg([a, b], sizes)


def test_fedavg_rejects_an_out_it_cannot_write():
    a, b = model(seed=1), model(seed=2)
    with pytest.raises(ValueError, match="shares memory"):
        fedavg([a, b], [1, 1], out=b)
    with pytest.raises(ValueError, match="shares memory"):
        fedavg([a], [1], out=a.with_flat(a.flat))
    other = init_params(CONV_LAYERS, (10, 2), seed=0)
    with pytest.raises(ShapeMismatchError):
        fedavg([a, b], [1, 1], out=other)
    out = a.with_flat(np.full(a.flat.shape, np.nan))
    assert fedavg([a], [3], out=out) is out and same_model(out, a)


def test_fedavg_input_validation():
    with pytest.raises(ValueError):
        fedavg([], [])
    with pytest.raises(ValueError):
        fedavg([model(seed=0)], [1, 2])
    with pytest.raises(ValueError):
        fedavg([model(seed=0), model(seed=1)], [1, 0])
    other = init_params((LayerConfig(KIND_DENSE, units=3),
                         LayerConfig(KIND_SOFTMAX_OUTPUT)), INPUT, seed=0)
    with pytest.raises(ValueError):
        fedavg([model(seed=0), other], [1, 1])


# -- client_update ------------------------------------------------------------------


def make_batch(seed, labels=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    y = np.array(list(labels) * 8)
    return DatasetPool(rng.normal(size=(len(y), 8)), y, 3)


def update(server, teacher, batch, mode, client_cfg=None, epochs=2):
    """``client_update`` for a client whose previous model is ``teacher``
    and whose config is ``client_cfg`` (flwf2, alpha 0.4, beta 0.3 when
    None), under a plan of ``mode`` whose training stream is
    ``default_rng(5)``'s and ``tiny_scenario``'s hyperparameters with
    ``epochs`` epochs; returns the student it stored on the client."""
    client = ClientRuntime(cfg=client_cfg or tiny_clients()[0], params=teacher)
    scenario = dataclasses.replace(tiny_scenario(), epochs=epochs)
    plan = ClientPlan(rows=np.arange(len(batch)), n_fresh=len(batch), mode=mode,
                      train_seed=np.random.SeedSequence(5).generate_state(4, np.uint64))
    assert client_update(scenario, server, client, batch, plan) is None
    return client.params


@pytest.mark.parametrize("epochs", [1, 2])
def test_client_update_student_shares_no_buffer_with_server(epochs):
    server = model(seed=3)
    snapshot = server.copy()
    out = update(server, None, make_batch(0), losses.MODE_FINE_TUNE, epochs=epochs)
    assert not any(np.shares_memory(a, b)
                   for wo, ws in zip(out.weights, server.weights)
                   for a, b in zip(wo.values(), ws.values()))
    assert same_model(server, snapshot)


def test_client_update_fine_tune_ignores_teachers():
    server = model(seed=3)
    teacher = model(seed=4)
    batch = make_batch(1)
    with_teacher = update(server, teacher, batch, losses.MODE_FINE_TUNE)
    without = update(server, None, batch, losses.MODE_FINE_TUNE)
    assert same_model(with_teacher, without)


def test_client_update_flwf1_without_teacher_raises():
    """A flwf1 client-round without a client teacher is planned as
    fine-tune (``select_loss_mode``); asked to distil, the objective has
    no teacher to distil from."""
    flwf1 = tiny_clients(losses.MODE_FLWF1)[0]
    with pytest.raises(ValueError, match="flwf1 loss requires client-teacher logits"):
        update(model(seed=3), None, make_batch(2), losses.MODE_FLWF1, flwf1)


@pytest.mark.parametrize("algo, has_teacher", [(losses.MODE_FLWF1, True),
                                               (losses.MODE_FLWF2, False),
                                               (losses.MODE_FLWF2, True)])
def test_client_update_trains_the_spec_of_its_config_and_teachers(algo, has_teacher):
    """The student is ``train_local`` under the LossSpec that the client's
    config and the teachers' logits on the batch spell out."""
    cfg = dataclasses.replace(tiny_clients(algo)[0], alpha=0.3, temperature=3.0)
    server, batch = model(seed=3), make_batch(8)
    teacher = model(seed=4) if has_teacher else None
    spec = losses.LossSpec(
        mode=algo, alpha=0.3, beta=cfg.beta, temperature=3.0,
        teacher_client_logits=forward(teacher, batch.features) if has_teacher else None,
        teacher_server_logits=(forward(server, batch.features)
                               if algo == losses.MODE_FLWF2 else None))
    want = network.train_local(server, batch, spec, learning_rate=0.05, batch_size=16,
                               epochs=2, seed=5)
    got = update(server, teacher, batch, algo, cfg)
    assert same_model(got, want)


def test_client_update_flwf2_with_full_label_weight_matches_fine_tune():
    # alpha = 1 zeroes both distillation coefficients, so the same seed
    # must give the same trajectory as plain fine-tuning
    server = model(seed=3)
    teacher = model(seed=4)
    batch = make_batch(3)
    cfg = dataclasses.replace(tiny_clients()[0], alpha=1.0, beta=0.0)
    got = update(server, teacher, batch, losses.MODE_FLWF2, cfg)
    want = update(server, None, batch, losses.MODE_FINE_TUNE)
    assert max_abs_gap(got, want) < 1e-12


def test_client_update_changes_the_student_but_not_the_inputs():
    server = model(seed=3)
    teacher = model(seed=4)
    server_before = server.copy()
    teacher_before = teacher.copy()
    batch = make_batch(4, labels=(1,))
    out = update(server, teacher, batch, losses.MODE_FLWF2)
    assert not same_model(out, server)
    assert same_model(server, server_before)
    assert same_model(teacher, teacher_before)


def test_client_update_leaves_both_teachers_read_only():
    server = model(seed=3)
    teacher = model(seed=4)
    out = update(server, teacher, make_batch(6), losses.MODE_FLWF2)
    for params in (server, teacher):
        assert not any(a.flags.writeable for w in params.weights for a in w.values())
    assert all(a.flags.writeable for w in out.weights for a in w.values())


def test_client_update_rejects_a_write_into_a_teacher(monkeypatch):
    def forward_that_writes(params, inputs):
        params.weights[0]["W"][0, 0] += 1.0
        return forward(params, inputs)

    monkeypatch.setattr("flwf.federation.forward", forward_that_writes)
    with pytest.raises(ValueError, match="read-only"):
        update(model(seed=3), model(seed=4), make_batch(7), losses.MODE_FLWF2)


def test_client_update_rejects_empty_batch():
    batch = DatasetPool(np.zeros((0, 8)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="^client_update needs a nonempty batch$"):
        update(model(seed=0), None, batch, losses.MODE_FINE_TUNE)


def test_client_update_refuses_an_empty_batch_before_freezing_a_teacher():
    """Its own guard, not the forward pass's: it refuses before the
    teachers are frozen, which happens before any teacher forward runs."""
    server, teacher = model(seed=0), model(seed=1)
    client = ClientRuntime(cfg=tiny_clients()[0], params=teacher)
    plan = ClientPlan(rows=np.arange(0), n_fresh=0, mode=losses.MODE_FLWF2,
                      train_seed=np.random.SeedSequence(5).generate_state(4, np.uint64))
    batch = DatasetPool(np.zeros((0, 8)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="^client_update needs a nonempty batch$"):
        client_update(tiny_scenario(), server, client, batch, plan)
    assert client.params is teacher
    assert server.flat.flags.writeable and teacher.flat.flags.writeable


# -- run_round -----------------------------------------------------------------------


class RecordedPlans:
    """A :func:`plan_run` round iterator that keeps each round's plans as
    ``run_round`` takes them."""

    def __init__(self, plans):
        self._plans, self.rounds = plans, []

    def __iter__(self):
        return self

    def __next__(self):
        self.rounds.append(next(self._plans))
        return self.rounds[-1]


def recorded_run(scenario):
    """:func:`start_run`, with its plans recorded as ``run_round`` takes them."""
    run = start_run(scenario)
    run.plans = RecordedPlans(run.plans)
    return run


def drawn_per_class(pool, round_plans):
    """Pool rows a round's plans train on, per class: its fresh draws when
    no client replays exemplars."""
    rows = np.concatenate([plan.rows for plan in round_plans])
    return np.bincount(pool.labels[rows], minlength=pool.n_classes)


def count_sgd_steps(monkeypatch):
    """A list that gains one entry per ``network.sgd_step`` call."""
    steps, real_step = [], network.sgd_step

    def counted(*args, **kwargs):
        steps.append(None)
        return real_step(*args, **kwargs)
    monkeypatch.setattr(network, "sgd_step", counted)
    return steps


def test_run_round_enforces_round_ordering():
    """Each call runs the round after the run's last, and a call past the
    last planned round is refused."""
    run = recorded_run(tiny_scenario())
    assert run.round_index == 0 and list(run.ledger.records) == [(SERVER, 0)]
    for r in (1, 2):
        assert run_round(run) is None
        assert run.round_index == r and len(run.plans.rounds) == r
    assert [key[1] for key in run.ledger.records] == [0, 1, 1, 1, 2, 2, 2]
    with pytest.raises(ValueError, match="no plans left for round 3"):
        run_round(run)


@pytest.mark.parametrize("rounds", [2, 3])
def test_started_rounds_equal_a_whole_run(rounds):
    """``start_run`` then one ``run_round`` per round writes the ledger and
    leaves the models ``run_experiment`` does; one call more is refused."""
    c1, cg = tiny_clients(use_exemplars=True)
    scenario = tiny_scenario(rounds=rounds, clients=(
        dataclasses.replace(c1, tasks=TaskSequence((TaskSpec((1,), 1),
                                                    TaskSpec((2,), rounds - 1)))),
        dataclasses.replace(cg, tasks=TaskSequence((TaskSpec((0, 1, 2), rounds),)))))
    scenario = dataclasses.replace(scenario, round_data_size=12)
    want = run_experiment(scenario)
    run = start_run(scenario)
    for _ in range(rounds):
        run_round(run)
    assert ledger_outputs(run.ledger) == ledger_outputs(want.ledger)
    assert run.round_index == rounds
    assert same_model(run.server, want.server)
    for got, ref in zip(run.clients, want.clients, strict=True):
        assert same_model(got.params, ref.params)
    with pytest.raises(ValueError, match=f"no plans left for round {rounds + 1}"):
        run_round(run)


def test_each_rounds_server_record_is_the_aggregate_just_made():
    """Round r's server record holds the predictions of the aggregate that
    round r made, not of any client's model; the scenario is one where the
    aggregate and the last client to train disagree on some test row."""
    run = start_run(tiny_scenario())
    assert np.array_equal(run.ledger.record_for(SERVER, 0).predictions,
                          predict(run.server, run.test.features))
    disagree = []
    for r in (1, 2):
        run_round(run)
        want = predict(run.server, run.test.features)
        assert np.array_equal(run.ledger.record_for(SERVER, r).predictions, want)
        disagree.append(not np.array_equal(want, predict(run.clients[-1].params,
                                                         run.test.features)))
    assert any(disagree)


def test_run_round_single_client_aggregate_is_that_client():
    clients_cfg = (ClientConfig(
        name="solo", weight=2.5, algo="flwf1",
        tasks=TaskSequence((TaskSpec((1,), 1), TaskSpec((2,), 1))),
        alpha=0.4, policy=StrategyPolicy(mode="distill-all")),)
    scenario = dataclasses.replace(tiny_scenario(), clients=clients_cfg,
                                   total_clients=1)
    run = start_run(scenario)
    run_round(run)
    assert same_model(run.server, run.clients[0].params)
    assert run.server is not run.clients[0].params


def test_run_round_aggregate_uses_weight_hints():
    run = recorded_run(tiny_scenario())
    before = run.server.copy()
    run_round(run)
    # each client drew round_data_size = 24 fresh rows, weighted by its hint
    assert [plan.n_fresh for plan in run.plans.rounds[0]] == [24, 24]
    assert drawn_per_class(run.pool, run.plans.rounds[0]).sum() == 2 * 24
    want = brute_average([c.params for c in run.clients], [1.0 * 24, 4.0 * 24])
    assert max_abs_gap(run.server, want) < 1e-12
    assert not same_model(run.server, before)


def test_run_round_schedules_tasks_and_modes():
    run = start_run(tiny_scenario(algo="flwf1"))
    run_round(run)
    run_round(run)
    modes = {(owner, r): record.mode for (owner, r), record in run.ledger.records.items()
             if r > 0}
    # c1 draws task 1 (class 1) then task 2 (class 2); single-class batches
    # stay unbalanced, but round 1 has no client teacher yet.  The
    # generalized client always draws balanced batches, so the hybrid
    # policy keeps it on plain fine-tuning; the server trains with none.
    assert modes == {("c1", 1): "fine-tune", ("cg", 1): "fine-tune", (SERVER, 1): None,
                     ("c1", 2): "flwf1", ("cg", 2): "fine-tune", (SERVER, 2): None}


def test_hybrid_policy_reads_the_replayed_rows_too():
    """c1's 24 fresh rows of class 2 alone are unbalanced (flwf1 in round 2
    above); with 8 replayed rows of class 1 the composed batch's
    normalized entropy is 0.512, so the hybrid policy fine-tunes."""
    scenario = dataclasses.replace(tiny_scenario(algo="flwf1", use_exemplars=True),
                                   exemplar_capacity=8)
    assert run_experiment(scenario).ledger.record_for("c1", 2).mode == "fine-tune"


def test_run_round_draws_match_task_classes():
    run = recorded_run(tiny_scenario())
    # per class: c1's 24 rows of its current task's class, cg's 8 of each
    for r, want in ((1, [8, 32, 8]), (2, [8, 8, 32])):
        run_round(run)
        assert drawn_per_class(run.pool, run.plans.rounds[-1]).tolist() == want


def record_batches(monkeypatch, pool):
    """A list that gains ``(client name, pool indices)`` per client update:
    the pool rows it trained on, in order, found by their features (all
    distinct in a synthetic pool)."""
    batches, real_update = [], federation.client_update
    index = {row.tobytes(): i for i, row in enumerate(pool.features)}

    def recorded(scenario, server_params, client, batch, plan):
        batches.append((client.name, np.array([index[row.tobytes()]
                                               for row in batch.features])))
        return real_update(scenario, server_params, client, batch, plan)
    monkeypatch.setattr(federation, "client_update", recorded)
    return batches


def record_stores(monkeypatch):
    """A list that gains each exemplar store ``update_exemplars`` returns."""
    stores, real_update = [], federation.update_exemplars

    def recorded(*args, **kwargs):
        stores.append(real_update(*args, **kwargs))
        return stores[-1]
    monkeypatch.setattr(federation, "update_exemplars", recorded)
    return stores


def test_run_round_exemplar_refresh_happens_after_training(monkeypatch):
    scenario = tiny_scenario(use_exemplars=True)
    run = recorded_run(scenario)
    pool, plans = run.pool, run.plans
    steps = count_sgd_steps(monkeypatch)
    batches = record_batches(monkeypatch, pool)
    stores = record_stores(monkeypatch)
    run_round(run)
    # round 1: the store was empty during composition, so each client
    # trained on its 24 fresh rows (2 epochs x ceil(24/16) = 4 steps)
    assert len(steps) == 2 * 4
    (name, round1), _ = batches
    assert name == "c1" and len(round1) == 24
    c1_store = stores[0]  # c1's, then cg's, store after each round
    assert sorted(c1_store) == [1]
    stored = c1_store[1]
    # the store holds pool indices of c1's fresh rows, in their batch order
    assert len(stored) == scenario.exemplar_capacity
    assert (pool.labels[stored] == 1).all()
    positions = [round1.tolist().index(i) for i in stored]
    assert positions == sorted(positions)
    # round 2: task 1 exemplars join c1's fresh task-2 rows (29 rows -> 2
    # chunks per epoch), and the store gains task 2 afterwards
    before = {i for plan in plans.rounds[0] for i in plan.rows.tolist()}
    run_round(run)
    assert len(steps) == 2 * 4 + 2 * 4
    _, _, (name, round2), _ = batches
    assert name == "c1" and len(round2) == 24 + scenario.exemplar_capacity
    was_drawn = np.array([i in before for i in round2.tolist()])
    replayed, fresh2 = round2[was_drawn], round2[~was_drawn]
    # replayed rows keep their pool index: round 1's fresh rows of task 1,
    # never round 2's own
    assert sorted(replayed.tolist()) == sorted(stored.tolist())
    assert set(replayed.tolist()) <= set(round1.tolist())
    assert len(fresh2) == 24 and (pool.labels[fresh2] == 2).all()
    c1_store = stores[2]
    assert sorted(c1_store) == [1, 2]
    assert np.array_equal(c1_store[1], stored)
    assert set(c1_store[2].tolist()) <= set(fresh2.tolist())
    # FedAvg weighs each client by its fresh rows alone, replay aside
    assert [plan.n_fresh for plan in plans.rounds[1]] == [24, 24]
    want = brute_average([c.params for c in run.clients], [1.0 * 24, 4.0 * 24])
    assert max_abs_gap(run.server, want) < 1e-12


def test_run_round_without_exemplars_leaves_stores_empty(monkeypatch):
    """Without exemplars no store is ever filled, so every client-round
    trains on its fresh draw alone."""
    run = recorded_run(tiny_scenario(use_exemplars=False))
    stores = record_stores(monkeypatch)
    for r in (1, 2):
        run_round(run)
    assert stores == []
    assert all(len(plan.rows) == plan.n_fresh for plans_r in run.plans.rounds
               for plan in plans_r)


def test_run_round_divergence_names_client_round_epoch_and_step():
    run = start_run(dataclasses.replace(tiny_scenario(), learning_rate=1e300))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
        run_round(run)
    assert re.fullmatch(r"c1, round 1, epoch \d+, step \d+: non-finite \w+.*",
                        str(err.value))


DATA_SIDE = ("draw_round_data", "compose_training_batch", "update_exemplars",
             "select_loss_mode")


def test_each_round_is_planned_inside_its_run_round(monkeypatch):
    """Every data-side call of round r falls inside the r-th ``run_round``
    call, so a round's timer holds its planning; before round 1 only
    ``draw_test_set`` draws.  The rounds still write what an unwrapped run
    writes."""
    scenario = tiny_scenario(algo="flwf2", use_exemplars=True)
    want = run_experiment(scenario)
    calls = []  # (name, round of the run_round call it falls in or 0, its seed's state)
    current = [0]

    def wrap(name):
        real = getattr(federation, name)

        def call(*args, **kwargs):
            calls.append((name, current[0], getattr(kwargs.get("seed"), "state", None)))
            return real(*args, **kwargs)
        monkeypatch.setattr(federation, name, call)

    for name in DATA_SIDE + ("draw_test_set",):
        wrap(name)
    real_round = federation.run_round

    def spy_round(run):
        current[0] = run.round_index + 1
        try:
            return real_round(run)
        finally:
            current[0] = 0
    monkeypatch.setattr(federation, "run_round", spy_round)
    result = run_experiment(scenario)

    assert [(name, r) for name, r, _ in calls if r == 0] == [("draw_test_set", 0)]
    for name, r, state in calls:
        if name == "draw_test_set":
            assert state == numpy_stream((scenario.seed, SEED_TEST_DRAW, 0, 0)).state
        elif name != "select_loss_mode":  # a seeded call's stream is of its round
            assert state in [numpy_stream((scenario.seed, p, c, r)).state
                             for p in (SEED_ROUND_DRAW, SEED_COMPOSE, SEED_EXEMPLAR)
                             for c in (0, 1)]
    per_round = [[name for name, r, _ in calls if r == k] for k in (1, 2)]
    # per round, each of the two clients draws, composes, refreshes its store
    # and picks its mode
    assert per_round == [list(DATA_SIDE) * 2] * 2
    assert ledger_outputs(result.ledger) == ledger_outputs(want.ledger)
    assert same_model(result.server, want.server)
    for got, ref in zip(result.clients, want.clients):
        assert same_model(got.params, ref.params)


def test_planning_knows_the_client_teacher_without_a_model():
    """Planned alone, with no client model ever trained, flwf1's c1 has no
    teacher in round 1 and has one in round 2: it fine-tunes, then
    distils (its batch is one class), as a real run does."""
    run = start_run(tiny_scenario(algo=losses.MODE_FLWF1))
    modes = [[plan.mode for plan in round_plans] for round_plans in run.plans]
    assert all(client.params is None for client in run.clients)
    assert modes == [["fine-tune", "fine-tune"], ["flwf1", "fine-tune"]]


@st.composite
def small_scenarios(draw, per_class=st.integers(12, 80)):
    """1-3 clients over 3 classes and 1-3 rounds: each with a random algo,
    policy and task split (at most one task per round, and at least two
    tasks from two rounds on), exemplars on or off.  The pool holds
    ``per_class`` rows of each class, 10 of them for the test set; at the
    low end many of these runs cannot last."""
    rounds = draw(st.integers(1, 3))
    clients = []
    for i in range(draw(st.integers(1, 3))):
        classes = draw(st.permutations([0, 1, 2]))
        n_tasks = draw(st.integers(min(2, rounds), rounds))
        cuts = sorted(draw(st.lists(st.integers(1, 2), min_size=n_tasks - 1,
                                    max_size=n_tasks - 1, unique=True)))
        budgets = sorted(draw(st.lists(st.integers(1, rounds - 1), min_size=n_tasks - 1,
                                       max_size=n_tasks - 1, unique=True))) if rounds > 1 else []
        groups = np.split(np.array(classes), cuts)
        spans = np.diff([0, *budgets, rounds])
        algo = draw(st.sampled_from(losses.MODES))
        clients.append(ClientConfig(
            name=f"c{i}", weight=draw(st.sampled_from([1.0, 2.5])), algo=algo,
            alpha=0.4 if algo != losses.MODE_FINE_TUNE else 1.0,
            beta=0.3 if algo == losses.MODE_FLWF2 else None,
            policy=StrategyPolicy(mode=draw(st.sampled_from(POLICIES))),
            use_exemplars=draw(st.booleans()),
            tasks=TaskSequence(tuple(TaskSpec(tuple(g.tolist()), int(n))
                                     for g, n in zip(groups, spans)))))
    scenario = tiny_scenario(seed=draw(st.integers(0, 2**16)), rounds=rounds,
                             clients=tuple(clients))
    return dataclasses.replace(
        scenario, epochs=1, total_clients=len(clients),
        round_data_size=draw(st.integers(4, 12)),
        data=dataclasses.replace(scenario.data, per_class=draw(per_class)))


def plain_draws(scenario):
    """``(fresh rows by (client, round), failure)``: a plain round-by-round
    loop of ``draw_round_data`` over a fresh mask, after the test draw,
    that stops at the first draw that fails; ``failure`` is its message
    with the client and round in front, None if every draw succeeded."""
    pool = federation.build_pool(scenario)
    taken = np.zeros(len(pool), dtype=bool)
    draw_test_set(pool, scenario.test_per_class,
                  seed=stream_seed(scenario.seed, SEED_TEST_DRAW), taken=taken)
    fresh = {}
    for r in range(1, scenario.rounds + 1):
        for i, cfg in enumerate(scenario.clients):
            classes = current_task(cfg.tasks, r)[1].classes
            try:
                fresh[(cfg.name, r)] = draw_round_data(
                    pool, classes, scenario.round_data_size,
                    seed=stream_seed(scenario.seed, SEED_ROUND_DRAW, i, r), taken=taken)
            except PoolExhaustedError as err:
                return fresh, f"{cfg.name}, round {r}: {err}"
    return fresh, None


@settings(max_examples=40, deadline=None)
@given(small_scenarios(per_class=st.just(80)))
def test_planning_alone_consumes_and_chooses_as_a_real_run(scenario):
    """Planning every round, with every model function made to raise, takes
    the fresh rows a plain loop of draws takes, replays only rows the
    client drew before, and picks each client-round's mode as recorded in
    a real run's ledger."""
    fresh, failure = plain_draws(scenario)
    assume(failure is None)
    result = run_experiment(scenario)
    fail = mock.Mock(side_effect=AssertionError("model work while planning"))
    with mock.patch.multiple(federation, forward=fail, train_local=fail,
                             init_params=fail, predict=fail, fedavg=fail):
        test, plans = federation.plan_run(scenario, federation.build_pool(scenario))
        planned = list(plans)
    assert np.array_equal(test.labels, result.ledger.test_labels)
    assert len(planned) == scenario.rounds
    for r, round_plans in enumerate(planned, start=1):
        for cfg, plan in zip(scenario.clients, round_plans):
            assert result.ledger.record_for(cfg.name, r).mode == plan.mode
            drawn = fresh[(cfg.name, r)]
            earlier = {i for k in range(1, r) for i in fresh[(cfg.name, k)].tolist()}
            assert plan.n_fresh == len(drawn)
            assert sorted(plan.rows.tolist()) == sorted(
                drawn.tolist() + [i for i in plan.rows.tolist() if i in earlier])


@settings(max_examples=60, deadline=None)
@given(small_scenarios())
def test_a_pool_that_cannot_last_fails_before_round_1(scenario):
    """``run_experiment`` raises :class:`PoolExhaustedError` exactly when a
    plain loop of draws does, with the same message naming the same client,
    round and class, and before any local update."""
    _, failure = plain_draws(scenario)
    with mock.patch.object(federation, "train_local",
                           wraps=federation.train_local) as train:
        if failure is None:
            run_experiment(scenario)
            return
        with pytest.raises(PoolExhaustedError) as err:
            run_experiment(scenario)
    assert str(err.value) == failure
    assert train.call_count == 0


def reference_plans(scenario, pool):
    """The test set's labels and every round's plans as ``(rows, n_fresh,
    mode, train_seed)`` lists, planned by a plain loop in which each stream
    is its own ``default_rng(SeedSequence(key))`` and each training seed
    is the PCG64 seed words of the ``SeedSequence`` of the training key's
    first four state words."""
    def rng(purpose, client=0, r=0):
        return np.random.default_rng(np.random.SeedSequence((scenario.seed, purpose, client, r)))

    taken = np.zeros(len(pool), dtype=bool)
    test = draw_test_set(pool, scenario.test_per_class, seed=rng(SEED_TEST_DRAW), taken=taken)
    stores, rounds = [{} for _ in scenario.clients], []
    for r in range(1, scenario.rounds + 1):
        rounds.append([])
        for i, cfg in enumerate(scenario.clients):
            t, task = current_task(cfg.tasks, r)
            fresh = draw_round_data(pool, task.classes, scenario.round_data_size,
                                    seed=rng(SEED_ROUND_DRAW, i, r), taken=taken)
            rows = fresh
            if cfg.use_exemplars:
                rows = compose_training_batch(fresh, stores[i], t, seed=rng(SEED_COMPOSE, i, r))
                stores[i] = update_exemplars(stores[i], t, fresh, scenario.exemplar_capacity,
                                             seed=rng(SEED_EXEMPLAR, i, r))
            mode = select_loss_mode(cfg.policy, pool.labels[rows], pool.n_classes, cfg.algo,
                                    has_client_teacher=r > 1)
            words = np.random.SeedSequence((scenario.seed, SEED_TRAIN, i, r)).generate_state(4)
            train = np.random.SeedSequence(words).generate_state(4, np.uint64)
            rounds[-1].append((rows.tolist(), len(fresh), mode, train.tolist()))
    return test.labels.tolist(), rounds


def planned(scenario):
    """:func:`reference_plans`' view of what ``plan_run`` plans."""
    test, plans = federation.plan_run(scenario, federation.build_pool(scenario))
    return test.labels.tolist(), [[(p.rows.tolist(), p.n_fresh, p.mode, p.train_seed.tolist())
                                   for p in round_plans] for round_plans in plans]


@settings(max_examples=40, deadline=None)
@given(small_scenarios(per_class=st.just(80)), st.integers(1, 3))
def test_plans_from_seed_tables_equal_a_plain_per_stream_planner(scenario, block):
    """Blocks of ``block`` rounds, so that the streams of one run come from
    several tables, plan what the plain reference plans: the same test
    set, and per client-round the same rows, fresh count, mode and
    training seed words."""
    assume(plain_draws(scenario)[1] is None)
    with mock.patch.object(federation, "PLAN_BLOCK", block):
        got = planned(scenario)
    assert got == reference_plans(scenario, federation.build_pool(scenario))


def test_plans_across_a_default_block_boundary_equal_the_plain_planner():
    c1, cg = tiny_clients(use_exemplars=True)
    rounds = federation.PLAN_BLOCK + 2
    scenario = dataclasses.replace(tiny_scenario(rounds=rounds, clients=(
        dataclasses.replace(c1, tasks=TaskSequence((TaskSpec((1,), 2),
                                                    TaskSpec((2,), rounds - 2)))),
        dataclasses.replace(cg, use_exemplars=False,
                            tasks=TaskSequence((TaskSpec((0, 1, 2), rounds),))))),
        round_data_size=3, data=SyntheticSource(per_class=300, feature_dim=8, separation=1.5))
    got = planned(scenario)
    assert len(got[1]) == rounds
    assert got == reference_plans(scenario, federation.build_pool(scenario))


@settings(max_examples=20, deadline=None)
@given(small_scenarios(per_class=st.just(80)))
def test_what_a_run_checked_is_read_only(scenario):
    """The pool, the test set, every plan's rows, every client's batch,
    every stored exemplar entry, the ledger's test labels and every
    record's predictions refuse a write."""
    assume(plain_draws(scenario)[1] is None)
    held = []
    real_plan_run, real_update = federation.plan_run, federation.update_exemplars
    real_client_update = federation.client_update

    def spy_plan_run(scenario, pool):
        test, plans = real_plan_run(scenario, pool)
        held.extend([pool.features, pool.labels, test.features, test.labels])
        return test, (held.extend(a for p in round_plans for a in (p.rows, p.train_seed))
                      or round_plans for round_plans in plans)

    def spy_update(*args, **kwargs):
        store = real_update(*args, **kwargs)
        held.extend(store.values())
        return store

    def spy_client_update(scenario, server_params, client, batch, plan):
        held.extend([batch.features, batch.labels])
        return real_client_update(scenario, server_params, client, batch, plan)
    with mock.patch.multiple(federation, plan_run=spy_plan_run, update_exemplars=spy_update,
                             client_update=spy_client_update):
        ledger = run_experiment(scenario).ledger
    held += [ledger.test_labels] + [r.predictions for r in ledger.records.values()]
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


# -- run_experiment --------------------------------------------------------------


def test_no_model_outlives_the_round_that_needs_it(monkeypatch):
    """Round 1's client models and aggregate are garbage after two more
    rounds, while the experiment result is still held."""
    split = TaskSequence((TaskSpec((1,), 2), TaskSpec((2,), 1)))
    joint = TaskSequence((TaskSpec((0, 1, 2), 3),))
    c1, cg = tiny_clients()
    scenario = tiny_scenario(rounds=3, clients=(dataclasses.replace(c1, tasks=split),
                                                dataclasses.replace(cg, tasks=joint)))
    scenario = dataclasses.replace(scenario, round_data_size=12)
    refs = []
    real_run_round = federation.run_round

    def spy(run):
        real_run_round(run)
        if run.round_index == 1:
            models = [c.params for c in run.clients] + [run.server]
            refs.extend(weakref.ref(arr) for m in models
                        for w in m.weights for arr in w.values())

    monkeypatch.setattr(federation, "run_round", spy)
    result = run_experiment(scenario)
    gc.collect()
    assert result.round_index == 3
    assert refs and all(ref() is None for ref in refs)

def _array_refs(params):
    """Weak references to every weight array of ``params``."""
    return [weakref.ref(arr) for w in params.weights for arr in w.values()]


def _forward_through_wrappers(monkeypatch):
    """Wrap ``client_update`` and ``run_round`` where the round protocol
    looks them up in a function that forwards ``*args, **kwargs``, as a
    tracer's span does: the wrapper's frame holds every argument while the
    call runs, so a model passed as an argument would stay alive."""
    for name in ("client_update", "run_round"):
        fn = getattr(federation, name)

        def forwarding(*args, _fn=fn, **kwargs):
            return _fn(*args, **kwargs)
        monkeypatch.setattr(federation, name, forwarding)


@pytest.mark.parametrize("wrapped", [False, True])
@pytest.mark.parametrize("algo", [losses.MODE_FLWF2, losses.MODE_FINE_TUNE])
def test_client_teacher_is_gone_before_the_first_sgd_step(monkeypatch, algo, wrapped):
    """In round 2 each client's round-1 model is freed, by reference
    counting alone, before its first SGD step allocates a gradient."""
    if wrapped:
        _forward_through_wrappers(monkeypatch)
    pending = []  # (client, refs to its previous model) until its first step
    freed = []  # (client, whether that model was gone at its first step)
    real_update, real_step = federation.client_update, network.sgd_step

    def spy_update(scenario, server_params, client, *rest, **kwargs):
        if client.params is not None:
            pending.append((client.name, _array_refs(client.params)))
        return real_update(scenario, server_params, client, *rest, **kwargs)

    def spy_step(*args, **kwargs):
        if pending:
            name, refs = pending.pop()
            freed.append((name, all(ref() is None for ref in refs)))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(federation, "client_update", spy_update)
    monkeypatch.setattr(network, "sgd_step", spy_step)
    result = run_experiment(tiny_scenario(rounds=2, algo=algo))
    # the flwf2 run distils from c1's teacher in round 2; cg's balanced
    # batch keeps it on fine-tuning
    want = {"c1": algo, "cg": losses.MODE_FINE_TUNE}
    assert {name: result.ledger.record_for(name, 2).mode for name in want} == want
    assert freed == [("c1", True), ("cg", True)]


@pytest.mark.parametrize("wrapped", [False, True])
def test_previous_aggregate_is_gone_before_fedavg(monkeypatch, wrapped):
    """Each round's incoming server model is freed, by reference counting
    alone, before FedAvg allocates the new aggregate."""
    if wrapped:
        _forward_through_wrappers(monkeypatch)
    incoming = []
    freed = []
    real_round, real_fedavg = federation.run_round, federation.fedavg

    def spy_round(run):
        incoming.append(_array_refs(run.server))
        return real_round(run)

    def spy_fedavg(*args, **kwargs):
        freed.append(all(ref() is None for ref in incoming[-1]))
        return real_fedavg(*args, **kwargs)

    monkeypatch.setattr(federation, "run_round", spy_round)
    monkeypatch.setattr(federation, "fedavg", spy_fedavg)
    run_experiment(tiny_scenario(rounds=2))
    assert freed == [True, True]


def one_step_conv_scenario(rounds):
    """Conv1d clients that each take one SGD step per round (24 fresh rows,
    batch 24, one epoch), as ``paper-cnn`` does."""
    c1, cg = tiny_clients()
    split = TaskSequence((TaskSpec((1,), 1), TaskSpec((2,), rounds - 1)))
    joint = TaskSequence((TaskSpec((0, 1, 2), rounds),))
    return dataclasses.replace(
        tiny_scenario(rounds=rounds, clients=(dataclasses.replace(c1, tasks=split),
                                              dataclasses.replace(cg, tasks=joint))),
        layers=CONV_LAYERS, input_shape=(10, 2), epochs=1, batch_size=24,
        data=SyntheticSource(per_class=200, feature_dim=20, separation=1.5))


def test_steady_rounds_recycle_every_model_buffer(monkeypatch):
    """From round 2 on, each client's model lives in its previous model's
    buffer (the first gradient's), and every round's aggregate in the
    buffer of the server model it consumed: no steady one-step round
    allocates a model-sized buffer for a gradient or for FedAvg."""
    scenario = one_step_conv_scenario(rounds=4)
    spares, outs, addresses = [], [], []
    real_round = federation.run_round
    real_train, real_fedavg = federation.train_local, federation.fedavg

    def spy_round(run):
        incoming = run.server.flat.ctypes.data
        real_round(run)
        addresses.append((incoming, run.server.flat.ctypes.data,
                          [c.params.flat.ctypes.data for c in run.clients]))

    def spy_train(*args, spare=None, **kwargs):
        spares.append(spare is not None)
        return real_train(*args, spare=spare, **kwargs)

    def spy_fedavg(*args, out=None, **kwargs):
        outs.append(out is not None)
        return real_fedavg(*args, out=out, **kwargs)

    monkeypatch.setattr(federation, "run_round", spy_round)
    monkeypatch.setattr(federation, "train_local", spy_train)
    monkeypatch.setattr(federation, "fedavg", spy_fedavg)
    steps = count_sgd_steps(monkeypatch)
    run_experiment(scenario)
    assert len(steps) == 4 * 2  # one step per client-round
    assert spares == [False, False] + [True, True] * 3  # round 1 has no teachers
    assert outs == [True] * 4
    assert all(aggregate == incoming for incoming, aggregate, _ in addresses)
    for (_, _, before), (_, _, after) in zip(addresses, addresses[1:]):
        assert after == before


@pytest.mark.parametrize("hold", ["model", "view"])
@pytest.mark.parametrize("owner", ["client", "server"])
def test_a_held_teacher_is_never_recycled(monkeypatch, owner, hold):
    """A round-1 model (client c1's or the aggregate) held across round 2,
    whole or by one view, is a teacher there and is never written: its
    bytes stay as they were and read-only, the buffers fall back to fresh
    ones, and the run's results equal an unheld run's."""
    scenario = one_step_conv_scenario(rounds=3)
    unheld = ledger_outputs(run_experiment(scenario).ledger)
    held, snapshots = [], []
    real_round = federation.run_round

    def spy_round(run):
        real_round(run)
        if run.round_index == 1:
            m = run.clients[0].params if owner == "client" else run.server
            held.append(m if hold == "model" else m.weights[3]["W"])
            snapshots.append(np.array(m.flat if hold == "model" else m.weights[3]["W"]))

    monkeypatch.setattr(federation, "run_round", spy_round)
    result = run_experiment(scenario)
    kept = held[0]
    arr = kept.flat if hold == "model" else kept
    assert not arr.flags.writeable
    assert np.array_equal(arr, snapshots[0])
    assert ledger_outputs(result.ledger) == unheld


def test_run_experiment_is_deterministic():
    a = run_experiment(tiny_scenario(seed=9))
    b = run_experiment(tiny_scenario(seed=9))
    assert ledger_outputs(a.ledger) == ledger_outputs(b.ledger)
    assert same_model(a.server, b.server)
    for ca, cb in zip(a.clients, b.clients):
        assert same_model(ca.params, cb.params)


def test_run_experiment_seed_changes_the_run():
    a = run_experiment(tiny_scenario(seed=9))
    b = run_experiment(tiny_scenario(seed=10))
    assert ledger_outputs(a.ledger) != ledger_outputs(b.ledger)


def test_run_experiment_ledger_covers_all_owners_and_rounds():
    result = run_experiment(tiny_scenario(seed=12))
    assert {owner for owner, _ in result.ledger.records} == {SERVER, "c1", "cg"}
    for owner in ("c1", "cg"):
        rounds = sorted(r.round_index for r in result.ledger.records.values()
                        if r.owner == owner)
        assert rounds == [1, 2]
    server_rounds = sorted(r.round_index for r in result.ledger.records.values()
                           if r.owner == SERVER)
    assert server_rounds == [0, 1, 2]
    # aggregates are computable straight off the finished ledger
    assert 0.0 <= result.ledger.general_accuracy("c1") <= 1.0
    assert 0.0 <= result.ledger.personal_accuracy("cg") <= 1.0
