"""Synchronous federated rounds: broadcast, local updates, FedAvg, teachers.

A run in progress is one :class:`Run`: :func:`start_run` builds it, and
each :func:`run_round` call advances it by one round.  :func:`plan_run`
owns a run's data-side state, a ``taken`` mask over the read-only pool
and one exemplar store per client.  It draws the test set, rejects a pool
that cannot last before round 1, and plans each round when
:func:`run_round` asks: every client's fresh draw, replay, exemplar
refresh and loss mode.  Each client trains the server model on its
planned rows, a read-only subset of the pool that is not checked again
(:meth:`flwf.datasets.DatasetPool.take`), with the scenario's learning
rate, batch size and E epochs, and the server aggregates the results
with size-and-hint weighted FedAvg.  The client's own previous-round
model and the incoming server model serve as the two distillation
teachers.  Both are made read-only before their logits are computed
(once, before any SGD step), so any write into them raises.  The server
teacher stays frozen for the whole round; the client teacher lives only
until its logits exist.  When nothing else holds them, their buffers take the client's
first gradient and the next aggregate (:func:`flwf.network.reclaim`).

All randomness comes from per-(purpose, client, round) seed streams
derived from the one experiment seed: each is the ``PCG64`` that
``default_rng(SeedSequence(key))`` gives, computed without a
``SeedSequence`` by :func:`_state_words`.
"""

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import losses
from .config import ClientConfig, CsvSource, ScenarioConfig, SyntheticSource
from .continual import (compose_training_batch, current_task, select_loss_mode,
                        update_exemplars)
from .datasets import (DatasetPool, PoolExhaustedError, _allocate_per_class,
                       draw_round_data, draw_test_set, generate_synthetic, load_csv,
                       read_only)
from .metrics import SERVER, MetricsLedger, RoundRecord, predict
# params_digest is not called here; perfbench/child.py's ENTRY_POINTS traces this site.
from .network import (SGD_CHUNK, ModelParams, ShapeMismatchError, forward,
                      init_params, params_digest, reclaim, train_local)  # noqa: F401

# Purposes of the derived seed streams; a stream is identified by the
# key (experiment seed, purpose, client index, round), so adding a
# client or a round never perturbs any other stream.
SEED_DATA_GEN = 0
SEED_TEST_DRAW = 1
SEED_INIT = 2
SEED_ROUND_DRAW = 3
SEED_COMPOSE = 4
SEED_TRAIN = 5
SEED_EXEMPLAR = 6
ROUND_PURPOSES = (SEED_ROUND_DRAW, SEED_COMPOSE, SEED_TRAIN, SEED_EXEMPLAR)
PLAN_BLOCK = 64  # rounds whose streams one table holds (:func:`_round_seeds`)

# numpy's SeedSequence constants, fixed by its stream-compatibility policy
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _hash_consts(value: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` values of a SeedSequence hash constant: ``value``,
    then each times ``mult`` modulo 2**32.  The j-th hash of a word XORs
    value j in and multiplies by value j + 1."""
    out = [value]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return read_only(np.array(out, dtype=np.uint32))


@functools.cache
def _cross_consts() -> tuple[np.ndarray, np.ndarray]:
    """Per source pool word, the XOR and the multiplier of each other
    word's hash of it (hashes 4 to 15, source-major), 0 at the source."""
    a = _hash_consts(_INIT_A, _MULT_A, 17)
    xors, mults = np.zeros((4, 4), dtype=np.uint32), np.zeros((4, 4), dtype=np.uint32)
    others = ~np.eye(4, dtype=bool)
    xors[others], mults[others] = a[4:16], a[5:17]
    return read_only(xors), read_only(mults)


def _hashmix(value, xor, mult):
    """SeedSequence's hash of ``uint32`` words, one constant pair each."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x, y):
    """SeedSequence's mix of hash ``y`` into pool words ``x``."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _state_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words)`` for every ``e`` along
    the last axis of ``entropy``, ``uint32`` words, at least four (every
    key here has four parts): numpy's entropy mixing into a four-word pool
    and its state generation, each step done for all keys at once.  The
    words wrap modulo 2**32 as numpy's do."""
    a = _hash_consts(_INIT_A, _MULT_A, 4 * entropy.shape[-1] + 1)
    pool = _hashmix(entropy[..., :4], a[:4], a[1:5])
    xors, mults = _cross_consts()
    for src in range(4):  # word src's hash into each other word, in order
        mixed = _mix(pool, _hashmix(pool[..., src:src + 1], xors[src], mults[src]))
        mixed[..., src] = pool[..., src]  # word src takes none of its own
        pool = mixed
    for src in range(4, entropy.shape[-1]):  # each later word into every pool word
        j = 4 * src
        pool = _mix(pool, _hashmix(entropy[..., src:src + 1], a[j:j + 4], a[j + 1:j + 5]))
    b = _hash_consts(_INIT_B, _MULT_B, n_words + 1)
    return _hashmix(pool[..., np.arange(n_words) % 4], b[:-1], b[1:])


def _words(n: int) -> np.ndarray:
    """The ``uint32`` words SeedSequence reads from the int ``n``: least
    significant first, 0 as one word; a negative ``n`` raises its error."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return np.frombuffer(n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little"), "<u4")


def _pcg64_words(state: np.ndarray) -> np.ndarray:
    """Eight state words along the last axis as the four ``uint64`` words
    PCG64 seeds from, read as numpy reads them, little-endian pairs."""
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Preseeded(ISeedSequence):
    """The seed sequence of a stream whose PCG64 seed words are known:
    it answers PCG64's one request, ``generate_state(4, np.uint64)``, with
    them.  PCG64 reads the words from memory unchecked, so anything but
    four contiguous ``uint64`` words, or another request, raises."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        w = self.words
        if (n_words != 4 or dtype is not np.uint64 or type(w) is not np.ndarray
                or w.dtype.type is not np.uint64 or w.shape != (4,) or w.strides != (8,)):
            raise ValueError("a preseeded stream gives four contiguous uint64 words, "
                             f"not generate_state({n_words}, {dtype}) from {w!r}")
        return w


def _stream(words: np.ndarray) -> np.random.PCG64:
    """The generator of a stream from its PCG64 seed words."""
    return np.random.PCG64(_Preseeded(words))


def stream_seed(experiment_seed: int, purpose: int, client: int = 0,
                round_index: int = 0) -> np.random.PCG64:
    """The stream of one key: the ``PCG64`` that
    ``default_rng(SeedSequence((experiment_seed, purpose, client,
    round_index)))`` gives, whose entropy is each part's ``uint32`` words
    in turn.  A negative part raises as ``SeedSequence`` does."""
    key = (experiment_seed, purpose, client, round_index)
    return _stream(_pcg64_words(_state_words(np.concatenate([_words(p) for p in key]), 8)))


def _round_seeds(experiment_seed: int, clients: range, rounds: range) -> np.ndarray:
    """The PCG64 seed words of the per-round streams of ``clients`` in
    ``rounds``, as read-only ``uint64``, indexed by (purpose's place in
    :data:`ROUND_PURPOSES`, client - ``clients.start``, round -
    ``rounds.start``, word).

    Each key's entropy is the words :func:`stream_seed` reads, assembled by
    broadcasting: the seed's words, then one word each for purpose, client
    and round.  A training stream is seeded in a second pass, by its key's
    first four state words, as ``default_rng`` would be by those words."""
    seed = _words(experiment_seed)
    n = len(seed)
    keys = np.empty((len(ROUND_PURPOSES), len(clients), len(rounds), n + 3), dtype=np.uint32)
    keys[..., :n] = seed
    keys[..., n] = np.array(ROUND_PURPOSES)[:, None, None]
    keys[..., n + 1] = np.array(clients)[:, None]
    keys[..., n + 2] = np.array(rounds)
    state = _state_words(keys, 8)
    train = state[ROUND_PURPOSES.index(SEED_TRAIN)]
    train[...] = _state_words(train[..., :4], 8)
    return read_only(_pcg64_words(state))


@dataclass
class ClientRuntime:
    """A client's model, carried across rounds."""

    cfg: ClientConfig
    params: ModelParams | None = None  # previous-round model; None before round 1

    @property
    def name(self) -> str:
        return self.cfg.name


@dataclass(frozen=True)
class ClientPlan:
    """One client's round as planned: the composed batch's pool indices in
    training order, how many of them were drawn fresh (FedAvg weighs the
    client by its hint times that), the loss mode it trains with, and the
    four read-only ``uint64`` PCG64 seed words of its training stream
    (:func:`_round_seeds`)."""

    rows: np.ndarray
    n_fresh: int
    mode: str
    train_seed: np.ndarray


def _freeze(params: ModelParams) -> None:
    """Make ``flat`` and every view into it read-only, until
    :func:`flwf.network.reclaim` takes the last reference.  A function of
    its own, so that no loop variable in the caller keeps a teacher alive."""
    params.flat.setflags(write=False)
    for w in params.weights:
        for view in w.values():
            view.setflags(write=False)


def client_update(scenario: ScenarioConfig, server_params: ModelParams,
                  client: ClientRuntime, batch: DatasetPool, plan: ClientPlan) -> None:
    """One local update as ``plan`` has it: the student starts from the
    server model, the teachers are made read-only, and the student, trained
    with the scenario's hyperparameters and the plan's seed, replaces
    ``client.params``.

    The one :class:`flwf.losses.LossSpec` is built here from ``client.cfg``,
    the plan's mode and the teachers' logits, each computed once.
    ``client.params`` is the client teacher, None on a client's first round.  It is dropped
    from ``client`` as soon as its logits exist, before the first gradient
    is computed, so nothing here keeps it alive while the student trains
    (if training fails, ``client.params`` stays None); unless anything
    else holds it, its buffer takes the first gradient.
    """
    if len(batch) == 0:
        raise ValueError("client_update needs a nonempty batch")
    _freeze(server_params)
    if client.params is not None:
        _freeze(client.params)
    mode, spec = plan.mode, losses.LossSpec()
    if mode != losses.MODE_FINE_TUNE:
        cfg = client.cfg
        spec = losses.LossSpec(
            mode=mode, alpha=cfg.alpha, beta=cfg.beta, temperature=cfg.temperature,
            teacher_client_logits=(None if client.params is None
                                   else forward(client.params, batch.features)),
            teacher_server_logits=(forward(server_params, batch.features)
                                   if mode == losses.MODE_FLWF2 else None))

    # the client teacher's logits exist: drop it, its buffer for the first gradient
    spare = None if client.params is None else reclaim(client.params)
    client.params = None
    client.params = train_local(
        server_params, batch, spec, learning_rate=scenario.learning_rate,
        batch_size=scenario.batch_size, epochs=scenario.epochs, seed=_stream(plan.train_seed),
        spare=spare)


def fedavg(params_list, sizes, out: ModelParams | None = None) -> ModelParams:
    """Size-weighted element-wise average of the clients' models, written
    into ``out`` (fresh when None) and returned.

    Delta form around the first model, ``base + sum_i w_i * (src_i -
    base)`` in list order, so identical models average exactly.  One pass
    over ``flat`` in :data:`SGD_CHUNK`-element slices: a slice of ``out``
    takes the first delta, scaled, plus ``base`` (IEEE addition commutes);
    later deltas go through one slice-sized temporary.  The inputs are
    never written: an ``out`` that shares memory with one raises
    ``ValueError``, one of another layout :class:`ShapeMismatchError`.
    """
    params_list = list(params_list)
    sizes = np.asarray(list(sizes), dtype=float)
    if not params_list:
        raise ValueError("fedavg needs at least one model")
    if len(sizes) != len(params_list):
        raise ValueError("one size per model required")
    if not np.isfinite(sizes).all():
        raise ValueError(f"sizes must be finite, got {sizes.tolist()}")
    if (sizes <= 0).any():
        raise ValueError("sizes must be positive")
    with np.errstate(over="ignore"):  # an overflowing total is reported below
        total = sizes.sum()
    if not np.isfinite(total):
        raise ValueError(f"sizes {sizes.tolist()} sum to {total}, past float64's range")
    base = params_list[0]
    for other in params_list[1:]:
        if not base.same_layout(other):
            raise ValueError("fedavg models must share one architecture")
    if out is None:
        out = base.with_flat(np.empty(base.flat.shape))
    elif not base.same_layout(out):
        raise ShapeMismatchError("fedavg's output does not match the models' layout")
    elif any(np.shares_memory(out.flat, p.flat) for p in params_list):
        raise ValueError("fedavg's output shares memory with a model it averages")
    weights = sizes / total
    flats, out_flat = [p.flat for p in params_list], out.flat
    if len(flats) == 1:
        np.copyto(out_flat, flats[0])
        return out
    delta = np.empty(min(SGD_CHUNK, out_flat.size)) if len(flats) > 2 else None
    for start in range(0, out_flat.size, SGD_CHUNK):
        stop = start + SGD_CHUNK
        acc, b = out_flat[start:stop], flats[0][start:stop]
        np.subtract(flats[1][start:stop], b, out=acc)  # the first delta
        acc *= weights[1]
        acc += b
        for flat, w in zip(flats[2:], weights[2:]):
            d = np.subtract(flat[start:stop], b, out=delta[:acc.size])
            d *= w
            acc += d
    return out


def plan_run(scenario: ScenarioConfig,
             pool: DatasetPool) -> tuple[DatasetPool, Iterator[tuple[ClientPlan, ...]]]:
    """The run's test set, and an iterator that plans one round per step.

    The one owner of a run's data-side state: the ``taken`` mask and one
    exemplar store per client (task id -> pool indices).  A pool that
    cannot last raises :class:`PoolExhaustedError` here, before any model
    exists.  Each step plans every client in order from the config, the
    seed streams and the pool's labels: its task, fresh draw, replay,
    exemplar refresh and loss mode.  Its streams come from one
    :func:`_round_seeds` table per :data:`PLAN_BLOCK` rounds.
    """
    taken = np.zeros(len(pool), dtype=bool)
    test = draw_test_set(pool, scenario.test_per_class,
                         seed=stream_seed(scenario.seed, SEED_TEST_DRAW), taken=taken)
    _check_supply(scenario, pool, taken)
    stores = [{} for _ in scenario.clients]

    def plan(index: int, cfg: ClientConfig, round_index: int, words) -> ClientPlan:
        draw, compose, train, exemplar = words  # in ROUND_PURPOSES order
        t, task = current_task(cfg.tasks, round_index)
        fresh = draw_round_data(pool, task.classes, scenario.round_data_size,
                                seed=_stream(draw), taken=taken)
        rows = fresh
        if cfg.use_exemplars:  # compose from the store as it stood, then refresh it
            rows = compose_training_batch(fresh, stores[index], t, seed=_stream(compose))
            stores[index] = update_exemplars(stores[index], t, fresh, scenario.exemplar_capacity,
                                             seed=_stream(exemplar))
        # the client teacher is the client's own model of the round before
        mode = select_loss_mode(cfg.policy, pool.labels[rows], pool.n_classes,
                                cfg.algo, has_client_teacher=round_index > 1)
        return ClientPlan(rows=read_only(rows), n_fresh=len(fresh), mode=mode, train_seed=train)

    def plans():
        for first in range(1, scenario.rounds + 1, PLAN_BLOCK):
            block = range(first, min(first + PLAN_BLOCK, scenario.rounds + 1))
            words = _round_seeds(scenario.seed, range(len(scenario.clients)), block)
            for j, r in enumerate(block):
                yield tuple(plan(i, cfg, r, words[:, i, j])
                            for i, cfg in enumerate(scenario.clients))

    return test, plans()


def _check_supply(scenario: ScenarioConfig, pool: DatasetPool, taken: np.ndarray) -> None:
    """Raise :class:`PoolExhaustedError` if some round's draw would find
    too few rows that ``taken`` does not mark.  The run's demand per class
    is summed by the draw's own allocation rule; only when a class falls
    short are the draws walked in plan order, to name the first that fails
    and its client and round."""
    left = np.bincount(pool.labels[~taken], minlength=pool.n_classes)
    need = np.zeros_like(left)
    for cfg in scenario.clients:
        for task in cfg.tasks.tasks:
            for c, n in _allocate_per_class(task.classes, scenario.round_data_size).items():
                need[c] += n * task.rounds
    if (need <= left).all():
        return
    for r in range(1, scenario.rounds + 1):
        for cfg in scenario.clients:
            classes = current_task(cfg.tasks, r)[1].classes
            for c, n in _allocate_per_class(classes, scenario.round_data_size).items():
                if n > left[c]:
                    raise PoolExhaustedError(f"{cfg.name}, round {r}: class {c}: need {n} "
                                             f"unconsumed examples, only {left[c]} left")
                left[c] -= n


@dataclass
class Run:
    """A run after ``round_index`` rounds: what :func:`start_run` set up,
    the current aggregate (None only while :func:`run_round` aggregates)
    and one :class:`ClientRuntime` per ``scenario.clients`` entry, in order."""

    scenario: ScenarioConfig
    pool: DatasetPool
    test: DatasetPool
    plans: Iterator[tuple[ClientPlan, ...]]
    ledger: MetricsLedger
    server: ModelParams | None
    clients: list[ClientRuntime]
    round_index: int = 0


def build_pool(scenario: ScenarioConfig) -> DatasetPool:
    if isinstance(scenario.data, SyntheticSource):
        return generate_synthetic(
            n_classes=scenario.n_classes,
            per_class=scenario.data.per_class,
            feature_dim=scenario.data.feature_dim,
            separation=scenario.data.separation,
            seed=stream_seed(scenario.seed, SEED_DATA_GEN))
    assert isinstance(scenario.data, CsvSource)
    return load_csv(scenario.data.path, n_classes=scenario.n_classes)


def start_run(scenario: ScenarioConfig) -> Run:
    """``scenario``'s run before round 1: its pool, test set and plans
    (:func:`plan_run`), and the initialized server model, evaluated as round 0."""
    pool = build_pool(scenario)
    test, plans = plan_run(scenario, pool)
    server = init_params(scenario.layers, scenario.input_shape,
                         seed=stream_seed(scenario.seed, SEED_INIT))
    ledger = MetricsLedger(test_labels=test.labels, n_classes=scenario.n_classes,
                           total_rounds=scenario.rounds,
                           tasks={c.name: c.tasks for c in scenario.clients})
    ledger.append(RoundRecord(owner=SERVER, round_index=0,
                              predictions=predict(server, test.features)))
    return Run(scenario=scenario, pool=pool, test=test, plans=plans, ledger=ledger,
               server=server, clients=[ClientRuntime(cfg=c) for c in scenario.clients])


def run_round(run: Run) -> None:
    """Round ``run.round_index + 1``, planned by the next step of
    ``run.plans``, then executed.  Replaces each client's model and the
    server's, and adds one :class:`RoundRecord` per owner to the ledger.

    Between the SGD steps of a one-step local update ``len(run.clients) +
    1`` models are live: the server's (the student's start and a teacher
    frozen for the whole round) and one per client.  A longer update also
    holds the model its last step stepped from, for the next gradient.
    The peak, ``len(run.clients) + 2`` models while a gradient is
    computed, is the same either way.  A client's previous model is
    dropped once its teacher logits exist, and the server's once the last
    client has trained (``run.server`` is None while FedAvg runs).  Unless
    anything else holds it (:func:`flwf.network.reclaim`), each dropped
    model's buffer takes the client's first gradient or the aggregate, so
    from round 2 on a round of one-step updates allocates no model.
    """
    round_index = run.round_index + 1
    planned = next(run.plans, None)
    if planned is None:
        raise ValueError(f"no plans left for round {round_index}")
    for client, plan in zip(run.clients, planned):
        try:
            client_update(run.scenario, run.server, client, run.pool.take(plan.rows), plan)
        except FloatingPointError as err:
            raise FloatingPointError(f"{client.name}, round {round_index}, {err}") from err
        run.ledger.append(RoundRecord(
            owner=client.name, round_index=round_index,
            predictions=predict(client.params, run.test.features), mode=plan.mode))

    # every client has trained from the server model: drop it, its buffer for FedAvg
    out = reclaim(run.server)
    run.server = None
    run.server = fedavg([c.params for c in run.clients],
                        [c.cfg.weight * p.n_fresh for c, p in zip(run.clients, planned)], out=out)
    run.ledger.append(RoundRecord(owner=SERVER, round_index=round_index,
                                  predictions=predict(run.server, run.test.features)))
    run.round_index = round_index


def run_experiment(scenario: ScenarioConfig) -> Run:
    """:func:`start_run`, then the scenario's R rounds.  Deterministic per seed."""
    run = start_run(scenario)
    for _ in range(scenario.rounds):
        run_round(run)
    return run
