"""Seeded workload inputs: scenario YAML files and the HAR-shaped CSV.

Every input the simulator sees is written here from the workload seed, so
the same seed always gives the same files.  The scenarios are spelled out
field by field rather than taken from ``flwf.config.preset``: the
benchmark's inputs must not change when the program's presets do.
"""

import os

import numpy as np
import yaml

N_CLASSES = 6
ALL_CLASSES = list(range(N_CLASSES))

PRESET_NAMES = (
    "exp1-flwf1",
    "exp1-flwf2",
    "exp2-hybrid-flwf1",
    "exp2-hybrid-flwf2",
    "exp3-exemplars-flwf1",
    "exp3-exemplars-flwf2",
    "baseline-finetune",
)

# Why each was chosen is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = ("mlp-presets", "paper-cnn", "long-horizon")

# paper-cnn sizing: one SGD step per client-round keeps a round near 2 s,
# so four children fit in a run.  The presets' learning rate of 0.01
# overshoots on this network (losses are sums over the batch).
CNN_ROUNDS = 3
CNN_ROWS_PER_ROUND = 32
CNN_TEST_PER_CLASS = 15
CNN_LEARNING_RATE = 0.002
CNN_CSV_PER_CLASS = 300  # 1,800 rows of 1,152 features plus a label
CNN_LENGTH, CNN_CHANNELS = 128, 9

LONG_ROUNDS = 240
LONG_CLIENTS = 6
LONG_ROWS_PER_ROUND = 12


def _layer(kind, **fields):
    return {"kind": kind, **fields}


def mlp_layers(hidden, n_layers):
    layers = []
    for _ in range(n_layers):
        layers += [_layer("dense", units=hidden), _layer("relu"),
                   _layer("dropout", rate=0.5)]
    return layers + [_layer("dense", units=N_CLASSES), _layer("softmax-output")]


def uci_cnn_layers():
    return [
        _layer("conv1d", filters=196, kernel=16),
        _layer("relu"),
        _layer("maxpool1d", pool=4),
        _layer("dense", units=1024),
        _layer("relu"),
        _layer("dropout", rate=0.5),
        _layer("dense", units=N_CLASSES),
        _layer("softmax-output"),
    ]


def _client(name, weight, tasks, algo, policy, use_exemplars):
    entry = {"name": name, "weight": weight, "algo": algo,
             "temperature": 2.0, "policy": {"mode": policy},
             "use_exemplars": use_exemplars,
             "tasks": [{"classes": list(c), "rounds": r} for c, r in tasks]}
    if algo == "fine-tune":
        entry["alpha"] = 1.0
    else:
        entry["alpha"] = 0.001
        if algo == "flwf2":
            entry["beta"] = 0.7
    return entry


def _observed_pair(rounds, algo, policy, use_exemplars):
    """The paper's observed client (class 1, then class 2) plus the
    generalized client standing in for the other four."""
    half = rounds // 2
    return [
        _client("client1", 1.0, [((1,), half), ((2,), rounds - half)],
                algo, policy, use_exemplars),
        _client("generalized", 4.0, [(ALL_CLASSES, rounds)],
                algo, policy, use_exemplars),
    ]


def _scenario(label, seed, rounds, epochs, input_shape, layers, clients, data,
              round_data_size, test_per_class, learning_rate=0.01,
              batch_size=32):
    return {
        "label": label, "seed": seed, "rounds": rounds, "epochs": epochs,
        "batch_size": batch_size, "learning_rate": learning_rate,
        "dropout": 0.5,
        "n_classes": N_CLASSES, "input_shape": list(input_shape),
        "layers": layers, "total_clients": 5, "clients": clients,
        "data": data, "round_data_size": round_data_size,
        "test_per_class": test_per_class, "exemplar_capacity": 10,
    }


def preset_scenario(name, seed):
    """The acceptance protocol of one preset, as ``flwf.config.preset`` has it."""
    if name == "baseline-finetune":
        algo, policy, exemplars = "fine-tune", "fine-tune-all", False
    else:
        algo = "flwf1" if name.endswith("flwf1") else "flwf2"
        policy = "distill-all" if name.startswith("exp1") else "hybrid"
        exemplars = name.startswith("exp3")
    return _scenario(
        name, seed, rounds=8, epochs=10, input_shape=(16,),
        layers=mlp_layers(32, 2),
        clients=_observed_pair(8, algo, policy, exemplars),
        data={"kind": "synthetic", "per_class": 1000, "feature_dim": 16,
              "separation": 1.5},
        round_data_size=120, test_per_class=100)


def paper_cnn_scenario(seed, csv_path):
    return _scenario(
        "paper-cnn", seed, rounds=CNN_ROUNDS, epochs=1,
        input_shape=(CNN_LENGTH, CNN_CHANNELS), layers=uci_cnn_layers(),
        clients=_observed_pair(CNN_ROUNDS, "flwf2", "hybrid", False),
        data={"kind": "csv", "path": csv_path},
        round_data_size=CNN_ROWS_PER_ROUND, test_per_class=CNN_TEST_PER_CLASS,
        learning_rate=CNN_LEARNING_RATE)


def long_horizon_scenario(seed):
    """Six clients, each cycling through the six classes one task at a
    time from its own starting class, so every class is drawn by exactly
    one client per round.

    A batch of 64 holds the 12 fresh rows plus the exemplars of up to five
    other tasks, so every client-round is one SGD step.  With 32, rounds
    from the fourth task on would take two, and the round-time median
    would fall between two clusters."""
    per_task = LONG_ROUNDS // N_CLASSES
    clients = []
    for k in range(LONG_CLIENTS):
        order = [((k + i) % N_CLASSES,) for i in range(N_CLASSES)]
        clients.append(_client(f"client{k + 1}", 1.0,
                               [(c, per_task) for c in order],
                               "flwf2", "hybrid", True))
    demand = LONG_ROUNDS * LONG_ROWS_PER_ROUND * LONG_CLIENTS // N_CLASSES
    return _scenario(
        "long-horizon", seed, rounds=LONG_ROUNDS, epochs=1, input_shape=(8,),
        layers=mlp_layers(16, 1), clients=clients,
        data={"kind": "synthetic", "per_class": demand + 100,
              "feature_dim": 8, "separation": 2.0},
        round_data_size=LONG_ROWS_PER_ROUND, test_per_class=50,
        batch_size=64)


def write_har_csv(path, seed, per_class=CNN_CSV_PER_CLASS):
    """Class-structured 128x9 windows, flattened time-major to 1,152 columns.

    Each class owns a base frequency, amplitude and phase per channel;
    every row adds its own small frequency jitter, random phase shift and
    Gaussian noise, so the classes overlap but stay learnable.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(CNN_LENGTH)[:, None] / CNN_LENGTH
    freq = rng.uniform(1.0, 12.0, (N_CLASSES, CNN_CHANNELS))
    amp = rng.uniform(0.3, 1.5, (N_CLASSES, CNN_CHANNELS))
    phase = rng.uniform(0.0, 2 * np.pi, (N_CLASSES, CNN_CHANNELS))
    labels = np.repeat(np.arange(N_CLASSES), per_class)
    rows = np.empty((len(labels), CNN_LENGTH * CNN_CHANNELS))
    for i, c in enumerate(labels):
        f = freq[c] * rng.uniform(0.9, 1.1, CNN_CHANNELS)
        shift = phase[c] + rng.uniform(-0.5, 0.5)
        window = amp[c] * np.sin(2 * np.pi * f * t + shift)
        window += rng.normal(0.0, 0.4, window.shape)
        rows[i] = window.reshape(-1)
    order = rng.permutation(len(labels))
    header = ",".join([f"f{i}" for i in range(rows.shape[1])] + ["label"])
    table = np.column_stack([rows[order], labels[order]])
    fmt = ["%.6f"] * rows.shape[1] + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def write_inputs(workload, seed, work_dir):
    """Write the workload's inputs under ``work_dir``; returns
    ``[(scenario label, yaml path, scenario mapping), ...]`` in run order."""
    os.makedirs(work_dir, exist_ok=True)
    if workload == "mlp-presets":
        docs = [preset_scenario(name, seed) for name in PRESET_NAMES]
    elif workload == "paper-cnn":
        csv_path = os.path.join(work_dir, "har.csv")
        write_har_csv(csv_path, seed)
        docs = [paper_cnn_scenario(seed, csv_path)]
    elif workload == "long-horizon":
        docs = [long_horizon_scenario(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for doc in docs:
        path = os.path.join(work_dir, f"{doc['label']}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        out.append((doc["label"], path, doc))
    return out
