"""Scenario configuration: validated experiment descriptions, named presets,
and a YAML file format.

A scenario bundles everything one seeded run needs: the data source, the
network architecture, the federated schedule (rounds, epochs, batch size,
learning rate), and one entry per simulated client with its task
sequence, aggregation weight, algorithm, loss coefficients, strategy
policy, and exemplar switch.  Unknown fields anywhere in a config file
are rejected, and every validation error names the offending field path.

The named presets encode the three study scenarios plus the plain
fine-tuning baseline on synthetic data: the observed client
(``client1``) sees one class for the first half of the rounds and a
second class for the rest, while the ``generalized`` client stands in
for the remaining clients with balanced all-class data and a
proportionally larger aggregation weight.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

from . import losses
from .continual import StrategyPolicy, TaskSequence, TaskSpec
from .network import (LayerConfig, infer_shapes, layer_config_from_dict,
                      layer_to_dict)

ALGO_MODES = losses.MODES  # fine-tune | flwf1 | flwf2

PRESET_NAMES = (
    "exp1-flwf1",
    "exp1-flwf2",
    "exp2-hybrid-flwf1",
    "exp2-hybrid-flwf2",
    "exp3-exemplars-flwf1",
    "exp3-exemplars-flwf2",
    "baseline-finetune",
)


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class SyntheticSource:
    """Gaussian class clusters drawn inside the run from the experiment seed."""

    per_class: int = 1000
    feature_dim: int = 16
    separation: float = 1.5

    def __post_init__(self):
        if self.per_class < 1:
            raise ConfigError("data.per_class", "must be positive")
        if self.feature_dim < 1:
            raise ConfigError("data.feature_dim", "must be positive")
        if self.separation < 0:
            raise ConfigError("data.separation", "must be non-negative")


@dataclass(frozen=True)
class CsvSource:
    """External feature CSV; last column is the integer class label."""

    path: str

    def __post_init__(self):
        if not self.path:
            raise ConfigError("data.path", "must be a non-empty path")


@dataclass(frozen=True)
class ClientConfig:
    """One simulated client of the federation."""

    name: str
    weight: float
    algo: str
    tasks: TaskSequence
    alpha: float = 1.0
    beta: float | None = None
    temperature: float = 2.0
    policy: StrategyPolicy = field(default_factory=StrategyPolicy)
    use_exemplars: bool = False

    def __post_init__(self):
        where = f"clients[{self.name}]"
        if not self.name:
            raise ConfigError(where + ".name", "must be non-empty")
        if self.weight <= 0:
            raise ConfigError(where + ".weight", "must be positive")
        if self.algo not in ALGO_MODES:
            raise ConfigError(where + ".algo",
                              f"must be one of {list(ALGO_MODES)}, got {self.algo!r}")
        error = losses.coefficient_error(self.algo, self.alpha, self.beta, self.temperature)
        if error:
            raise ConfigError(f"{where}.{error[0]}", error[1])


@dataclass(frozen=True)
class ScenarioConfig:
    label: str
    seed: int
    rounds: int
    epochs: int
    batch_size: int
    learning_rate: float
    dropout: float
    n_classes: int
    input_shape: tuple[int, ...]
    layers: tuple[LayerConfig, ...]
    total_clients: int
    clients: tuple[ClientConfig, ...]
    data: SyntheticSource | CsvSource
    round_data_size: int = 120
    test_per_class: int = 100
    exemplar_capacity: int = 10

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.label:
            raise ConfigError("label", "must be non-empty")
        if self.rounds < 0:
            raise ConfigError("rounds", "must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs", "must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", "must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout", "must lie in [0, 1)")
        if self.n_classes < 2:
            raise ConfigError("n_classes", "must be >= 2")
        if self.total_clients < 1:
            raise ConfigError("total_clients", "must be positive")
        if self.round_data_size < 1:
            raise ConfigError("round_data_size", "must be positive")
        if self.test_per_class < 1:
            raise ConfigError("test_per_class", "must be positive")
        if self.exemplar_capacity < 1:
            raise ConfigError("exemplar_capacity", "must be positive")
        if not self.clients:
            raise ConfigError("clients", "at least one client required")
        names = [c.name for c in self.clients]
        if len(set(names)) != len(names):
            raise ConfigError("clients", f"duplicate client names in {names}")
        try:
            shapes = infer_shapes(self.layers, self.input_shape)
        except ValueError as exc:
            raise ConfigError("layers", str(exc)) from exc
        if shapes[-1] != (self.n_classes,):
            raise ConfigError(
                "layers", f"network emits {shapes[-1][0]} logits, "
                          f"n_classes is {self.n_classes}")
        if isinstance(self.data, SyntheticSource):
            if self.data.feature_dim != math.prod(self.input_shape):
                raise ConfigError("data.feature_dim",
                                  f"{self.data.feature_dim} does not match input "
                                  f"shape {self.input_shape}")
        for c in self.clients:
            where = f"clients[{c.name}]"
            if self.rounds > 0 and c.tasks.total_rounds != self.rounds:
                raise ConfigError(
                    where + ".tasks",
                    f"round budgets sum to {c.tasks.total_rounds}, expected {self.rounds}")
            bad = [cl for t in c.tasks.tasks for cl in t.classes
                   if cl >= self.n_classes]
            if bad:
                raise ConfigError(where + ".tasks",
                                  f"classes {sorted(set(bad))} outside 0..{self.n_classes - 1}")


# -- presets -----------------------------------------------------------------

def default_mlp_layers(n_classes: int = 6, dropout: float = 0.5) -> tuple[LayerConfig, ...]:
    """Small two-hidden-layer MLP used by the synthetic presets."""
    return (
        LayerConfig("dense", units=32),
        LayerConfig("relu"),
        LayerConfig("dropout", rate=dropout),
        LayerConfig("dense", units=32),
        LayerConfig("relu"),
        LayerConfig("dropout", rate=dropout),
        LayerConfig("dense", units=n_classes),
        LayerConfig("softmax-output"),
    )


def uci_cnn_layers(n_classes: int = 6, dropout: float = 0.5) -> tuple[LayerConfig, ...]:
    """The reference CNN for 128x9 inertial windows: 196 conv filters of
    width 16, pool 4, one 1024-unit dense layer, then the classifier."""
    return (
        LayerConfig("conv1d", filters=196, kernel=16),
        LayerConfig("relu"),
        LayerConfig("maxpool1d", pool=4),
        LayerConfig("dense", units=1024),
        LayerConfig("relu"),
        LayerConfig("dropout", rate=dropout),
        LayerConfig("dense", units=n_classes),
        LayerConfig("softmax-output"),
    )


def _preset_clients(algo: str, policy_mode: str, use_exemplars: bool,
                    alpha: float, beta: float | None,
                    temperature: float) -> tuple[ClientConfig, ...]:
    observed_tasks = TaskSequence((TaskSpec((1,), 4), TaskSpec((2,), 4)))
    general_tasks = TaskSequence((TaskSpec((0, 1, 2, 3, 4, 5), 8),))
    policy = StrategyPolicy(mode=policy_mode)
    common = dict(algo=algo, alpha=alpha, beta=beta, temperature=temperature,
                  policy=policy, use_exemplars=use_exemplars)
    return (
        ClientConfig(name="client1", weight=1.0, tasks=observed_tasks, **common),
        ClientConfig(name="generalized", weight=4.0, tasks=general_tasks, **common),
    )


def preset(name: str, seed: int = 0) -> ScenarioConfig:
    """A named scenario; raises ConfigError for unknown names."""
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                                    f"known: {list(PRESET_NAMES)}")
    if name == "baseline-finetune":
        clients = _preset_clients(algo=losses.MODE_FINE_TUNE,
                                  policy_mode="fine-tune-all",
                                  use_exemplars=False,
                                  alpha=1.0, beta=None, temperature=2.0)
    else:
        algo = losses.MODE_FLWF1 if name.endswith("flwf1") else losses.MODE_FLWF2
        beta = 0.7 if algo == losses.MODE_FLWF2 else None
        policy_mode = "distill-all" if name.startswith("exp1") else "hybrid"
        use_exemplars = name.startswith("exp3")
        clients = _preset_clients(algo=algo, policy_mode=policy_mode,
                                  use_exemplars=use_exemplars,
                                  alpha=0.001, beta=beta, temperature=2.0)
    dropout = 0.5
    return ScenarioConfig(
        label=name,
        seed=seed,
        rounds=8,
        epochs=10,
        batch_size=32,
        learning_rate=0.01,
        dropout=dropout,
        n_classes=6,
        input_shape=(16,),
        layers=default_mlp_layers(n_classes=6, dropout=dropout),
        total_clients=5,
        clients=clients,
        data=SyntheticSource(per_class=1000, feature_dim=16, separation=1.5),
        round_data_size=120,
        test_per_class=100,
        exemplar_capacity=10,
    )


# -- dict / YAML conversion ----------------------------------------------------


def _require_keys(doc: dict, known: set[str], required: set[str], path: str) -> None:
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(path or "config",
                          f"unknown fields {sorted(unknown)}; known: {sorted(known)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(path or "config", f"missing fields {sorted(missing)}")


def _layers_from_list(entries, default_dropout: float) -> tuple[LayerConfig, ...]:
    layers = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"layers[{i}]", "each layer must be a mapping")
        entry = dict(entry)
        if entry.get("kind") == "dropout" and "rate" not in entry:
            entry["rate"] = default_dropout
        try:
            layers.append(layer_config_from_dict(entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"layers[{i}]", str(exc)) from exc
    return tuple(layers)


def _tasks_from_list(entries, path: str) -> TaskSequence:
    tasks = []
    for i, entry in enumerate(entries):
        where = f"{path}.tasks[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(where, "each task must be a mapping")
        _require_keys(entry, {"classes", "rounds"}, {"classes", "rounds"}, where)
        try:
            tasks.append(TaskSpec(tuple(entry["classes"]), int(entry["rounds"])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(where, str(exc)) from exc
    try:
        return TaskSequence(tuple(tasks))
    except ValueError as exc:
        raise ConfigError(f"{path}.tasks", str(exc)) from exc


def _policy_from_dict(entry, path: str) -> StrategyPolicy:
    if not isinstance(entry, dict):
        raise ConfigError(path, "policy must be a mapping")
    _require_keys(entry, {"mode", "balance_threshold"}, {"mode"}, path)
    try:
        return StrategyPolicy(mode=entry["mode"],
                              balance_threshold=float(entry.get("balance_threshold", 0.5)))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _client_from_dict(entry, index: int) -> ClientConfig:
    path = f"clients[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(path, "each client must be a mapping")
    known = {"name", "weight", "algo", "tasks", "alpha", "beta", "temperature",
             "policy", "use_exemplars"}
    _require_keys(entry, known, {"name", "weight", "algo", "tasks"}, path)
    beta = entry.get("beta")
    return ClientConfig(
        name=str(entry["name"]),
        weight=float(entry["weight"]),
        algo=str(entry["algo"]),
        tasks=_tasks_from_list(entry["tasks"], path),
        alpha=float(entry.get("alpha", 1.0)),
        beta=None if beta is None else float(beta),
        temperature=float(entry.get("temperature", 2.0)),
        policy=_policy_from_dict(entry.get("policy", {"mode": "distill-all"}),
                                 path + ".policy"),
        use_exemplars=bool(entry.get("use_exemplars", False)),
    )


def _data_from_dict(entry) -> SyntheticSource | CsvSource:
    if not isinstance(entry, dict):
        raise ConfigError("data", "data must be a mapping with a 'kind'")
    kind = entry.get("kind")
    if kind == "synthetic":
        _require_keys(entry, {"kind", "per_class", "feature_dim", "separation"},
                      {"kind"}, "data")
        return SyntheticSource(per_class=int(entry.get("per_class", 1000)),
                               feature_dim=int(entry.get("feature_dim", 16)),
                               separation=float(entry.get("separation", 1.5)))
    if kind == "csv":
        _require_keys(entry, {"kind", "path"}, {"kind", "path"}, "data")
        return CsvSource(path=str(entry["path"]))
    raise ConfigError("data.kind", f"must be 'synthetic' or 'csv', got {kind!r}")


def from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a plain mapping."""
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a mapping")
    known = {"label", "seed", "rounds", "epochs", "batch_size", "learning_rate",
             "dropout", "n_classes", "input_shape", "layers", "total_clients",
             "clients", "data", "round_data_size", "test_per_class",
             "exemplar_capacity"}
    required = {"label", "seed", "rounds", "epochs", "batch_size",
                "learning_rate", "dropout", "n_classes", "input_shape",
                "layers", "total_clients", "clients", "data"}
    _require_keys(doc, known, required, "")
    dropout = float(doc["dropout"])
    return ScenarioConfig(
        label=str(doc["label"]),
        seed=int(doc["seed"]),
        rounds=int(doc["rounds"]),
        epochs=int(doc["epochs"]),
        batch_size=int(doc["batch_size"]),
        learning_rate=float(doc["learning_rate"]),
        dropout=dropout,
        n_classes=int(doc["n_classes"]),
        input_shape=tuple(int(d) for d in doc["input_shape"]),
        layers=_layers_from_list(doc["layers"], dropout),
        total_clients=int(doc["total_clients"]),
        clients=tuple(_client_from_dict(c, i)
                      for i, c in enumerate(doc["clients"])),
        data=_data_from_dict(doc["data"]),
        round_data_size=int(doc.get("round_data_size", 120)),
        test_per_class=int(doc.get("test_per_class", 100)),
        exemplar_capacity=int(doc.get("exemplar_capacity", 10)),
    )


def to_dict(cfg: ScenarioConfig) -> dict:
    """Plain mapping that from_dict parses back to an equal config."""
    if isinstance(cfg.data, SyntheticSource):
        data = {"kind": "synthetic", "per_class": cfg.data.per_class,
                "feature_dim": cfg.data.feature_dim,
                "separation": cfg.data.separation}
    else:
        data = {"kind": "csv", "path": cfg.data.path}
    return {
        "label": cfg.label,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "dropout": cfg.dropout,
        "n_classes": cfg.n_classes,
        "input_shape": list(cfg.input_shape),
        "layers": [layer_to_dict(layer) for layer in cfg.layers],
        "total_clients": cfg.total_clients,
        "round_data_size": cfg.round_data_size,
        "test_per_class": cfg.test_per_class,
        "exemplar_capacity": cfg.exemplar_capacity,
        "data": data,
        "clients": [
            {
                "name": c.name,
                "weight": c.weight,
                "algo": c.algo,
                "alpha": c.alpha,
                "beta": c.beta,
                "temperature": c.temperature,
                "policy": {"mode": c.policy.mode,
                           "balance_threshold": c.policy.balance_threshold},
                "use_exemplars": c.use_exemplars,
                "tasks": [{"classes": list(t.classes), "rounds": t.rounds}
                          for t in c.tasks.tasks],
            }
            for c in cfg.clients
        ],
    }


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return from_dict(doc)


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_dict(cfg), fh, sort_keys=False)


def parse_config(name_or_path: str, seed: int | None = None) -> ScenarioConfig:
    """Resolve a preset name or a YAML file path; the seed argument, when
    given, overrides the config's seed."""
    if name_or_path in PRESET_NAMES:
        cfg = preset(name_or_path, seed=0 if seed is None else seed)
        return cfg
    cfg = load_config(name_or_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg
