"""Scenario configuration: validated experiment descriptions, named presets,
and a YAML file format.

A scenario bundles everything one seeded run needs: the data source, the
network architecture, the federated schedule (rounds, epochs, batch size,
learning rate), and one entry per simulated client with its task
sequence, aggregation weight, algorithm, loss coefficients, strategy
policy, and exemplar switch.

The dataclasses are the file format.  A mapping's keys are the fields of
its dataclass: a field without a default is required, an absent one
takes the dataclass default, and a value reaches its dataclass as the
file has it, to meet :func:`flwf.losses.check_fields` there as code does.
Only nested values have their own builders: layers
(a dropout layer without a rate inherits the scenario's ``dropout``),
clients, their task lists and policies, and the data source, chosen by
its ``kind``.  Unknown fields anywhere in a config file are rejected,
every validation error names the offending field path, and
:func:`to_dict` writes the same fields in declaration order.

The named presets encode the three study scenarios plus the plain
fine-tuning baseline on synthetic data: the observed client
(``client1``) sees one class for the first half of the rounds and a
second class for the rest, while the ``generalized`` client stands in
for the remaining clients with balanced all-class data and a
proportionally larger aggregation weight.
"""

import dataclasses
import functools
import math
from dataclasses import MISSING, dataclass, field
from typing import ClassVar

import yaml

from . import losses
from .continual import (POLICY_DISTILL_ALL, POLICY_FINE_TUNE_ALL, POLICY_HYBRID,
                        StrategyPolicy, TaskSequence, TaskSpec)
from .losses import ConfigError, check_fields, check_value
from .metrics import SERVER
from .network import KIND_DROPOUT, LayerConfig, infer_shapes, layer_to_dict

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


@dataclass(frozen=True)
class SyntheticSource:
    """Gaussian class clusters drawn inside the run from the experiment seed."""

    kind: ClassVar[str] = "synthetic"
    per_class: int = 1000
    feature_dim: int = 16
    separation: float = 1.5

    def __post_init__(self):
        check_fields(self)
        if self.per_class < 1:
            raise ConfigError("per_class", "must be positive")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim", "must be positive")
        if not 0 <= self.separation < math.inf:
            raise ConfigError("separation", "must be non-negative and finite")


@dataclass(frozen=True)
class CsvSource:
    """External feature CSV; last column is the integer class label."""

    kind: ClassVar[str] = "csv"
    path: str

    def __post_init__(self):
        check_fields(self)
        if not self.path:
            raise ConfigError("path", "must be a non-empty path")


_SOURCES = {cls.kind: cls for cls in (SyntheticSource, CsvSource)}


# Fields are declared in the order a config file lists them, which is the
# order to_dict writes them; keyword-only lets defaults precede the rest.
@dataclass(frozen=True, kw_only=True)
class ClientConfig:
    """One simulated client of the federation."""

    name: str
    weight: float
    algo: str
    alpha: float = 1.0
    beta: float | None = None
    temperature: float = 2.0
    policy: StrategyPolicy = field(default_factory=StrategyPolicy)
    use_exemplars: bool = False
    tasks: TaskSequence

    def __post_init__(self):
        check_fields(self)
        if not self.name:
            raise ConfigError("name", "must be non-empty")
        if not 0 < self.weight < math.inf:
            raise ConfigError("weight", "must be positive and finite")
        if self.algo not in ALGO_MODES:
            raise ConfigError("algo", f"must be one of {list(ALGO_MODES)}, got {self.algo!r}")
        error = losses.coefficient_error(self.algo, self.alpha, self.beta, self.temperature)
        if error:
            raise ConfigError(*error)


@dataclass(frozen=True, kw_only=True)
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
    total_clients: int = 5
    round_data_size: int = 120
    test_per_class: int = 100
    exemplar_capacity: int = 10
    data: SyntheticSource | CsvSource
    clients: tuple[ClientConfig, ...]

    def __post_init__(self):
        check_fields(self)
        if not self.label:
            raise ConfigError("label", "must be non-empty")
        for name, low in (("seed", 0), ("rounds", 0), ("epochs", 0), ("batch_size", 1),
                          ("n_classes", 2), ("total_clients", 1), ("round_data_size", 1),
                          ("test_per_class", 1), ("exemplar_capacity", 1)):
            if getattr(self, name) < low:
                raise ConfigError(name, "must be positive" if low == 1 else f"must be >= {low}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate", "must be positive and finite")
        _dropout_rate(self.dropout)
        if not self.clients:
            raise ConfigError("clients", "at least one client required")
        names = [c.name for c in self.clients]
        if len(set(names)) != len(names):
            raise ConfigError("clients", f"duplicate client names in {names}")
        if SERVER in names:
            raise ConfigError("clients", f"{SERVER!r} names the aggregate's records")
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
        for i, c in enumerate(self.clients):
            where = f"clients[{i}].tasks"
            if self.rounds > 0 and c.tasks.total_rounds != self.rounds:
                raise ConfigError(where, f"round budgets sum to {c.tasks.total_rounds}, "
                                         f"expected {self.rounds}")
            bad = [cl for t in c.tasks.tasks for cl in t.classes
                   if cl >= self.n_classes]
            if bad:
                raise ConfigError(where,
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


def preset(name: str, seed: int = 0) -> ScenarioConfig:
    """A named scenario; raises ConfigError for unknown names."""
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                                    f"known: {list(PRESET_NAMES)}")
    if name == "baseline-finetune":
        common = dict(algo=losses.MODE_FINE_TUNE,
                      policy=StrategyPolicy(mode=POLICY_FINE_TUNE_ALL))
    else:
        algo = losses.MODE_FLWF1 if name.endswith("flwf1") else losses.MODE_FLWF2
        common = dict(algo=algo, alpha=0.001,
                      policy=StrategyPolicy(mode=POLICY_DISTILL_ALL
                                            if name.startswith("exp1") else POLICY_HYBRID),
                      use_exemplars=name.startswith("exp3"))
        if algo == losses.MODE_FLWF2:
            common["beta"] = 0.7
    observed_tasks = TaskSequence((TaskSpec((1,), 4), TaskSpec((2,), 4)))
    general_tasks = TaskSequence((TaskSpec((0, 1, 2, 3, 4, 5), 8),))
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
        clients=(
            ClientConfig(name="client1", weight=1.0, tasks=observed_tasks, **common),
            ClientConfig(name="generalized", weight=4.0, tasks=general_tasks, **common),
        ),
        data=SyntheticSource(),
    )


# -- dict / YAML conversion ----------------------------------------------------


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _build(cls, doc, path: str, **convert):
    """``cls`` from a mapping whose keys are its fields: a field without a
    default is required, ``convert[name](value, field_path)`` builds the
    nested ones, and every other value goes to ``cls`` as it is.  Errors
    carry the field path; a field a dataclass names is taken below ``path``."""
    where = path or "config"
    if not isinstance(doc, dict):
        raise ConfigError(where, "must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(where, f"unknown fields {sorted(map(str, unknown))}; "
                                 f"known: {sorted(fields)}")
    missing = {name for name, f in fields.items() if name not in doc
               and f.default is MISSING and f.default_factory is MISSING}
    if missing:
        raise ConfigError(where, f"missing fields {sorted(missing)}")
    values = {name: convert[name](doc[name], _join(path, name)) if name in convert
              else doc[name] for name in fields if name in doc}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from exc
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _each(build):
    """Converter for a list whose entries ``build(entry, entry_path)`` makes."""
    def each(entries, path):
        if not isinstance(entries, list):
            raise ConfigError(path, f"must be a list, got {entries!r}")
        return tuple(build(e, f"{path}[{i}]") for i, e in enumerate(entries))
    return each


def _client(entry, path: str) -> ClientConfig:
    specs = _each(functools.partial(_build, TaskSpec))
    return _build(ClientConfig, entry, path,
                  policy=functools.partial(_build, StrategyPolicy),
                  # a file lists the sequence's tasks right at the client's ``tasks``
                  tasks=lambda entries, sub: _build(TaskSequence, {"tasks": entries}, sub,
                                                    tasks=lambda *_: specs(entries, sub)))


def _source(entry, path: str) -> SyntheticSource | CsvSource:
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if kind not in _SOURCES:
        raise ConfigError(path + ".kind", f"must be one of {list(_SOURCES)}, got {kind!r}")
    return _build(_SOURCES[kind], {k: v for k, v in entry.items() if k != "kind"}, path)


def _dropout_rate(value) -> float:
    """``value`` as a scenario's ``dropout``: a float in [0, 1), else a
    ConfigError at ``dropout``."""
    rate = check_value(float, value, "dropout")
    if not 0.0 <= rate < 1.0:
        raise ConfigError("dropout", "must lie in [0, 1)")
    return rate


def from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a plain mapping."""

    def layer(entry, path):
        if (isinstance(entry, dict) and entry.get("kind") == KIND_DROPOUT
                and "rate" not in entry):
            # checked here, or a bad ``dropout`` is named at the layer
            entry = {**entry, "rate": _dropout_rate(doc["dropout"])}
        return _build(LayerConfig, entry, path)

    return _build(ScenarioConfig, doc, "",
                  layers=_each(layer), clients=_each(_client), data=_source)


def _plain(value):
    """A config value as plain lists and mappings, fields in declaration order."""
    if isinstance(value, LayerConfig):
        return layer_to_dict(value)
    if isinstance(value, TaskSequence):
        value = value.tasks
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    doc = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple(_SOURCES.values())):
        doc = {"kind": value.kind, **doc}
    return doc


def to_dict(cfg: ScenarioConfig) -> dict:
    """Plain mapping that from_dict parses back to an equal config."""
    return _plain(cfg)


# libyaml's safe loader and dumper when PyYAML was built with it: they read
# the same mappings and write the same text, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(yaml.load(fh, Loader=_LOADER))


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(to_dict(cfg), fh, Dumper=_DUMPER, sort_keys=False)


def parse_config(name_or_path: str, seed: int | None = None) -> ScenarioConfig:
    """Resolve a preset name or a YAML file path; the seed argument, when
    given, overrides the config's seed."""
    if name_or_path in PRESET_NAMES:
        cfg = preset(name_or_path)
    else:
        cfg = load_config(name_or_path)
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)
