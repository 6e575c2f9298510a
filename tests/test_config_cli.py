"""Scenario configuration, YAML round-trips, and the command-line tools."""

import copy
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flwf import cli
from flwf.config import (PRESET_NAMES, ClientConfig, ConfigError, CsvSource,
                         ScenarioConfig, SyntheticSource, from_dict, load_config,
                         parse_config, preset, save_config, to_dict)
from flwf.continual import StrategyPolicy, TaskSequence, TaskSpec
from flwf.datasets import generate_synthetic, save_csv
from flwf.metrics import SERVER, MetricsLedger
from flwf.network import KIND_DROPOUT, LayerConfig, TrainConfig

EXAMPLE_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                "example-scenario.yaml")


def tiny_doc(seed=0, rounds=2):
    budgets = {1: [1, 1], 2: [1, 1], 3: [2, 1], 4: [2, 2]}[rounds]
    return {
        "label": "tiny", "seed": seed, "rounds": rounds, "epochs": 2,
        "batch_size": 16, "learning_rate": 0.05, "dropout": 0.2,
        "n_classes": 3, "input_shape": [8],
        "layers": [
            {"kind": "dense", "units": 16}, {"kind": "relu"},
            {"kind": "dropout"},
            {"kind": "dense", "units": 3}, {"kind": "softmax-output"},
        ],
        "total_clients": 2,
        "clients": [
            {"name": "c1", "weight": 1.0, "algo": "flwf2",
             "alpha": 0.4, "beta": 0.3,
             "tasks": [{"classes": [1], "rounds": budgets[0]},
                       {"classes": [2], "rounds": budgets[1]}],
             "policy": {"mode": "hybrid"}},
            {"name": "cg", "weight": 4.0, "algo": "flwf2",
             "alpha": 0.4, "beta": 0.3,
             "tasks": [{"classes": [0, 1, 2], "rounds": rounds}],
             "policy": {"mode": "hybrid"}},
        ],
        "data": {"kind": "synthetic", "per_class": 120, "feature_dim": 8,
                 "separation": 1.5},
        "round_data_size": 24, "test_per_class": 10, "exemplar_capacity": 5,
    }


# -- presets ---------------------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_builds_and_keeps_its_name(name):
    cfg = preset(name, seed=3)
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.label == name
    assert cfg.seed == 3


def test_preset_shared_protocol_constants():
    cfg = preset("exp2-hybrid-flwf2")
    assert (cfg.rounds, cfg.epochs, cfg.batch_size) == (8, 10, 32)
    assert (cfg.learning_rate, cfg.dropout) == (0.01, 0.5)
    assert (cfg.n_classes, cfg.input_shape) == (6, (16,))
    assert (cfg.round_data_size, cfg.test_per_class) == (120, 100)
    assert (cfg.exemplar_capacity, cfg.total_clients) == (10, 5)
    c1, cg = cfg.clients
    assert (c1.name, c1.weight) == ("client1", 1.0)
    assert (cg.name, cg.weight) == ("generalized", 4.0)
    assert tuple(t.classes for t in c1.tasks.tasks) == ((1,), (2,))
    assert tuple(t.rounds for t in c1.tasks.tasks) == (4, 4)
    assert tuple(t.classes for t in cg.tasks.tasks) == ((0, 1, 2, 3, 4, 5),)
    assert c1.alpha == 0.001 and c1.beta == 0.7 and c1.temperature == 2.0


def test_preset_family_differences():
    assert preset("exp1-flwf1").clients[0].policy.mode == "distill-all"
    assert preset("exp2-hybrid-flwf1").clients[0].policy.mode == "hybrid"
    assert preset("exp2-hybrid-flwf1").clients[0].beta is None
    assert not preset("exp2-hybrid-flwf2").clients[0].use_exemplars
    assert preset("exp3-exemplars-flwf2").clients[0].use_exemplars
    base = preset("baseline-finetune").clients[0]
    assert base.algo == "fine-tune"
    assert base.policy.mode == "fine-tune-all"
    assert base.alpha == 1.0 and base.beta is None


def test_unknown_preset_has_a_helpful_error():
    with pytest.raises(ConfigError) as err:
        preset("exp9")
    assert "preset" in str(err.value) and "exp9" in str(err.value)


# -- dict and YAML conversion -----------------------------------------------------


def test_from_dict_accepts_tiny_doc():
    cfg = from_dict(tiny_doc())
    assert cfg.label == "tiny"
    assert cfg.clients[0].tasks.total_rounds == 2
    assert isinstance(cfg.data, SyntheticSource)


def test_to_dict_from_dict_round_trip():
    for name in ("exp2-hybrid-flwf2", "exp3-exemplars-flwf1", "baseline-finetune"):
        doc = to_dict(preset(name, seed=4))
        assert to_dict(from_dict(doc)) == doc


def test_yaml_round_trip(tmp_path):
    cfg = preset("exp3-exemplars-flwf2", seed=6)
    path = tmp_path / "scenario.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert to_dict(loaded) == to_dict(cfg)
    # the file itself is plain yaml with the label at face value
    doc = yaml.safe_load(path.read_text())
    assert doc["label"] == "exp3-exemplars-flwf2"


def test_total_clients_may_be_omitted(tmp_path):
    """A YAML without ``total_clients`` parses to the same scenario, and
    writes the same resolved_config.yaml, as one that sets it to 5."""
    doc = to_dict(preset("exp2-hybrid-flwf2", seed=2))
    assert doc["total_clients"] == 5
    written, omitted = tmp_path / "written.yaml", tmp_path / "omitted.yaml"
    written.write_text(yaml.safe_dump(doc))
    del doc["total_clients"]
    omitted.write_text(yaml.safe_dump(doc))
    configs = [load_config(path) for path in (written, omitted)]
    assert configs[0] == configs[1]
    resolved = []
    for i, cfg in enumerate(configs):
        save_config(cfg, tmp_path / f"resolved{i}.yaml")
        resolved.append((tmp_path / f"resolved{i}.yaml").read_bytes())
    assert resolved[0] == resolved[1]
    assert b"total_clients: 5" in resolved[0]


def test_dropout_layers_inherit_scenario_rate():
    cfg = from_dict(tiny_doc())
    rates = [layer.rate for layer in cfg.layers if layer.kind == KIND_DROPOUT]
    assert rates == [0.2]


def test_unknown_top_level_field_rejected_with_name():
    doc = tiny_doc()
    doc["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "bogus" in str(err.value)


def test_unknown_client_field_rejected_with_path():
    doc = tiny_doc()
    doc["clients"][0]["mystery"] = True
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "clients[0]" in str(err.value) and "mystery" in str(err.value)


def test_alpha_beta_budget_rejected():
    doc = tiny_doc()
    doc["clients"][0]["alpha"] = 0.5
    doc["clients"][0]["beta"] = 0.6
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "beta" in str(err.value) and "exceeds 1" in str(err.value)


@pytest.mark.parametrize("changes, message", [
    ({"alpha": 1.5}, "clients[0].alpha: must lie in [0, 1]"),
    ({"temperature": 0.0}, "clients[0].temperature: must be positive"),
    ({"beta": None}, "clients[0].beta: required for flwf2"),
    ({"algo": "flwf1"}, "clients[0].beta: only flwf2 uses beta"),
])
def test_client_coefficient_errors_name_their_field(changes, message):
    doc = tiny_doc()
    doc["clients"][0].update(changes)
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert str(err.value).startswith(message)


def test_round_budget_mismatch_rejected():
    doc = tiny_doc()
    doc["rounds"] = 3
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "clients[0].tasks" in str(err.value)


def test_client_named_like_the_aggregate_rejected():
    """The ledger records the aggregate under ``metrics.SERVER``; a client of
    that name would fail only once round 1 had trained."""
    doc = tiny_doc()
    doc["clients"][0]["name"] = SERVER
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert str(err.value).startswith(f"clients: {SERVER!r} names the aggregate")


def test_out_of_range_class_rejected():
    doc = tiny_doc()
    doc["clients"][0]["tasks"][1]["classes"] = [7]
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "7" in str(err.value)


def test_missing_required_field_rejected():
    doc = tiny_doc()
    del doc["learning_rate"]
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "learning_rate" in str(err.value)


def _defaults(cls) -> dict:
    """The value each optional field of ``cls`` takes when a file omits it."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = dataclasses.asdict(f.default_factory())
    return out


def _optional_keys(doc) -> list:
    """(container path, key, value an omitted key stands for) for every key
    of a preset document that a config file may leave out."""
    keys = [((), k, v) for k, v in _defaults(ScenarioConfig).items()]
    keys += [(("data",), k, v) for k, v in _defaults(SyntheticSource).items()]
    for i in range(len(doc["clients"])):
        keys += [(("clients", i), k, v) for k, v in _defaults(ClientConfig).items()]
        keys += [(("clients", i, "policy"), k, v)
                 for k, v in _defaults(StrategyPolicy).items()]
    keys += [(("layers", k), "rate", doc["dropout"])
             for k, layer in enumerate(doc["layers"]) if layer["kind"] == KIND_DROPOUT]
    return keys


def _container(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _field_path(path) -> str:
    """``("clients", 0, "policy")`` -> ``clients[0].policy``; () -> ``config``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in path).lstrip(".") or "config"


def _outcome(doc):
    try:
        return to_dict(from_dict(doc))
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRESET_NAMES), st.data())
def test_omitted_optional_keys_take_their_defaults(name, data):
    doc = to_dict(preset(name, seed=1))
    keys = _optional_keys(doc)
    chosen = data.draw(st.lists(st.sampled_from(keys), unique_by=lambda c: c[:2]))
    dropped, filled = copy.deepcopy(doc), copy.deepcopy(doc)
    # fill parents before their children, drop children before their parents
    for path, key, value in sorted(chosen, key=lambda c: len(c[0])):
        _container(filled, path)[key] = copy.deepcopy(value)
    for path, key, _ in sorted(chosen, key=lambda c: -len(c[0])):
        _container(dropped, path).pop(key)
    assert _outcome(dropped) == _outcome(filled)


def test_a_preset_without_any_optional_key_parses_to_the_defaults():
    doc = to_dict(preset("baseline-finetune", seed=1))
    for path, key, _ in sorted(_optional_keys(doc), key=lambda c: -len(c[0])):
        _container(doc, path).pop(key)
    cfg = from_dict(doc)
    assert (cfg.round_data_size, cfg.test_per_class, cfg.exemplar_capacity) == (120, 100, 10)
    assert cfg.data == SyntheticSource(per_class=1000, feature_dim=16, separation=1.5)
    for c in cfg.clients:
        assert (c.alpha, c.beta, c.temperature, c.use_exemplars) == (1.0, None, 2.0, False)
        assert c.policy == StrategyPolicy(mode="distill-all", balance_threshold=0.5)
    assert [layer.rate for layer in cfg.layers if layer.kind == KIND_DROPOUT] == [0.5, 0.5]


@pytest.mark.parametrize("path", [
    (), ("clients", 1), ("clients", 0, "policy"), ("clients", 1, "tasks", 0),
    ("data",), ("layers", 2),
])
def test_unknown_key_is_rejected_with_its_path_at_every_level(path):
    doc = tiny_doc()
    _container(doc, path)["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert str(err.value).startswith(f"{_field_path(path)}: unknown fields ['bogus']")


def test_unknown_keys_of_mixed_types_are_listed():
    doc = tiny_doc()
    doc.update({1: "x", "zz": 2})
    with pytest.raises(ConfigError, match=r"^config: unknown fields \['1', 'zz'\]"):
        from_dict(doc)


@pytest.mark.parametrize("path, key, value", [
    ((), "rounds", "many"),
    (("clients", 0), "weight", "heavy"),
    (("clients", 0, "policy"), "balance_threshold", [0.3]),
    (("clients", 0, "tasks", 1), "rounds", None),
    (("data",), "per_class", "lots"),
    (("layers", 0), "units", "wide"),
    ((), "dropout", "0.2"),  # inherited by a rate-less dropout layer
    ((), "dropout", True),
    ((), "dropout", 1.5),  # out of range: named as the scenario's, not the layer's
])
def test_uncoercible_value_is_rejected_with_its_field_path(path, key, value):
    doc = tiny_doc()
    _container(doc, path)[key] = value
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert str(err.value).startswith(_field_path((*path, key)) + ": ")


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_bool_field_takes_only_true_or_false(value):
    doc = tiny_doc()
    doc["clients"][0]["use_exemplars"] = value
    with pytest.raises(ConfigError, match=r"^clients\[0\]\.use_exemplars: "):
        from_dict(doc)
    doc["clients"][0]["use_exemplars"] = False
    assert from_dict(doc).clients[0].use_exemplars is False


@pytest.mark.parametrize("index, layer", [
    (1, {"kind": "relu", "units": 5}),
    (0, {"kind": "dense", "units": 32, "rate": 0.3}),
], ids=["relu-units", "dense-rate"])
def test_a_layer_field_its_kind_does_not_use_is_rejected(index, layer):
    doc = tiny_doc()
    doc["layers"][index] = layer
    kind, field = layer["kind"], list(layer)[-1]
    with pytest.raises(ConfigError,
                       match=rf"^layers\[{index}\]: {kind} layer takes no {field}$"):
        from_dict(doc)


def test_policy_mode_may_be_omitted():
    doc = tiny_doc()
    doc["clients"][0]["policy"] = {"balance_threshold": 0.3}
    policy = from_dict(doc).clients[0].policy
    assert policy == StrategyPolicy(mode="distill-all", balance_threshold=0.3)


def test_example_scenario_is_the_hybrid_flwf2_preset_apart_from_its_label():
    example = to_dict(load_config(EXAMPLE_SCENARIO))
    reference = to_dict(preset("exp2-hybrid-flwf2", seed=0))
    assert example.pop("label") != reference.pop("label")
    assert example == reference


def test_config_error_carries_its_path():
    err = ConfigError("clients[0].beta", "required for flwf2")
    assert str(err) == "clients[0].beta: required for flwf2"


def test_parse_config_accepts_preset_names_and_paths(tmp_path):
    assert parse_config("exp1-flwf1", seed=2).seed == 2
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_doc(seed=3)))
    assert parse_config(str(path)).seed == 3
    assert parse_config(str(path), seed=11).seed == 11


# -- cli: run -----------------------------------------------------------------------


def write_tiny_config(tmp_path, seed=0, rounds=2, name="tiny.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tiny_doc(seed=seed, rounds=rounds)))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_run_writes_all_four_artifacts(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_dir = str(tmp_path / "run0")
    code, out, err = run_cli(["run", "--config", cfg, "--out", out_dir], capsys)
    assert code == 0, err
    for name in (cli.METRICS_NAME, cli.FIGURE_NAME, cli.SUMMARY_NAME,
                 cli.RESOLVED_NAME):
        assert os.path.exists(os.path.join(out_dir, name))
        assert os.path.join(out_dir, name) in out
    summary = json.loads(Path(out_dir, cli.SUMMARY_NAME).read_text())
    assert summary["label"] == "tiny"
    assert set(summary["metrics"]) == {"c1", "cg", "server"}
    assert summary["modes"]["c1"]["1"] in ("flwf2", "fine-tune")
    resolved = load_config(os.path.join(out_dir, cli.RESOLVED_NAME))
    assert resolved.label == "tiny"


def test_run_outputs_are_byte_identical_across_reruns(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, seed=5)
    dirs = [str(tmp_path / d) for d in ("a", "b")]
    for d in dirs:
        code, _, err = run_cli(["run", "--config", cfg, "--out", d], capsys)
        assert code == 0, err
    for name in (cli.METRICS_NAME, cli.FIGURE_NAME, cli.SUMMARY_NAME,
                 cli.RESOLVED_NAME):
        a = Path(dirs[0], name).read_bytes()
        b = Path(dirs[1], name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_seed_override_lands_in_outputs(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, seed=0)
    out_dir = str(tmp_path / "seeded")
    code, _, _ = run_cli(["run", "--config", cfg, "--seed", "9",
                          "--out", out_dir], capsys)
    assert code == 0
    summary = json.loads(Path(out_dir, cli.SUMMARY_NAME).read_text())
    assert summary["seed"] == 9
    assert load_config(os.path.join(out_dir, cli.RESOLVED_NAME)).seed == 9


def test_run_default_out_dir_uses_label_and_seed(tmp_path, capsys, monkeypatch):
    cfg = write_tiny_config(tmp_path, seed=4)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    assert os.path.exists(tmp_path / "out" / "tiny-seed4" / cli.SUMMARY_NAME)


def test_run_requires_exactly_one_source(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code, _, err = run_cli(["run", "--config", cfg, "--preset", "exp1-flwf1"],
                           capsys)
    assert code == 1 and "error:" in err
    code, _, err = run_cli(["run"], capsys)
    assert code == 1 and "error:" in err


def test_run_reports_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(["run", "--config", str(tmp_path / "nope.yaml")],
                           capsys)
    assert code == 1 and "error:" in err


def test_run_reports_yaml_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("label: [unclosed\n")
    code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("path, value, message", [
    (("rounds",), 8.9, "must be an integer, got 8.9"),
    (("seed",), 7.5, "must be an integer, got 7.5"),
    (("layers", 0, "units"), 32.7, "must be an integer, got 32.7"),
    (("input_shape",), [16.4], "must be an integer, got 16.4"),
    (("clients", 0, "tasks", 0, "classes"), [1.7], "must be an integer, got 1.7"),
    (("epochs",), True, "must be an integer, got True"),
    (("learning_rate",), True, "must be a number, got True"),
    (("clients", 0, "name"), True, "must be a string, got True"),
    (("learning_rate",), math.nan, "must be a finite number, got nan"),
    (("learning_rate",), math.inf, "must be a finite number, got inf"),
    (("clients", 0, "temperature"), math.nan, "must be a finite number, got nan"),
    (("clients", 0, "temperature"), math.inf, "must be a finite number, got inf"),
    (("clients", 0, "weight"), math.nan, "must be a finite number, got nan"),
    (("clients", 0, "weight"), math.inf, "must be a finite number, got inf"),
    (("data", "separation"), math.nan, "must be a finite number, got nan"),
    (("data", "separation"), math.inf, "must be a finite number, got inf"),
    (("seed",), -3, "must be >= 0"),
], ids=["rounds", "seed", "units", "input-shape", "classes", "epochs", "learning-rate",
        "name", "learning-rate-nan", "learning-rate-inf", "temperature-nan",
        "temperature-inf", "weight-nan", "weight-inf", "separation-nan", "separation-inf",
        "negative-seed"])
def test_run_rejects_a_number_it_would_have_to_truncate(tmp_path, capsys, path,
                                                        value, message):
    """Each value used to be truncated (or a bool read as 1, or as the
    name "True"), or to run into round 1: a non-finite number failed with
    non-finite parameters or logits, or ended a run in an empty error, or
    (``temperature: .inf``) zeroed both distillation terms, and a negative
    seed failed inside numpy naming no field.  Now the run ends in one
    error line naming the field, before any output exists."""
    with open(EXAMPLE_SCENARIO, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    _container(doc, path[:-1])[path[-1]] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 1
    assert err == f"error: {_field_path(path)}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dataclasses_built_in_code_reject_non_finite_numbers(value):
    """A dataclass built in code holds its float fields to the same rule
    as a config file, and names the field."""
    scenario = preset("exp1-flwf1", seed=1)
    client = scenario.clients[0]
    builds = {
        "separation": lambda: SyntheticSource(separation=value),
        "learning_rate": lambda: dataclasses.replace(scenario, learning_rate=value),
        "weight": lambda: dataclasses.replace(client, weight=value),
    }
    for field, build in builds.items():
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.path == field


@pytest.mark.parametrize("field, value", [
    ("epochs", 1.5), ("rounds", 8.0), ("batch_size", True), ("seed", False),
    ("exemplar_capacity", 2.5), ("data.per_class", 100.0), ("data.feature_dim", True),
])
def test_int_fields_built_in_code_reject_fractions_and_bools(field, value):
    """A config built in code holds its int fields to the same rule as a
    config file: a float, whole or not, or a bool is rejected with the
    field's name, and a numpy int is stored as an int."""
    scenario = preset("exp1-flwf1")
    name = field.removeprefix("data.")
    if name != field:
        def build(v):
            return SyntheticSource(**{name: v})
    else:
        def build(v):
            return dataclasses.replace(scenario, **{name: v})
    with pytest.raises(ConfigError, match=f"must be an integer, got {value!r}") as err:
        build(value)
    assert err.value.path == name
    assert type(getattr(build(np.int64(8)), name)) is int


@pytest.mark.parametrize("budgets", [(3.5, 4.5), (4.0, 4.0), (True, 7)])
def test_task_budgets_built_in_code_must_be_integers(budgets):
    """Budgets that sum to the rounds but are no ints are rejected when
    the task is built, not in round 1."""
    with pytest.raises(ConfigError, match=f"^rounds: must be an integer, got {budgets[0]!r}$"):
        TaskSequence((TaskSpec((1,), budgets[0]), TaskSpec((2,), budgets[1])))
    assert type(TaskSpec((1,), np.int64(4)).rounds) is int


# -- one rule for config values ---------------------------------------------------

CONFIG_CLASSES = (ScenarioConfig, ClientConfig, StrategyPolicy, TaskSpec, TaskSequence,
                  SyntheticSource, CsvSource, LayerConfig, TrainConfig)


def _valid_config(cls):
    scenario = preset("exp2-hybrid-flwf2", seed=1)
    client = scenario.clients[0]
    return {ScenarioConfig: scenario, ClientConfig: client, StrategyPolicy: client.policy,
            TaskSequence: client.tasks, TaskSpec: client.tasks.tasks[0],
            SyntheticSource: scenario.data, CsvSource: CsvSource(path="pool.csv"),
            LayerConfig: scenario.layers[0], TrainConfig: TrainConfig(0.01, 32, 10)}[cls]


def _wrong_value(annotation):
    """A value the rule of ``annotation`` refuses; an annotation this does
    not know raises, so a field added without a rule fails here."""
    scalars = {bool: "false", int: 2.0, float: True, str: 3}
    if annotation in scalars:
        return scalars[annotation]
    args = [a for a in getattr(annotation, "__args__", ()) if a is not type(None)]
    if getattr(annotation, "__origin__", None) is tuple:
        return [_wrong_value(args[0])]
    if len(args) == 1:  # X | None
        return _wrong_value(args[0])
    if all(map(dataclasses.is_dataclass, args or [annotation])):
        return {"kind": "dense"}  # a mapping where a config instance belongs
    raise AssertionError(f"no wrong value known for {annotation!r}")


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
], ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_every_config_field_refuses_a_value_of_the_wrong_type(cls, name):
    """Each field of each config dataclass is held to its annotation's
    rule when the dataclass is built, and the error names the field."""
    annotation = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    value = _wrong_value(annotation)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(_valid_config(cls), **{name: value})
    assert err.value.path == name
    assert err.value.message.startswith("must be ")


@pytest.mark.parametrize("build, message", [
    (lambda c: dataclasses.replace(c.clients[0], use_exemplars="false"),
     "use_exemplars: must be true or false, got 'false'"),
    (lambda c: dataclasses.replace(c.clients[0], name=3), "name: must be a string, got 3"),
    (lambda c: dataclasses.replace(c, label=5), "label: must be a string, got 5"),
    (lambda c: CsvSource(path=5), "path: must be a string, got 5"),
    (lambda c: StrategyPolicy(balance_threshold=True),
     "balance_threshold: must be a number, got True"),
    (lambda c: dataclasses.replace(c, input_shape=(16.0,)),
     "input_shape: must be an integer, got 16.0"),
    (lambda c: TrainConfig(0.01, 32, 1.5), "epochs: must be an integer, got 1.5"),
    (lambda c: TrainConfig(0.01, 2.5, 1), "batch_size: must be an integer, got 2.5"),
    (lambda c: dataclasses.replace(c.clients[0], policy="hybrid"),
     "policy: must be a StrategyPolicy, got 'hybrid'"),
    (lambda c: dataclasses.replace(c.clients[0], tasks=list(c.clients[0].tasks.tasks)),
     "tasks: must be a TaskSequence, got [TaskSpec("),
    (lambda c: dataclasses.replace(c, data={"kind": "synthetic"}),
     "data: must be a SyntheticSource or CsvSource, got {'kind': 'synthetic'}"),
    (lambda c: TaskSpec((3.0,), 3), "classes: must be an integer, got 3.0"),
    (lambda c: dataclasses.replace(c, rounds=8.0), "rounds: must be an integer, got 8.0"),
], ids=["use-exemplars", "name", "label", "csv-path", "threshold", "input-shape",
        "epochs", "batch-size", "policy", "tasks", "data", "class-id", "rounds"])
def test_values_code_used_to_slip_past_are_refused_at_construction(build, message):
    """Each of these was accepted from code (``rounds=8.0`` only from a
    file): ``use_exemplars="false"`` ran with exemplars, and
    ``policy="hybrid"`` failed in round 1."""
    with pytest.raises(ConfigError) as err:
        build(preset("exp2-hybrid-flwf2", seed=1))
    assert str(err.value).startswith(message)


def test_a_whole_float_round_count_is_refused_from_a_file_too():
    doc = tiny_doc()
    doc["rounds"] = 8.0
    with pytest.raises(ConfigError, match=r"^rounds: must be an integer, got 8\.0$"):
        from_dict(yaml.safe_load(yaml.safe_dump(doc)))


def test_an_int_learning_rate_from_code_is_stored_and_written_as_a_float(tmp_path):
    cfg = dataclasses.replace(preset("exp1-flwf1"), learning_rate=1)
    assert type(cfg.learning_rate) is float
    save_config(cfg, tmp_path / "resolved.yaml")
    assert b"learning_rate: 1.0\n" in (tmp_path / "resolved.yaml").read_bytes()


def _at(path, build):
    """``build()``, its error named at ``path`` as :func:`from_dict` names it."""
    try:
        return build()
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}", exc.message) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _in_code(doc):
    """The scenario ``doc`` describes, built by calling each dataclass in
    the order :func:`from_dict` builds them (a field's nested values before
    the field's owner, fields in declaration order)."""
    layers = tuple(_at(f"layers[{i}]", lambda: LayerConfig(**entry))
                   for i, entry in enumerate(doc["layers"]))
    source = {"synthetic": SyntheticSource, "csv": CsvSource}[doc["data"]["kind"]]
    data = _at("data", lambda: source(**{k: v for k, v in doc["data"].items()
                                         if k != "kind"}))
    clients = []
    for i, entry in enumerate(doc["clients"]):
        where = f"clients[{i}]"
        policy = _at(f"{where}.policy", lambda: StrategyPolicy(**entry["policy"]))
        specs = tuple(_at(f"{where}.tasks[{j}]", lambda: TaskSpec(**task))
                      for j, task in enumerate(entry["tasks"]))
        tasks = _at(f"{where}.tasks", lambda: TaskSequence(specs))
        clients.append(_at(where, lambda: ClientConfig(
            **{**entry, "policy": policy, "tasks": tasks})))
    return ScenarioConfig(**{**doc, "layers": layers, "data": data, "clients": tuple(clients)})


def _scalar_leaves(doc, path=()):
    """The path of every scalar in ``doc``, list entries included, but for
    the source's ``kind``, which picks the dataclass to call."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_leaves(value, (*path, key))
        elif (*path, key) != ("data", "kind"):
            yield (*path, key)


SCALARS = st.one_of(
    st.integers(), st.integers(-2, 40), st.integers(-2, 40).map(float),
    st.floats(-2, 40, allow_nan=False), st.booleans(), st.none(),
    st.sampled_from(["", "x", "1", "true", "hybrid", "dense", "flwf1"]),
    st.sampled_from([math.nan, math.inf, -math.inf]))


def _code_outcome(doc):
    try:
        return to_dict(_in_code(doc))
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("tiny", *PRESET_NAMES)), st.data())
def test_a_file_and_code_accept_and_refuse_the_same_scenarios(base, data):
    """Scalars of a valid scenario are replaced by drawn values.  Built in
    code and parsed from the YAML of the same mapping, the scenario is
    refused by both with one message, or accepted by both as equal
    configs; and an accepted config's resolved YAML parses back to the
    same bytes."""
    doc = to_dict(from_dict(tiny_doc()) if base == "tiny" else preset(base, seed=2))
    leaves = list(_scalar_leaves(doc))
    for path in data.draw(st.lists(st.sampled_from(leaves), max_size=3, unique=True)):
        _container(doc, path[:-1])[path[-1]] = data.draw(SCALARS)
    in_code = _code_outcome(copy.deepcopy(doc))
    from_file = _outcome(yaml.safe_load(yaml.safe_dump(doc)))
    assert in_code == from_file
    if isinstance(from_file, dict):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.yaml"), os.path.join(tmp, "b.yaml")
            save_config(from_dict(from_file), first)
            save_config(load_config(first), second)
            assert Path(first).read_bytes() == Path(second).read_bytes()


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["run", "--config", EXAMPLE_SCENARIO, "--seed", "-1",
                            "--out", str(out_dir)], capsys)
    assert code == 1
    assert err == "error: seed: must be >= 0\n"
    assert not out_dir.exists()


def test_run_failure_leaves_no_partial_outputs(tmp_path, capsys):
    # a 150-per-class test draw overruns the 120-per-class pool, so the run
    # dies after config validation but before any artifact is final
    doc = tiny_doc()
    doc["test_per_class"] = 150
    cfg = tmp_path / "starved.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out_dir = str(tmp_path / "broken")
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", out_dir],
                           capsys)
    assert code == 1 and "error:" in err
    if os.path.isdir(out_dir):
        assert os.listdir(out_dir) == []


@pytest.mark.parametrize("failing", ["csv_rows", "figure_rows", "summarize",
                                     "save_config"])
def test_failed_write_removes_every_artifact_already_written(tmp_path, capsys,
                                                             monkeypatch, failing):
    """A writer that raises midway (after metrics.csv and figure_data.csv,
    inside an opened summary.json, ...) leaves no file behind."""
    def boom(*args, **kwargs):
        raise RuntimeError(f"{failing} failed")

    if failing == "summarize":
        monkeypatch.setattr(cli, "summarize", boom)
    elif failing == "save_config":
        monkeypatch.setattr(cli.config_mod, "save_config", boom)
    else:
        monkeypatch.setattr(MetricsLedger, failing, boom)
    cfg = write_tiny_config(tmp_path)
    out_dir = tmp_path / "failed"
    code, out, err = run_cli(["run", "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert code == 1 and f"error: {failing} failed" in err
    assert out == ""
    assert os.listdir(out_dir) == []


def test_run_names_an_empty_data_csv_by_its_option(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["run", "--preset", "exp1-flwf1", "--data-csv", "",
                              "--out", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert err == "error: --data-csv: must be a non-empty path\n"
    assert not out_dir.exists()


def test_run_data_csv_override(tmp_path, capsys):
    pool = generate_synthetic(n_classes=3, per_class=120, feature_dim=8,
                              separation=1.5, seed=0)
    csv_path = str(tmp_path / "pool.csv")
    save_csv(pool, csv_path)
    cfg = write_tiny_config(tmp_path)
    out_dir = str(tmp_path / "csvrun")
    code, _, err = run_cli(["run", "--config", cfg, "--data-csv", csv_path,
                            "--out", out_dir], capsys)
    assert code == 0, err
    resolved = load_config(os.path.join(out_dir, cli.RESOLVED_NAME))
    assert isinstance(resolved.data, CsvSource)
    assert resolved.data.path == csv_path


# -- cli: compare ---------------------------------------------------------------


def finished_run(tmp_path, capsys, seed, rounds=2, tag=""):
    cfg = write_tiny_config(tmp_path, seed=seed, rounds=rounds,
                            name=f"cfg{seed}{tag}.yaml")
    out_dir = str(tmp_path / f"run-{seed}{tag}")
    code, _, err = run_cli(["run", "--config", cfg, "--out", out_dir], capsys)
    assert code == 0, err
    return out_dir


def test_compare_tabulates_runs(tmp_path, capsys):
    runs = [finished_run(tmp_path, capsys, seed) for seed in (1, 2)]
    table_csv = str(tmp_path / "cmp.csv")
    code, out, err = run_cli(["compare", *runs, "--out", table_csv], capsys)
    assert code == 0
    assert err == ""
    header = out.splitlines()[0].split()
    assert header == list(cli.COMPARE_COLUMNS)
    with open(table_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.COMPARE_COLUMNS)
    assert len(rows) == 3
    # formatted cells agree with the underlying summaries to print precision
    summary = json.loads(Path(runs[0], cli.SUMMARY_NAME).read_text())
    assert rows[1][2] == f"{summary['metrics']['c1']['A_gen']:.4f}"
    assert rows[1][7] == f"{summary['metrics']['c1']['F']['2']:.4f}"


def test_compare_accepts_summary_file_paths(tmp_path, capsys):
    runs = [finished_run(tmp_path, capsys, seed) for seed in (3, 4)]
    paths = [os.path.join(r, cli.SUMMARY_NAME) for r in runs]
    code, out, _ = run_cli(["compare", *paths, "--out",
                            str(tmp_path / "c.csv")], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


def test_compare_warns_on_shape_mismatch(tmp_path, capsys):
    a = finished_run(tmp_path, capsys, seed=5)
    b = finished_run(tmp_path, capsys, seed=5, rounds=4, tag="r4")
    code, _, err = run_cli(["compare", a, b, "--out",
                            str(tmp_path / "w.csv")], capsys)
    assert code == 0
    assert "different scenario shapes" in err


def test_compare_needs_two_runs(tmp_path, capsys):
    run = finished_run(tmp_path, capsys, seed=6)
    code, _, err = run_cli(["compare", run, "--out",
                            str(tmp_path / "x.csv")], capsys)
    assert code == 1 and "at least two" in err


def test_compare_reports_unreadable_run(tmp_path, capsys):
    run = finished_run(tmp_path, capsys, seed=7)
    code, _, err = run_cli(["compare", run, str(tmp_path / "ghost"),
                            "--out", str(tmp_path / "y.csv")], capsys)
    assert code == 1 and "error:" in err


def test_compare_reports_a_summary_that_is_not_an_object(tmp_path, capsys):
    run = finished_run(tmp_path, capsys, seed=8)
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]\n")
    code, _, err = run_cli(["compare", run, str(listed),
                            "--out", str(tmp_path / "z.csv")], capsys)
    assert code == 1
    assert err.startswith("error: ") and "not a JSON object" in err


@pytest.mark.parametrize("summary, complaint", [
    ({"metrics": [], "config": "x"}, "config is not a JSON object"),
    ({"metrics": [], "config": {}}, "metrics is not a JSON object"),
    ({"metrics": {"c1": 0.5}}, "metrics[c1] is not a JSON object"),
    ({"client_order": "c1"}, "client_order is not a list of strings"),
    ({"client_order": ["c1", 2]}, "client_order is not a list of strings"),
    ({"config": {"clients": [1]}}, "config.clients is not a list of JSON objects"),
    ({"config": {"rounds": [8]}}, "config.rounds is not a number"),
    ({"metrics": {"c1": {"A_gen": "x"}}}, "metrics[c1].A_gen is not a number"),
    ({"metrics": {"c1": {"A_gen": True}}}, "metrics[c1].A_gen is not a number"),
    ({"metrics": {"c1": {"F": {"2": "x"}}}}, "metrics[c1].F is not an object of numbers"),
], ids=["config-string", "metrics-list", "owner-number", "order-string",
        "order-number", "client-number", "rounds-list", "a-gen-string",
        "a-gen-bool", "forgetting-string"])
def test_compare_reports_a_summary_field_of_the_wrong_type(tmp_path, capsys,
                                                           summary, complaint):
    run = finished_run(tmp_path, capsys, seed=8)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(summary))
    code, _, err = run_cli(["compare", run, str(bad),
                            "--out", str(tmp_path / "z.csv")], capsys)
    assert code == 1
    assert err == f"error: {bad}: {complaint}\n"


def test_compare_reports_an_unwritable_table(tmp_path, capsys):
    runs = [finished_run(tmp_path, capsys, seed) for seed in (1, 2)]
    out = tmp_path / "missing-dir" / "cmp.csv"
    code, _, err = run_cli(["compare", *runs, "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and not out.exists()


# -- cli: csv --------------------------------------------------------------------


def test_write_csv_floats_read_back_exactly(tmp_path):
    rows = [("sum", 1, 0.1 + 0.2), ("third", 2, 1 / 3), ("subnormal", 3, 5e-324),
            ("big", 4, 1e16), ("zero", 5, -0.0)]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ("name", "n", "value"), rows)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["name", "n", "value"]
    assert [(name, int(n), float(v)) for name, n, v in back[1:]] == rows
    assert all(str(float(v)) == v for _, _, v in back[1:])
    # the same bytes as the per-cell repr form written before writerows
    old = io.StringIO(newline="")
    writer = csv.writer(old, lineterminator="\n")
    writer.writerow(("name", "n", "value"))
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    assert path.read_bytes() == old.getvalue().encode("utf-8")

