"""Command-line front end: run one scenario, or compare finished runs.

``flwf run`` executes a preset or a YAML scenario and writes four files
into the output directory: ``metrics.csv`` (per-round accuracies, one
row per owner/metric/task), ``figure_data.csv`` (per-class accuracy
curves), ``summary.json`` (aggregate metrics plus the resolved config),
and ``resolved_config.yaml`` (re-parseable provenance copy).  The same
preset and seed always produce byte-identical files.  The two CSVs are
the text lines the ledger formats (the bytes ``csv.writer`` would write),
written a bounded block of lines per write call, so no file is held
whole; ``summary.json`` is one ``json.dumps`` and one write.

``flwf compare`` reads several ``summary.json`` files and prints an
aligned table of the headline numbers (general and personal accuracy of
the observed client, general accuracy of the generalized client and the
server, task-2 average accuracy and forgetting), next to a CSV copy.
"""

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys

import yaml

from . import config as config_mod
from .config import ConfigError, CsvSource, ScenarioConfig
from .federation import run_experiment
from .metrics import SERVER, MetricsLedger

SUMMARY_NAME = "summary.json"
METRICS_NAME = "metrics.csv"
FIGURE_NAME = "figure_data.csv"
RESOLVED_NAME = "resolved_config.yaml"


LINES_PER_WRITE = 1024


def _write_csv(path, header, rows):
    """``csv.writer`` writes a Python float with ``repr``, so every value
    reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(path, header, lines):
    """``header`` as a ``csv.writer`` row, then the text ``lines`` (each
    ending in "\\n"), joined and written :data:`LINES_PER_WRITE` at a
    time, so neither the file nor all its lines are held at once."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        while block := "".join(itertools.islice(lines, LINES_PER_WRITE)):
            fh.write(block)


def summarize(scenario: ScenarioConfig, ledger: MetricsLedger) -> dict:
    """Aggregate metrics document; keys are stable for comparison tooling."""
    owners: dict[str, dict] = {}
    for c in scenario.clients:
        entry: dict = {
            "A_gen": ledger.general_accuracy(c.name),
            "A_per": ledger.personal_accuracy(c.name),
            "A_task": {},
            "F": {},
        }
        for t in range(1, ledger.n_tasks(c.name) + 1):
            entry["A_task"][str(t)] = ledger.avg_task_accuracy(c.name, t)
            if t >= 2:
                entry["F"][str(t)] = ledger.average_forgetting(c.name, t)
        owners[c.name] = entry
    owners[SERVER] = {"A_gen": ledger.general_accuracy(SERVER)}
    return {
        "label": scenario.label,
        "seed": scenario.seed,
        "client_order": [c.name for c in scenario.clients],
        "metrics": owners,
        "modes": {c.name: {str(r): ledger.records[(c.name, r)].mode
                           for r in range(1, scenario.rounds + 1)}
                  for c in scenario.clients},
        "config": config_mod.to_dict(scenario),
    }


def _write_summary(scenario: ScenarioConfig, ledger: MetricsLedger, path) -> None:
    text = json.dumps(summarize(scenario, ledger), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_outputs(scenario: ScenarioConfig, ledger: MetricsLedger, out_dir) -> list[str]:
    """Write the four artifacts of a finished run of ``scenario``, all read
    from the scenario and the run's ledger; returns the paths written.

    If any write fails, every artifact path already begun is removed
    before the error propagates: partial outputs must not look like a
    finished run.
    """
    os.makedirs(out_dir, exist_ok=True)
    writers = (
        (METRICS_NAME, lambda path: _write_lines(
            path, ("owner", "round", "metric", "task", "value"),
            ledger.csv_rows())),
        (FIGURE_NAME, lambda path: _write_lines(
            path, ("round", "owner", "class", "accuracy"),
            ledger.figure_rows())),
        (SUMMARY_NAME, lambda path: _write_summary(scenario, ledger, path)),
        (RESOLVED_NAME, lambda path: config_mod.save_config(scenario, path)),
    )
    written: list[str] = []
    try:
        for name, write in writers:
            written.append(os.path.join(out_dir, name))
            write(written[-1])
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return written


def _resolve_scenario(args) -> ScenarioConfig:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("run", "exactly one of --preset / --config is required")
    scenario = config_mod.parse_config(args.preset or args.config, seed=args.seed)
    if args.data_csv is not None:
        try:
            data = CsvSource(path=args.data_csv)
        except ConfigError as exc:
            raise ConfigError("--data-csv", exc.message) from None
        scenario = dataclasses.replace(scenario, data=data)
    return scenario


def cmd_run(args) -> int:
    try:
        scenario = _resolve_scenario(args)
    except (ConfigError, OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or os.path.join(
        "out", f"{scenario.label}-seed{scenario.seed}")
    try:
        # only the ledger outlives the run: its pool, test set, plans and
        # models are freed before the export allocates
        ledger = run_experiment(scenario).ledger
        written = write_outputs(scenario, ledger, out_dir)
    except Exception as exc:  # write_outputs has removed its partial files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


COMPARE_COLUMNS = ("method", "seed", "A_gen_1", "A_gen_g", "A_gen_server",
                   "A_per_1", "A_2_1", "F_2_1")


def _is_number(value) -> bool:
    """A summary value that may be formatted or empty; a bool is not one."""
    return value is None or type(value) in (int, float)


def _load_summary(path) -> dict:
    """A ``summary.json`` (or a run directory's), checked to hold every
    field :func:`_shape_key` and :func:`_compare_row` read in the type they
    read it as, so a malformed file is one ``ValueError`` naming the field."""
    if os.path.isdir(path):
        path = os.path.join(path, SUMMARY_NAME)
    with open(path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: not a JSON object")

    def require(ok, field, what):
        if not ok:
            raise ValueError(f"{path}: {field} is not {what}")

    cfg, metrics = summary.get("config", {}), summary.get("metrics", {})
    require(isinstance(cfg, dict), "config", "a JSON object")
    require(isinstance(metrics, dict), "metrics", "a JSON object")
    order = summary.get("client_order", [])
    require(isinstance(order, list) and all(isinstance(name, str) for name in order),
            "client_order", "a list of strings")
    clients = cfg.get("clients", [])
    require(isinstance(clients, list) and all(isinstance(c, dict) for c in clients),
            "config.clients", "a list of JSON objects")
    for key in ("rounds", "n_classes"):
        require(_is_number(cfg.get(key)), f"config.{key}", "a number")
    for owner, entry in metrics.items():
        require(isinstance(entry, dict), f"metrics[{owner}]", "a JSON object")
        for key in ("A_gen", "A_per"):
            require(_is_number(entry.get(key)), f"metrics[{owner}].{key}", "a number")
        for key in ("A_task", "F"):
            values = entry.get(key, {})
            require(isinstance(values, dict)
                    and all(_is_number(v) for v in values.values()),
                    f"metrics[{owner}].{key}", "an object of numbers")
    return summary


def _shape_key(summary: dict):
    cfg = summary.get("config", {})
    return (cfg.get("rounds"), cfg.get("n_classes"),
            tuple(summary.get("client_order", ())),
            json.dumps([c.get("tasks") for c in cfg.get("clients", [])],
                       sort_keys=True))


def _compare_row(summary: dict) -> list:
    order = summary.get("client_order", [])
    metrics = summary.get("metrics", {})
    observed = metrics.get(order[0], {}) if order else {}
    general = metrics.get(order[1], {}) if len(order) > 1 else {}

    def fmt(value):
        return "" if value is None else f"{value:.4f}"

    return [
        summary.get("label", "?"),
        summary.get("seed", "?"),
        fmt(observed.get("A_gen")),
        fmt(general.get("A_gen")),
        fmt(metrics.get(SERVER, {}).get("A_gen")),
        fmt(observed.get("A_per")),
        fmt(observed.get("A_task", {}).get("2")),
        fmt(observed.get("F", {}).get("2")),
    ]


def cmd_compare(args) -> int:
    try:
        summaries = [_load_summary(p) for p in args.runs]
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shapes = {_shape_key(s) for s in summaries}
    if len(shapes) > 1:
        print("warning: compared runs have different scenario shapes "
              "(rounds, clients, or task layouts differ)", file=sys.stderr)
    rows = [_compare_row(s) for s in summaries]

    table = [list(COMPARE_COLUMNS)] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(COMPARE_COLUMNS))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    try:
        _write_csv(args.out, COMPARE_COLUMNS, rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flwf",
        description="Federated continual-learning simulator with distillation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("--preset", choices=config_mod.PRESET_NAMES,
                       help="named scenario")
    run_p.add_argument("--config", help="path to a scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--out", default=None,
                       help="output directory (default out/<label>-seed<seed>)")
    run_p.add_argument("--data-csv", default=None,
                       help="replace the data source with this CSV file")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="tabulate finished runs")
    cmp_p.add_argument("runs", nargs="+",
                       help="run directories or summary.json paths (>= 2)")
    cmp_p.add_argument("--out", default="comparison.csv",
                       help="where to write the CSV copy of the table")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare" and len(args.runs) < 2:
        print("error: compare needs at least two runs", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
