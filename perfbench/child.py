"""One timed ``flwf run`` in its own process, measured from outside.

Usage::

    python3 perfbench/child.py REPORT.json TRACE RUN_ID -- run --config X --seed S --out D

The flwf CLI runs unchanged.  Before ``flwf.cli.main`` is called, public
functions are replaced at the module attributes their callers look up
(``flwf.federation.train_local``, not only ``flwf.network.train_local``),
so the spans sit at layer boundaries without touching the program.

* TRACE 0: only ``federation.run_round`` gets a plain timer; its entry and
  exit times supply the phase boundaries (set-up, rounds, export).
* TRACE 1: every entry point in ``ENTRY_POINTS`` records a span (name,
  start, end, parent, run id).  Spans stay in memory and are written,
  together with per-name totals and self times, when the run ends.

The report is a JSON file; times are ``time.monotonic()`` readings, which
share one clock with the parent process.
"""

import functools
import json
import os
import resource
import sys
import time

# (span name, the "module:attribute" sites where callers look the function up)
ENTRY_POINTS = (
    ("config.load_config", ("flwf.config:load_config",)),
    ("config.save_config", ("flwf.config:save_config",)),
    ("cli.summarize", ("flwf.cli:summarize",)),
    ("cli.write_outputs", ("flwf.cli:write_outputs",)),
    ("federation.run_experiment", ("flwf.cli:run_experiment",)),
    ("federation.build_pool", ("flwf.federation:build_pool",)),
    ("federation.run_round", ("flwf.federation:run_round",)),
    ("federation.client_update", ("flwf.federation:client_update",)),
    ("federation.fedavg", ("flwf.federation:fedavg",)),
    ("datasets.load_csv", ("flwf.federation:load_csv",)),
    ("datasets.generate_synthetic", ("flwf.federation:generate_synthetic",)),
    ("datasets.draw_test_set", ("flwf.federation:draw_test_set",)),
    ("datasets.draw_round_data", ("flwf.federation:draw_round_data",
                                  "flwf.datasets:draw_round_data")),
    ("continual.select_loss_mode", ("flwf.federation:select_loss_mode",)),
    ("continual.compose_training_batch",
     ("flwf.federation:compose_training_batch",)),
    ("continual.update_exemplars", ("flwf.federation:update_exemplars",)),
    ("network.init_params", ("flwf.federation:init_params",)),
    ("network.train_local", ("flwf.federation:train_local",)),
    ("network.forward", ("flwf.federation:forward", "flwf.metrics:forward")),
    ("network.params_digest", ("flwf.federation:params_digest",)),
    ("network.sgd_step", ("flwf.network:sgd_step",)),
    ("losses.combined_loss", ("flwf.losses:combined_loss",)),
    ("losses.combined_loss_grad", ("flwf.losses:combined_loss_grad",)),
    ("losses.log_softmax", ("flwf.losses:log_softmax",)),
    ("metrics.predict", ("flwf.federation:predict",)),
    ("metrics.MetricsLedger.append", ("flwf.metrics:MetricsLedger.append",)),
    ("metrics.MetricsLedger.record_for",
     ("flwf.metrics:MetricsLedger.record_for",)),
    ("metrics.MetricsLedger.csv_rows", ("flwf.metrics:MetricsLedger.csv_rows",)),
    ("metrics.MetricsLedger.figure_rows",
     ("flwf.metrics:MetricsLedger.figure_rows",)),
)
ROOT_SPAN = "cli.main"


def _resolve(site):
    """(object, attribute) for a "module:Class.attr" or "module:attr" site."""
    module, _, path = site.partition(":")
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; spans nest because the run is one thread."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.monotonic(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.monotonic()
        return traced

    def totals(self):
        """Per name: calls, inclusive seconds and self seconds (span minus
        the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out


def _install(wrapper_for, names):
    for name, sites in ENTRY_POINTS:
        if name not in names:
            continue
        for site in sites:
            owner, attr = _resolve(site)
            setattr(owner, attr, wrapper_for(name, getattr(owner, attr)))


def _round_timer(rounds):
    def wrapper_for(name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            rounds.append((start, time.monotonic()))
            return result
        return timed
    return wrapper_for


def main(argv):
    report_path, trace, run_id = argv[0], argv[1] == "1", argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE RUN_ID -- FLWF-ARGS...")
    flwf_args = argv[4:]

    # Imported here: run.py imports ENTRY_POINTS without flwf on its path.
    import flwf.cli  # imports every flwf module

    report = {"run_id": run_id, "trace": int(trace)}
    if trace:
        tracer = Tracer()
        _install(tracer.wrap, [name for name, _ in ENTRY_POINTS])
        cli_main = tracer.wrap(ROOT_SPAN, flwf.cli.main)
    else:
        rounds = []
        _install(_round_timer(rounds), ["federation.run_round"])
        cli_main = flwf.cli.main

    code = cli_main(flwf_args)
    report["cli_return"] = time.monotonic()
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        report["layers"] = tracer.totals()
        report["spans"] = [[run_id, *span] for span in tracer.spans]
    else:
        report["rounds"] = rounds
    tmp = report_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(tmp, report_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
