"""Benchmark of the flwf simulator: phase times, memory and accuracy per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mlp-presets --seed 1 --seconds 30 --trace 0

Each timed run is one ``flwf run --config <generated yaml> --seed <s>
--out <dir>`` in a fresh child process (``perfbench/child.py``), started
one at a time from this process.  The workload's inputs are written from
``--seed`` into ``.perfbench_work/``; the program sees only those files.
Iterations (one child per scenario of the workload) repeat until the next
one would overrun ``--seconds``, with at least ``MIN_ITERATIONS``.

Every child's outputs are checked; a child that exits non-zero, misses an
artifact, reports a non-finite or inconsistent summary metric, or writes a
``metrics.csv`` whose bytes differ from the first run of the same scenario
counts as failed.  Failures are counted, not fatal.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced iterations and prints its per-layer
metrics.  The last stdout line is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kernels
import workloads
from child import ENTRY_POINTS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
ARTIFACTS = ("metrics.csv", "figure_data.csv", "summary.json",
             "resolved_config.yaml")
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """Environment of every child: the source tree on the path, BLAS
    threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def machine_facts(env):
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _finite_numbers(node):
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return math.isfinite(node)
    return node is not None


def check_outputs(out_dir, reference_csv):
    """(failure reason or None, summary, metrics.csv bytes)."""
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return f"missing artifacts {missing}", None, None
    csv_bytes = (out_dir / "metrics.csv").read_bytes()
    summary = json.loads((out_dir / "summary.json").read_text())
    if not _finite_numbers(summary["metrics"]):
        return "non-finite summary metric", summary, csv_bytes
    if reference_csv is not None and csv_bytes != reference_csv:
        return "metrics.csv differs from the first run of this scenario", \
            summary, csv_bytes
    # A_gen is the mean of the whole-test accuracies of rounds 1..R.
    rounds = summary["config"]["rounds"]
    whole = {}
    for line in csv_bytes.decode().splitlines()[1:]:
        owner, r, metric, _, value = line.split(",")
        if metric == "whole_test_accuracy":
            whole.setdefault(owner, {})[int(r)] = float(value)
    for owner, entry in summary["metrics"].items():
        got = [whole.get(owner, {}).get(r) for r in range(1, rounds + 1)]
        if None in got or abs(sum(got) / rounds - entry["A_gen"]) > 1e-12:
            return f"A_gen of {owner} disagrees with metrics.csv", \
                summary, csv_bytes
    return None, summary, csv_bytes


def run_child(label, yaml_path, seed, trace, run_id, env, references):
    """Run one child; returns its measurements, with ``failed`` set to
    the reason when a check fails."""
    out_dir = WORK / "out" / label
    report_path = WORK / "out" / f"{label}.report.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(report_path), str(int(trace)), run_id,
           "--", "run", "--config", str(yaml_path), "--seed", str(seed),
           "--out", str(out_dir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"label": label, "failed": f"timed out after {CHILD_TIMEOUT_S} s"}
    end = time.monotonic()
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"label": label,
                "failed": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        report = json.loads(report_path.read_text())
        reason, summary, csv_bytes = check_outputs(out_dir,
                                                   references.get(label))
    except (ValueError, KeyError) as exc:
        reason = f"malformed output: {exc!r}"
    if reason is not None:
        return {"label": label, "failed": reason}
    references.setdefault(label, csv_bytes)
    result = {"label": label, "failed": None, "trace": trace,
              "run_s": end - start, "peak_rss_mb": report["peak_rss_mb"],
              "summary": summary}
    if trace:
        result["layers"] = report["layers"]
    else:
        rounds = report["rounds"]
        result["setup_s"] = rounds[0][0] - start
        result["rounds"] = [b - a for a, b in rounds]
        result["export_s"] = report["cli_return"] - rounds[-1][1]
    return result


def tail_percentile(samples):
    """Highest whole percentile that keeps TAIL_BEYOND of ``samples``
    above it."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / samples)))


def round_tail(results, rounds_per_iter):
    """Round-time tail of each iteration, median over iterations.

    The host's speed changes over seconds, so the slowest rounds pooled
    over a whole run come from its slowest second.  Taken per iteration
    (one child per scenario), a slow spell moves one of the values the
    median is taken over.  Returns (value, percentile, iterations)."""
    by_iteration = {}
    for r in results:
        by_iteration.setdefault(r["iteration"], []).extend(r["rounds"])
    tail_p = tail_percentile(rounds_per_iter)
    tails = [np.percentile(rounds, tail_p) for rounds in by_iteration.values()]
    return float(statistics.median(tails)), tail_p, len(tails)


def accuracy_metrics(results):
    """Server A_gen and the observed client's average forgetting at its
    last task, averaged over the workload's scenarios."""
    first = {}
    for r in results:
        first.setdefault(r["label"], r["summary"])
    gen, forget = [], []
    for summary in first.values():
        owners = summary["metrics"]
        observed = owners[summary["client_order"][0]]
        gen.append(owners["server"]["A_gen"])
        forget.append(observed["F"][max(observed["F"], key=int)])
    return statistics.fmean(gen), statistics.fmean(forget)


def end_to_end(results, scenarios, attempted, failed):
    rounds = [t for r in results for t in r["rounds"]]
    rounds_per_iter = sum(doc["rounds"] for _, _, doc in scenarios)
    tail, tail_p, tail_n = round_tail(results, rounds_per_iter)
    server_gen, client_f = accuracy_metrics(results)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s",
                    f"median of {len(results)} children"),
        "round_s": (statistics.median(rounds), "s",
                    f"median of {len(rounds)} rounds"),
        "round_s_tail": (tail, "s",
                         f"p{tail_p} of {rounds_per_iter} rounds per "
                         f"iteration, median of {tail_n} iterations"),
        "export_s": (statistics.median(r["export_s"] for r in results), "s",
                     f"median of {len(results)} children"),
        "run_s": (statistics.median(r["run_s"] for r in results), "s",
                  f"median of {len(results)} children"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB", f"median of {len(results)} children"),
        "server_A_gen": (server_gen, "fraction",
                         f"mean over {len(scenarios)} scenarios"),
        "client1_F": (client_f, "fraction",
                      f"mean over {len(scenarios)} scenarios"),
        "error_rate": (failed / attempted, "ratio",
                       f"{failed} failed of {attempted} attempted"),
    }


def per_layer(traced, untraced):
    """Per-iteration sums of the traced children's layer totals, then the
    median over traced iterations."""
    names = [name for name, _ in ENTRY_POINTS]
    iterations = {}
    for r in traced:
        iterations.setdefault(r["iteration"], []).append(r)
    per_iter = []
    for group in iterations.values():
        sums = {}
        for r in group:
            for name in names:
                entry = r["layers"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for key, value in entry.items():
                    sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
                module = name.split(".")[0]
                sums[f"{module}.self_s"] = (sums.get(f"{module}.self_s", 0.0)
                                            + entry["self_s"])
        sums["network.sgd_steps"] = sums["network.sgd_step.calls"]
        sums["metrics.ledger_records"] = sums["metrics.MetricsLedger.append.calls"]
        per_iter.append(sums)
    out = {}
    for key in per_iter[0]:
        unit = "count" if key.endswith(("calls", "steps", "records")) else "s"
        out[key] = (statistics.median_low(s[key] for s in per_iter), unit,
                    f"lower median of {len(per_iter)} traced iterations")
    out["trace_overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced), "s",
        f"traced minus untraced run_s, medians of {len(traced)} and "
        f"{len(untraced)} children")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flwf" / "cli.py").is_file():
        print(f"error: no flwf source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    env = child_env()
    scenarios = workloads.write_inputs(args.workload, args.seed, WORK / "inputs")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_facts(env), sort_keys=True))
    if args.workload == "paper-cnn":
        print("kernels " + json.dumps(kernels.kernel_counts(scenarios[0][2]),
                                      sort_keys=True))

    min_iterations = 2 if args.trace else MIN_ITERATIONS
    deadline = time.monotonic() + args.seconds
    references, results = {}, []
    attempted = failed = iteration = 0
    while True:
        trace = bool(args.trace) and iteration % 2 == 1
        began = time.monotonic()
        for label, yaml_path, _ in scenarios:
            run_id = f"{args.workload}-s{args.seed}-i{iteration}-{label}"
            outcome = run_child(label, yaml_path, args.seed, trace, run_id, env,
                                references)
            attempted += 1
            if outcome["failed"]:
                failed += 1
                print(f"FAILED {run_id}: {outcome['failed']}")
            else:
                results.append(dict(outcome, iteration=iteration))
        iteration += 1
        took = time.monotonic() - began
        if iteration >= min_iterations and time.monotonic() + took > deadline:
            break

    untraced = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: too few child runs succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(traced, untraced)
    else:
        values = end_to_end(untraced, scenarios, attempted, failed)
    for name in sorted(values):
        value, unit, note = values[name]
        print(f"{name:40s} {value:>14.6g} {unit:8s} {note}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
