"""Check that the working tree writes the same run artifacts as a base revision.

Usage (from the repository root)::

    python3 tools/equivalence.py REV

``REV`` is any git revision: ``HEAD`` to check uncommitted changes,
``HEAD~1`` to check the last commit.  The revision's tree is exported with
``git archive`` into a temporary directory (nothing is registered in the
repository, so an interrupted check leaves nothing behind), and every
scenario below is run once with each tree's ``src``:

* the 7 presets at seeds 1, 2 and 3;
* ``configs/example-scenario.yaml`` at its own seed;
* the ``long-horizon`` and ``paper-cnn`` scenarios that
  ``perfbench/workloads.py`` writes, at seeds 7 and 9;
* ``conv-steps`` (:func:`conv_steps_scenario`) at seeds 4 and 5: a small
  conv1d net on synthetic data that takes about ten SGD steps per
  client-round, so conv gradients computed into a reused model's buffer
  are compared too (``paper-cnn`` takes one step per client-round);
* the same scenario with the conv block's other layer orders, each at one
  of those seeds: ``conv-pool-first`` (conv1d, maxpool1d, relu) and
  ``conv-dropout-pool`` (conv1d, relu, dropout, maxpool1d), whose ReLU
  does not run at pooled width;
* ``many-classes`` (:func:`many_classes_scenario`) at seed 6: 300
  classes, so the ledger stores its predictions in two bytes per test
  row, and class ids above 255 are predicted, learnt and scored;
* ``mixed-dropout`` (:func:`mixed_dropout_scenario`) at seed 8: an MLP
  whose three dropout layers have rates 0.5, 0.0 and 0.2, with four SGD
  steps per epoch, the last one short, so dropout masks of mixed rates
  are drawn over many steps;
* ``quoted-names`` (:func:`quoted_names_scenario`) at seed 10: a tiny MLP
  whose client names (``obs, "1"`` and ``gen,2``) hold a delimiter and
  quotes, so both CSVs quote them;
* ``big-seed``: the ``exp3-exemplars-flwf2`` preset at seed 2**64 + 3,
  whose three ``uint32`` words make every seed stream's key six entropy
  words, past the seed sequence's four-word pool.

34 scenarios in all.

Both trees read the same input files, written once from this tree's
``perfbench/workloads.py``.  A scenario that reads a CSV (``paper-cnn``)
runs twice with the working tree after its sidecar cache of the parsed
table (see :func:`flwf.datasets.load_csv`) has been deleted: cold, which
parses the CSV and writes the sidecar, then warm, which reads it.  Both
runs are compared with the base, and the scenario's line says whether
each one found a sidecar (``warm``) or not (``cold``).

A scenario passes when ``metrics.csv``, ``figure_data.csv``,
``summary.json`` and ``resolved_config.yaml`` are byte-identical, and so
are the final models: the child that runs the scenario also writes
``models.sha256``, one sha256 over every weight array of the server
model and of each client model.  The artifacts hold only accuracies, so
without the digests a change that moves weights but flips no prediction
would pass.  The digests are taken as soon as the run returns, and the
child keeps no reference to it, so ``flwf run`` frees the run as it
would unwatched.  The child also writes its own peak RSS (``VmHWM`` from
``/proc/self/status``), minor page faults (``ru_minflt``) and wall seconds
(``flwf run``'s, from config parse to the last artifact, less the time
spent digesting) to ``rusage.txt``, which are not compared: each
scenario's line ends with the base -> change peak RSS in MB, minor faults
and wall seconds, so a change to model lifetimes, buffer reuse or speed
shows its effect per scenario.  One run of each is no benchmark: the wall
time is reported, never judged.  ``VmHWM`` starts afresh at exec;
``ru_maxrss`` would not, since Linux carries the spawning process's
high-water mark into the child, so no scenario could read below this
tool's own resident size.  One line is printed per scenario; the exit
code is 1 if any scenario differs or fails to run on either side, else 0.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = "models.sha256"
RUSAGE = "rusage.txt"  # the child's VmHWM (KiB), ru_minflt and wall s; reported, not compared
ARTIFACTS = ("metrics.csv", "figure_data.csv", "summary.json",
             "resolved_config.yaml", DIGESTS)
# ``flwf run`` with one digest line per final model taken as the run
# returns, then the process's peak RSS (VmHWM, which exec resets), minor
# faults and wall seconds less the digesting.  Uses only what every tree has:
# ``flwf.cli.main`` looking up ``run_experiment`` at call time, ``.server``
# (the server model, or a state holding it as ``.params``),
# ``.clients[i].params`` and ``.weights``.
CHILD = """
import hashlib, resource, sys, time
import numpy as np
from flwf import cli

lines, digesting = [], []
run_experiment = cli.run_experiment

def digested_run(scenario):
    result = run_experiment(scenario)
    start = time.perf_counter()
    for name, model in [("server", getattr(result.server, "params", result.server))] + [
            (f"client{i}", c.params) for i, c in enumerate(result.clients)]:
        h = hashlib.sha256()
        for w in model.weights if model is not None else ():
            for key in sorted(w):
                h.update(np.ascontiguousarray(w[key]))
        lines.append(f"{name} {h.hexdigest()}\\n")
    digesting.append(time.perf_counter() - start)
    return result

cli.run_experiment = digested_run
start = time.perf_counter()
code = cli.main(sys.argv[3:])
wall = time.perf_counter() - start - sum(digesting)
with open("/proc/self/status") as fh:
    peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open(sys.argv[2], "w") as fh:
    fh.write(f"{peak_kb} {minflt} {wall:.3f}\\n")
if code == 0:
    with open(sys.argv[1], "w") as fh:
        fh.writelines(lines)
sys.exit(code)
"""
PRESET_SEEDS = (1, 2, 3)
WORKLOAD_SEEDS = (7, 9)
WORKLOADS = ("long-horizon", "paper-cnn")
CONV_SEEDS = (4, 5)
# The layers between the conv1d and the dense layer, per conv scenario label
CONV_BLOCKS = {
    "conv-steps": [{"kind": "relu"}, {"kind": "maxpool1d", "pool": 2}],
    "conv-pool-first": [{"kind": "maxpool1d", "pool": 2}, {"kind": "relu"}],
    "conv-dropout-pool": [{"kind": "relu"}, {"kind": "dropout"},
                          {"kind": "maxpool1d", "pool": 2}],
}
CONV_RUNS = [("conv-steps", seed) for seed in CONV_SEEDS] + [
    ("conv-pool-first", CONV_SEEDS[0]), ("conv-dropout-pool", CONV_SEEDS[1])]
MANY_CLASSES_SEED = 6
MIXED_DROPOUT_SEED = 8
QUOTED_NAMES_SEED = 10
BIG_SEED_PRESET, BIG_SEED = "exp3-exemplars-flwf2", 2**64 + 3


def conv_steps_scenario(seed: int, label: str) -> dict:
    """``[16, 4]`` windows of 64 synthetic features through conv1d, the
    ``CONV_BLOCKS[label]`` layers (relu then maxpool1d for ``conv-steps``),
    dense and softmax-output; 3 epochs of batch-16 steps over 48 fresh
    rows per client-round, plus exemplars for ``client1`` (flwf2,
    distilling from both teachers) from round 2 on."""
    def client(name, weight, algo, tasks, **extra):
        return {"name": name, "weight": weight, "algo": algo,
                "policy": {"mode": "distill-all"}, "tasks": tasks, **extra}

    return {
        "label": label, "seed": seed, "rounds": 4, "epochs": 3,
        "batch_size": 16, "learning_rate": 0.01, "dropout": 0.5, "n_classes": 6,
        "input_shape": [16, 4],
        "layers": [{"kind": "conv1d", "filters": 8, "kernel": 3}, *CONV_BLOCKS[label],
                   {"kind": "dense", "units": 6}, {"kind": "softmax-output"}],
        "clients": [
            client("client1", 1.0, "flwf2", [{"classes": [1], "rounds": 2},
                                             {"classes": [2], "rounds": 2}],
                   alpha=0.001, beta=0.7, use_exemplars=True),
            client("generalized", 4.0, "fine-tune",
                   [{"classes": [0, 1, 2, 3, 4, 5], "rounds": 4}]),
        ],
        "data": {"kind": "synthetic", "per_class": 200, "feature_dim": 64},
        "round_data_size": 48, "test_per_class": 20,
    }


def many_classes_scenario(seed: int) -> dict:
    """A small MLP over 300 synthetic classes for two rounds: ``client1``
    learns classes 250..299 then 0..49 (flwf1), ``generalized`` all 300
    (fine-tune), scored on 5 test rows per class."""
    return {
        "label": "many-classes", "seed": seed, "rounds": 2, "epochs": 2,
        "batch_size": 32, "learning_rate": 0.05, "dropout": 0.2, "n_classes": 300,
        "input_shape": [16],
        "layers": [{"kind": "dense", "units": 32}, {"kind": "relu"}, {"kind": "dropout"},
                   {"kind": "dense", "units": 300}, {"kind": "softmax-output"}],
        "clients": [
            {"name": "client1", "weight": 1.0, "algo": "flwf1", "alpha": 0.5,
             "tasks": [{"classes": list(range(250, 300)), "rounds": 1},
                       {"classes": list(range(50)), "rounds": 1}]},
            {"name": "generalized", "weight": 4.0, "algo": "fine-tune",
             "tasks": [{"classes": list(range(300)), "rounds": 2}]},
        ],
        "data": {"kind": "synthetic", "per_class": 20, "feature_dim": 16},
        "round_data_size": 300, "test_per_class": 5,
    }


def mixed_dropout_scenario(seed: int) -> dict:
    """A 16-d MLP with three hidden layers, each followed by a dropout
    layer of its own rate (0.5, 0.0, 0.2), for four rounds of 3 epochs of
    batch-16 steps over 50 fresh rows per client-round (16, 16, 16, 2):
    ``client1`` distills from both teachers with exemplars (flwf2),
    ``generalized`` fine-tunes."""
    hidden = []
    for rate in (0.5, 0.0, 0.2):
        hidden += [{"kind": "dense", "units": 24}, {"kind": "relu"},
                   {"kind": "dropout", "rate": rate}]
    return {
        "label": "mixed-dropout", "seed": seed, "rounds": 4, "epochs": 3,
        "batch_size": 16, "learning_rate": 0.02, "dropout": 0.5, "n_classes": 6,
        "input_shape": [16],
        "layers": [*hidden, {"kind": "dense", "units": 6}, {"kind": "softmax-output"}],
        "clients": [
            {"name": "client1", "weight": 1.0, "algo": "flwf2", "alpha": 0.3, "beta": 0.4,
             "use_exemplars": True,
             "tasks": [{"classes": [0, 1], "rounds": 2}, {"classes": [2, 3], "rounds": 2}]},
            {"name": "generalized", "weight": 4.0, "algo": "fine-tune",
             "tasks": [{"classes": [0, 1, 2, 3, 4, 5], "rounds": 4}]},
        ],
        "data": {"kind": "synthetic", "per_class": 200, "feature_dim": 16},
        "round_data_size": 50, "test_per_class": 20,
    }


def quoted_names_scenario(seed: int) -> dict:
    """A tiny 8-d MLP for three rounds whose client names need CSV quoting:
    ``obs, "1"`` learns class 0 then class 1 (flwf2, with exemplars),
    ``gen,2`` all three classes (fine-tune)."""
    return {
        "label": "quoted-names", "seed": seed, "rounds": 3, "epochs": 2,
        "batch_size": 16, "learning_rate": 0.05, "dropout": 0.2, "n_classes": 3,
        "input_shape": [8],
        "layers": [{"kind": "dense", "units": 8}, {"kind": "relu"}, {"kind": "dropout"},
                   {"kind": "dense", "units": 3}, {"kind": "softmax-output"}],
        "clients": [
            {"name": 'obs, "1"', "weight": 1.0, "algo": "flwf2", "alpha": 0.3, "beta": 0.5,
             "use_exemplars": True,
             "tasks": [{"classes": [0], "rounds": 1}, {"classes": [1], "rounds": 2}]},
            {"name": "gen,2", "weight": 2.0, "algo": "fine-tune",
             "tasks": [{"classes": [0, 1, 2], "rounds": 3}]},
        ],
        "data": {"kind": "synthetic", "per_class": 120, "feature_dim": 8},
        "round_data_size": 24, "test_per_class": 10,
    }


def scenarios(inputs_dir: Path):
    """``[(name, flwf run arguments, sidecar path or None), ...]``, the
    sidecar being where the working tree caches the scenario's CSV;
    writes the workload inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import yaml
    from flwf.config import PRESET_NAMES
    from flwf.datasets import _sidecar_path
    import workloads

    out = [(f"{name}-seed{seed}", ["--preset", name, "--seed", str(seed)], None)
           for name in PRESET_NAMES for seed in PRESET_SEEDS]
    out.append(("example-scenario",
                ["--config", str(ROOT / "configs" / "example-scenario.yaml")], None))
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            work_dir = inputs_dir / f"{workload}-seed{seed}"
            for label, path, doc in workloads.write_inputs(workload, seed, str(work_dir)):
                data = doc["data"]
                sidecar = _sidecar_path(data["path"]) if data["kind"] == "csv" else None
                out.append((f"{label}-seed{seed}",
                            ["--config", path, "--seed", str(seed)], sidecar))
    for label, seed in CONV_RUNS:
        path = inputs_dir / f"{label}-seed{seed}.yaml"
        path.write_text(yaml.safe_dump(conv_steps_scenario(seed, label), sort_keys=False))
        out.append((f"{label}-seed{seed}", ["--config", str(path)], None))
    path = inputs_dir / f"many-classes-seed{MANY_CLASSES_SEED}.yaml"
    path.write_text(yaml.safe_dump(many_classes_scenario(MANY_CLASSES_SEED), sort_keys=False))
    out.append((f"many-classes-seed{MANY_CLASSES_SEED}", ["--config", str(path)], None))
    path = inputs_dir / f"mixed-dropout-seed{MIXED_DROPOUT_SEED}.yaml"
    path.write_text(yaml.safe_dump(mixed_dropout_scenario(MIXED_DROPOUT_SEED), sort_keys=False))
    out.append((f"mixed-dropout-seed{MIXED_DROPOUT_SEED}", ["--config", str(path)], None))
    path = inputs_dir / f"quoted-names-seed{QUOTED_NAMES_SEED}.yaml"
    path.write_text(yaml.safe_dump(quoted_names_scenario(QUOTED_NAMES_SEED), sort_keys=False))
    out.append((f"quoted-names-seed{QUOTED_NAMES_SEED}", ["--config", str(path)], None))
    out.append(("big-seed", ["--preset", BIG_SEED_PRESET, "--seed", str(BIG_SEED)], None))
    return out


def run(tree: Path, args, out_dir: Path) -> str | None:
    """Run ``flwf run`` from ``tree`` and digest its final models; returns
    an error line or None."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out_dir.mkdir(parents=True)  # the child writes its rusage here even if the run fails
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out_dir / DIGESTS),
         str(out_dir / RUSAGE), "run", *args, "--out", str(out_dir)],
        cwd=out_dir.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {proc.returncode}: {tail[0]}"
    return None


def rusage(out_dir: Path) -> tuple[str, str, str]:
    """The child's peak RSS in MB, minor page faults and wall seconds, or
    ``?`` for each if it wrote none."""
    path = out_dir / RUSAGE
    if not path.is_file():
        return "?", "?", "?"
    maxrss_kb, minflt, wall = path.read_text().split()
    return f"{int(maxrss_kb) / 1024:.1f}", minflt, wall


def compare(base_dir: Path, change_dir: Path) -> list[str]:
    """Names of the artifacts whose bytes differ (or that are missing)."""
    differ = []
    for name in ARTIFACTS:
        a, b = base_dir / name, change_dir / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            differ.append(name)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="flwf-equivalence-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base-tree"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                       check=True)
        (tmp / "inputs").mkdir()
        failures = 0
        todo = scenarios(tmp / "inputs")
        for name, run_args, sidecar in todo:
            sides = [("base", base_tree), ("change", ROOT)]
            if sidecar is not None:
                sides.append(("change-again", ROOT))
            dirs, errors, temps = {}, [], []
            for side, tree in sides:
                if sidecar is not None:
                    if side != "change-again":  # a base with the cache leaves one too
                        Path(sidecar).unlink(missing_ok=True)
                    if side != "base":
                        temps.append("warm" if os.path.exists(sidecar) else "cold")
                dirs[side] = tmp / side / name
                err = run(tree, run_args, dirs[side])
                if err is not None:
                    errors.append(f"{side} {err}")
            if errors:
                verdict = "FAILED " + "; ".join(errors)
            else:
                differ = sorted({a for side, _ in sides[1:]
                                 for a in compare(dirs["base"], dirs[side])})
                verdict = "DIFFERS " + ", ".join(differ) if differ else "identical"
            failures += verdict != "identical"
            base, *change = [rusage(dirs[side]) for side, _ in sides]
            runs = f"  [change runs {', '.join(temps)}]" if temps else ""
            moves = [f"{what} {base[i]} -> {', '.join(c[i] for c in change)}{unit}"
                     for i, (what, unit) in enumerate((("peak RSS", " MB"), ("minor faults", ""),
                                                       ("wall", " s")))]
            print(f"{name}: {verdict}{runs}  ({', '.join(moves)})", flush=True)
        print(f"{len(todo) - failures}/{len(todo)} scenarios byte-identical "
              f"to {args.rev}, final models included")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
