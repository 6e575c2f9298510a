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
  ``perfbench/workloads.py`` writes, at seeds 7 and 9.

Both trees read the same input files, written once from this tree's
``perfbench/workloads.py``.  A scenario passes when ``metrics.csv``,
``figure_data.csv``, ``summary.json`` and ``resolved_config.yaml`` are
byte-identical, and so are the final models: the child that runs the
scenario also writes ``models.sha256``, one sha256 over every weight array
of the server model and of each client model.  The artifacts hold only
accuracies, so without the digests a change that moves weights but flips
no prediction would pass.  The child also writes its own peak RSS
(``ru_maxrss``) to ``peak_rss.kb``, which is not compared: each scenario's
line ends with the base -> change peak RSS in MB, so a change to model
lifetimes shows its effect per scenario.  One line is printed per
scenario; the exit code is 1 if any scenario differs or fails to run on
either side, else 0.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = "models.sha256"
PEAK_RSS = "peak_rss.kb"  # the child's ru_maxrss in KiB; reported, not compared
ARTIFACTS = ("metrics.csv", "figure_data.csv", "summary.json",
             "resolved_config.yaml", DIGESTS)
# ``flwf run`` with the experiment result kept, then one digest line per
# final model and the process's peak RSS.  Uses only what every tree has:
# ``flwf.cli.main`` looking up ``run_experiment`` at call time,
# ``.server.params``, ``.clients[i].params`` and ``.weights``.
CHILD = """
import hashlib, resource, sys
import numpy as np
from flwf import cli

results = []
run_experiment = cli.run_experiment
cli.run_experiment = lambda scenario: results.append(run_experiment(scenario)) or results[-1]
code = cli.main(sys.argv[3:])
with open(sys.argv[2], "w") as fh:
    fh.write(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n")
if code == 0:
    result = results[0]
    lines = []
    for name, model in [("server", result.server.params)] + [
            (f"client{i}", c.params) for i, c in enumerate(result.clients)]:
        h = hashlib.sha256()
        for w in model.weights if model is not None else ():
            for key in sorted(w):
                h.update(np.ascontiguousarray(w[key]).tobytes())
        lines.append(f"{name} {h.hexdigest()}\\n")
    with open(sys.argv[1], "w") as fh:
        fh.writelines(lines)
sys.exit(code)
"""
PRESET_SEEDS = (1, 2, 3)
WORKLOAD_SEEDS = (7, 9)
WORKLOADS = ("long-horizon", "paper-cnn")


def scenarios(inputs_dir: Path):
    """``[(name, flwf run arguments), ...]``; writes the workload inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from flwf.config import PRESET_NAMES
    import workloads

    out = [(f"{name}-seed{seed}", ["--preset", name, "--seed", str(seed)])
           for name in PRESET_NAMES for seed in PRESET_SEEDS]
    out.append(("example-scenario",
                ["--config", str(ROOT / "configs" / "example-scenario.yaml")]))
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            work_dir = inputs_dir / f"{workload}-seed{seed}"
            for label, path, _ in workloads.write_inputs(workload, seed, str(work_dir)):
                out.append((f"{label}-seed{seed}",
                            ["--config", path, "--seed", str(seed)]))
    return out


def run(tree: Path, args, out_dir: Path) -> str | None:
    """Run ``flwf run`` from ``tree`` and digest its final models; returns
    an error line or None."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out_dir / DIGESTS),
         str(out_dir / PEAK_RSS), "run", *args, "--out", str(out_dir)],
        cwd=out_dir.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {proc.returncode}: {tail[0]}"
    return None


def peak_rss(out_dir: Path) -> str:
    """The child's peak RSS in MB, or ``?`` if it wrote none."""
    path = out_dir / PEAK_RSS
    return f"{int(path.read_text()) / 1024:.1f}" if path.is_file() else "?"


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
        for name, run_args in todo:
            dirs = {}
            errors = []
            for side, tree in (("base", base_tree), ("change", ROOT)):
                dirs[side] = tmp / side / name
                dirs[side].parent.mkdir(exist_ok=True)
                err = run(tree, run_args, dirs[side])
                if err is not None:
                    errors.append(f"{side} {err}")
            if errors:
                verdict = "FAILED " + "; ".join(errors)
            else:
                differ = compare(dirs["base"], dirs["change"])
                verdict = "DIFFERS " + ", ".join(differ) if differ else "identical"
            failures += verdict != "identical"
            print(f"{name}: {verdict}  (peak RSS {peak_rss(dirs['base'])} -> "
                  f"{peak_rss(dirs['change'])} MB)", flush=True)
        print(f"{len(todo) - failures}/{len(todo)} scenarios byte-identical "
              f"to {args.rev}, final models included")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
