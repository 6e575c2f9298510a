"""Seeded mutation gate: check that tier-1 kills each known wrong program.

Usage (from the repository root)::

    python3 tools/mutants.py

Each row of :data:`MUTANTS` names one small change that breaks a rule
README states: the file, the text to replace (it must occur exactly once
in that file), the text put in its place, and the rule.  For each row the
working tree (every file git tracks or would track, uncommitted edits
included) is copied to a temporary directory, the row is applied there,
and tier-1 runs in the copy with ``-x -p no:cacheprovider``, less
``tests/test_mutants.py`` (the table's own check, which a mutated copy
fails by design).  A row is *killed* when tier-1 fails; the line names
the first failing test and the seconds tier-1 took.  A row that tier-1
passes *survived*.  A row marked equivalent carries the argument that it
changes no rule README states; it runs all the same and is reported
with its argument.

The exit code is 1 if a row not marked equivalent survived or its text
does not occur exactly once, else 0.  A change that merges, moves or
deletes tests reruns the gate and keeps every killed row killed; a
change that adds a rule adds its row.  ``tests/test_mutants.py`` checks
in tier-1 that every row still applies to exactly one site.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 without the table's own check, which every applied row fails by design
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900  # per row; a whole tier-1 run takes ~40 s on 2 CPUs


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in ``path``
    new: str
    rule: str          # the README rule the mutant breaks
    equivalent: str | None = None  # why it changes no stated rule, if it does not


MUTANTS = (
    Mutant("no-dropout-rescale", "src/flwf/network.py",
           "        block = (u >= dropouts.rate) / (1.0 - dropouts.rate)\n",
           "        block = (u >= dropouts.rate) * 1.0\n",
           'Determinism: each dropout mask is "(u >= rate) / (1.0 - rate) elementwise"'),
    Mutant("backward-skips-dropout-mask", "src/flwf/network.py",
           "        elif layer.kind in (KIND_RELU, KIND_DROPOUT) and cache is not None:\n",
           "        elif layer.kind == KIND_RELU and cache is not None:\n",
           "Install and test: the analytic gradients of a training step, dropout "
           "masks applied, match finite differences (acceptance check 1)"),
    Mutant("inference-dropout-scales", "src/flwf/network.py",
           "                cache = next(masks)\n                x = x * cache\n",
           "                cache = next(masks)\n                x = x * cache\n"
           "            else:\n                x = x * (1.0 - layer.rate)\n",
           'Determinism: "`forward`, `backward` and `loss_on_batch` run with dropout '
           'inactive"; inverted dropout leaves inference unscaled'),
    Mutant("server-record-is-last-client", "src/flwf/federation.py",
           "predictions=predict(run.server, run.test.features)))",
           "predictions=predict(run.clients[-1].params, run.test.features)))",
           'The round protocol: the server "replaces its parameters with the weighted '
           'element-wise average of the client results", then "every owner is '
           'evaluated on the held-out test set"'),
    Mutant("exemplars-first-fresh-rows", "src/flwf/continual.py",
           "    picks = rng.choice(len(fresh), size=min(capacity, len(fresh)), replace=False)\n",
           "    picks = np.arange(min(capacity, len(fresh)))\n",
           'The round protocol: a round "refreshes the client\'s exemplar store from '
           'the fresh rows"',
           equivalent="the fresh rows are already drawn in a seeded random order, so "
                      "the first `capacity` of them are a seeded random pick with the "
                      "same distribution and other bits; README does not pin the pick "
                      "rule, only update_exemplars' docstring does"),
    Mutant("forgetting-from-window-d-only", "src/flwf/metrics.py",
           "self.window_task_accuracy(owner, i, d) for i in range(d, t))",
           "self.window_task_accuracy(owner, i, d) for i in range(d, d + 1))",
           'Metrics: "f(t, d): max over i in d..t-1 of abar(k, i, d) - abar(k, t, d): '
           'the drop from the best historical window"'),
    Mutant("abar-skips-first-round", "src/flwf/metrics.py",
           "values[[at[r] for r in w]]",
           "values[[at[r] for r in w[1:]]]",
           'Metrics: "abar(k, t, d): a(k, r, d) averaged over task t\'s window"'),
    Mutant("abar-summed-down-columns", "src/flwf/metrics.py",
           "np.ascontiguousarray(values[[at[r] for r in w]].T).mean(axis=1)",
           "values[[at[r] for r in w]].mean(axis=0)",
           'Metrics: "Every mean over rounds is np.mean of a 1-D array in round order, '
           'never mean(axis=0) of a 2-D block"'),
    Mutant("a-task-over-all-tasks", "src/flwf/metrics.py",
           "window_task_accuracy(owner, t, d)\n                              "
           "for d in range(1, t + 1)]))",
           "window_task_accuracy(owner, t, d)\n                              "
           "for d in range(1, self.n_tasks(owner) + 1)]))",
           'Metrics: "A_task(t): mean of abar(k, t, d) over d = 1..t"'),
    Mutant("task-index-unchecked", "src/flwf/metrics.py",
           "        if not 1 <= d <= n_tasks:\n",
           "        if not n_tasks:\n",
           'Metrics: "A task index d outside 1..T raises ValueError"'),
    Mutant("beta-swapped-teachers", "src/flwf/losses.py",
           "    return [labels, (spec.temperature, spec.beta, client),\n"
           "            (spec.temperature, 1.0 - spec.alpha - spec.beta, server)]\n",
           "    return [labels, (spec.temperature, 1.0 - spec.alpha - spec.beta, client),\n"
           "            (spec.temperature, spec.beta, server)]\n",
           'The round protocol: "flwf2: alpha * CE + beta * D_T(client teacher) '
           '+ (1 - alpha - beta) * D_T(server teacher)"'),
    Mutant("unsoftened-teachers", "src/flwf/losses.py",
           "temperature_scaled_probs(np.array(teachers), temperature)",
           "temperature_scaled_probs(np.array(teachers), 1.0)",
           'The round protocol: "D_T is cross-entropy between temperature-softened '
           'teacher and student distributions"'),
    Mutant("flwf2-client-term-from-server", "src/flwf/losses.py",
           "(spec.temperature, spec.beta, client)",
           "(spec.temperature, spec.beta, server)",
           'The round protocol: "flwf2: alpha * CE + beta * D_T(client teacher) '
           '+ (1 - alpha - beta) * D_T(server teacher)"'),
)


def tracked_files() -> list[str]:
    """Every file of the working tree that git tracks or would track."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    return [name for name in out.decode().split("\0") if name and (ROOT / name).is_file()]


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the copy at ``root``; its old text must occur once."""
    path = root / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def first_failure(output: str) -> str:
    """The first ``FAILED``/``ERROR`` test id in pytest's summary, or its last line."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    if match:
        return match.group(1)
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def run_row(mutant: Mutant, files: list[str]) -> tuple[bool, str, float]:
    """(killed, the first failing test or pytest's last line, seconds)."""
    with tempfile.TemporaryDirectory(prefix="flwf-mutant-") as tmp:
        root = Path(tmp)
        for name in files:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, root / name)
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        return done.returncode != 0, first_failure(done.stdout), elapsed


def main() -> int:
    files = tracked_files()
    failed = False
    for mutant in MUTANTS:
        try:
            killed, detail, elapsed = run_row(mutant, files)
        except ValueError as err:
            print(f"{mutant.name}: broken row, {err}", flush=True)
            failed = True
            continue
        line = f"{mutant.name}: {'killed' if killed else 'survived'} in {elapsed:.1f} s"
        if killed:
            line += f" by {detail}"
        if mutant.equivalent:
            line += f" (equivalent: {mutant.equivalent})"
        elif not killed:
            failed = True
            line += f"; breaks {mutant.rule}"
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
