"""
Catastrophic forgetting and what distillation does about it
===========================================================

Runs four bundled methods on the same seed and watches the observed
client's accuracy on its first task.  At seed 1, fine-tuning drops from
1.00 to 0.00 the moment the second task starts (F2 = 1.000), and
``exp2-hybrid-flwf1`` stays at 0.99-1.00 (F2 = 0.002).  The two-teacher
``exp2-hybrid-flwf2`` learns task 1 slowly and gains on it after the
switch (F2 = -0.435).  Exemplar replay on top of it does not help task
1 here: rounds 6-8 read 0.57/0.61/0.52 with exemplars against
0.61/0.62/0.58 without, and F2 is -0.417 against -0.435.  ROADMAP item
4 (where the forgotten rows go) and item 14 (the same comparison paired
over seeds 1-20, where exemplars raise F2 on 17 of 20) follow that up.
"""

import numpy as np

from flwf import preset, run_experiment

SEED = 1
METHODS = ("baseline-finetune", "exp2-hybrid-flwf1", "exp2-hybrid-flwf2",
           "exp3-exemplars-flwf2")

results = {}
for name in METHODS:
    results[name] = run_experiment(preset(name, seed=SEED))
    print(f"ran {name} (seed {SEED})")

# -- task-1 accuracy round by round -------------------------------------------------

# the observed client learns class 1 in rounds 1-4 and class 2 in rounds
# 5-8; the interesting column is its accuracy on task 1 after the switch
print(f"\nobserved client, accuracy on task 1 by round (seed {SEED}):")
print(f"  {'round':<22}" + "".join(f"{r:>7d}" for r in range(1, 9)))
for name in METHODS:
    ledger = results[name].ledger
    accs = [ledger.task_accuracy("client1", r, 1) for r in range(1, 9)]
    print(f"  {name:<22}" + "".join(f"{a:7.2f}" for a in accs))

# -- the summary metrics --------------------------------------------------------------

print("\nfinal metrics for the observed client:")
print(f"  {'method':<22}{'A_gen':>8}{'A_per':>8}{'A_task2':>9}{'F2':>8}")
for name in METHODS:
    ledger = results[name].ledger
    print(f"  {name:<22}"
          f"{ledger.general_accuracy('client1'):8.3f}"
          f"{ledger.personal_accuracy('client1'):8.3f}"
          f"{ledger.avg_task_accuracy('client1', 2):9.3f}"
          f"{ledger.average_forgetting('client1', 2):8.3f}")

ft = results["baseline-finetune"].ledger.average_forgetting("client1", 2)
f2 = results["exp2-hybrid-flwf2"].ledger.average_forgetting("client1", 2)
print(f"\nfine-tuning forgets F2={ft:.3f}; the two-teacher objective "
      f"holds F2={f2:.3f}")

# the server's round-averaged accuracy tells the same story from the
# aggregation side
print("\nserver general accuracy per method:")
for name in METHODS:
    print(f"  {name:<22}"
          f"{results[name].ledger.general_accuracy('server'):8.3f}")
