"""
One communication round, dissected
==================================

Two clients train locally and the server aggregates them.  The observed
client sees a single class per task (its batches are unbalanced, so the
hybrid policy keeps distillation on); the generalized client draws all
classes (balanced, so the policy lets it fine-tune).  Aggregation
weights are the client weight hints times the fresh-draw sizes.
"""

from flwf import (ClientConfig, LayerConfig, ScenarioConfig, StrategyPolicy,
                  SyntheticSource, TaskSequence, TaskSpec, current_task,
                  normalized_label_entropy, run_experiment)

layers = (LayerConfig("dense", units=16), LayerConfig("relu"),
          LayerConfig("dropout", rate=0.2),
          LayerConfig("dense", units=3), LayerConfig("softmax-output"))

scenario = ScenarioConfig(
    label="dissect", seed=0, rounds=2, epochs=2, batch_size=16,
    learning_rate=0.05, dropout=0.2, n_classes=3, input_shape=(8,),
    layers=layers, total_clients=2,
    clients=(
        ClientConfig(name="observed", weight=1.0, algo="flwf2",
                     alpha=0.4, beta=0.3,
                     tasks=TaskSequence((TaskSpec((1,), 1), TaskSpec((2,), 1))),
                     policy=StrategyPolicy(mode="hybrid")),
        ClientConfig(name="generalized", weight=4.0, algo="flwf2",
                     alpha=0.4, beta=0.3,
                     tasks=TaskSequence((TaskSpec((0, 1, 2), 2),)),
                     policy=StrategyPolicy(mode="hybrid")),
    ),
    data=SyntheticSource(per_class=120, feature_dim=8, separation=1.5),
    round_data_size=24, test_per_class=10, exemplar_capacity=5)

result = run_experiment(scenario)

rows = scenario.round_data_size  # every client draws this many fresh rows
for r in range(1, scenario.rounds + 1):
    print(f"\n-- round {r} " + "-" * 40)
    for client in result.clients:
        name, tasks = client.name, client.cfg.tasks
        t, _ = current_task(tasks, r)
        print(f"  {name}: task {t}, drew {rows} rows, trained with "
              f"'{result.ledger.record_for(name, r).mode}', "
              f"learnt classes {tasks.classes_started_by(r)}")
    raw = {c.name: c.cfg.weight * rows for c in result.clients}
    total = sum(raw.values())
    shares = {n: raw[n] / total for n in raw}
    print(f"  aggregation shares (hint x rows, normalized): "
          + ", ".join(f"{n}={s:.2f}" for n, s in shares.items()))
    for name in raw:
        acc = result.ledger.whole_test_accuracy(name, r)
        print(f"  {name} whole-test accuracy after local training: {acc:.3f}")
    print(f"  server whole-test accuracy after aggregation:  "
          f"{result.ledger.whole_test_accuracy('server', r):.3f}")

# why the policy split the two clients: label entropy of their draws
print("\nwhy the hybrid policy treated them differently:")
pool_labels = {"observed single-class draw": [1] * 24,
               "generalized balanced draw": [0, 1, 2] * 8}
for what, labels in pool_labels.items():
    h = normalized_label_entropy(labels, 3)
    verdict = "unbalanced -> distill" if h < 0.5 else "balanced -> fine-tune"
    print(f"  {what}: normalized entropy {h:.3f} ({verdict})")
