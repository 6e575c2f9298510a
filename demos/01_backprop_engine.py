"""
The network engine: shapes, gradients, and a short training run
================================================================

Builds the two architectures the simulator uses (a small dense network
and the paper's 1D convolutional network), verifies one analytic gradient against
central finite differences, and trains on a toy batch to show the loss
trace falling.
"""

import numpy as np

from flwf import (DatasetPool, LayerConfig, LossSpec, backward, forward, infer_shapes,
                  init_params, loss_on_batch, train_local, uci_cnn_layers)

# -- two architectures ---------------------------------------------------------

mlp = (LayerConfig("dense", units=32), LayerConfig("relu"),
       LayerConfig("dropout", rate=0.5),
       LayerConfig("dense", units=6), LayerConfig("softmax-output"))

cnn = uci_cnn_layers()  # the paper's network for 128x9 inertial windows

print("dense network on flat 16-dim inputs:")
for layer, shape in zip(mlp, infer_shapes(mlp, (16,))):
    print(f"  {layer.kind:<16} -> {shape}")

print("convolutional network on (length 128, 9 channels) inputs:")
for layer, shape in zip(cnn, infer_shapes(cnn, (128, 9))):
    print(f"  {layer.kind:<16} -> {shape}")

# -- gradient check --------------------------------------------------------------

# central finite differences on every parameter of the dense network;
# the analytic backward pass must agree to ~1e-4 relative
params = init_params(mlp, (16,), seed=0)
rng = np.random.default_rng(1)
# eight labeled rows: a DatasetPool holds any labeled data, checked once
batch = DatasetPool(rng.normal(size=(8, 16)), rng.integers(0, 6, size=8), 6)
spec = LossSpec(mode="fine-tune")

analytic = backward(params, batch, spec)

h = 1e-5
worst = 0.0
for i, w in enumerate(params.weights):
    for key, arr in w.items():
        flat_index = np.unravel_index(np.argmax(np.abs(analytic.weights[i][key])),
                                      arr.shape)
        up, dn = params.copy(), params.copy()
        up.weights[i][key][flat_index] += h
        dn.weights[i][key][flat_index] -= h
        numeric = (loss_on_batch(up, batch, spec)
                   - loss_on_batch(dn, batch, spec)) / (2 * h)
        gap = abs(numeric - analytic.weights[i][key][flat_index])
        worst = max(worst, gap / (1e-6 + abs(numeric)))
        print(f"layer {i} {key}: analytic "
              f"{analytic.weights[i][key][flat_index]:+.6f} vs numeric "
              f"{numeric:+.6f}")
print(f"worst relative gap: {worst:.2e}")
assert worst < 1e-4

# -- training loop -----------------------------------------------------------------

# ten epochs of seeded mini-batch SGD; the loss is summed over each batch
trace = []
trained = train_local(params, batch, spec, learning_rate=0.05, batch_size=4, epochs=10,
                      seed=7, loss_trace=trace)

print(f"\nloss trace over {len(trace)} SGD steps:")
print("  start:", " ".join(f"{v:7.3f}" for v in trace[:3]))
print("  end:  ", " ".join(f"{v:7.3f}" for v in trace[-3:]))
assert trace[-1] < trace[0]

before = forward(params, batch.features)[0]
after = forward(trained, batch.features)[0]
print("logits for the first example moved from")
print("  ", np.round(before, 3))
print("to")
print("  ", np.round(after, 3))
