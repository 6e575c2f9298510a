"""Kernel work of a scenario, computed from its layer shapes (not measured).

Later kernel changes (im2col convolution, float32, read-only teachers) can
report operations and bytes next to time with these figures.  Bytes are
algorithmic minimums for float64 buffers: each parameter read or written
once, temporaries not counted.
"""

FLOAT_BYTES = 8


def kernel_counts(scenario):
    """Multiply-adds per SGD step and parameter bytes per call, from a
    scenario mapping as written by ``workloads``."""
    batch = scenario["batch_size"]
    shape = tuple(scenario["input_shape"])
    conv_macs = dense_macs = params = 0
    for layer in scenario["layers"]:
        kind = layer["kind"]
        if kind == "conv1d":
            length, channels = shape
            lout = length - layer["kernel"] + 1
            conv_macs += lout * layer["kernel"] * channels * layer["filters"]
            params += layer["kernel"] * channels * layer["filters"] + layer["filters"]
            shape = (lout, layer["filters"])
        elif kind == "maxpool1d":
            shape = (shape[0] // layer["pool"], shape[1])
        elif kind == "dense":
            fan_in = 1
            for d in shape:
                fan_in *= d
            dense_macs += fan_in * layer["units"]
            params += fan_in * layer["units"] + layer["units"]
            shape = (layer["units"],)
    param_bytes = params * FLOAT_BYTES
    n_models = len(scenario["clients"])
    return {
        "basis": "computed from shapes, float64, not measured",
        "batch_size": batch,
        "params": params,
        # forward x @ W once; backward dW and dX cost one forward each
        "conv1d_macs_per_sgd_step": {"forward": batch * conv_macs,
                                     "backward": 2 * batch * conv_macs},
        "dense_macs_per_sgd_step": {"forward": batch * dense_macs,
                                    "backward": 2 * batch * dense_macs},
        "param_bytes": {
            "sgd_step": 3 * param_bytes,           # read W and dW, write W
            "params_digest": param_bytes,          # read W
            "fedavg": (n_models + 1) * param_bytes,  # read each model, write one
        },
    }
