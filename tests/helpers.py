"""Model helpers shared by the test modules."""

import numpy as np

from flwf.network import ModelParams


def same_model(a: ModelParams, b: ModelParams) -> bool:
    """Bit-for-bit equality of two models: one layout and equal ``flat``."""
    return a.same_layout(b) and np.array_equal(a.flat, b.flat)


def packed(architecture, input_shape, arrays) -> ModelParams:
    """A new model of ``architecture`` holding copies of ``arrays``, one
    ``{key: array}`` per layer, which must have the architecture's shapes."""
    model = ModelParams(architecture, input_shape)
    assert ([{key: np.shape(a) for key, a in w.items()} for w in arrays]
            == [{key: v.shape for key, v in w.items()} for w in model.weights])
    for source, views in zip(arrays, model.weights):
        for key, view in views.items():
            view[...] = source[key]
    return model
