"""Model helpers shared by the test modules."""

import numpy as np

from flwf.network import ModelParams


def same_model(a: ModelParams, b: ModelParams) -> bool:
    """Bit-for-bit equality of two models: one layout and equal ``flat``."""
    return a.same_layout(b) and np.array_equal(a.flat, b.flat)


def packed(architecture, input_shape, arrays) -> ModelParams:
    """A new model holding copies of ``arrays``, one ``{key: array}`` per
    layer, laid out in key order."""
    layout = tuple(tuple((key, np.shape(w[key])) for key in sorted(w)) for w in arrays)
    model = ModelParams(architecture, input_shape, layout)
    for source, views in zip(arrays, model.weights):
        for key, view in views.items():
            view[...] = source[key]
    return model
