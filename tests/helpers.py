"""Model helpers shared by the test modules."""

import numpy as np

from flwf import losses
from flwf.network import (ModelParams, _backward_pass, _forward_pass, backward,
                          loss_on_batch)


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


def fd_spec(mode, rng, rows, n) -> losses.LossSpec:
    """A spec of ``mode`` whose teachers' logits are standard normal draws."""
    if mode == "fine-tune":
        return losses.LossSpec(mode="fine-tune")
    if mode == "flwf1":
        return losses.LossSpec(mode="flwf1", alpha=0.3, temperature=2.0,
                               teacher_client_logits=rng.normal(size=(rows, n)))
    return losses.LossSpec(mode="flwf2", alpha=0.2, beta=0.5, temperature=2.0,
                           teacher_client_logits=rng.normal(size=(rows, n)),
                           teacher_server_logits=rng.normal(size=(rows, n)))


def analytic_grads(params, batch, spec, masks=None) -> ModelParams:
    """The analytic gradient on ``batch``: :func:`flwf.network.backward`,
    or, given one step's dropout masks (``network._draw_masks``), the
    forward and backward passes ``train_local`` runs, applying them."""
    if masks is None:
        return backward(params, batch, spec)
    logits, caches = _forward_pass(params, batch.features, iter(masks), keep_caches=True)
    return _backward_pass(params, caches,
                          losses.combined_loss_grad(spec, logits, batch.one_hot()))


def fd_param_grads(params, batch, spec, masks=None, h=1e-5) -> ModelParams:
    """Central finite differences of what :func:`analytic_grads` derives,
    every weight moved by ``h`` in turn: :func:`flwf.network.loss_on_batch`,
    or, given one step's dropout masks, the loss through a forward pass
    that applies the same masks at every evaluation."""
    def value(p):
        if masks is None:
            return loss_on_batch(p, batch, spec)
        logits = _forward_pass(p, batch.features, iter(masks), keep_caches=False)[0]
        return losses.combined_loss(spec, logits, batch.one_hot())

    grads = []
    for i, w in enumerate(params.weights):
        g = {}
        for key, arr in w.items():
            out = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                up = params.copy()
                up.weights[i][key][idx] += h
                dn = params.copy()
                dn.weights[i][key][idx] -= h
                out[idx] = (value(up) - value(dn)) / (2 * h)
            g[key] = out
        grads.append(g)
    return packed(params.architecture, params.input_shape, grads)
