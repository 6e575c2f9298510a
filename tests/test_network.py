"""Network engine: shape inference, forward semantics, FD gradient checks,
SGD, local training, and serialization."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from flwf import losses, network
from flwf.config import ConfigError, preset, uci_cnn_layers
from flwf.datasets import DatasetPool
from flwf.losses import LossSpec
from flwf.network import (KIND_SOFTMAX_OUTPUT, SGD_CHUNK, LayerConfig, ModelParams,
                          ShapeMismatchError, _conv1d_forward,
                          _backward_pass, _conv1d_input_grad, _conv1d_param_grads,
                          _draw_masks, _forward_pass,
                          _maxpool_backward, _maxpool_forward, backward, forward,
                          infer_shapes, init_params, layer_to_dict, loss_on_batch,
                          params_digest, reclaim, sgd_step, train_local)
from helpers import analytic_grads, fd_param_grads, fd_spec, packed, same_model

MLP = (LayerConfig("dense", units=8), LayerConfig("relu"),
       LayerConfig("dense", units=3), LayerConfig("softmax-output"))

CONVNET = (LayerConfig("conv1d", filters=3, kernel=3), LayerConfig("relu"),
           LayerConfig("maxpool1d", pool=2), LayerConfig("dense", units=3),
           LayerConfig("softmax-output"))


def make_batch(rng, params, rows=6):
    n = infer_shapes(params.architecture, params.input_shape)[-1][0]
    feats = rng.normal(size=(rows, *params.input_shape))
    labels = rng.integers(0, n, size=rows)
    return DatasetPool(feats, labels, n)


# -- configuration and shapes ---------------------------------------------------


def test_layer_config_validation():
    with pytest.raises(ValueError):
        LayerConfig("warp-drive")
    with pytest.raises(ValueError):
        LayerConfig("dense")
    with pytest.raises(ValueError):
        LayerConfig("conv1d", filters=3)
    with pytest.raises(ValueError):
        LayerConfig("maxpool1d", pool=0)
    with pytest.raises(ValueError):
        LayerConfig("dropout", rate=1.0)


@pytest.mark.parametrize("kind, field, value", [
    ("dense", "units", 3.5), ("dense", "units", True), ("dense", "units", 4.0),
    ("conv1d", "filters", 2.5), ("conv1d", "kernel", False), ("maxpool1d", "pool", 2.0),
])
def test_layer_config_rejects_a_size_that_is_not_an_int(kind, field, value):
    """A fractional, float or bool size is named with its field before
    ``init_params`` can trip over it; a numpy int is stored as an int."""
    sizes = {"dense": {"units": 3}, "conv1d": {"filters": 2, "kernel": 3},
             "maxpool1d": {"pool": 2}}[kind]
    with pytest.raises(ValueError, match=f"^{field}: must be an integer, got {value!r}$"):
        LayerConfig(kind, **{**sizes, field: value})
    size = getattr(LayerConfig(kind, **{**sizes, field: np.int64(2)}), field)
    assert size == 2 and type(size) is int


@pytest.mark.parametrize("dim", [5.7, 5.0, True])
def test_an_input_dimension_that_is_not_an_int_is_rejected(dim):
    """``int`` would truncate 5.7 to a 5-wide input and read True as 1."""
    for build in (lambda shape: infer_shapes(MLP, shape),
                  lambda shape: init_params(MLP, shape, 0)):
        with pytest.raises(ValueError, match=f"^input_shape: must be an integer, got {dim!r}$"):
            build((dim,))
    assert init_params(MLP, [np.int64(5)], 0).input_shape == (5,)


def test_infer_shapes_mlp():
    assert infer_shapes(MLP, (5,)) == [(8,), (8,), (3,), (3,)]


def test_infer_shapes_convnet():
    # (10,2) -conv3-> (8,3) -pool2-> (4,3) -dense-> (3,)
    shapes = infer_shapes(CONVNET, (10, 2))
    assert shapes == [(8, 3), (8, 3), (4, 3), (3,), (3,)]


def test_infer_shapes_rejects_bad_stacks():
    with pytest.raises(ShapeMismatchError):
        infer_shapes((LayerConfig("conv1d", filters=2, kernel=3),), (5,))
    with pytest.raises(ShapeMismatchError):
        infer_shapes((LayerConfig("conv1d", filters=2, kernel=9),), (5, 1))
    with pytest.raises(ShapeMismatchError):
        infer_shapes((LayerConfig("maxpool1d", pool=9),), (5, 1))
    with pytest.raises(ValueError):
        # softmax-output not last
        infer_shapes((LayerConfig("softmax-output"),
                      LayerConfig("dense", units=2)), (5,))
    with pytest.raises(ValueError):
        # does not end in a logit vector
        infer_shapes((LayerConfig("conv1d", filters=2, kernel=2),), (5, 1))


def test_init_glorot_bounds_and_zero_biases():
    params = init_params(MLP, (5,), seed=0)
    w0 = params.weights[0]
    bound = math.sqrt(6.0 / (5 + 8))
    assert np.abs(w0["W"]).max() <= bound
    assert w0["W"].shape == (5, 8)
    assert np.all(w0["b"] == 0.0)
    conv = init_params(CONVNET, (10, 2), seed=0).weights[0]
    assert conv["W"].shape == (3, 2, 3)
    cbound = math.sqrt(6.0 / (3 * 2 + 3 * 3))
    assert np.abs(conv["W"]).max() <= cbound


def test_init_deterministic_per_seed():
    a = init_params(MLP, (5,), seed=11)
    b = init_params(MLP, (5,), seed=11)
    c = init_params(MLP, (5,), seed=12)
    assert same_model(a, b)
    assert not same_model(a, c)



# -- forward semantics -----------------------------------------------------------


def test_forward_shapes_and_finiteness():
    rng = np.random.default_rng(0)
    params = init_params(CONVNET, (10, 2), seed=1)
    logits = forward(params, rng.normal(size=(7, 10, 2)))
    assert logits.shape == (7, 3)
    assert np.isfinite(logits).all()


def test_forward_accepts_flat_input_for_structured_shape():
    rng = np.random.default_rng(1)
    params = init_params(CONVNET, (10, 2), seed=1)
    x = rng.normal(size=(4, 10, 2))
    flat = x.reshape(4, 20)
    assert np.array_equal(forward(params, x), forward(params, flat))


def test_forward_rejects_wrong_input_shape():
    params = init_params(MLP, (5,), seed=0)
    with pytest.raises(ShapeMismatchError):
        forward(params, np.zeros((3, 7)))
    with pytest.raises(ShapeMismatchError):
        forward(params, np.zeros(5))  # no batch axis


@pytest.mark.parametrize("arch, shape", [(MLP, (5,)), (CONVNET, (10, 2))])
def test_a_pass_refuses_an_empty_batch_by_name(arch, shape):
    """Every pass refuses a zero-row batch, flat or shaped, where inputs
    are checked, with an error that names it."""
    params = init_params(arch, shape, seed=0)
    batch = make_batch(np.random.default_rng(0), params).take([])
    for inputs in (np.zeros((0, *shape)), np.zeros((0, math.prod(shape)))):
        with pytest.raises(ShapeMismatchError, match="^input: the batch is empty"):
            forward(params, inputs)
    with pytest.raises(ShapeMismatchError, match="^input: the batch is empty"):
        backward(params, batch, LossSpec())


def test_conv1d_hand_computation():
    arch = (LayerConfig("conv1d", filters=1, kernel=2),
            LayerConfig("dense", units=1), LayerConfig("softmax-output"))
    params = init_params(arch, (3, 1), seed=0)
    params.weights[0]["W"][...] = np.array([[[1.0]], [[10.0]]])  # (kernel, in, out)
    params.weights[0]["b"][...] = np.array([0.5])
    params.weights[1]["W"][...] = np.array([[1.0], [1.0]])
    params.weights[1]["b"][...] = np.array([0.0])
    x = np.array([[[1.0], [2.0], [3.0]]])
    # conv outputs: [1+20+0.5, 2+30+0.5] = [21.5, 32.5]; dense sums them
    assert forward(params, x)[0, 0] == pytest.approx(54.0)


def conv1d_einsum_reference(x, W, b, dy):
    """Forward, dW and dX of a valid stride-1 conv1d as einsums over the
    window view: the layer's definition, kept here as the oracle."""
    kernel = W.shape[0]
    windows = sliding_window_view(x, kernel, axis=1)  # (B, Lout, C, K)
    y = np.einsum("blck,kcf->blf", windows, W) + b
    dw = np.einsum("blck,blf->kcf", windows, dy)
    dx = np.zeros_like(x)
    for k in range(kernel):
        dx[:, k:k + dy.shape[1], :] += np.einsum("blf,cf->blc", dy, W[k])
    return y, dw, dx


@st.composite
def conv1d_shapes(draw):
    length = draw(st.integers(1, 24))
    kernel = draw(st.one_of(st.just(1), st.just(length), st.integers(1, length)))
    return (draw(st.integers(1, 5)), length, draw(st.integers(1, 6)),
            draw(st.integers(1, 6)), kernel, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(conv1d_shapes())
def test_conv1d_im2col_matches_einsum_reference(shape):
    batch, length, channels, filters, kernel, seed = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, length, channels))
    W = rng.normal(size=(kernel, channels, filters))
    b = rng.normal(size=filters)
    dy = rng.normal(size=(batch, length - kernel + 1, filters))
    y, cache = _conv1d_forward(x, W, b)
    grads = {"W": np.empty(W.shape), "b": np.empty(filters)}
    _conv1d_param_grads(cache, dy, grads)
    dx = _conv1d_input_grad(cache, W, dy)
    ref_y, ref_dw, ref_dx = conv1d_einsum_reference(x, W, b, dy)
    for got, ref in ((y, ref_y), (grads["W"], ref_dw), (dx, ref_dx)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(grads["b"], dy.sum(axis=(0, 1)))


def test_inference_forward_equals_training_forward_bit_for_bit():
    """Inference max-pools without argmax; with integer inputs and weights
    the ReLU zeros and equal sums tie inside pool windows, and the logits
    must still equal the cached training path's exactly."""
    ties = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(CONVNET, (10, 2), seed=seed)
        for w in params.weights:
            for key in w:
                w[key][...] = rng.integers(-2, 3, size=w[key].shape).astype(float)
        x = rng.integers(-2, 3, size=(16, 10, 2)).astype(float)
        logits, _ = _forward_pass(params, x, None, keep_caches=True)
        assert np.array_equal(forward(params, x), logits)
        pooled = np.maximum(_conv1d_forward(x, params.weights[0]["W"],
                                            params.weights[0]["b"])[0], 0.0)
        windows = pooled[:, :8, :].reshape(16, 4, 2, 3)
        ties += int((windows[:, :, 0, :] == windows[:, :, 1, :]).sum())
    assert ties > 0


def test_maxpool_forward_and_tie_routing():
    x = np.array([[[5.0], [5.0], [3.0], [1.0]]])  # tie in the first window
    out, cache = _maxpool_forward(x, 2)
    assert out.tolist() == [[[5.0], [3.0]]]
    dout = np.array([[[2.0], [7.0]]])
    dx = _maxpool_backward(cache, dout)
    # gradient goes to the LOWEST index of the tied pair
    assert dx.tolist() == [[[2.0], [0.0], [7.0], [0.0]]]


def test_maxpool_drops_trailing_remainder():
    x = np.arange(10, dtype=float).reshape(1, 5, 2)
    out, cache = _maxpool_forward(x, 2)
    assert out.shape == (1, 2, 2)
    dx = _maxpool_backward(cache, np.ones((1, 2, 2)))
    assert dx[0, 4].tolist() == [0.0, 0.0]  # remainder row gets no gradient


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, sign bits of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def signed_small_ints(rng, shape):
    """Small integers (ties within pool windows are common) with each zero
    given a random sign, so the kept value's sign bit is observable."""
    x = rng.integers(-2, 3, size=shape).astype(float)
    return np.where((x == 0) & rng.integers(0, 2, size=shape).astype(bool), -0.0, x)


def argmax_pool(x, pool):
    """Each window's value at its first argmax, and that argmax."""
    batch, length, channels = x.shape
    lout = length // pool
    windows = x[:, :lout * pool, :].reshape(batch, lout, pool, channels)
    idx = windows.argmax(axis=2)[:, :, None, :]
    return np.take_along_axis(windows, idx, axis=2)[:, :, 0, :], idx


def argmax_pool_grad(idx, shape, pool, dout):
    """``dout`` put at each window's argmax slice of a zeroed ``dx``."""
    batch, lout, _, channels = idx.shape
    dwin = np.zeros((batch, lout, pool, channels))
    np.put_along_axis(dwin, idx, dout[:, :, None, :], axis=2)
    dx = np.zeros(shape)
    dx[:, :lout * pool, :] = dwin.reshape(batch, lout * pool, channels)
    return dx


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda length: st.tuples(
           st.just(length), st.integers(1, length))),
       st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_maxpool_matches_argmax_reference_bit_for_bit(length_pool, batch,
                                                      channels, seed):
    """Forward values (training and inference) and routed gradients equal
    an argmax/take_along_axis/put_along_axis reference, sign bits
    included; lengths cover L % pool != 0, pool = 1 and pool = L."""
    length, pool = length_pool
    rng = np.random.default_rng(seed)
    x = signed_small_ints(rng, (batch, length, channels))
    dout = signed_small_ints(rng, (batch, length // pool, channels))
    ref_out, idx = argmax_pool(x, pool)
    ref_dx = argmax_pool_grad(idx, x.shape, pool, dout)

    snapshot = x.copy()
    out, cache = _maxpool_forward(x, pool)
    inference, no_cache = _maxpool_forward(x, pool, keep_winner=False)
    assert no_cache is None
    assert same_bits(out, ref_out) and same_bits(inference, ref_out)
    assert not np.shares_memory(out, x) and not np.shares_memory(inference, x)
    assert same_bits(_maxpool_backward(cache, dout), ref_dx)  # unrouted: +0.0
    assert same_bits(x, snapshot)


POOLED_BLOCKS = {
    "relu-pool": (LayerConfig("relu"),),
    "pool": (),
    "relu-dropout-pool": (LayerConfig("relu"), LayerConfig("dropout", rate=0.5)),
}


@st.composite
def pooled_conv_nets(draw):
    """One or two conv1d blocks, each conv1d -> (relu | nothing | relu,
    dropout) -> maxpool1d, then dense layers; lengths often leave a pool
    remainder.  Returns the net, its input shape and whether the conv
    biases sit at 2**53, where fl(y + b) merges neighbouring sums."""
    length = draw(st.integers(3, 16))
    input_shape = (length, draw(st.integers(1, 3)))
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        kernel = draw(st.integers(1, max(1, length // 2)))
        pool = draw(st.integers(1, length - kernel + 1))
        layers += [LayerConfig("conv1d", filters=draw(st.integers(1, 4)), kernel=kernel),
                   *POOLED_BLOCKS[draw(st.sampled_from(sorted(POOLED_BLOCKS)))],
                   LayerConfig("maxpool1d", pool=pool)]
        length = (length - kernel + 1) // pool
    if draw(st.booleans()):
        layers += [LayerConfig("dense", units=draw(st.integers(1, 5))), LayerConfig("relu")]
    layers += [LayerConfig("dense", units=draw(st.integers(2, 4))),
               LayerConfig("softmax-output")]
    return tuple(layers), input_shape, draw(st.booleans())


def plain_order_reference(params, x, dlogits):
    """Logits and weight gradients (dropout off) with every layer run in
    the architecture's order: conv1d adds its bias at full width, ReLU
    rectifies every element, max-pool takes each window's first argmax
    and routes the gradient there (:func:`argmax_pool`)."""
    caches = []
    for layer, w in zip(params.architecture, params.weights):
        cache = None
        if layer.kind == "dense":
            cache = (x.shape, x.reshape(len(x), -1))
            x = cache[1] @ w["W"] + w["b"]
        elif layer.kind == "conv1d":
            x, cache = _conv1d_forward(x, w["W"], w["b"])
        elif layer.kind == "relu":
            cache = x > 0
            x = np.maximum(x, 0.0)
        elif layer.kind == "maxpool1d":
            shape = x.shape
            x, idx = argmax_pool(x, layer.pool)
            cache = (idx, shape, layer.pool)
        caches.append(cache)
    grads = params.with_flat(np.empty(params.flat.shape))
    dx = dlogits
    for i in range(len(caches) - 1, 0, -1):
        layer, w, g, cache = params.architecture[i], params.weights[i], grads.weights[i], caches[i]
        if layer.kind == "dense":
            g["W"][...] = cache[1].T @ dx
            g["b"][...] = dx.sum(axis=0)
            dx = (dx @ w["W"].T).reshape(cache[0])
        elif layer.kind == "conv1d":
            _conv1d_param_grads(cache, dx, g)
            dx = _conv1d_input_grad(cache, w["W"], dx)
        elif layer.kind == "relu":
            dx = dx * cache
        elif layer.kind == "maxpool1d":
            dx = argmax_pool_grad(*cache, dx)
    _conv1d_param_grads(caches[0], dx, grads.weights[0])  # layer 0 is a conv1d
    return x, grads


@settings(max_examples=150, deadline=None)
@given(pooled_conv_nets(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pooled_width_conv_block_matches_the_plain_order(net, batch, seed):
    """Inference (bias after the pool, ReLU after the pool) and the training
    pass (bias at full width, ReLU and its mask at pooled width) give the
    plain-order reference's logits bit for bit.  Inputs and weights are
    small integers, so windows tie and many have a maximum <= 0; there a
    zero gradient may change sign, so gradients are compared by value,
    and one SGD step from each gives the same bits."""
    arch, input_shape, huge_bias = net
    rng = np.random.default_rng(seed)
    params = init_params(arch, input_shape, seed=0)
    for layer, w in zip(arch, params.weights):
        for key in w:
            w[key][...] = rng.integers(-2, 3, size=w[key].shape)
        if layer.kind == "conv1d":
            w["b"][...] = rng.integers(-3, 2, size=w["b"].shape) + (2.0**53 if huge_bias else 0.0)
    x = rng.integers(-2, 3, size=(batch, *input_shape)).astype(float)
    dlogits = rng.integers(-2, 3, size=(batch, arch[-2].units)).astype(float)
    kinds = [arch[i].kind for i in params.order]
    assert sorted(params.order) == list(range(len(arch)))
    assert ("relu", "maxpool1d") not in zip(kinds, kinds[1:])  # every ReLU at pooled width

    logits, caches = _forward_pass(params, x, None, keep_caches=True)
    ref_logits, ref_grads = plain_order_reference(params, x, dlogits)
    assert same_bits(forward(params, x), logits)
    assert same_bits(logits, ref_logits)
    grads = _backward_pass(params, caches, dlogits)
    assert all(np.array_equal(g[key], r[key])
               for g, r in zip(grads.weights, ref_grads.weights) for key in g)
    assert same_bits(sgd_step(params, grads, 0.25).flat,
                     sgd_step(params, ref_grads, 0.25).flat)


RELU_FIRST = (LayerConfig("relu"), LayerConfig("dense", units=3),
              LayerConfig("softmax-output"))
DROPOUT_RELU = (LayerConfig("dropout", rate=0.5), LayerConfig("relu"),
                LayerConfig("dense", units=3), LayerConfig("softmax-output"))


@pytest.mark.parametrize("arch", [RELU_FIRST, DROPOUT_RELU],
                         ids=["relu-first", "dropout-relu"])
@pytest.mark.parametrize("flat", [False, True], ids=["shaped", "flat"])
def test_relu_never_writes_the_callers_input(arch, flat):
    """The in-place ReLU rectifies only activations the pass allocated; when
    it sees the (coerced) input itself, the caller's array is untouched."""
    params = init_params(arch, (3, 2), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3, 2))
    if flat:
        x = x.reshape(6, 6)
    snapshot = x.copy()
    forward(params, x)
    backward(params, DatasetPool(x, rng.integers(0, 3, size=6), 3), LossSpec())
    for keep_caches, seed in ((False, 2), (True, 3)):  # a training step's masks
        masks = _draw_masks(params.dropouts, [6], np.random.default_rng(seed))
        _forward_pass(params, x, iter(masks), keep_caches)
    assert same_bits(x, snapshot)


@pytest.mark.parametrize("arch", [
    (LayerConfig("dense", units=4), LayerConfig("relu"), LayerConfig("softmax-output")),
    (LayerConfig("dense", units=4), LayerConfig("relu"),
     LayerConfig("dropout", rate=0.5), LayerConfig("softmax-output")),
], ids=["dense-relu-softmax", "dense-relu-dropout-softmax"])
def test_backward_never_writes_the_callers_logit_gradient(arch):
    """ReLU and dropout scale their gradient in place, except when it is
    still the caller's ``dlogits``: a read-only one passes unchanged, and
    the weight gradients equal those from a writable copy."""
    params = init_params(arch, (3,), seed=0)
    x = np.random.default_rng(1).normal(size=(6, 3))
    masks = _draw_masks(params.dropouts, [6], np.random.default_rng(2))
    _, caches = _forward_pass(params, x, iter(masks), keep_caches=True)
    dlogits = np.random.default_rng(3).normal(size=(6, 4))
    snapshot = dlogits.copy()
    dlogits.flags.writeable = False
    grads = _backward_pass(params, caches, dlogits)
    assert same_bits(dlogits, snapshot)
    reference = _backward_pass(params, caches, snapshot.copy())
    assert all(same_bits(g[key], r[key])
               for g, r in zip(grads.weights, reference.weights) for key in g)


def test_draw_masks_scales_inverted_and_repeats_per_stream():
    """Inverted dropout keeps the expected activation: over 30 streams a
    mask's mean is close to 1.  The same stream draws the same masks."""
    arch = (LayerConfig("dropout", rate=0.5), LayerConfig("dense", units=2),
            LayerConfig("softmax-output"))
    dropouts = init_params(arch, (400,), seed=4).dropouts
    means = [_draw_masks(dropouts, [1], np.random.default_rng(s))[0].mean()
             for s in range(30)]
    assert np.mean(means) == pytest.approx(1.0, rel=0.15)
    a = _draw_masks(dropouts, [1, 2], np.random.default_rng(9))
    b = _draw_masks(dropouts, [1, 2], np.random.default_rng(9))
    assert all(same_bits(m, n) for m, n in zip(a, b))


# -- gradient checks ---------------------------------------------------------------


PER_KIND_NETS = {
    "dense": (MLP, (5,)),
    "conv1d": ((LayerConfig("conv1d", filters=2, kernel=3),
                LayerConfig("dense", units=3),
                LayerConfig("softmax-output")), (7, 2)),
    # a conv1d that is not layer 0 is the one whose input gradient is computed
    "conv1d-stacked": ((LayerConfig("conv1d", filters=2, kernel=3),
                        LayerConfig("relu"),
                        LayerConfig("conv1d", filters=3, kernel=2),
                        LayerConfig("dense", units=3),
                        LayerConfig("softmax-output")), (7, 2)),
    "maxpool1d": (CONVNET, (10, 2)),
    "relu": (MLP, (5,)),
    "dropout": ((LayerConfig("dense", units=6),
                 LayerConfig("dropout", rate=0.4),
                 LayerConfig("dense", units=3),
                 LayerConfig("softmax-output")), (5,)),
}


@pytest.mark.parametrize("mode", ["fine-tune", "flwf1", "flwf2"])
@pytest.mark.parametrize("kind", sorted(PER_KIND_NETS))
def test_gradients_match_finite_differences(kind, mode):
    arch, input_shape = PER_KIND_NETS[kind]
    for seed in (0, 1):
        rng = np.random.default_rng(100 + seed)
        params = init_params(arch, input_shape, seed=seed)
        batch = make_batch(rng, params, rows=4)
        spec = fd_spec(mode, rng, 4, batch.n_classes)
        masks = (_draw_masks(params.dropouts, [4], np.random.default_rng(31))
                 if kind == "dropout" else None)
        analytic = analytic_grads(params, batch, spec, masks)
        numeric = fd_param_grads(params, batch, spec, masks)
        for a, nmr in zip(analytic.weights, numeric.weights):
            for key in a:
                np.testing.assert_allclose(a[key], nmr[key], rtol=1e-4, atol=1e-6)


# -- SGD and local training --------------------------------------------------------


def test_sgd_step_arithmetic():
    params = init_params(MLP, (5,), seed=0)
    grads = params.copy()
    stepped = sgd_step(params, grads, 0.5)
    for w, s in zip(params.weights, stepped.weights):
        for key in w:
            assert np.allclose(s[key], 0.5 * w[key])


def read_only_copy(params):
    out = params.copy()
    out.flat.setflags(write=False)
    for w in out.weights:
        for arr in w.values():
            arr.setflags(write=False)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(MLP, (5,)), (CONVNET, (10, 2))]),
       st.integers(0, 2**32 - 1), st.floats(1e-4, 10.0), st.booleans())
def test_sgd_step_writes_w_minus_lr_g_into_the_gradient_buffers(net, seed, lr,
                                                                 read_only):
    """Bit for bit ``w - lr * g`` of a snapshot, returned in ``grads``' own
    buffers; ``params`` is never written, read-only ones included."""
    arch, input_shape = net
    rng = np.random.default_rng(seed)
    params = init_params(arch, input_shape, seed=seed)
    grads = packed(arch, input_shape,
                   [{k: rng.normal(size=v.shape) for k, v in w.items()}
                    for w in params.weights])
    if read_only:
        params = read_only_copy(params)
    before = params.copy(), grads.copy()
    stepped = sgd_step(params, grads, lr)
    for w, g, s, buf in zip(before[0].weights, before[1].weights,
                            stepped.weights, grads.weights):
        for key in w:
            assert np.array_equal(s[key], w[key] - lr * g[key])
            assert np.shares_memory(s[key], buf[key])
    assert same_model(params, before[0])


# 90,000 weights: one full SGD_CHUNK slice and a partial last one
MULTI_CHUNK = (LayerConfig("dense", units=300), LayerConfig("softmax-output"))


def multi_chunk_setup(seed=0, order="C"):
    rng = np.random.default_rng(seed)
    params = init_params(MULTI_CHUNK, (300,), seed=seed)
    grads = packed(MULTI_CHUNK, (300,),
                   [{k: np.asarray(rng.normal(size=v.shape), order=order)
                     for k, v in w.items()}
                    for w in params.weights])
    assert SGD_CHUNK < grads.weights[0]["W"].size < 2 * SGD_CHUNK
    return params, grads


@pytest.mark.parametrize("order", ["C", "F"])
def test_sgd_step_on_multi_chunk_buffers_equals_w_minus_lr_g(order):
    """Stepped slice by slice of ``flat``; a gradient packed from
    Fortran-ordered arrays lands in the same C-contiguous layout."""
    params, grads = multi_chunk_setup(order=order)
    assert grads.flat.flags.c_contiguous
    assert all(v.flags.c_contiguous for w in grads.weights for v in w.values())
    before = params.copy(), grads.copy()
    stepped = sgd_step(params, grads, 0.37)
    for w, g, s, buf in zip(before[0].weights, before[1].weights,
                            stepped.weights, grads.weights):
        for key in w:
            assert np.array_equal(s[key], w[key] - 0.37 * g[key])
            assert np.shares_memory(s[key], buf[key])
    assert same_model(params, before[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_step_raises_on_a_non_finite_value_in_the_last_chunk_only(bad):
    params, grads = multi_chunk_setup()
    grads.weights[0]["W"].reshape(-1)[-1] = bad
    with pytest.raises(FloatingPointError, match="non-finite parameters after SGD step"):
        sgd_step(params, grads, 0.1)


DROPOUT_RATES = st.one_of(st.sampled_from([0.0, 0.2, 0.5]), st.floats(0.0, 0.95))


@st.composite
def random_nets(draw):
    """A random MLP or conv1d net (conv1d, relu, optional maxpool1d, then
    dense layers) with 0-3 dropout layers of mixed rates, 0.0 among them,
    directly after the conv1d, after the conv block and after each hidden
    dense layer, and its input shape."""
    layers, dropouts = [], [0]

    def maybe_dropout():
        if dropouts[0] < 3 and draw(st.booleans()):
            dropouts[0] += 1
            layers.append(LayerConfig("dropout", rate=draw(DROPOUT_RATES)))

    if draw(st.booleans()):
        length = draw(st.integers(4, 12))
        input_shape = (length, draw(st.integers(1, 3)))
        layers.append(LayerConfig("conv1d", filters=draw(st.integers(1, 4)),
                                  kernel=draw(st.integers(1, length // 2))))
        maybe_dropout()
        layers.append(LayerConfig("relu"))
        if draw(st.booleans()):
            layers.append(LayerConfig("maxpool1d", pool=2))
    else:
        input_shape = (draw(st.integers(1, 6)),)
    maybe_dropout()
    for _ in range(draw(st.integers(0, 2))):
        layers += [LayerConfig("dense", units=draw(st.integers(1, 6))),
                   LayerConfig("relu")]
        maybe_dropout()
    layers += [LayerConfig("dense", units=draw(st.integers(2, 4))),
               LayerConfig("softmax-output")]
    return tuple(layers), input_shape


def reference_layout(arch, input_shape):
    """Each layer's ``(key, shape)`` pairs as ``init_params`` once laid them
    out by hand: a dense ``W`` is ``(flattened input, units)``, a conv1d
    ``W`` ``(kernel, channels, filters)``, and ``b`` has ``W``'s last axis."""
    layout = []
    for layer, shape in zip(arch, [input_shape] + infer_shapes(arch, input_shape)[:-1]):
        if layer.kind == "dense":
            w_shape = (math.prod(shape), layer.units)
        elif layer.kind == "conv1d":
            w_shape = (layer.kernel, shape[1], layer.filters)
        else:
            layout.append(())
            continue
        layout.append((("W", w_shape), ("b", w_shape[-1:])))
    return tuple(layout)


def _headless(arch, input_shape):
    """The layers before the first dense, on a 2-d input: no logit vector."""
    first_dense = next(i for i, layer in enumerate(arch) if layer.kind == "dense")
    return arch[:first_dense], input_shape if len(input_shape) == 2 else (*input_shape, 1)


def whole_view_init(arch, input_shape, seed) -> ModelParams:
    """Glorot init as one ``rng.random`` fill of each whole ``W`` view,
    then one scale and one shift of the view; zero biases."""
    params = ModelParams(arch, input_shape)
    rng = np.random.default_rng(seed)
    for layer, w in zip(params.architecture, params.weights):
        if w:
            view = w["W"]
            fan_out = layer.units if layer.kind == "dense" else layer.kernel * layer.filters
            s = math.sqrt(6.0 / (math.prod(view.shape[:-1]) + fan_out))
            rng.random(out=view)
            view *= s - (-s)
            view += -s
            w["b"][...] = 0.0
    return params


@settings(max_examples=80, deadline=None)
@given(random_nets(), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 3, 5, 8, 64, SGD_CHUNK]))
def test_init_fills_in_slices_the_bits_of_one_whole_view_fill(net, seed, chunk):
    """Slice by slice, ``init_params`` reads the stream as one fill of the
    whole view does, for any slice size, a last short slice included."""
    with mock.patch.object(network, "SGD_CHUNK", chunk):
        params = init_params(*net, seed=seed)
    assert params.flat.tobytes() == whole_view_init(*net, seed).flat.tobytes()


def test_init_of_the_paper_cnn_is_the_whole_view_fill():
    """Its conv and 1,024-unit dense ``W`` span many real slices."""
    arch = uci_cnn_layers(n_classes=6, dropout=0.5)
    assert max(w["W"].size for w in init_params(arch, (128, 9), seed=3).weights if w) > SGD_CHUNK
    assert (init_params(arch, (128, 9), seed=3).flat.tobytes()
            == whole_view_init(arch, (128, 9), 3).flat.tobytes())


# each turns any net of ``random_nets`` into a stack ``infer_shapes`` rejects
SPOILT_STACKS = {
    "kernel-too-long": lambda arch, shape: (
        (LayerConfig("conv1d", filters=1, kernel=shape[0] + 1), *arch), shape),
    "pool-too-long": lambda arch, shape: (
        (LayerConfig("maxpool1d", pool=shape[0] + 1), *arch), shape),
    "head-first": lambda arch, shape: ((LayerConfig("softmax-output"), *arch), shape),
    "headless": _headless,
    "zero-dim": lambda arch, shape: (arch, (0, *shape[1:])),
    "fractional-dim": lambda arch, shape: (arch, (shape[0] + 0.5, *shape[1:])),
}


@settings(max_examples=80, deadline=None)
@given(random_nets(), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from(sorted(SPOILT_STACKS)))
def test_the_one_constructor_lays_flat_out_as_views_that_share_it(net, given_flat,
                                                                  seed, spoil):
    """The architecture alone fixes the layout, ``init_params``' own, and a
    C-contiguous float64 buffer of its size is tiled by the views layer by
    layer, keys in order, without a copy (None gets a new writable one);
    each view is C-contiguous in ``flat``'s memory and cannot be rebound,
    and ``params_digest`` equals the per-buffer sha256 of the arrays.  A
    buffer of another size or dtype, or a strided one, raises, and so does
    a stack ``infer_shapes`` rejects, with ``infer_shapes``' own error."""
    arch, input_shape = net
    layout = reference_layout(arch, input_shape)
    size = sum(math.prod(shape) for keys in layout for _, shape in keys)
    source = np.random.default_rng(seed).normal(size=size)
    params = ModelParams(list(arch), list(input_shape), source if given_flat else None)
    assert params.layout == layout == init_params(arch, input_shape, seed).layout
    assert params.architecture == arch and params.input_shape == input_shape
    flat = params.flat
    assert flat.shape == (size,) and flat.dtype == np.float64
    assert flat.flags.c_contiguous and flat.flags.writeable
    assert (flat is source) == given_flat
    flat[...] = source
    arrays, start = [], 0
    for keys, views in zip(layout, params.weights, strict=True):
        assert list(views) == sorted(views) == [key for key, _ in keys]
        arrays.append({})
        for key, shape in keys:
            arrays[-1][key] = source[start:start + math.prod(shape)].reshape(shape)
            view = views[key]
            assert view.ctypes.data == flat[start:].ctypes.data  # the next element
            start += math.prod(shape)
            assert same_bits(view, arrays[-1][key]) and view.flags.c_contiguous
            assert np.shares_memory(view, flat)
            with pytest.raises(TypeError):
                views[key] = np.zeros(shape)
    assert start == size
    old = hashlib.sha256(json.dumps(
        {"input_shape": list(input_shape),
         "layers": [layer_to_dict(layer) for layer in arch]},
        sort_keys=True).encode())
    for w in arrays:
        for key in sorted(w):
            old.update(np.ascontiguousarray(w[key]).tobytes())
    assert params_digest(params) == old.hexdigest()
    for bad in (np.zeros(size + 1), source.astype(np.float32), np.zeros(2 * size)[::2]):
        with pytest.raises(ShapeMismatchError, match="does not fit"):
            ModelParams(arch, input_shape, bad)
    bad_arch, bad_shape = SPOILT_STACKS[spoil](arch, input_shape)
    with pytest.raises(ValueError) as want:
        infer_shapes(bad_arch, bad_shape)
    with pytest.raises(ValueError) as got:
        ModelParams(bad_arch, bad_shape)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def without_dropout(arch):
    """The architecture with its dropout layers, which hold no parameters, removed."""
    return tuple(layer for layer in arch if layer.kind != "dropout")


@settings(max_examples=100, deadline=None)
@given(random_nets(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_dropout_identity_at_inference(net, rows, seed):
    """At inference a net's logits equal, bit for bit, those of the same
    ``flat`` laid out without its dropout layers, whatever the rates, also
    where a removed dropout sat between a conv1d and its pool, so that
    only the bare net adds the conv1d's bias after the pool."""
    arch, input_shape = net
    params = init_params(arch, input_shape, seed=seed)
    bare = ModelParams(without_dropout(arch), input_shape, params.flat)
    x = np.random.default_rng(seed).normal(size=(rows, *input_shape))
    assert same_bits(forward(params, x), forward(bare, x))


@settings(max_examples=60, deadline=None)
@given(random_nets(), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["fine-tune", "flwf1", "flwf2"]))
def test_a_full_batch_training_step_is_the_fd_checked_gradient(net, rows, seed, mode):
    """On a dropout-free net, one epoch of one full-batch step of
    ``train_local`` is ``sgd_step`` along :func:`backward` on the batch in
    the shuffle's order, the teachers' logits permuted with it, bit for
    bit: the step follows the gradient the FD checks verify."""
    arch, input_shape = net
    rng = np.random.default_rng(seed)
    params = init_params(without_dropout(arch), input_shape, seed=seed)
    data = make_batch(rng, params, rows=rows)
    spec = fd_spec(mode, rng, rows, data.n_classes)
    perm = np.random.default_rng(seed).permutation(rows)
    teachers = {name: getattr(spec, name)[perm]
                for name in ("teacher_client_logits", "teacher_server_logits")
                if getattr(spec, name) is not None}
    want = sgd_step(params, backward(params, data.take(perm),
                                     dataclasses.replace(spec, **teachers)), 0.05)
    got = train_local(params, data, spec, learning_rate=0.05, batch_size=rows, epochs=1,
                      seed=seed)
    assert same_bits(got.flat, want.flat)


def reference_masks(params, rows, rng):
    """One step's dropout masks as the forward pass once drew them: for
    each dropout layer with a rate above 0, in order, one ``rng.random``
    call of the shape its input has, ``(u >= rate) / (1.0 - rate)``."""
    arch = params.architecture
    shapes = [params.input_shape] + infer_shapes(arch, params.input_shape)[:-1]
    return [(rng.random((rows, *shape)) >= layer.rate) / (1.0 - layer.rate)
            for layer, shape in zip(arch, shapes)
            if layer.kind == "dropout" and layer.rate > 0.0]


def reference_train_local(params, data, spec, *, learning_rate, batch_size, epochs, seed,
                          loss_trace=None):
    """``train_local`` with a fresh gradient model allocated every step, and
    every step's dropout masks drawn layer by layer (:func:`reference_masks`)."""
    targets = losses.resolve_targets(spec, data.one_hot())
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    current = params
    for _ in range(epochs):
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            logits, caches = _forward_pass(current, data.features[chunk],
                                           iter(reference_masks(current, len(chunk), rng)),
                                           keep_caches=True)
            value, dlogits = losses.loss_and_grad(targets.take(chunk), logits)
            if loss_trace is not None:
                loss_trace.append(value)
            current = sgd_step(current, _backward_pass(current, caches, dlogits),
                               learning_rate)
    return current


@settings(max_examples=80, deadline=None)
@given(random_nets(), st.integers(1, 3), st.integers(1, 8), st.integers(0, 4),
       st.integers(0, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(["fine-tune", "flwf1", "flwf2"]), st.sampled_from([1, 24, SGD_CHUNK]))
def test_train_local_draws_dropout_masks_as_one_call_per_layer_and_step(
        net, epochs, batch_size, full_steps, extra, seed, mode, chunk):
    """Masks drawn a block of steps at a time, and turned into masks per
    block, read the stream as one ``rng.random`` call per dropout layer
    per step did: the final model and every traced loss keep their bits,
    for any mix of rates, any number of epochs and a short last step.  A
    block holds steps of one epoch, no more than max(one step's draws,
    ``SGD_CHUNK``) uniforms (patched small, so that an epoch takes several
    blocks)."""
    arch, input_shape = net
    rows = max(1, batch_size * full_steps + extra % batch_size)
    rng = np.random.default_rng(seed)
    params = init_params(arch, input_shape, seed=seed)
    batch = make_batch(rng, params, rows=rows)
    spec = fd_spec(mode, rng, rows, batch.n_classes)
    cfg = dict(learning_rate=0.01, batch_size=batch_size, epochs=epochs, seed=seed)
    want_trace, got_trace, blocks = [], [], []
    want = reference_train_local(params, batch, spec, **cfg, loss_trace=want_trace)

    def spy(dropouts, block_rows, rng):
        blocks.append(block_rows)
        return real_draw(dropouts, block_rows, rng)

    real_draw = network._draw_masks
    with mock.patch.object(network, "SGD_CHUNK", chunk), \
            mock.patch.object(network, "_draw_masks", spy):
        got = train_local(params, batch, spec, **cfg, loss_trace=got_trace)
    assert same_bits(got.flat, want.flat)
    assert same_bits(np.array(got_trace), np.array(want_trace))
    per_row = params.dropouts.per_row
    steps = [len(c) for c in np.array_split(np.arange(rows), range(batch_size, rows,
                                                                   batch_size))]
    if per_row:
        assert [n for block in blocks for n in block] == steps * epochs
        assert all(sum(block) * per_row <= max(max(steps) * per_row, chunk)
                   for block in blocks)
        assert set(itertools.accumulate(sum(block) for block in blocks)) >= {
            rows * e for e in range(1, epochs + 1)}


@settings(max_examples=40, deadline=None)
@given(random_nets(), random_nets(), st.integers(0, 2**32 - 1))
def test_a_model_structure_cannot_be_reassigned(net, other, seed):
    """``architecture``, ``input_shape``, ``layout`` and ``order`` are read
    from the one cached structure, ``flat`` and ``weights`` from the buffer
    they were laid out over: assigning any of them, even another net's
    value, raises ``AttributeError`` and leaves the model as it was, its
    views still into its ``flat``."""
    params = init_params(*net, seed=seed)
    other_params = init_params(*other, seed=seed)
    want = ModelParams(*net, params.flat.copy())
    x = np.random.default_rng(seed).normal(size=(2, *net[1]))
    for name in ("architecture", "input_shape", "layout", "order", "flat", "weights"):
        with pytest.raises(AttributeError):
            setattr(params, name, getattr(other_params, name))
        assert same_model(params, want)
    assert all(np.shares_memory(v, params.flat) for w in params.weights for v in w.values())
    assert same_bits(forward(params, x), forward(want, x))


@settings(max_examples=40, deadline=None)
@given(random_nets(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 20),
       st.integers(0, 2**32 - 1), st.booleans())
def test_train_local_steps_through_at_most_two_gradient_buffers(net, epochs,
                                                                batch_size, rows,
                                                                seed, with_spare):
    """Bit for bit the fresh-gradient reference, ``params`` (read-only)
    never written, and every step's gradient lands in one of at most two
    buffers, neither of them ``params.flat``.  A given ``spare``, filled
    with NaN, takes the first gradient and changes no bit of the result."""
    arch, input_shape = net
    rng = np.random.default_rng(seed)
    params = read_only_copy(init_params(arch, input_shape, seed=seed))
    snapshot = params.copy()
    batch = make_batch(rng, params, rows=rows)
    spec = fd_spec("flwf2", rng, rows, batch.n_classes)
    cfg = dict(learning_rate=0.01, batch_size=batch_size, epochs=epochs, seed=seed)
    want = reference_train_local(params, batch, spec, **cfg)
    spare = params.with_flat(np.full(params.flat.shape, np.nan)) if with_spare else None
    grad_buffers = []  # every step's gradient ``flat``, kept alive

    def spy(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        grad_buffers.append(grads.flat)
        return grads

    real_backward = network._backward_pass
    with mock.patch.object(network, "_backward_pass", spy):
        got = train_local(params, batch, spec, **cfg, spare=spare)
    assert same_bits(got.flat, want.flat)
    assert same_model(params, snapshot)
    steps = epochs * math.ceil(rows / batch_size)
    distinct = {id(buf) for buf in grad_buffers}
    assert len(grad_buffers) == steps and len(distinct) == min(steps, 2)
    assert id(params.flat) not in distinct and id(got.flat) in distinct
    if with_spare:
        assert grad_buffers[0] is spare.flat


def test_train_local_rejects_a_spare_it_cannot_overwrite():
    params, batch = _training_setup(rows=6)
    cfg = dict(learning_rate=0.1, batch_size=3, epochs=1)
    spec = LossSpec(mode="fine-tune")
    with pytest.raises(ShapeMismatchError):
        train_local(params, batch, spec, **cfg, spare=init_params(CONVNET, (10, 2), seed=0))
    with pytest.raises(ShapeMismatchError, match="separate model"):
        train_local(params, batch, spec, **cfg, spare=params.with_flat(params.flat))


def per_layer_init(arch, input_shape, seed):
    """The former ``init_params``: each layer's ``W`` drawn whole with
    ``rng.uniform``, then every array packed into a new model."""
    rng = np.random.default_rng(seed)
    weights = []
    for layer, shape in zip(arch, [input_shape] + infer_shapes(arch, input_shape)[:-1]):
        if layer.kind == "dense":
            fan_in = math.prod(shape)
            s = math.sqrt(6.0 / (fan_in + layer.units))
            weights.append({"W": rng.uniform(-s, s, (fan_in, layer.units)),
                            "b": np.zeros(layer.units)})
        elif layer.kind == "conv1d":
            s = math.sqrt(6.0 / (layer.kernel * shape[1] + layer.kernel * layer.filters))
            weights.append({"W": rng.uniform(-s, s, (layer.kernel, shape[1], layer.filters)),
                            "b": np.zeros(layer.filters)})
        else:
            weights.append({})
    return packed(arch, input_shape, weights)


@settings(max_examples=60, deadline=None)
@given(random_nets(), st.integers(0, 2**32 - 1))
def test_init_params_draws_in_place_bit_for_bit_as_per_layer_uniform(net, seed):
    arch, input_shape = net
    got = init_params(arch, input_shape, seed=seed)
    want = per_layer_init(arch, input_shape, seed)
    assert got.layout == want.layout and same_bits(got.flat, want.flat)
    assert got.flat.flags.c_contiguous and got.flat.flags.writeable


def test_init_params_holds_no_draw_beside_the_model():
    """The traced peak of initializing an N-byte model is one model."""
    arch = (LayerConfig("dense", units=256), LayerConfig("softmax-output"))
    tracemalloc.start()
    try:
        params = init_params(arch, (512,), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params.flat.nbytes <= peak <= 1.1 * params.flat.nbytes


# what a test holds across ``reclaim``, as a function of the model
HOLDS = {
    "nothing": lambda m: None,
    "the model": lambda m: m,
    "its weights": lambda m: m.weights,
    "one mapping": lambda m: m.weights[3],
    "one view": lambda m: m.weights[0]["b"],
    "a view of a view": lambda m: m.weights[0]["W"].T,
    "flat": lambda m: m.flat,
    "a slice of flat": lambda m: m.flat[2:5],
}


@pytest.mark.parametrize("held", list(HOLDS))
def test_reclaim_hands_back_only_a_buffer_nothing_else_holds(held):
    """The box's attribute is the last reference ``reclaim`` is handed.
    Unheld, the frozen buffer comes back writable under new views; held
    in any way, ``reclaim`` returns None and the model stays frozen."""
    box = SimpleNamespace(model=read_only_copy(init_params(CONVNET, (10, 2), seed=3)))
    snapshot = box.model.copy()
    address = box.model.flat.ctypes.data
    kept = HOLDS[held](box.model)
    got = reclaim(box.model)
    if kept is None:
        assert got.flat.ctypes.data == address and got.flat.flags.writeable
        assert got.same_layout(snapshot) and same_model(got, snapshot)
        assert all(v.flags.writeable and np.shares_memory(v, got.flat)
                   for w in got.weights for v in w.values())
    else:
        assert got is None
        assert not box.model.flat.flags.writeable
        assert same_model(box.model, snapshot)


def test_reclaim_refuses_a_buffer_it_does_not_own():
    params = init_params(CONVNET, (10, 2), seed=3)
    box = SimpleNamespace(model=params.with_flat(np.zeros(params.flat.size + 1)[1:]))
    assert reclaim(box.model) is None


def test_sgd_step_rejects_read_only_grads():
    params = init_params(CONVNET, (10, 2), seed=0)
    with pytest.raises(ValueError):
        sgd_step(params, read_only_copy(params), 0.1)


def test_sgd_step_rejects_mismatched_grads():
    params = init_params(MLP, (5,), seed=0)
    other = init_params(CONVNET, (10, 2), seed=0)
    with pytest.raises(ShapeMismatchError):
        sgd_step(params, other, 0.1)


def _training_setup(seed=0, rows=20):
    rng = np.random.default_rng(seed)
    params = init_params(MLP, (5,), seed=seed)
    batch = make_batch(rng, params, rows=rows)
    return params, batch


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_local_checks_the_objective_at_any_epoch_count(epochs):
    """A spec the objective rejects raises before any step is taken."""
    params, batch = _training_setup()
    with pytest.raises(ValueError, match="flwf1 loss requires client-teacher logits"):
        train_local(params, batch, LossSpec(mode="flwf1", alpha=0.5), learning_rate=0.1,
                    batch_size=8, epochs=epochs)


@pytest.mark.parametrize("field, value, reason", [
    ("learning_rate", 0.0, "must be positive and finite"),
    ("learning_rate", -0.5, "must be positive and finite"),
    ("batch_size", 0, "must be positive"),
    ("batch_size", -2, "must be positive"),
    ("epochs", 0, "must be positive"),
    ("epochs", -1, "must be positive"),
])
def test_one_rule_refuses_a_local_update_in_a_scenario_and_in_train_local(field, value,
                                                                           reason):
    """``local_update_error`` is the one rule: a scenario and a direct
    ``train_local`` call refuse each bad value with the same field and
    reason (``epochs=-1`` used to return ``params`` itself, and
    ``batch_size=0`` to fail inside ``range``)."""
    hyper = dict(learning_rate=0.1, batch_size=8, epochs=1) | {field: value}
    assert network.local_update_error(**hyper) == (field, reason)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(preset("exp1-flwf1"), **{field: value})
    assert (err.value.path, err.value.message) == (field, reason)
    params, batch = _training_setup()
    with pytest.raises(ValueError, match=f"^{field}: {re.escape(reason)}$"):
        train_local(params, batch, LossSpec(), **hyper)


def test_train_local_rejects_empty_batch():
    """Its own guard: an empty batch takes no step, so no forward pass
    would refuse it, and ``params`` itself would come back."""
    params, batch = _training_setup()
    with pytest.raises(ValueError, match="^train_local: empty dataset$"):
        train_local(params, batch.take([]), LossSpec(), learning_rate=0.1, batch_size=8,
                    epochs=1)


def test_train_local_trace_has_one_entry_per_step():
    params, batch = _training_setup(rows=20)
    trace = []
    train_local(params, batch, LossSpec(), learning_rate=0.01, batch_size=8, epochs=3,
                seed=5, loss_trace=trace)
    assert len(trace) == 3 * math.ceil(20 / 8)  # E epochs x fixed chunk list


def test_train_local_deterministic_and_input_preserving():
    params, batch = _training_setup(rows=16)
    snapshot = params.copy()
    cfg = dict(learning_rate=0.05, batch_size=4, epochs=2)
    a = train_local(params, batch, LossSpec(), **cfg, seed=7)
    b = train_local(params, batch, LossSpec(), **cfg, seed=7)
    assert same_model(a, b)
    assert same_model(params, snapshot)  # no in-place mutation
    c = train_local(params, batch, LossSpec(), **cfg, seed=8)
    assert not same_model(a, c)


def test_train_local_reduces_loss_on_separable_data():
    rng = np.random.default_rng(6)
    params = init_params(MLP, (5,), seed=6)
    centers = rng.normal(size=(3, 5)) * 3
    labels = np.repeat(np.arange(3), 30)
    feats = centers[labels] + rng.normal(size=(90, 5)) * 0.3
    batch = DatasetPool(feats, labels, 3)
    before = loss_on_batch(params, batch, LossSpec())
    after_params = train_local(params, batch, LossSpec(), learning_rate=0.01, batch_size=16,
                               epochs=8, seed=1)
    after = loss_on_batch(after_params, batch, LossSpec())
    assert after < before * 0.2


def test_train_local_teacher_logits_follow_the_shuffle():
    # with alpha=0 and teacher == initial student every SGD step is a
    # no-op, but only if the teacher rows are permuted along with the
    # batch rows; row misalignment would move the weights immediately
    params, batch = _training_setup(rows=12)
    teacher_logits = forward(params, batch.features)
    spec = LossSpec(mode="flwf1", alpha=0.0, temperature=2.0,
                    teacher_client_logits=teacher_logits)
    trained = train_local(params, batch, spec, learning_rate=0.5, batch_size=5, epochs=1,
                          seed=3)
    # distilling toward yourself moves nothing, regardless of shuffling
    for w, t in zip(params.weights, trained.weights):
        for key in w:
            np.testing.assert_allclose(w[key], t[key], atol=1e-12)


def test_params_digest_stability_and_sensitivity():
    a = init_params(MLP, (5,), seed=3)
    b = init_params(MLP, (5,), seed=3)
    assert params_digest(a) == params_digest(b)
    b.weights[0]["W"][0, 0] += 1e-12
    assert params_digest(a) != params_digest(b)


def test_softmax_output_layer_is_logit_identity():
    with_head = init_params(MLP, (5,), seed=4)
    without_head = ModelParams(MLP[:-1], (5,), with_head.flat)
    assert with_head.architecture[-1].kind == KIND_SOFTMAX_OUTPUT
    x = np.random.default_rng(5).normal(size=(3, 5))
    assert np.array_equal(forward(with_head, x), forward(without_head, x))
