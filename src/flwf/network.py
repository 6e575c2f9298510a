"""Minimal neural-network engine: forward, analytic backprop, mini-batch SGD.

Supported layer kinds are ``dense``, ``conv1d`` (valid, stride 1),
``maxpool1d`` (non-overlapping), ``relu``, ``dropout`` (inverted scaling,
active only in :func:`train_local`) and ``softmax-output``.  The
``softmax-output`` kind marks the classification head and passes logits
through unchanged: every loss in :mod:`flwf.losses` consumes raw logits
and applies its own max-subtracted softmax, so probabilities are never
materialized inside the network.

Tensors are plain numpy float64 arrays in row-major order with a leading
batch axis.  Dense layers flatten whatever trailing shape they receive;
conv1d/maxpool1d operate on ``(batch, length, channels)``.  A model is a
:class:`ModelParams` value: one flat float64 buffer, laid out layer by
layer with ``W`` before ``b``, and per layer a read-only mapping of
reshaped views into it, so whole-model work (a step, an average, a copy,
a digest) is one pass over one array.  The layout comes from the
architecture alone (:func:`_structure`), so shapes are checked when a
model is built and, on a pass, only by :func:`_coerce_input`.  Every
operation returns a new value and never mutates its inputs, except that
:func:`sgd_step` consumes its gradient: the step is written into the
gradient's buffer, which becomes the next model.  Training data is a
:class:`flwf.datasets.DatasetPool`; :func:`local_update_error` is the
one rule for :func:`train_local`'s hyperparameters.  The backward pass
writes each weight gradient into a spare model's views with ``out=``:
the caller's (see :func:`reclaim`), then the model the previous step
stepped from, so a local update allocates at most two gradient buffers.

conv1d runs as im2col plus GEMM: the input's length-K windows are
copied once into a ``(B*Lout, K*C)`` column buffer, the forward pass is
one product with ``W`` reshaped to ``(K*C, F)``, dW is one product of
the buffer's transpose with the output gradient, and dX is one product
into column gradients folded back with K strided adds.  The buffer is
the layer's cache.  Backward computes weight gradients only, so the
input gradient stops at the first layer a pass runs; its gradient would
flow into the data, whatever the layer kind.  Inference
(:func:`forward`) keeps no caches.

Max-pool is a running ``np.maximum`` over the pool's strided slices in
both passes (see :func:`_maxpool_forward`); backward scatters into the
winning slices with one flat-index assignment.  A relu directly before a
maxpool1d runs after it, at pooled width (the order is decided once per
model, :func:`_structure`): ReLU commutes with max, so its pass, its
mask and its backward shrink by the pool size and no bit changes.  At
inference a conv1d that feeds the pool also adds its bias after it:
rounding is monotone, so ``max_j fl(y_j + b) == fl(max_j y_j + b)``.
Training keeps the bias at full width, because the gradient goes to the
first slice holding the maximum of ``fl(y + b)``, and the rounding can
tie sums that differ before ``b`` is added.  A window whose maximum is
<= 0 passes a zero gradient either way, to its maximum's slice here and
to its first slice with ReLU first, so every gradient keeps its value
(a zero may change sign).  ReLU rectifies in place every activation the
pass allocated, never the caller's input, and builds its ``x > 0`` mask
only for a backward pass.  Weights start uniform in ``[-s, s]``,
``s = sqrt(6 / (fan_in + fan_out))`` per layer.  Given equal seeds,
training is bit-for-bit reproducible.

:func:`train_local` is the one training pass, and the only one that
draws dropout masks (:func:`_draw_masks`, the one draw rule): it draws
the uniforms of a block of an epoch's consecutive steps in one
``rng.random`` call, at most max(one step's draws, :data:`SGD_CHUNK`) of
them, and turns them into masks with a fixed number of numpy calls per
block.  :func:`forward`, :func:`loss_on_batch` and :func:`backward` run
with dropout inactive.  A training step computes the gradient of the
loss and not its value, which only a ``loss_trace`` reads.
"""

import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import losses
from .checks import check_fields, check_value
from .datasets import DatasetPool

KIND_DENSE = "dense"
KIND_CONV1D = "conv1d"
KIND_MAXPOOL1D = "maxpool1d"
KIND_RELU = "relu"
KIND_DROPOUT = "dropout"
KIND_SOFTMAX_OUTPUT = "softmax-output"
# The fields each layer kind takes; every other field stays None.
LAYER_FIELDS = {KIND_DENSE: ("units",), KIND_CONV1D: ("filters", "kernel"),
                KIND_MAXPOOL1D: ("pool",), KIND_RELU: (), KIND_DROPOUT: ("rate",),
                KIND_SOFTMAX_OUTPUT: ()}
SGD_CHUNK = 1 << 16  # elements (512 KB of float64) per slice of a large SGD step


class ShapeMismatchError(ValueError):
    """A layer received input whose shape it cannot consume."""


@dataclass(frozen=True)
class LayerConfig:
    """One layer of an architecture; only the fields for its kind are set."""

    kind: str
    units: int | None = None       # dense
    filters: int | None = None     # conv1d
    kernel: int | None = None      # conv1d
    pool: int | None = None        # maxpool1d
    rate: float | None = None      # dropout

    def __post_init__(self):
        check_fields(self)
        if self.kind not in LAYER_FIELDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("units", "filters", "kernel", "pool", "rate"):
            value = getattr(self, name)
            if name not in LAYER_FIELDS[self.kind]:
                if value is not None:
                    raise ValueError(f"{self.kind} layer takes no {name}")
            elif name == "rate":
                if value is None or not 0.0 <= value < 1.0:
                    raise ValueError("dropout rate must lie in [0, 1)")
            elif value is None or value < 1:
                raise ValueError(f"{self.kind} layer needs {name} > 0")


class Dropouts(NamedTuple):
    """The dropout layers with a rate above 0, in pass order, as a training
    pass draws for them: each one's rate and per-example shape, and how
    many uniforms it takes per row; ``rate`` is the one rate they share,
    or None when they differ (see :func:`_draw_masks`)."""

    rates: tuple[float, ...]
    shapes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    per_row: int
    rate: float | None


class ModelParams:
    """All trainable buffers of one network plus its architecture.

    Every buffer lives in ``flat``, one C-contiguous float64 array laid out
    layer by layer with each layer's keys sorted (``W`` before ``b``).
    The architecture and input shape fix ``layout``, each layer's ``(key,
    shape)`` pairs in that order, and the pass ``order`` (:func:`_structure`),
    so no model holds buffers that disagree with its architecture.  Shapes
    are checked here and in :func:`_coerce_input`, and nowhere else.
    ``weights[i][key]`` is a reshaped view into ``flat``, held in a
    read-only mapping, so rebinding a buffer raises ``TypeError`` instead
    of silently detaching it: write into a view, or into ``flat``.
    ``flat``, ``weights`` and the structure are read-only properties.  The
    one constructor lays ``flat`` out without copying it (given None, it
    allocates an uninitialized buffer of the layout's size); a buffer that
    is not a C-contiguous float64 array of that size raises
    :class:`ShapeMismatchError`.
    """

    def __init__(self, architecture, input_shape, flat: np.ndarray | None = None):
        input_shape = check_value(tuple[int, ...], input_shape, "input_shape")
        self._lay_out(_structure(tuple(architecture), input_shape), flat)

    # The structure and the buffers are read-only: assigning one of these
    # raises AttributeError, so ``flat`` never detaches from the views.
    architecture = property(lambda self: self._structure[0])
    input_shape = property(lambda self: self._structure[1])
    layout = property(lambda self: self._structure[2])
    order = property(lambda self: self._structure[4])
    dropouts = property(lambda self: self._structure[5])
    flat = property(operator.attrgetter("_flat"))
    weights = property(operator.attrgetter("_weights"))

    def _lay_out(self, structure: tuple, flat: np.ndarray | None) -> None:
        self._structure = structure
        size = structure[3]
        if flat is None:
            flat = np.empty(size)
        elif flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ShapeMismatchError(f"buffer {flat.dtype}{flat.shape} does not fit "
                                     f"the layout's float64{(size,)}")
        self._flat = flat
        views, start = [], 0
        for keys in structure[2]:
            layer = {}
            for key, shape in keys:
                stop = start + math.prod(shape)
                layer[key] = flat[start:stop].reshape(shape)
                start = stop
            views.append(MappingProxyType(layer))
        self._weights = tuple(views)

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """A model of this one's structure, not derived again, over ``flat``."""
        model = ModelParams.__new__(ModelParams)
        model._lay_out(self._structure, flat)
        return model

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())

    def same_layout(self, other: "ModelParams") -> bool:
        """Same architecture and input shape, and so the same derived layout."""
        return self._structure == other._structure


@functools.cache
def _structure(architecture: tuple, input_shape: tuple[int, ...]) -> tuple:
    """The one rule for a model's structure, ``(architecture, input_shape,
    layout, size, pass order, dropouts)``: a dense ``W`` is ``(flattened
    input, units)``, a conv1d ``W`` ``(kernel, channels, filters)``, ``b``
    has ``W``'s last axis, a relu directly before a maxpool1d runs after
    it, and :class:`Dropouts` lists what a training pass draws for.  A
    stack :func:`infer_shapes` rejects raises its error uncached.  The
    cache is unbounded: a run builds models of one architecture."""
    layer_inputs = [input_shape] + infer_shapes(architecture, input_shape)[:-1]
    layout, order = [], list(range(len(architecture)))
    drops = []  # (rate, per-example shape); a relu-maxpool swap moves no dropout
    for i, (layer, shape) in enumerate(zip(architecture, layer_inputs)):
        if i and layer.kind == KIND_MAXPOOL1D and architecture[i - 1].kind == KIND_RELU:
            order[i - 1], order[i] = i, i - 1
        if layer.kind == KIND_DROPOUT and layer.rate > 0.0:
            drops.append((layer.rate, shape))
        if layer.kind == KIND_DENSE:
            w_shape = (math.prod(shape), layer.units)
        elif layer.kind == KIND_CONV1D:
            w_shape = (layer.kernel, shape[1], layer.filters)
        else:
            layout.append(())
            continue
        layout.append((("W", w_shape), ("b", w_shape[-1:])))
    size = sum(math.prod(shape) for keys in layout for _, shape in keys)
    rates, shapes = tuple(r for r, _ in drops), tuple(s for _, s in drops)
    sizes = tuple(math.prod(s) for s in shapes)
    dropouts = Dropouts(rates, shapes, sizes, sum(sizes),
                        rates[0] if len(set(rates)) == 1 else None)
    return architecture, input_shape, tuple(layout), size, tuple(order), dropouts


def params_digest(params: ModelParams) -> str:
    """Stable content hash of a model's architecture and weights: the
    bytes of ``flat``, which are every buffer in layer and key order."""
    h = hashlib.sha256()
    h.update(json.dumps({"input_shape": list(params.input_shape),
                         "layers": [layer_to_dict(layer) for layer in params.architecture]},
                        sort_keys=True).encode())
    h.update(params.flat)
    return h.hexdigest()


# What ``sys.getrefcount`` reads for a function's argument nothing else holds
_ARG_REFS = (lambda obj: sys.getrefcount(obj))(object())


def reclaim(params: ModelParams) -> ModelParams | None:
    """Hand back the buffer of a model the caller holds the last reference to.

    Returns ``params.flat``, made writable again, under new views; its
    stale values are to be overwritten whole, and the caller drops
    ``params`` next.  Returns None, changing nothing, when CPython's
    reference counts show that anything else holds the model, its
    ``weights``, a mapping, a view or ``flat`` (or a view of it), or when
    ``flat`` does not own its memory.  So a frozen teacher becomes
    writable only once nothing else can see it.
    """
    flat = params.flat
    n_views = sum(len(keys) for keys in params.layout)
    # Each count is the object's holders inside the model (the caller's
    # reference, for the model) plus what this frame holds while counting:
    # the argument, and a loop variable or the local ``flat``.
    if (sys.getrefcount(params) != _ARG_REFS + 1
            or sys.getrefcount(params.weights) != 2
            or any(sys.getrefcount(w) != 3 for w in params.weights)
            or any(sys.getrefcount(v) != 3 for w in params.weights for v in w.values())
            or sys.getrefcount(flat) != n_views + 3
            or not flat.flags.owndata):
        return None
    flat.setflags(write=True)
    return params.with_flat(flat)


def infer_shapes(architecture, input_shape) -> list[tuple[int, ...]]:
    """Per-example output shape after each layer; validates the stack.

    Raises :class:`ShapeMismatchError` naming the offending layer when a
    layer cannot consume its input, and :class:`ValueError` when the stack
    does not end in a per-example logit vector or an input dimension is
    not an integer.
    """
    cur = check_value(tuple[int, ...], input_shape, "input_shape")
    if not cur or any(d < 1 for d in cur):
        raise ValueError("input shape must be positive dimensions")
    shapes = []
    for i, layer in enumerate(architecture):
        where = f"layer {i} ({layer.kind})"
        if layer.kind == KIND_DENSE:
            cur = (layer.units,)
        elif layer.kind == KIND_CONV1D:
            if len(cur) != 2:
                raise ShapeMismatchError(f"{where}: needs (length, channels) input, got {cur}")
            length, _ = cur
            if layer.kernel > length:
                raise ShapeMismatchError(f"{where}: kernel {layer.kernel} exceeds length {length}")
            cur = (length - layer.kernel + 1, layer.filters)
        elif layer.kind == KIND_MAXPOOL1D:
            if len(cur) != 2:
                raise ShapeMismatchError(f"{where}: needs (length, channels) input, got {cur}")
            length, channels = cur
            if layer.pool > length:
                raise ShapeMismatchError(f"{where}: pool {layer.pool} exceeds length {length}")
            cur = (length // layer.pool, channels)
        elif layer.kind == KIND_SOFTMAX_OUTPUT:
            if i != len(architecture) - 1:
                raise ValueError(f"{where}: softmax-output must be the final layer")
        # relu/dropout keep their input shape
        shapes.append(cur)
    if len(cur) != 1:
        raise ValueError(f"network must end in a logit vector, final shape is {cur}")
    return shapes


def init_params(architecture, input_shape, seed) -> ModelParams:
    """Fresh model with uniform Glorot weights and zero biases: ``rng.random``
    into each ``W`` view, mapped onto ``[-s, s]`` in place as
    ``rng.uniform`` does (``low + (high - low) * u``).  Each ``W`` is
    filled in :data:`SGD_CHUNK`-element slices, drawn, scaled and shifted
    while the slice is still in cache; each double takes one 64-bit draw,
    so the stream is read as one fill of the whole view reads it."""
    params = ModelParams(architecture, input_shape)
    rng = np.random.default_rng(seed)
    for layer, w in zip(params.architecture, params.weights):
        if not w:
            continue
        view = w["W"]
        fan_out = layer.units if layer.kind == KIND_DENSE else layer.kernel * layer.filters
        s = math.sqrt(6.0 / (math.prod(view.shape[:-1]) + fan_out))
        flat = view.reshape(-1)
        for start in range(0, flat.size, SGD_CHUNK):
            part = flat[start:start + SGD_CHUNK]
            rng.random(out=part)
            part *= s - (-s)
            part += -s
        w["b"][...] = 0.0
    return params


def _coerce_input(params: ModelParams, inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=float)
    if x.ndim < 2:
        raise ShapeMismatchError("input must carry a leading batch axis")
    if len(x) == 0:
        raise ShapeMismatchError("input: the batch is empty, a pass needs at least one row")
    shape = params.input_shape
    if x.shape[1:] == shape:
        return x
    if x.ndim == 2 and x.shape[1] == math.prod(shape):
        return x.reshape((x.shape[0], *shape))
    raise ShapeMismatchError(
        f"input: per-example shape {x.shape[1:]} does not match model input {shape}")


def _draw_masks(dropouts: Dropouts, rows, rng) -> list[np.ndarray]:
    """The dropout masks of consecutive training steps of ``rows[s]`` rows,
    step by step and, within a step, one per dropout layer with a rate
    above 0 in pass order, from one ``rng.random`` call.

    The one draw rule: the stream is read in that order, ``rows x shape``
    uniforms per layer, and each mask is ``(u >= rate) / (1.0 - rate)``
    elementwise.  How many uniforms one call draws is not part of the
    rule: ``rng.random`` fills doubles one 64-bit draw each, so one call
    for many steps reads the stream as one call per step and layer would.
    A shared rate takes one comparison and one division for the whole
    block; mixed rates spell each uniform's rate out first, the same
    float64 operands.  The masks are views into the block's.  Without a
    dropout layer to draw for, nothing is drawn.
    """
    if not dropouts.per_row:
        return []
    u = rng.random(sum(rows) * dropouts.per_row)
    if dropouts.rate is not None:
        block = (u >= dropouts.rate) / (1.0 - dropouts.rate)
    else:
        rates = np.repeat(np.tile(dropouts.rates, len(rows)),
                          np.outer(rows, dropouts.sizes).ravel())
        block = (u >= rates) / (1.0 - rates)
    masks, start = [], 0
    for n in rows:
        for shape, size in zip(dropouts.shapes, dropouts.sizes):
            stop = start + n * size
            masks.append(block[start:stop].reshape((n,) + shape))
            start = stop
    return masks


def _forward_pass(params: ModelParams, inputs, masks, keep_caches: bool):
    """Logits and, with ``keep_caches``, one cache per layer in pass order
    (:func:`_structure`).  ``masks`` is an iterator over the dropout masks
    :func:`train_local` draws (:func:`_draw_masks`): each dropout layer
    with a rate above 0 takes the next one, in pass order.  None leaves
    dropout inactive, as every other pass has it.  Without caches, a
    conv1d whose output goes straight into a max-pool adds its bias after
    the pool."""
    x = inputs = _coerce_input(params, inputs)
    caches: list = []
    architecture, weights, order = params.architecture, params.weights, params.order
    bias = None  # a conv1d bias that waits for the pool
    for pos, i in enumerate(order):
        layer, w = architecture[i], weights[i]
        cache = None
        if layer.kind == KIND_DENSE:
            flat = x.reshape(x.shape[0], -1)
            cache = (x.shape, flat)
            x = flat @ w["W"]
            x += w["b"]
        elif layer.kind == KIND_CONV1D:
            if (not keep_caches and pos + 1 < len(order)
                    and architecture[order[pos + 1]].kind == KIND_MAXPOOL1D):
                bias = w["b"]
                x, cache = _conv1d_forward(x, w["W"])
            else:
                x, cache = _conv1d_forward(x, w["W"], w["b"])
        elif layer.kind == KIND_MAXPOOL1D:
            x, cache = _maxpool_forward(x, layer.pool, keep_caches)
            if bias is not None:
                x += bias
                bias = None
        elif layer.kind == KIND_RELU:
            if keep_caches:
                cache = x > 0
            if x is inputs:  # never write the caller's array
                x = np.maximum(x, 0.0)
            else:  # every other layer hands over a fresh array
                np.maximum(x, 0.0, out=x)
        elif layer.kind == KIND_DROPOUT:
            if masks is not None and layer.rate > 0.0:
                cache = next(masks)
                x = x * cache
        elif layer.kind == KIND_SOFTMAX_OUTPUT:
            pass  # logits pass through; losses apply their own softmax
        if keep_caches:
            caches.append(cache)
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite logits")
    return x, caches


def forward(params: ModelParams, inputs) -> np.ndarray:
    """Logits for a batch, one row per input row: inference, dropout
    inactive, rng-free and deterministic."""
    return _forward_pass(params, inputs, None, keep_caches=False)[0]


def _conv1d_forward(x, W, b=None):
    """im2col, then one GEMM: ``(B, L, C)`` -> ``(B, L - K + 1, F)``, plus
    ``b`` when given.

    Row ``(b, l)`` of the column buffer holds ``x[b, l:l+K, :]`` flattened
    k-major, the order of ``W``'s ``(K, C)`` axes, so ``W`` reshapes to
    the ``(K*C, F)`` GEMM operand without a copy.  The buffer is the cache.
    """
    kernel, channels, filters = W.shape
    batch, length, _ = x.shape
    lout = length - kernel + 1
    cols = (sliding_window_view(x, kernel, axis=1).swapaxes(2, 3)
            .reshape(batch * lout, kernel * channels))
    y = cols @ W.reshape(kernel * channels, filters)
    if b is not None:
        y += b
    return y.reshape(batch, lout, filters), (cols, x.shape)


def _conv1d_param_grads(cache, dy, out) -> None:
    """dW as one GEMM over the column buffer, written into ``out["W"]``;
    db as a sum over (B, L), written into ``out["b"]``.  Both outputs are
    C-contiguous, so ``W``'s ``(K*C, F)`` reshape is a view."""
    cols, _ = cache
    dw = out["W"]
    np.matmul(cols.T, dy.reshape(-1, dy.shape[2]),
              out=dw.reshape(-1, dw.shape[2]))
    dy.sum(axis=(0, 1), out=out["b"])


def _conv1d_input_grad(cache, W, dy) -> np.ndarray:
    """dx as one GEMM into column gradients, folded back by K strided adds."""
    _, in_shape = cache
    kernel, channels, filters = W.shape
    batch, lout, _ = dy.shape
    dcols = (dy.reshape(batch * lout, filters)
             @ W.reshape(kernel * channels, filters).T).reshape(batch, lout, kernel, channels)
    dx = np.zeros(in_shape)
    for k in range(kernel):
        dx[:, k:k + lout, :] += dcols[:, :, k, :]
    return dx


def _pool_windows(x, pool):
    """``(B, L, C)`` -> ``(B, L // pool, pool, C)``, the trailing remainder dropped."""
    b, length, c = x.shape
    lout = length // pool
    return x[:, :lout * pool, :].reshape(b, lout, pool, c)


def _maxpool_forward(x, pool, keep_winner=True):
    """Window maxima as a running ``np.maximum`` over the ``pool`` strided
    slices of :func:`_pool_windows`, slice 0 first; always a fresh array.

    With ``keep_winner`` the cache holds, per output, the slice its maximum
    came from: the last slice to beat the running maximum strictly, so ties
    go to the lowest index, as ``argmax`` gives them.  On equal operands
    ``np.maximum`` returns its second, so the earlier slice's value (and
    sign bit) is kept.
    """
    windows = _pool_windows(x, pool)
    out = windows[:, :, 0, :]
    winner = np.zeros(out.shape, np.min_scalar_type(pool - 1)) if keep_winner else None
    for j in range(1, pool):
        slice_j = windows[:, :, j, :]
        if winner is not None:
            np.maximum(winner, np.multiply(slice_j > out, j, dtype=winner.dtype),
                       out=winner)
        out = np.maximum(slice_j, out, out=out if j > 1 else None)
    if pool == 1:
        out = out.copy()
    return out, ((winner, x.shape, pool) if keep_winner else None)


def _maxpool_backward(cache, dout):
    """Scatter ``dout`` into a zeroed ``dx`` at each window's winning slice,
    as one assignment at flat indices: output ``(b, l, c)`` lands at
    ``(b, l * pool + winner, c)``."""
    winner, shape, pool = cache
    batch, lout, channels = winner.shape
    index = np.multiply(winner, channels, dtype=np.intp)
    index += (np.arange(batch)[:, None, None] * (shape[1] * channels)
              + np.arange(lout)[:, None] * (pool * channels))
    index += np.arange(channels)
    dx = np.zeros(shape)
    dx.reshape(-1)[index.reshape(-1)] = dout.reshape(-1)
    return dx


def _backward_pass(params: ModelParams, caches, dlogits,
                   out: ModelParams | None = None) -> ModelParams:
    """Weight gradients, last layer of the pass first, written into the
    views of ``out`` (laid out as ``params``; a fresh model when None),
    which is returned.  The input gradient stops at the pass's first layer:
    its gradient would flow into the data, which has no parameter."""
    if out is None:
        out = params.with_flat(np.empty(params.flat.shape))
    architecture, order = params.architecture, params.order
    weights, grads = params.weights, out.weights
    dx = dlogits
    for pos in range(len(order) - 1, -1, -1):
        i = order[pos]
        layer = architecture[i]
        w, g = weights[i], grads[i]
        cache = caches[pos]
        if layer.kind == KIND_DENSE:
            np.matmul(cache[1].T, dx, out=g["W"])
            dx.sum(axis=0, out=g["b"])
        elif layer.kind == KIND_CONV1D:
            _conv1d_param_grads(cache, dx, g)
        if pos == 0:
            break
        if layer.kind == KIND_DENSE:
            dx = (dx @ w["W"].T).reshape(cache[0])
        elif layer.kind == KIND_CONV1D:
            dx = _conv1d_input_grad(cache, w["W"], dx)
        elif layer.kind == KIND_MAXPOOL1D:
            dx = _maxpool_backward(cache, dx)
        elif layer.kind in (KIND_RELU, KIND_DROPOUT) and cache is not None:
            if dx is dlogits:  # never write the caller's logit gradient
                dx = dx * cache
            else:  # every other dx is a fresh array this pass made
                np.multiply(dx, cache, out=dx)
        # softmax-output and inference dropout: identity
    return out


def loss_on_batch(params: ModelParams, batch: DatasetPool, spec: losses.LossSpec) -> float:
    """Objective value on one batch, dropout inactive; the workhorse of
    finite-difference checks."""
    return losses.combined_loss(spec, forward(params, batch.features), batch.one_hot())


def backward(params: ModelParams, batch: DatasetPool, spec: losses.LossSpec) -> ModelParams:
    """Analytic gradient of :func:`loss_on_batch`, congruent with ``params``.

    Teacher logits must already sit inside ``spec`` when a distillation
    term is requested.  The pass is deterministic, dropout inactive.
    """
    logits, caches = _forward_pass(params, batch.features, None, keep_caches=True)
    return _backward_pass(params, caches,
                          losses.combined_loss_grad(spec, logits, batch.one_hot()))


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """One plain gradient step: ``params - learning_rate * grads``, written
    into ``grads``' own buffer, which becomes the returned model.

    ``grads`` is consumed (a read-only ``grads.flat`` raises
    ``ValueError``); ``params`` is never written.  The two layouts are
    compared once, then ``flat`` is stepped and checked in
    :data:`SGD_CHUNK`-element slices, so the scale, the subtraction and the
    finiteness check each read a slice that is still in cache; a model
    smaller than one slice takes the three calls once.  A non-finite value
    anywhere raises.
    """
    if not params.same_layout(grads):
        raise ShapeMismatchError("gradient buffers do not match parameter buffers")
    w, g = params.flat, grads.flat
    for start in range(0, g.size, SGD_CHUNK):
        stop = start + SGD_CHUNK
        _step_into(w[start:stop], g[start:stop], learning_rate)
    return grads


def _step_into(w, g, learning_rate):
    """``g = w - learning_rate * g`` in ``g``'s buffer; non-finite raises."""
    g *= learning_rate
    np.subtract(w, g, out=g)
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite parameters after SGD step")


def local_update_error(learning_rate: float, batch_size: int,
                       epochs: int) -> tuple[str, str] | None:
    """The first ``(field, reason)`` that breaks the local-update rule, or
    None: a positive finite learning rate, and at least one row per
    mini-batch and one epoch.  :class:`flwf.config.ScenarioConfig` applies it too."""
    if not 0 < learning_rate < math.inf:
        return "learning_rate", "must be positive and finite"
    for field, value in (("batch_size", batch_size), ("epochs", epochs)):
        if value < 1:
            return field, "must be positive"
    return None


def train_local(params: ModelParams, data: DatasetPool, spec: losses.LossSpec, *,
                learning_rate: float, batch_size: int, epochs: int, seed=0,
                loss_trace: list | None = None,
                spare: ModelParams | None = None) -> ModelParams:
    """``epochs`` epochs of mini-batch SGD on one round's data.

    Hyperparameters that break :func:`local_update_error` raise
    ``ValueError("field: reason")``.  The objective is resolved into its
    targets once (:func:`flwf.losses.resolve_targets`), and each step takes
    its rows of them (:meth:`flwf.losses.Targets.take`).  The batch order
    is drawn once from the shuffle seeded by ``seed`` (an int or a bit generator,
    anything ``np.random.default_rng`` takes) and then chunked into
    ``batch_size``-row mini-batches (the last chunk may be short); every
    epoch iterates the same chunks.  The same generator then gives the
    dropout masks, step after step, drawn a block of an epoch's
    consecutive steps at a time: at most max(one step's draws,
    :data:`SGD_CHUNK`) uniforms per ``rng.random`` call, read as
    :func:`_draw_masks` has it.  Per-batch loss values are appended to
    ``loss_trace`` when given; without it no step computes one, since only
    the gradient moves the model.  A :class:`FloatingPointError` names the
    epoch and step where it arose.

    ``params`` is never written, and a new model is returned.  Each step
    computes its gradient into a spare model and steps it into the new
    current one (:func:`sgd_step`).  The first spare is ``spare``, a model
    of ``params``' layout to overwrite (fresh when None), later ones the
    model the previous step stepped from, once that is no longer
    ``params``.  So at most two gradient buffers are allocated (one with
    ``spare``), and between steps one model besides the current is held.
    """
    error = local_update_error(learning_rate, batch_size, epochs)
    if error:
        raise ValueError("%s: %s" % error)
    if spare is not None and (not params.same_layout(spare)
                              or np.shares_memory(spare.flat, params.flat)):
        raise ShapeMismatchError("spare must be a separate model of params' layout")
    if len(data) == 0:
        raise ValueError("train_local: empty dataset")
    targets = losses.resolve_targets(spec, data.one_hot())
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    steps = [(data.features[chunk], targets.take(chunk)) for chunk in chunks]
    # an epoch's steps in blocks of at most max(one step's draws, SGD_CHUNK) uniforms
    dropouts = params.dropouts
    per_block = max(1, SGD_CHUNK // (batch_size * max(dropouts.per_row, 1)))  # steps
    step_rows = list(map(len, chunks))
    with_value = loss_trace is not None
    current = params
    for epoch in range(1, epochs + 1):
        masks = itertools.chain.from_iterable(  # each block drawn when its first step needs it
            _draw_masks(dropouts, step_rows[i:i + per_block], rng)
            for i in range(0, len(step_rows), per_block))
        for step, (features, chunk_targets) in enumerate(steps, 1):
            try:
                logits, caches = _forward_pass(current, features, masks, keep_caches=True)
                value, dlogits = losses.loss_and_grad(chunk_targets, logits, with_value)
                if with_value:
                    loss_trace.append(value)
                grads = _backward_pass(current, caches, dlogits, out=spare)
                spare = None if current is params else current
                current = sgd_step(current, grads, learning_rate)
            except FloatingPointError as err:
                raise FloatingPointError(f"epoch {epoch}, step {step}: {err}") from err
    return current


def layer_to_dict(layer: LayerConfig) -> dict:
    """The layer's kind plus the fields set for it."""
    return {name: value for name, value in vars(layer).items() if value is not None}
