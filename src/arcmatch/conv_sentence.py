"""Convolutional sentence model, and the gated conv-and-pool layer it
shares with ARC-II's grid.

A padded sentence matrix goes through alternating gated 1D convolution and
two-unit max-pooling until a fixed-length vector remains. Each convolution
unit carries an all-zero gate: when its entire input segment is zero (the
padding region), the output is forced to exactly zero, so padding forms a
hierarchy of dead units that neither the forward pass nor gradients cross.

The layer is written once for nd spatial axes: 1 for a sentence, 2 for
ARC-II's grid, whose 2D layers are this layer (arc2.py). Windows span k
units per axis; pooling takes windows of 2 units per axis, an odd extent
zero-padded, and a window goes to its first maximum in row-major order.
That rule is separable: it equals pooling pairs along the last axis, then
along the first, each tie going to the first member (if max(a, b) >=
max(c, d), the first maximum of a, b, c, d wins the pair a, b). So one
pair rule pools both shapes and routes both gradients.

The degenerate single-layer mode pools each feature map over the whole
sentence instead (global_pool), giving an order-insensitive local-template
encoder. A stack of no layers reads the word rows out directly: flattened,
or summed (sum_rows) into an order-blind bag of words.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .embeddings import sentence_matrix
from .errors import ConfigError, ShapeError
from .tensor import activate, activate_grad_from_output, init_uniform


def layer_extents(length: int, windows, global_pool: bool = False) -> list:
    """Per conv-and-pool layer, (conv extent, pooled extent) along each
    spatial axis, from the input extent `length`; raises ConfigError if a
    window does not fit."""
    plan = []
    for li, k in enumerate(windows):
        conv = length - k + 1
        if conv < 1:
            raise ConfigError(f"layer {li}: window {k} does not fit in length {length}")
        length = 1 if global_pool else (conv + 1) // 2
        plan.append((conv, length))
    return plan


@dataclass
class SentenceModelConfig:
    embed_dim: int
    max_len: int | None   # None: any padded length (summed rows only)
    windows: tuple        # window width per conv layer, in prior-layer units
    feature_maps: tuple   # filter count per conv layer
    activation: str = "relu"
    global_pool: bool = False
    sum_rows: bool = False  # read out the sum of the top rows, not all of them

    @property
    def depth(self) -> int:
        return len(self.windows)

    def validate(self) -> None:
        if len(self.feature_maps) != self.depth:
            raise ConfigError(
                f"windows and feature_maps must be equal-length, "
                f"got {self.windows} / {self.feature_maps}"
            )
        if self.max_len is None and (self.depth or not self.sum_rows):
            raise ConfigError("max_len may be left open only for summed word rows")
        if any(k < 2 for k in self.windows):
            raise ConfigError(f"every window must be >= 2, got {self.windows}")
        if any(f < 1 for f in self.feature_maps):
            raise ConfigError(f"every feature-map count must be >= 1, got {self.feature_maps}")
        if self.global_pool and self.depth != 1:
            raise ConfigError("global_pool mode requires exactly one conv layer")
        self.layer_plan()

    def layer_plan(self) -> list:
        """Per layer (conv_len, pooled_len); raises if any layer is empty."""
        return layer_extents(self.max_len, self.windows, self.global_pool)

    @property
    def output_len(self) -> int:
        plan = self.layer_plan()
        rows, width = (plan[-1][1], self.feature_maps[-1]) if plan else (
            self.max_len, self.embed_dim)
        return width if self.sum_rows else rows * width


@dataclass
class SentenceModelParams:
    """Per conv layer: weight [F_l, k_l * F_{l-1}] and bias [F_l]."""

    layers: list  # list of (w, b)


@dataclass
class ConvLayerTrace:
    """One gated conv-and-pool layer over nd spatial axes."""

    nd: int                 # spatial axes: 1 for a sentence, 2 for a grid
    seg: np.ndarray         # input windows [..., *n, k**nd * F_in]
    pre: np.ndarray         # affine pre-activation [..., *n, F_out]
    gate: np.ndarray        # 0/1 per location [..., *n]
    conv_out: np.ndarray    # gated activation [..., *n, F_out]
    pool_out: np.ndarray    # [..., *ceil(n/2), F_out], or [..., 1, F_out]
    whole: bool = False     # pooled over the whole sentence, not in pairs


@dataclass
class LayerTrace:
    layers: list = field(default_factory=list)
    top_shape: tuple = ()  # [..., rows, features] read out into the vector


def init_sentence_params(config: SentenceModelConfig,
                         rng: np.random.Generator) -> SentenceModelParams:
    config.validate()
    layers = []
    f_prev = config.embed_dim
    for k, f in zip(config.windows, config.feature_maps):
        fan_in = k * f_prev
        w = init_uniform((f, fan_in), fan_in, f, rng)
        b = np.zeros(f, dtype=np.float64)
        layers.append((w, b))
        f_prev = f
    return SentenceModelParams(layers=layers)


# The index helpers below are cached per axis or layer shape, of which a
# model has a few.
@functools.lru_cache(maxsize=None)
def _pair_index(axis: int) -> tuple:
    """The indices of the first and of the second member of each disjoint
    pair of units along the (negative) `axis`."""
    tail = (slice(None),) * (-1 - axis)
    return (Ellipsis, slice(0, None, 2), *tail), (Ellipsis, slice(1, None, 2), *tail)


@functools.lru_cache(maxsize=None)
def _windows(n_in: tuple, k: int) -> tuple:
    """Per row-major window offset, the index of the units that offset
    reads at every location of a [..., *n_in, F] input."""
    n_out = [n - k + 1 for n in n_in]
    return tuple((Ellipsis, *(slice(o, o + m) for o, m in zip(offsets, n_out)), slice(None))
                 for offsets in itertools.product(range(k), repeat=len(n_in)))


def conv_pre(z: np.ndarray, w: np.ndarray, b, k: int, nd: int = 1):
    """Affine step of a convolution on the k-per-axis windows of z
    [..., *n, F_in]: returns (pre-activation [..., *(n-k+1), F_out], live
    [..., *(n-k+1)], input windows [..., *(n-k+1), k**nd * F_in]), where a
    location is live unless its window is all zero. Each window is
    flattened row-major: the first axis's offset outermost, the channel
    innermost. A bias b of None adds none."""
    n_in = z.shape[-1 - nd:-1]
    if min(n_in) < k:
        raise ShapeError(f"conv window {k} does not fit input extents {n_in}")
    if (w.shape[1:] != (k ** nd * z.shape[-1],)
            or b is not None and b.shape != w.shape[:1]):
        raise ShapeError(
            f"weight {w.shape} / bias {np.shape(b)} incompatible with window {k} "
            f"over {z.shape[-1]} input features"
        )
    seg = np.concatenate([z[idx] for idx in _windows(n_in, k)], axis=-1)
    if nd == 1:  # a sentence's windows are already one matrix per item
        pre = seg @ w.T
    else:        # one product per grid, over all its locations
        per_item = seg.reshape(seg.shape[:-1 - nd] + (-1, seg.shape[-1]))
        pre = (per_item @ w.T).reshape(seg.shape[:-1] + (-1,))
    return pre if b is None else pre + b, seg.any(axis=-1), seg


def gated_conv(z: np.ndarray, w: np.ndarray, b: np.ndarray, k: int,
               activation: str = "relu", nd: int = 1):
    """Gated convolution on the k-per-axis windows of z [..., *n, F_in].

    Returns (output [..., *(n-k+1), F_out], gate bits [..., *(n-k+1)],
    pre-activation, input windows). The gate is 0 exactly when the window
    is all-zero, and it multiplies the activated output, so gated
    locations are exactly zero regardless of the bias.
    """
    pre, live, seg = conv_pre(z, w, b, k, nd)
    gate = live.astype(np.float64)
    out = activate(pre, activation)
    out *= gate[..., None]
    return out, gate, pre, seg


def pad_pairs(z: np.ndarray, nd: int, fill: float) -> np.ndarray:
    """z [..., *n, F] with each odd spatial extent padded by one unit of
    `fill`, so that the units along every axis pair up."""
    n = z.shape[-1 - nd:-1]
    if not any(e % 2 for e in n):
        return z
    shape = z.shape[:-1 - nd] + tuple(e + e % 2 for e in n) + z.shape[-1:]
    out = np.full(shape, fill) if fill else np.zeros(shape)
    out[_windows(n, 1)[0]] = z  # units [0, n) of each axis
    return out


def pair_halves(z: np.ndarray, axis: int):
    """The first and the second member of each disjoint pair along the
    (negative) `axis` of z, whose extent is even."""
    first, second = _pair_index(axis)
    return z[first], z[second]


def pair_join(first: np.ndarray, second: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of pair_halves: the two members of each pair interleaved
    along `axis`."""
    out = np.empty((*first.shape[:axis], 2 * first.shape[axis], *first.shape[axis + 1:]))
    index = _pair_index(axis)
    out[index[0]], out[index[1]] = first, second
    return out


def maxpool(z: np.ndarray, nd: int = 1) -> np.ndarray:
    """Max over disjoint windows of 2 units per spatial axis of z
    [..., *n, F]; odd extents zero-padded. Pairs along the last spatial
    axis pool first, and each tie goes to the first member, so a window
    goes to its first maximum in row-major order."""
    z = pad_pairs(z, nd, 0.0)
    for axis in range(-2, -2 - nd, -1):
        z = np.maximum(*pair_halves(z, axis))
    return z


def maxpool_backward(g: np.ndarray, z: np.ndarray, nd: int = 1) -> np.ndarray:
    """Gradient w.r.t. z of maxpool(z, nd) from g at pooled resolution:
    each window's gradient goes to its winner, and a pad's is dropped."""
    n, steps = z.shape[-1 - nd:-1], []
    z = pad_pairs(z, nd, 0.0)
    for axis in range(-2, -2 - nd, -1):
        first, second = pair_halves(z, axis)
        steps.append((axis, second > first))
        z = np.maximum(first, second)
    for axis, second in reversed(steps):
        g = pair_join(np.where(second, 0.0, g), np.where(second, g, 0.0), axis)
    return g[_windows(n, 1)[0]]


def conv_backward(lt: ConvLayerTrace, w: np.ndarray, k: int, dz: np.ndarray,
                  activation: str):
    """Backpropagate d(loss)/d(pool_out) through one layer.

    Only each window's winner passes gradient, and its output is the
    pooled value, so the activation derivative is taken at pooled
    resolution; gated-off units output exactly 0, where that derivative is
    0. Returns conv_pre_backward's (dw, db, d(input)).
    """
    dpool = dz * activate_grad_from_output(lt.pool_out, activation)
    if lt.whole:  # the first maximum of each feature wins
        dpre = np.zeros(lt.conv_out.shape)
        rows = np.argmax(lt.conv_out, axis=-2)[..., None, :]
        np.put_along_axis(dpre, rows, dpool, axis=-2)
    else:
        dpre = maxpool_backward(dpool, lt.conv_out, lt.nd)
    return conv_pre_backward(dpre, lt.seg, w, k, lt.nd)


def conv_pre_backward(dpre: np.ndarray, seg: np.ndarray, w: np.ndarray, k: int,
                      nd: int = 1):
    """Adjoint of conv_pre from d(loss)/d(pre-activation): returns (dw, db)
    summed over the leading dimensions, and the gradient w.r.t. z, onto
    whose units each window's gradient is added."""
    dpre_flat = dpre.reshape(-1, dpre.shape[-1])
    # per item for sentences, over the whole stack for grids: the two forms
    # can round differently, and trained results pin both bit for bit
    dseg = dpre @ w if nd == 1 else (dpre_flat @ w).reshape(seg.shape)
    n_in = tuple(m + k - 1 for m in seg.shape[-1 - nd:-1])
    f = seg.shape[-1] // k ** nd
    dz = np.zeros(seg.shape[:-1 - nd] + n_in + (f,))
    for j, idx in enumerate(_windows(n_in, k)):
        dz[idx] += dseg[..., j * f : (j + 1) * f]
    return dpre_flat.T @ seg.reshape(-1, seg.shape[-1]), dpre_flat.sum(axis=0), dz


# A sentence layer's conv and pool steps: module globals that the models
# call, so that perfbench/tracer.py can time them.
conv1d_gated = functools.partial(gated_conv, nd=1)
maxpool1d = functools.partial(maxpool, nd=1)


def encode(sent, params: SentenceModelParams, config: SentenceModelConfig):
    """Run the full stack on a sentence or a stack [..., L, D] of them;
    returns (fixed-length vector [..., output_len], trace for backprop)."""
    x = sentence_matrix(sent)
    if x.shape[-1] != config.embed_dim or config.max_len not in (None, x.shape[-2]):
        raise ShapeError(
            f"sentence matrix {x.shape} does not match config "
            f"({config.max_len}, {config.embed_dim})"
        )
    trace = LayerTrace()
    z = x
    for (w, b), k in zip(params.layers, config.windows):
        conv_out, gate, pre, seg = conv1d_gated(z, w, b, k, config.activation)
        z = conv_out.max(axis=-2, keepdims=True) if config.global_pool else maxpool1d(conv_out)
        trace.layers.append(ConvLayerTrace(nd=1, seg=seg, pre=pre, gate=gate,
                                           conv_out=conv_out, pool_out=z,
                                           whole=config.global_pool))
    trace.top_shape = z.shape
    # padding rows are zero, so they add nothing to the sum
    out = z.sum(axis=-2) if config.sum_rows else z.reshape(*z.shape[:-2], -1).copy()
    return out, trace


def encode_backward(trace: LayerTrace, params: SentenceModelParams,
                    config: SentenceModelConfig, upstream: np.ndarray):
    """Backpropagate d(loss)/d(output vector) [..., output_len] through the
    stack.

    Gradient flows only through pooling argmax rows and units whose gate
    bit is 1 (gate bits are constants). Returns (per-layer (dw, db) list,
    summed over the leading dimensions; gradient w.r.t. the input sentence
    matrices [..., L, D]).
    """
    grads = []
    if config.sum_rows:  # every summed row gets the whole gradient
        upstream = np.broadcast_to(upstream[..., None, :], trace.top_shape)
    dz = upstream.reshape(trace.top_shape).astype(np.float64)
    for li in range(len(params.layers) - 1, -1, -1):
        dw, db, dz = conv_backward(trace.layers[li], params.layers[li][0],
                                   config.windows[li], dz, config.activation)
        grads.append((dw, db))
    grads.reverse()
    return grads, dz
