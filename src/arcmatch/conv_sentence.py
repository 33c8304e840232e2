"""Convolutional sentence model.

A padded sentence matrix goes through alternating gated 1D convolution and
two-unit max-pooling until a fixed-length vector remains. Each convolution
unit carries an all-zero gate: when its entire input segment is zero (the
padding region), the output is forced to exactly zero, so padding forms a
hierarchy of dead units that neither the forward pass nor gradients cross.

The degenerate single-layer mode pools each feature map over the whole
sentence instead (global_pool), giving an order-insensitive local-template
encoder.
"""

from dataclasses import dataclass, field

import numpy as np

from .embeddings import sentence_matrix
from .errors import ConfigError, ShapeError
from .tensor import activate, activate_grad_from_output, init_uniform


@dataclass
class SentenceModelConfig:
    embed_dim: int
    max_len: int
    windows: tuple        # window width per conv layer, in prior-layer units
    feature_maps: tuple   # filter count per conv layer
    activation: str = "relu"
    global_pool: bool = False

    @property
    def depth(self) -> int:
        return len(self.windows)

    def validate(self) -> None:
        if self.depth < 1 or len(self.feature_maps) != self.depth:
            raise ConfigError(
                f"windows and feature_maps must be equal-length and nonempty, "
                f"got {self.windows} / {self.feature_maps}"
            )
        if any(k < 2 for k in self.windows):
            raise ConfigError(f"every window must be >= 2, got {self.windows}")
        if any(f < 1 for f in self.feature_maps):
            raise ConfigError(f"every feature-map count must be >= 1, got {self.feature_maps}")
        if self.global_pool and self.depth != 1:
            raise ConfigError("global_pool mode requires exactly one conv layer")
        self.layer_plan()

    def layer_plan(self) -> list:
        """Per layer (conv_len, pooled_len); raises if any layer is empty."""
        plan = []
        length = self.max_len
        for li, k in enumerate(self.windows):
            conv_len = length - k + 1
            if conv_len < 1:
                raise ConfigError(
                    f"layer {li}: window {k} does not fit in length {length} "
                    f"(max_len {self.max_len} too small for this stack)"
                )
            pooled = 1 if self.global_pool else (conv_len + 1) // 2
            plan.append((conv_len, pooled))
            length = pooled
        return plan

    @property
    def output_len(self) -> int:
        plan = self.layer_plan()
        if self.global_pool:
            return self.feature_maps[0]
        return plan[-1][1] * self.feature_maps[-1]


@dataclass
class SentenceModelParams:
    """Per conv layer: weight [F_l, k_l * F_{l-1}] and bias [F_l]."""

    layers: list  # list of (w, b)


@dataclass
class ConvLayerTrace:
    z_in: np.ndarray        # input grid [..., L_in, F_in]
    pre: np.ndarray         # affine pre-activation [..., L_out, F_out]
    gate: np.ndarray        # 0/1 per location [..., L_out]
    conv_out: np.ndarray    # gated activation [..., L_out, F_out]
    pool_from: np.ndarray   # source row per pooled cell [..., pooled, F_out]
    pool_out: np.ndarray


@dataclass
class LayerTrace:
    layers: list = field(default_factory=list)
    output: np.ndarray | None = None


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


def _window_stack(z: np.ndarray, k: int) -> np.ndarray:
    """Rows i..i+k-1 of z concatenated per location: [..., L-k+1, k*F]."""
    l_out = z.shape[-2] - k + 1
    return np.concatenate([z[..., i : i + l_out, :] for i in range(k)], axis=-1)


def _unstack_windows(dseg: np.ndarray, k: int, l_in: int) -> np.ndarray:
    """Adjoint of _window_stack: add each window's gradient onto its rows."""
    *lead, l_out, width = dseg.shape
    f = width // k
    dz = np.zeros((*lead, l_in, f), dtype=np.float64)
    for j in range(k):
        dz[..., j : j + l_out, :] += dseg[..., j * f : (j + 1) * f]
    return dz


def conv1d_gated(z_prev: np.ndarray, w: np.ndarray, b: np.ndarray, k: int,
                 activation: str = "relu"):
    """Gated 1D convolution over a [..., L_in, F_in] grid.

    Returns (output [..., L_in-k+1, F_out], gate bits [..., L_in-k+1],
    pre-activation). The gate is 0 exactly when the concatenated input
    segment is all-zero, and it multiplies the activated output, so gated
    locations are exactly zero regardless of the bias.
    """
    l_in, f_in = z_prev.shape[-2:]
    if l_in < k:
        raise ShapeError(f"conv window {k} does not fit input of length {l_in}")
    if w.shape != (w.shape[0], k * f_in) or b.shape != (w.shape[0],):
        raise ShapeError(
            f"weight {w.shape} / bias {b.shape} incompatible with window {k} "
            f"over {f_in} input features"
        )
    seg = _window_stack(z_prev, k)
    pre = seg @ w.T + b
    gate = seg.any(axis=-1).astype(np.float64)
    out = activate(pre, activation)
    out *= gate[..., None]
    return out, gate, pre


def maxpool1d(z: np.ndarray):
    """Non-overlapping two-unit max per feature; odd length zero-padded.

    Returns (pooled [..., ceil(L/2), F], argmax row per pooled cell
    [..., ceil(L/2), F]). Ties go to the lower row index.
    """
    l = z.shape[-2]
    if l % 2 == 1:
        z = np.concatenate([z, np.zeros_like(z[..., :1, :])], axis=-2)
    a = z[..., 0::2, :]
    b = z[..., 1::2, :]
    take_b = b > a  # ties resolve to the earlier row
    pooled = np.where(take_b, b, a)
    rows = np.arange(0, l + l % 2, 2)[:, None] + take_b
    return pooled, rows


def global_maxpool(z: np.ndarray):
    """Max over all locations per feature; returns (vector [..., F], argmax rows)."""
    rows = np.argmax(z, axis=-2)  # first max wins, matching the tie rule
    return z.max(axis=-2), rows


def _scatter_rows(rows: np.ndarray, dz: np.ndarray, length: int) -> np.ndarray:
    """Adjoint of pooling: dz [..., P, F] placed at its source rows
    [..., P, F] of a zero [..., length, F] array.

    Pooling windows are disjoint, so every source is distinct and the
    gradients are assigned, not accumulated.
    """
    *lead, p, f = rows.shape
    n = rows.size // (p * f)
    out = np.zeros((n, length, f), dtype=np.float64)
    out[np.arange(n)[:, None, None], rows.reshape(n, p, f), np.arange(f)] = dz.reshape(n, p, f)
    return out.reshape(*lead, length, f)


def encode(sent, params: SentenceModelParams, config: SentenceModelConfig):
    """Run the full stack on a sentence or a stack [..., L, D] of them;
    returns (fixed-length vector [..., output_len], trace for backprop)."""
    x = sentence_matrix(sent)
    if x.shape[-2:] != (config.max_len, config.embed_dim):
        raise ShapeError(
            f"sentence matrix {x.shape} does not match config "
            f"({config.max_len}, {config.embed_dim})"
        )
    trace = LayerTrace()
    z = x
    for li, ((w, b), k) in enumerate(zip(params.layers, config.windows)):
        conv_out, gate, pre = conv1d_gated(z, w, b, k, config.activation)
        if config.global_pool:
            pool_out_vec, rows = global_maxpool(conv_out)
            pool_out = pool_out_vec[..., None, :]
            pool_from = rows[..., None, :]
        else:
            pool_out, pool_from = maxpool1d(conv_out)
        trace.layers.append(ConvLayerTrace(z_in=z, pre=pre, gate=gate,
                                           conv_out=conv_out,
                                           pool_from=pool_from,
                                           pool_out=pool_out))
        z = pool_out
    out = z.reshape(*z.shape[:-2], -1).copy()
    trace.output = out
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
    last = trace.layers[-1]
    dz = upstream.reshape(last.pool_out.shape).astype(np.float64)
    for li in range(len(params.layers) - 1, -1, -1):
        lt = trace.layers[li]
        w, _ = params.layers[li]
        k = config.windows[li]
        # only argmax rows pass gradient, and their output is the pooled
        # value, so the activation derivative is taken at pooled resolution;
        # gated-off units output exactly 0, where that derivative is 0.
        # The extra row catches the synthetic pad row of odd lengths.
        l_out, f_out = lt.conv_out.shape[-2:]
        dpool = dz * activate_grad_from_output(lt.pool_out, config.activation)
        dpre = _scatter_rows(lt.pool_from, dpool, l_out + 1)[..., :l_out, :]
        seg = _window_stack(lt.z_in, k)
        dpre_flat = dpre.reshape(-1, f_out)
        dw = dpre_flat.T @ seg.reshape(-1, seg.shape[-1])
        db = dpre_flat.sum(axis=0)
        grads.append((dw, db))
        dz = _unstack_windows(dpre @ w, k, lt.z_in.shape[-2])
    grads.reverse()
    return grads, dz
