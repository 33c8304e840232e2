"""Interaction-space matching architecture (ARC-II).

Layer 1 slides a window over each sentence and convolves every (x-segment,
y-segment) pair into a grid of feature vectors, letting the two sentences
interact before either has a mature representation. The grid then goes
through alternating 2x2 max-pooling and gated square 2D convolutions, and
the flattened result feeds the MLP head.

The pair gate fires only when the *whole* concatenated pair segment is
zero; a window pairing padding on one side with words on the other is
computed normally.
"""

from dataclasses import dataclass, field

import numpy as np

from .arc1 import Arc1Model
from .conv_sentence import _unstack_windows, _window_stack
from .embeddings import sentence_matrix
from .errors import ConfigError, ShapeError
from .mlp import MlpHead, build_head, head_backward, head_forward
from .tensor import (activate, activate_grad_from_output, init_uniform,
                     named_layers, sum_to_shape)


@dataclass
class Arc2Config:
    embed_dim: int
    max_len: int            # shared by both sentences (square grid)
    window1: int            # first-layer window, in words
    maps1: int
    twod_layers: tuple      # ((window, maps), ...) for the 2D conv layers
    activation: str = "relu"

    def validate(self) -> None:
        if self.window1 < 1:
            raise ConfigError(f"window1 must be >= 1, got {self.window1}")
        if self.maps1 < 1:
            raise ConfigError(f"maps1 must be >= 1, got {self.maps1}")
        n = self.max_len - self.window1 + 1
        if n < 2:
            raise ConfigError(
                f"grid side {n} < 2: max_len {self.max_len} too small for window {self.window1}"
            )
        for li, (k, f) in enumerate(self.twod_layers):
            if k < 2 or f < 1:
                raise ConfigError(f"2D layer {li}: window {k} / maps {f} invalid")
        self.grid_plan()

    def grid_plan(self) -> list:
        """Spatial extents: [(conv_side, pooled_side), ...] per conv layer."""
        n = self.max_len - self.window1 + 1
        plan = [(n, (n + 1) // 2)]
        side = (n + 1) // 2
        for li, (k, _) in enumerate(self.twod_layers):
            conv_side = side - k + 1
            if conv_side < 1:
                raise ConfigError(
                    f"2D layer {li}: window {k} does not fit grid side {side}"
                )
            side = (conv_side + 1) // 2
            plan.append((conv_side, side))
        return plan

    @property
    def output_len(self) -> int:
        plan = self.grid_plan()
        final_maps = self.twod_layers[-1][1] if self.twod_layers else self.maps1
        return plan[-1][1] ** 2 * final_maps


@dataclass
class Arc2Params:
    w1: np.ndarray          # [maps1, 2 * window1 * embed_dim]
    b1: np.ndarray
    twod: list              # per 2D layer: (w [F, k*k*F_prev], b [F])


@dataclass
class GridLayerTrace:
    seg: np.ndarray | None  # 2D-conv input windows [..., oi, oj, k*k*F_in];
                            # None for the first layer
    pre: np.ndarray
    gate: np.ndarray        # [..., ni, nj] 0/1
    conv_out: np.ndarray    # [..., ni, nj, F]
    pool_out: np.ndarray


@dataclass
class Arc2Trace:
    seg_x: np.ndarray
    seg_y: np.ndarray
    layers: list = field(default_factory=list)
    head: object = None
    score: float = 0.0


def interaction_conv1d(sx, sy, w: np.ndarray, b: np.ndarray, k1: int,
                       activation: str = "relu"):
    """First-layer convolution over all segment pairs.

    sx and sy are sentences or stacks [..., L, D] whose leading dimensions
    broadcast. Returns (grid [..., n, n, F], gate [..., n, n], pre, seg_x,
    seg_y) where n is the number of window positions. Cell (i, j) sees x
    rows i..i+k1-1 concatenated with y rows j..j+k1-1; its gate is 0 only
    when that whole concatenation is zero.
    """
    x, y = sentence_matrix(sx), sentence_matrix(sy)
    if x.shape[-2:] != y.shape[-2:]:
        raise ShapeError(f"sentence matrices differ: {x.shape} vs {y.shape}")
    try:
        np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    except ValueError:
        raise ShapeError(f"sentence stacks do not broadcast: {x.shape} vs {y.shape}")
    l_max, dim = x.shape[-2:]
    if l_max < k1:
        raise ShapeError(f"window {k1} does not fit padded length {l_max}")
    if w.shape[1] != 2 * k1 * dim or b.shape != (w.shape[0],):
        raise ShapeError(
            f"weight {w.shape} / bias {b.shape} incompatible with window {k1} "
            f"over dim {dim} pairs"
        )
    seg_x = _window_stack(x, k1)                   # [..., n, k1*dim]
    seg_y = _window_stack(y, k1)
    half = k1 * dim
    px = seg_x @ w[:, :half].T + b                 # [..., n, F]
    py = seg_y @ w[:, half:].T
    pre = px[..., :, None, :] + py[..., None, :, :]       # [..., n, n, F]
    zero_x = ~seg_x.any(axis=-1)
    zero_y = ~seg_y.any(axis=-1)
    gate = (~(zero_x[..., :, None] & zero_y[..., None, :])).astype(np.float64)
    out = activate(pre, activation)
    out[gate == 0.0] = 0.0  # on this largest grid, cheaper than a product
    return out, gate, pre, seg_x, seg_y


def _pad_even(z: np.ndarray) -> np.ndarray:
    """z with odd spatial extents zero-padded to even ones."""
    *lead, ni, nj, f = z.shape
    if ni % 2 == 0 and nj % 2 == 0:
        return z
    padded = np.zeros((*lead, ni + ni % 2, nj + nj % 2, f), dtype=z.dtype)
    padded[..., :ni, :nj, :] = z
    return padded


def _upsample(pooled: np.ndarray) -> np.ndarray:
    """Each pooled cell copied over its 2x2 block."""
    return np.repeat(np.repeat(pooled, 2, axis=-3), 2, axis=-2)


def _pool_winners(padded: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Mask of each block's winner: the first member, in row-major block
    order (0,0), (0,1), (1,0), (1,1), that equals the pooled max."""
    win = padded == _upsample(pooled)
    *lead, ni, nj, f = win.shape
    blocks = win.reshape(*lead, ni // 2, 2, nj // 2, 2, f)
    seen = blocks[..., 0, :, 0, :].copy()
    for di, dj in ((0, 1), (1, 0), (1, 1)):
        member = blocks[..., di, :, dj, :]   # a view: clears ties in win
        member &= ~seen
        seen |= member
    return win


def maxpool2d(z: np.ndarray, sources: bool = True):
    """Max over disjoint 2x2 blocks per channel; odd extents zero-padded.

    Returns (pooled [..., ceil(ni/2), ceil(nj/2), F], source coords
    [..., oi, oj, F, 2]). Ties resolve to the first candidate in row-major
    order of the block. With sources=False the coords are skipped and
    None is returned in their place; backward derives the winners itself.
    """
    z = _pad_even(z)
    pooled = np.maximum(np.maximum(z[..., 0::2, 0::2, :], z[..., 0::2, 1::2, :]),
                        np.maximum(z[..., 1::2, 0::2, :], z[..., 1::2, 1::2, :]))
    if not sources:
        return pooled, None
    win = _pool_winners(z, pooled)
    di = win[..., 1::2, 0::2, :] | win[..., 1::2, 1::2, :]
    dj = win[..., 0::2, 1::2, :] | win[..., 1::2, 1::2, :]
    oi, oj = pooled.shape[-3:-1]
    rows = np.arange(oi)[:, None, None] * 2 + di
    cols = np.arange(oj)[None, :, None] * 2 + dj
    return pooled, np.stack([rows, cols], axis=-1)


def conv2d_gated(z: np.ndarray, w: np.ndarray, b: np.ndarray, k: int,
                 activation: str = "relu"):
    """Gated 2D convolution on k x k windows of a [..., ni, nj, F_in] grid.

    The receptive field is flattened row-major (row offset outer, column
    offset middle, channel inner); the gate is 0 only when the whole field
    is zero. Spatial extents shrink by k - 1.
    """
    *lead, ni, nj, f_in = z.shape
    if ni < k or nj < k:
        raise ShapeError(f"2D window {k} does not fit grid {ni}x{nj}")
    if w.shape[1] != k * k * f_in or b.shape != (w.shape[0],):
        raise ShapeError(
            f"weight {w.shape} / bias {b.shape} incompatible with window {k} "
            f"over {f_in} channels"
        )
    oi, oj = ni - k + 1, nj - k + 1
    seg = np.concatenate(
        [z[..., di : di + oi, dj : dj + oj, :] for di in range(k) for dj in range(k)],
        axis=-1,
    )                                              # [..., oi, oj, k*k*F_in]
    # one matrix product per item over all oi*oj locations
    pre = (seg.reshape(*lead, oi * oj, -1) @ w.T).reshape(*lead, oi, oj, -1) + b
    gate = seg.any(axis=-1).astype(np.float64)
    out = activate(pre, activation)
    out *= gate[..., None]
    return out, gate, pre, seg


@dataclass
class Arc2Model:
    config: Arc2Config
    params: Arc2Params
    head: MlpHead
    kind: str = "arc2"

    def score(self, sx, sy, masks=None):
        """Score a pair, or stacks [..., L, D] of pairs with broadcasting
        leading dimensions; returns (score(s), trace)."""
        cfg = self.config
        out, gate, pre, seg_x, seg_y = interaction_conv1d(
            sx, sy, self.params.w1, self.params.b1, cfg.window1, cfg.activation
        )
        trace = Arc2Trace(seg_x=seg_x, seg_y=seg_y)
        pooled, _ = maxpool2d(out, sources=False)
        trace.layers.append(GridLayerTrace(seg=None, pre=pre, gate=gate,
                                           conv_out=out, pool_out=pooled))
        z = pooled
        for (k, _), (w, b) in zip(cfg.twod_layers, self.params.twod):
            out, gate, pre, seg = conv2d_gated(z, w, b, k, cfg.activation)
            pooled, _ = maxpool2d(out, sources=False)
            trace.layers.append(GridLayerTrace(seg=seg, pre=pre, gate=gate,
                                               conv_out=out, pool_out=pooled))
            z = pooled
        # row-major: i outer, j middle, channel inner
        flat = z.reshape(*z.shape[:-3], -1)
        s, head_trace = head_forward(self.head, flat, masks)
        trace.head = head_trace
        trace.score = s
        return s, trace

    def backward(self, trace: Arc2Trace, upstream):
        """Gradients of sum(upstream * score); upstream matches the score's
        shape. Returns (parameter grads summed over pairs, dx, dy) with dx
        and dy shaped like the sentence inputs."""
        cfg = self.config
        wg, bg, dflat = head_backward(self.head, trace.head, upstream)
        grads = dict(named_layers("head", zip(wg, bg)))

        dz = dflat.reshape(trace.layers[-1].pool_out.shape)
        for li in range(len(trace.layers) - 1, 0, -1):
            lt = trace.layers[li]
            k = cfg.twod_layers[li - 1][0]
            w, _ = self.params.twod[li - 1]
            dpre = _pool2d_backward(dz, lt, cfg.activation)
            oi, oj, f_out = dpre.shape[-3:]
            dpre_flat = dpre.reshape(-1, f_out)
            grads[f"twod.{li - 1}.w"] = dpre_flat.T @ lt.seg.reshape(-1, lt.seg.shape[-1])
            grads[f"twod.{li - 1}.b"] = dpre_flat.sum(axis=0)
            dseg = (dpre_flat @ w).reshape(lt.seg.shape)   # [..., oi, oj, k*k*F_in]
            z_in_shape = trace.layers[li - 1].pool_out.shape
            f_in = z_in_shape[-1]
            dz = np.zeros(z_in_shape, dtype=np.float64)
            for idx in range(k * k):
                di, dj = divmod(idx, k)
                dz[..., di : di + oi, dj : dj + oj, :] += dseg[
                    ..., idx * f_in : (idx + 1) * f_in
                ]

        lt = trace.layers[0]
        dpre = _pool2d_backward(dz, lt, cfg.activation)
        # each sentence's windows feed a whole grid row (x) or column (y);
        # pairs that share a sentence through broadcasting add up on it
        f_out = dpre.shape[-1]
        gx = sum_to_shape(dpre.sum(axis=-2), trace.seg_x.shape[:-1] + (f_out,))
        gy = sum_to_shape(dpre.sum(axis=-3), trace.seg_y.shape[:-1] + (f_out,))
        half = cfg.window1 * cfg.embed_dim
        seg_x, seg_y = trace.seg_x, trace.seg_y
        grads["w1"] = np.concatenate(
            [gx.reshape(-1, f_out).T @ seg_x.reshape(-1, half),
             gy.reshape(-1, f_out).T @ seg_y.reshape(-1, half)], axis=1)
        grads["b1"] = gx.reshape(-1, f_out).sum(axis=0)
        dx = _unstack_windows(gx @ self.params.w1[:, :half], cfg.window1, cfg.max_len)
        dy = _unstack_windows(gy @ self.params.w1[:, half:], cfg.window1, cfg.max_len)
        return grads, dx, dy

    def named_params(self):
        """Fixed order: pair layer, 2D layers ascending (w before b), head last."""
        return [("w1", self.params.w1), ("b1", self.params.b1),
                *named_layers("twod", self.params.twod),
                *named_layers("head", zip(self.head.weights, self.head.biases))]


def _pool2d_backward(dz: np.ndarray, lt: GridLayerTrace, activation: str) -> np.ndarray:
    """Gradient w.r.t. a layer's pre-activation from the gradient w.r.t.
    its pooled output.

    Only each block's winner (as in maxpool2d) passes gradient, and the
    winner's output is the pooled value, so the activation derivative is
    taken at pooled resolution. Gated-off units output exactly 0, where
    that derivative is 0. Gradients of synthetic pad cells are dropped.
    """
    dpool = dz * activate_grad_from_output(lt.pool_out, activation)
    dpre = _upsample(dpool)
    dpre *= _pool_winners(_pad_even(lt.conv_out), lt.pool_out)
    ni, nj = lt.conv_out.shape[-3:-1]
    return dpre[..., :ni, :nj, :]


def build_arc2(embed_dim: int, max_len: int, rng,
               window1=3, maps1=16, twod_layers=((2, 16), (2, 16)),
               hidden=(128,), activation="relu", dropout=0.0) -> Arc2Model:
    """Assemble an interaction model with freshly initialized parameters."""
    config = Arc2Config(embed_dim=embed_dim, max_len=max_len, window1=window1,
                        maps1=maps1, twod_layers=tuple(tuple(t) for t in twod_layers),
                        activation=activation)
    config.validate()
    w1 = init_uniform((maps1, 2 * window1 * embed_dim), 2 * window1 * embed_dim,
                      maps1, rng)
    b1 = np.zeros(maps1, dtype=np.float64)
    twod = []
    f_prev = maps1
    for k, f in config.twod_layers:
        fan_in = k * k * f_prev
        twod.append((init_uniform((f, fan_in), fan_in, f, rng),
                     np.zeros(f, dtype=np.float64)))
        f_prev = f
    params = Arc2Params(w1=w1, b1=b1, twod=twod)
    head = build_head(config.output_len, hidden, rng, activation=activation,
                      dropout=dropout)
    return Arc2Model(config=config, params=params, head=head)


def arc1_embedding_constraints(arc1: Arc1Model) -> None:
    """Check an ARC-I model is shape-compatible with the grid construction."""
    cx, cy = arc1.config_x, arc1.config_y
    if cx.depth != 2:
        raise ConfigError(f"construction needs a depth-2 encoder, got depth {cx.depth}")
    if cx.windows[1] != 2:
        raise ConfigError(
            f"construction needs second window == 2 to align with 2x2 pooling, "
            f"got {cx.windows[1]}"
        )
    if (cx.max_len, cx.windows, cx.feature_maps, cx.embed_dim, cx.activation) != (
        cy.max_len, cy.windows, cy.feature_maps, cy.embed_dim, cy.activation
    ):
        raise ConfigError("construction needs identical x/y encoder configs")


def embed_arc1_as_arc2(arc1: Arc1Model) -> Arc2Model:
    """Build grid-model parameters that replicate a siamese model's stacks.

    First-layer filters split into an x-devoted half (y block zeroed) and a
    y-devoted half (x block zeroed); second-layer filters connect only
    within their own group, with the y-devoted group reading the column
    offset instead of the row offset. On padding-free inputs the x-devoted
    channel stack reproduces the siamese x-encoder's conv/pool outputs
    exactly (and symmetrically for y). The head is zero-initialized: score
    equivalence is out of scope, only the stacks correspond.
    """
    arc1_embedding_constraints(arc1)
    cx = arc1.config_x
    k1 = cx.windows[0]
    f1a, f2a = cx.feature_maps
    dim = cx.embed_dim
    half = k1 * dim

    (w1x, b1x), (w2x, b2x) = arc1.params_x.layers
    (w1y, b1y), (w2y, b2y) = arc1.params_y.layers

    w1 = np.zeros((2 * f1a, 2 * half), dtype=np.float64)
    w1[:f1a, :half] = w1x
    w1[f1a:, half:] = w1y
    b1 = np.concatenate([b1x, b1y])

    # second layer: 2x2 field flattened as (row offset, col offset, channel)
    f_in = 2 * f1a
    w2 = np.zeros((2 * f2a, 4 * f_in), dtype=np.float64)
    for f in range(f2a):
        for di in range(2):  # x-devoted reads the two row offsets at col 0
            block = (di * 2 + 0) * f_in
            w2[f, block : block + f1a] = w2x[f, di * f1a : (di + 1) * f1a]
        for dj in range(2):  # y-devoted reads the two col offsets at row 0
            block = (0 * 2 + dj) * f_in
            w2[f2a + f, block + f1a : block + 2 * f1a] = w2y[f, dj * f1a : (dj + 1) * f1a]
    b2 = np.concatenate([b2x, b2y])

    config = Arc2Config(embed_dim=dim, max_len=cx.max_len, window1=k1,
                        maps1=2 * f1a, twod_layers=((2, 2 * f2a),),
                        activation=cx.activation)
    config.validate()
    params = Arc2Params(w1=w1, b1=b1, twod=[(w2, b2)])
    head = MlpHead(
        weights=[np.zeros((1, config.output_len), dtype=np.float64)],
        biases=[np.zeros(1, dtype=np.float64)],
        activation=cx.activation,
    )
    return Arc2Model(config=config, params=params, head=head)
