"""Interaction-space matching architecture (ARC-II).

Layer 1 slides a window over each sentence and convolves every (x-segment,
y-segment) pair into a grid of feature vectors, letting the two sentences
interact before either has a mature representation. The grid then goes
through alternating 2x2 max-pooling and gated square 2D convolutions, and
the flattened result feeds the MLP head. The 2D layers are the sentence
model's conv-and-pool layer with two spatial axes (conv_sentence.py): a
2x2 block goes to its first maximum in row-major order, which is pooling
column pairs, then row pairs, each tie going to the first member.

The pair gate fires only when the *whole* concatenated pair segment is
zero; a window pairing padding on one side with words on the other is
computed normally.

The first layer is computed already pooled, so no n x n x F grid is built.
Its pre-activation is pre[i, j] = px[i] + py[j], where px = seg_x @ Wx.T + b
and py = seg_y @ Wy.T are each sentence's 1D convolution before its
activation. Rounded addition is monotone, so the maximum of pre over a
2x2 block is exactly max(px[2m], px[2m+1]) + max(py[2k], py[2k+1]),
and because ReLU and sigmoid are monotone too, the pool is taken before
the activation, at a quarter of the cells.

Gated cells and the zero pad of an odd side read 0, which no activated
live cell falls below. So a block's value is the activation of the
maximum over its live cells, max(Ax_live + Ay_all, Ax_all + Ay_live): a
side's _all maximum covers both of its windows in the block, and its _live
maximum drops its zero windows (as -inf). A block with no live cell pools
to 0. Forward skips the _live terms for a stack in which no pair has a
gated cell: one side of each pair then has no zero window, so its _live
maximum is its _all maximum.

Backward routes each block's gradient to its winner, the first maximum in
row-major block order as maxpool2d picks it, adding it to the winner's x
window in gx and its y window in gy. The winner is read off px and py.
The block's live maximum is the larger of t1 = Ax_live + Ay_all (a live x
window against any y window) and t2 = Ax_all + Ay_live, and that term's
first cell wins; when t1 == t2, the earlier of the two first cells in
row-major order wins. So when a block's two x windows are both live, or
both dead (a dead window's px is the bias alone, so the two tie and the
first wins), its winning row is the x pair's own comparison px[2m+1] >
px[2m]; likewise its winning column is py[2k+1] > py[2k] unless exactly
one of its y windows is live. gx is therefore g summed over each row of
blocks and routed by the x pairs' comparisons, and gy g summed over each
column and routed by the y pairs'; only the pairs with one live window are
routed block by block, by the rule above. Each window's gradients add in
the same order as row and column sums over the full grid would add them.
Reading the winners off px and py matches the rounded sums unless two
different sums px[i] + py[j] round to one value; with sigmoid, the pooled
values also rely on the activation being monotone in floating point.
Outside those cases, scores and gradients are bitwise those of the full
grid.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .arc1 import Arc1Model
from .conv_sentence import (ConvLayerTrace, conv_backward, conv_pre, conv_pre_backward,
                            gated_conv, layer_extents, maxpool, pad_pairs,
                            pair_halves, pair_join)
from .embeddings import sentence_matrix
from .errors import ConfigError, ShapeError
from .mlp import MlpHead, build_head, head_backward, head_forward
from .tensor import (activate, activate_grad_from_output, init_layers, named_layers,
                     split_by, sum_to_shape)


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
        n = self.max_len - self.window1 + 1
        if n < 2:
            raise ConfigError(
                f"grid side {n} < 2: max_len {self.max_len} too small for window {self.window1}"
            )
        for li, (k, _) in enumerate(self.twod_layers):
            if k < 2:
                raise ConfigError(f"2D layer {li}: window {k} must be >= 2")
        self.grid_plan()

    def grid_plan(self) -> list:
        """Spatial extents: [(conv_side, pooled_side), ...] per conv layer."""
        return layer_extents(self.max_len, (self.window1, *(k for k, _ in self.twod_layers)))

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
class PairLayerTrace:
    """The first layer's trace, held at pooled resolution.

    Each side keeps its sentence's own leading shape. Cell (i, j) is live
    when x window i or y window j is not all zero; its pre-activation is
    px[i] + py[j]. No full-resolution grid is kept.
    """
    seg_x: np.ndarray       # [..., n, k1*D]
    seg_y: np.ndarray
    px: np.ndarray          # seg_x @ Wx.T + b [..., n, F]
    py: np.ndarray          # seg_y @ Wy.T
    live_x: np.ndarray      # [..., n] bool
    live_y: np.ndarray
    activation: str
    pool_out: np.ndarray    # [..., ceil(n/2), ceil(n/2), F]


@dataclass
class Arc2Trace:
    layers: list = field(default_factory=list)
    head: object = None


def _halves(p: np.ndarray, live=None):
    """The two windows of each 2-window block of p [..., n, F], as
    (first, second) [..., ceil(n/2), F]. Windows not flagged in live
    ([..., n] bool) and the missing second window of an odd side read
    -inf, below every value."""
    if live is not None:
        p = np.where(live[..., None], p, -np.inf)
    return pair_halves(pad_pairs(p, 1, -np.inf), -2)


def _grid_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [..., m, F] along rows + b [..., m, F] along columns: [..., m, m, F]."""
    return a[..., :, None, :] + b[..., None, :, :]


def _grid_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] | b[..., None, :]


def interaction_conv1d(sx, sy, w: np.ndarray, b: np.ndarray, k1: int,
                       activation: str = "relu"):
    """First-layer convolution over all segment pairs, max-pooled 2x2.

    sx and sy are sentences or stacks [..., L, D] whose leading dimensions
    broadcast. Returns (pooled [..., ceil(n/2), ceil(n/2), F], gate
    [..., n, n], PairLayerTrace) where n is the number of window positions.
    Cell (i, j) sees x rows i..i+k1-1 concatenated with y rows j..j+k1-1;
    its gate is 0 only when that whole concatenation is zero. The pooled
    output equals maxpool2d of the gated n x n grid (see the module
    docstring), which is never built.
    """
    x, y = sentence_matrix(sx), sentence_matrix(sy)
    if x.shape[-2:] != y.shape[-2:]:
        raise ShapeError(f"sentence matrices differ: {x.shape} vs {y.shape}")
    if x.shape != y.shape:
        try:
            np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
        except ValueError:
            raise ShapeError(f"sentence stacks do not broadcast: {x.shape} vs {y.shape}")
    half = k1 * x.shape[-1]
    # the pair's bias is added once, on the x side
    px, live_x, seg_x = conv_pre(x, w[:, :half], b, k1)     # [..., n, F]
    py, live_y, seg_y = conv_pre(y, w[:, half:], None, k1)
    cells = _grid_or(live_x, live_y)
    top_x, top_y = np.maximum(*_halves(px)), np.maximum(*_halves(py))
    if cells.all():
        pre = _grid_sum(top_x, top_y)
    else:
        pre = np.maximum(_grid_sum(np.maximum(*_halves(px, live_x)), top_y),
                         _grid_sum(top_x, np.maximum(*_halves(py, live_y))))
    pooled = activate(pre, activation)
    gate = cells.astype(np.float64)
    lt = PairLayerTrace(seg_x=seg_x, seg_y=seg_y, px=px, py=py, live_x=live_x,
                        live_y=live_y, activation=activation, pool_out=pooled)
    return pooled, gate, lt


# A 2D layer's conv and pool steps: module globals that the model calls,
# so that perfbench/tracer.py can time them.
conv2d_gated = functools.partial(gated_conv, nd=2)
maxpool2d = functools.partial(maxpool, nd=2)


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
        z, _, first = interaction_conv1d(
            sx, sy, self.params.w1, self.params.b1, cfg.window1, cfg.activation
        )
        trace = Arc2Trace(layers=[first])
        for (k, _), (w, b) in zip(cfg.twod_layers, self.params.twod):
            out, _, seg = conv2d_gated(z, w, b, k, cfg.activation)
            z = maxpool2d(out)
            trace.layers.append(ConvLayerTrace(nd=2, seg=seg, conv_out=out, pool_out=z))
        # row-major: i outer, j middle, channel inner
        flat = z.reshape(*z.shape[:-3], -1)
        s, head_trace = head_forward(self.head, flat, masks)
        trace.head = head_trace
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
            (k, _), (w, _) = cfg.twod_layers[li - 1], self.params.twod[li - 1]
            grads[f"twod.{li - 1}.w"], grads[f"twod.{li - 1}.b"], dz = conv_backward(
                trace.layers[li], w, k, dz, cfg.activation)

        lt = trace.layers[0]
        gx, gy = _pair_pool_backward(dz, lt)
        # pairs that share a sentence through broadcasting add up on it
        gx, gy = sum_to_shape(gx, lt.px.shape), sum_to_shape(gy, lt.py.shape)
        half = cfg.window1 * cfg.embed_dim
        wx, grads["b1"], dx = conv_pre_backward(gx, lt.seg_x, self.params.w1[:, :half],
                                                cfg.window1)
        wy, _, dy = conv_pre_backward(gy, lt.seg_y, self.params.w1[:, half:], cfg.window1)
        grads["w1"] = np.concatenate([wx, wy], axis=1)
        return grads, dx, dy

    def named_params(self):
        """Fixed order: pair layer, 2D layers ascending (w before b), head last."""
        return [("w1", self.params.w1), ("b1", self.params.b1),
                *named_layers("twod", self.params.twod),
                *named_layers("head", zip(self.head.weights, self.head.biases))]


def _pair_pool_backward(dz: np.ndarray, lt: PairLayerTrace):
    """Per-pair gradients (gx, gy) [..., n, F] w.r.t. px and py from the
    gradient w.r.t. the first layer's pooled output.

    Each block passes its gradient to its winner, the first live cell in
    row-major block order whose pre-activation is the block's maximum (as
    maxpool2d picks it): cell (i, j) adds it to row i of gx and row j of gy.
    A block's winning row is its x pair's own comparison unless exactly one
    of the pair's windows is live, and so is its column for the y pair (see
    the module docstring). So gx routes g summed over each row of blocks,
    and gy g summed over each column; only the rows and columns of a pair
    with one live window are routed block by block, by _winners.
    Gradients of synthetic pad windows are dropped.
    """
    g = dz * activate_grad_from_output(lt.pool_out, lt.activation)
    lead = g.shape[:-3] or (1,)   # a lone pair routes as a stack of one
    g = g.reshape(lead + g.shape[-3:])
    (first_x, second_x), (first_y, second_y) = _halves(lt.px), _halves(lt.py)
    wins_x, wins_y = second_x > first_x, second_y > first_y
    rows = np.nonzero(_one_live(lt.live_x, lead))
    cols = np.nonzero(_one_live(lt.live_y, lead))
    if rows[0].size or cols[0].size:
        xs = _block_maxima(first_x, second_x, wins_x, lt.px, lt.live_x, lead)
        ys = _block_maxima(first_y, second_y, wins_y, lt.py, lt.live_y, lead)
    # the block-by-block routes are summed in C-ordered buffers laid out as
    # the grid's: along a row of blocks as its innermost axis but one, and
    # down a column as its outermost, so that numpy adds them up in the
    # order in which it adds the grid's rows and columns
    if rows[0].size:
        row = _winners(xs[rows][:, None], ys[rows[:-1]]) >= 2            # [R, K, F]
        row_routes = np.empty((2,) + row.shape)
        row_routes[0], row_routes[1] = split_by(row, g[rows])
        row_routes = row_routes.sum(axis=-2)
    if cols[0].size:
        x_blocks = np.moveaxis(xs, -4, 0)[(slice(None), *cols[:-1])]
        col = (_winners(x_blocks, ys[cols]) & 1).view(np.bool_)          # [M, R, F]
        col_routes = np.empty((col.shape[0], 2) + col.shape[1:])
        col_routes[:, 0], col_routes[:, 1] = split_by(
            col, np.moveaxis(g, -3, 0)[(slice(None), *cols)])
        col_routes = col_routes.sum(axis=0)
    xs = ys = None  # hold no blocks while the whole rows and columns are routed
    gx = split_by(wins_x, g.sum(axis=-2))
    if rows[0].size:
        gx[0][rows], gx[1][rows] = row_routes
    gy = split_by(wins_y, g.sum(axis=-3))
    if cols[0].size:
        gy[0][cols], gy[1][cols] = col_routes
    n = lt.px.shape[-2]
    shape = dz.shape[:-3] + (n, dz.shape[-1])
    return (pair_join(*gx, -2)[..., :n, :].reshape(shape),
            pair_join(*gy, -2)[..., :n, :].reshape(shape))


def _block_maxima(first, second, wins, p, live, lead: tuple) -> np.ndarray:
    """Each 2-window block of p [..., n, F], with its _halves (first,
    second) and wins = second > first, as [*lead, ceil(n/2), 2, 2, F]: (its
    maximum, 1.0 if its second window holds that maximum alone, else 0.0),
    each over (all windows, live windows)."""
    live_first, live_second = _halves(p, live)
    blocks = np.empty(first.shape[:-1] + (2, 2, first.shape[-1]))
    np.maximum(first, second, out=blocks[..., 0, 0, :])
    np.maximum(live_first, live_second, out=blocks[..., 0, 1, :])
    blocks[..., 1, 0, :] = wins
    np.greater(live_second, live_first, out=blocks[..., 1, 1, :])
    return np.broadcast_to(blocks, lead + blocks.shape[-4:])


def _one_live(live: np.ndarray, lead: tuple) -> np.ndarray:
    """[*lead, n // 2]: whether exactly one window of each full block is
    live; the block of an odd side's last window never is."""
    return np.broadcast_to(live[..., :-1:2] ^ live[..., 1::2], lead + (live.shape[-1] // 2,))


def _winners(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Each block's winner as a row-major block index 2 * row + col, from
    the _block_maxima of its x and y pairs. The live maxima are those of a
    live x window against any y window (t1) and of any x window against a
    live y window (t2); each one's first cell competes, and the earlier one
    wins a tie."""
    t = xs[..., 0, ::-1, :] + ys[..., 0, :, :]          # (t1, t2)
    index = 2.0 * xs[..., 1, ::-1, :] + ys[..., 1, :, :]
    win = np.where(t >= t[..., ::-1, :], index, 4.0)
    return np.minimum(win[..., 0, :], win[..., 1, :]).astype(np.int8)


def build_arc2(embed_dim: int, max_len: int, rng,
               window1=3, maps1=16, twod_layers=((2, 16), (2, 16)),
               hidden=(128,), activation="relu", dropout=0.0) -> Arc2Model:
    """Assemble an interaction model with freshly initialized parameters."""
    config = Arc2Config(embed_dim=embed_dim, max_len=max_len, window1=window1,
                        maps1=maps1, twod_layers=tuple(tuple(t) for t in twod_layers),
                        activation=activation)
    config.validate()
    maps = (maps1, *(f for _, f in config.twod_layers))
    fan_ins = (2 * window1 * embed_dim,
               *(k * k * f for (k, _), f in zip(config.twod_layers, maps)))
    (w1, b1), *twod = init_layers("conv", fan_ins, maps, rng)
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
