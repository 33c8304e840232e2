"""Naive reference implementations used as oracles.

Everything here is written with explicit Python loops and no batching so
the fast paths in the package can be checked against an independent
formulation. Keep these slow and obvious.
"""

import math

import numpy as np

from arcmatch.errors import DataError
from arcmatch.tensor import activate


def ref_affine(w, v, b):
    m, n = len(w), len(v)
    out = [0.0] * m
    for i in range(m):
        s = 0.0
        for j in range(n):
            s += w[i][j] * v[j]
        out[i] = s + b[i]
    return np.array(out)


def ref_act(x, kind):
    if kind == "relu":
        return x if x > 0 else 0.0
    return 1.0 / (1.0 + math.exp(-x))


def ref_conv1d_gated(z, w, b, k, kind):
    l_in, f_in = z.shape
    f_out = w.shape[0]
    l_out = l_in - k + 1
    out = np.zeros((l_out, f_out))
    for i in range(l_out):
        seg = []
        for r in range(i, i + k):
            seg.extend(z[r])
        if all(v == 0.0 for v in seg):
            continue
        for f in range(f_out):
            s = b[f]
            for j, v in enumerate(seg):
                s += w[f][j] * v
            out[i][f] = ref_act(s, kind)
    return out


def ref_maxpool1d(z):
    l, f = z.shape
    out_l = (l + 1) // 2
    out = np.zeros((out_l, f))
    for i in range(out_l):
        for c in range(f):
            a = z[2 * i][c]
            b = z[2 * i + 1][c] if 2 * i + 1 < l else 0.0
            out[i][c] = a if a >= b else b
    return out


def ref_encode(x, layers, windows, kind, global_pool=False):
    """layers: [(w, b), ...]; returns the flattened sentence vector."""
    z = x
    for (w, b), k in zip(layers, windows):
        z = ref_conv1d_gated(z, w, b, k, kind)
        if global_pool:
            vec = np.zeros(z.shape[1])
            for c in range(z.shape[1]):
                best = z[0][c]
                for r in range(1, z.shape[0]):
                    if z[r][c] > best:
                        best = z[r][c]
                vec[c] = best
            return vec
        z = ref_maxpool1d(z)
    return np.array([z[r][c] for r in range(z.shape[0]) for c in range(z.shape[1])])


def ref_head(weights, biases, v, kind):
    h = list(v)
    for li in range(len(weights) - 1):
        h = [ref_act(s, kind) for s in ref_affine(weights[li], h, biases[li])]
    return float(ref_affine(weights[-1], h, biases[-1])[0])


def ref_arc1_score(model, sx, sy):
    vx = ref_encode(sx.x, model.params_x.layers, model.config_x.windows,
                    model.config_x.activation)
    vy = ref_encode(sy.x, model.params_y.layers, model.config_y.windows,
                    model.config_y.activation)
    return ref_head(model.head.weights, model.head.biases,
                    list(vx) + list(vy), model.head.activation)


def ref_interaction_conv(x, y, w, b, k1, kind):
    l_max, dim = x.shape
    n = l_max - k1 + 1
    f_out = w.shape[0]
    out = np.zeros((n, n, f_out))
    for i in range(n):
        for j in range(n):
            seg = []
            for r in range(i, i + k1):
                seg.extend(x[r])
            for r in range(j, j + k1):
                seg.extend(y[r])
            if all(v == 0.0 for v in seg):
                continue
            for f in range(f_out):
                s = b[f]
                for q, v in enumerate(seg):
                    s += w[f][q] * v
                out[i][j][f] = ref_act(s, kind)
    return out


def ref_maxpool2d(z):
    ni, nj, f = z.shape
    oi, oj = (ni + 1) // 2, (nj + 1) // 2
    out = np.zeros((oi, oj, f))
    for i in range(oi):
        for j in range(oj):
            for c in range(f):
                best = -math.inf
                for di in range(2):
                    for dj in range(2):
                        r, s = 2 * i + di, 2 * j + dj
                        v = z[r][s][c] if r < ni and s < nj else 0.0
                        if v > best:
                            best = v
                out[i][j][c] = best
    return out


def ref_conv2d_gated(z, w, b, k, kind):
    ni, nj, f_in = z.shape
    oi, oj = ni - k + 1, nj - k + 1
    f_out = w.shape[0]
    out = np.zeros((oi, oj, f_out))
    for i in range(oi):
        for j in range(oj):
            seg = []
            for di in range(k):
                for dj in range(k):
                    seg.extend(z[i + di][j + dj])
            if all(v == 0.0 for v in seg):
                continue
            for f in range(f_out):
                s = b[f]
                for q, v in enumerate(seg):
                    s += w[f][q] * v
                out[i][j][f] = ref_act(s, kind)
    return out


def ref_arc2_stack(model, sx, sy):
    """All conv/pool outputs of the grid model, layer by layer."""
    cfg = model.config
    stack = []
    z = ref_interaction_conv(sx.x, sy.x, model.params.w1, model.params.b1,
                             cfg.window1, cfg.activation)
    stack.append(z)
    z = ref_maxpool2d(z)
    stack.append(z)
    for (k, _), (w, b) in zip(cfg.twod_layers, model.params.twod):
        z = ref_conv2d_gated(z, w, b, k, cfg.activation)
        stack.append(z)
        z = ref_maxpool2d(z)
        stack.append(z)
    return stack, z


def ref_arc2_score(model, sx, sy):
    _, z = ref_arc2_stack(model, sx, sy)
    flat = [z[i][j][c]
            for i in range(z.shape[0])
            for j in range(z.shape[1])
            for c in range(z.shape[2])]
    return ref_head(model.head.weights, model.head.biases, flat,
                    model.head.activation)


def ref_pair_pool_backward(dz, lt):
    """ARC-II's first-layer backward over the whole pooled grid: per-pair
    gradients (gx, gy) w.r.t. px and py from dz at pooled resolution.

    Every block compares the maximum of a live x window against any y
    window (t1) with that of any x window against a live y window (t2);
    each one's first cell, as a row-major block index 2 * row + col,
    competes, and the earlier one wins a tie. The gradient then goes to
    the winning row's x window and the winning column's y window, summed
    over the grid's columns and rows. Pad windows read -inf.
    """
    out = lt.pool_out
    act_grad = (out > 0.0).astype(np.float64) if lt.activation == "relu" else out * (1.0 - out)
    g = dz * act_grad

    def halves(p, live=None):
        if live is not None:
            p = np.where(live[..., None], p, -np.inf)
        if p.shape[-2] % 2:
            pad = np.full(p.shape[:-2] + (1, p.shape[-1]), -np.inf)
            p = np.concatenate([p, pad], axis=-2)
        return p[..., 0::2, :], p[..., 1::2, :]

    def grid_sum(a, b):
        return a[..., :, None, :] + b[..., None, :, :]

    def route(second, axis):
        first = np.where(second, 0.0, g).sum(axis=axis)
        other = np.where(second, g, 0.0).sum(axis=axis)
        return np.stack([first, other], axis=-2).reshape(*first.shape[:-2], -1, first.shape[-1])

    (first_x, second_x), (first_y, second_y) = halves(lt.px), halves(lt.py)
    live_first_x, live_second_x = halves(lt.px, lt.live_x)
    live_first_y, live_second_y = halves(lt.py, lt.live_y)
    t1 = grid_sum(np.maximum(live_first_x, live_second_x), np.maximum(first_y, second_y))
    t2 = grid_sum(np.maximum(first_x, second_x), np.maximum(live_first_y, live_second_y))
    idx1 = grid_sum(2 * (live_second_x > live_first_x).view(np.int8),
                    (second_y > first_y).view(np.int8))
    idx2 = grid_sum(2 * (second_x > first_x).view(np.int8),
                    (live_second_y > live_first_y).view(np.int8))
    win = np.minimum(np.where(t1 >= t2, idx1, 4), np.where(t2 >= t1, idx2, 4))
    gx = route(win >= 2, axis=-2)
    gy = route((win & 1).view(np.bool_), axis=-3)
    n = lt.px.shape[-2]
    return gx[..., :n, :], gy[..., :n, :]


def ref_pair_grid(lt):
    """ARC-II's first layer at full resolution, rebuilt from its pooled
    trace lt: (pre [..., n, n, F], gate [..., n, n], conv_out [..., n, n,
    F]). Cell (i, j) has pre px[i] + py[j] and is gated off when neither
    its x nor its y window is live."""
    pre = lt.px[..., :, None, :] + lt.py[..., None, :, :]
    gate = (lt.live_x[..., :, None] | lt.live_y[..., None, :]).astype(np.float64)
    conv_out = activate(pre, lt.activation)
    conv_out[gate == 0.0] = 0.0
    return pre, gate, conv_out


def ref_wordembed_score(model, sx, sy):
    dim = sx.x.shape[1]
    vx = [sum(sx.x[r][c] for r in range(sx.x.shape[0])) for c in range(dim)]
    vy = [sum(sy.x[r][c] for r in range(sy.x.shape[0])) for c in range(dim)]
    return ref_head(model.head.weights, model.head.biases, vx + vy,
                    model.head.activation)


def ref_senmlp_score(model, sx, sy):
    flat = list(sx.x.reshape(-1)) + list(sy.x.reshape(-1))
    return ref_head(model.head.weights, model.head.biases, flat,
                    model.head.activation)


def ref_layer_lengths(max_len, windows, global_pool=False):
    """Independent shape calculator: conv shrinks by k-1, pool halves (ceil)."""
    lengths = []
    length = max_len
    for k in windows:
        conv = length - k + 1
        pooled = 1 if global_pool else math.ceil(conv / 2)
        lengths.append((conv, pooled))
        length = pooled
    return lengths


def ref_random_negative(pairs, idx, rng, taken=()):
    """One random negative for pair idx, one draw at a time: another
    pair's y, not y+ itself nor in taken; 100 n tries."""
    y_pos = pairs[idx][1]
    for _ in range(100 * max(len(pairs), 2)):
        j = int(rng.integers(len(pairs)))
        cand = pairs[j][1]
        if j != idx and cand != y_pos and tuple(cand) not in taken:
            return cand
    raise DataError("corpus too small to draw a distinct random negative")


def ref_hard_negative(pairs, idx, table, rng, stats, taken=()):
    """One hard negative for pair idx, one draw at a time: the first y
    whose summed-vector cosine to y+ lies in [0.7, 0.8], else after 1000
    draws the closest to 0.75, counted in stats.hard_negative_fallbacks."""
    def summed(tokens):
        u = table.vectors[table.vocab.indices(tokens)].sum(axis=0)
        return u, np.linalg.norm(u)

    y_pos = pairs[idx][1]
    u, nu = summed(y_pos)
    best, best_gap = None, math.inf
    for _ in range(1000):
        j = int(rng.integers(len(pairs)))
        cand = pairs[j][1]
        if j == idx or cand == y_pos or tuple(cand) in taken:
            continue
        v, nv = summed(cand)
        c = 0.0 if nu == 0.0 or nv == 0.0 else float(u @ v / (nu * nv))
        if 0.7 <= c <= 0.8:
            return cand
        if abs(c - (0.7 + 0.8) / 2.0) < best_gap:
            best, best_gap = cand, abs(c - (0.7 + 0.8) / 2.0)
    if best is None:
        raise DataError("corpus too small to draw a distinct hard negative")
    stats.hard_negative_fallbacks += 1
    return best


def ref_triples(pairs, k, negative):
    """sample_negatives as (x, y+, y-) tuples; negative(idx, taken) draws
    one negative for pair idx."""
    triples = []
    for idx, (x, y_pos) in enumerate(pairs):
        for _ in range(k):
            triples.append((x, y_pos, negative(idx, ())))
    return triples


def ref_instances(pairs, m, rng, negative):
    """make_eval_instances as (x, candidates, answer); negative as in
    ref_triples."""
    instances = []
    for idx, (x, y_pos) in enumerate(pairs):
        taken = {tuple(y_pos)}
        candidates = [y_pos]
        for _ in range(m):
            y_neg = negative(idx, taken)
            candidates.append(y_neg)
            taken.add(tuple(y_neg))
        order = rng.permutation(len(candidates))
        answer = [int(i) for i in order].index(0)
        instances.append((x, [candidates[int(i)] for i in order], answer))
    return instances


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def ref_fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h
