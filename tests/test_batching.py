"""Leading-dimension convention and the chunked SGD step.

Every layer accepts stacked inputs with leading batch dimensions and must
return, bit for bit, what per-item calls return. sgd_step runs each chunk
of triples as one stacked score/backward; it must agree with scoring and
backpropagating every pair on its own and summing.
"""

import functools

import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2, conv2d_gated, interaction_conv1d, maxpool2d
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.conv_sentence import conv1d_gated, maxpool1d, maxpool_backward
from arcmatch.embeddings import EmbeddingTable
from arcmatch.errors import ShapeError
from arcmatch.mlp import build_head, draw_dropout_masks, head_forward
from arcmatch.models import param_vector
from arcmatch.tensor import make_rng
from arcmatch.training import CHUNK_TRIPLES, TrainConfig, Triple, hinge_loss, sgd_step

from conftest import random_sentence, small_table

MAX_LEN = 9  # ARC-II window 3 gives an odd grid side of 7

BUILDERS = {
    "arc1": lambda rng, **kw: build_arc1(4, MAX_LEN, rng, windows=(3, 2),
                                         feature_maps=(3, 2), hidden=(6,), **kw),
    "arc1_tied": lambda rng, **kw: build_arc1(4, MAX_LEN, rng, windows=(3, 2),
                                              feature_maps=(3, 2), hidden=(6,),
                                              tie_weights=True, **kw),
    "arc2": lambda rng, **kw: build_arc2(4, MAX_LEN, rng, window1=3, maps1=3,
                                         twod_layers=((2, 4),), hidden=(6,), **kw),
    "wordembed": lambda rng, **kw: build_wordembed(4, rng, hidden=(6,), **kw),
    "senmlp": lambda rng, **kw: build_senmlp(4, MAX_LEN, rng, hidden=(6,), **kw),
    "senna": lambda rng, **kw: build_senna(4, MAX_LEN, rng, maps=3, hidden=(6,), **kw),
}

SETTINGS = {
    "plain": dict(activation="relu", dropout=0.0, finetune=False),
    "dropout_sigmoid_finetune": dict(activation="sigmoid", dropout=0.3, finetune=True),
}


def _stack(sents):
    return np.stack([s.x for s in sents])


def _same(a, b):
    return np.array_equal(a, b) and a.dtype == b.dtype


# ---- layers: stacked input == per-item calls, bitwise ----------------------

def test_conv1d_and_maxpool1d_stacked_equal_per_item():
    rng = make_rng(0)
    z = rng.normal(size=(3, 2, 7, 5))
    z[0, 1, 4:] = 0.0  # padding rows exercise the gate
    w, b = rng.normal(size=(4, 15)), rng.normal(size=4)
    for activation in ("relu", "sigmoid"):
        out, gate, pre, seg = conv1d_gated(z, w, b, 3, activation)
        pooled = maxpool1d(out)
        dz = rng.normal(size=pooled.shape)
        routed = maxpool_backward(dz, out)
        for i in np.ndindex(z.shape[:2]):
            o1, g1, p1, s1 = conv1d_gated(z[i], w, b, 3, activation)
            assert _same(out[i], o1) and _same(gate[i], g1) and _same(pre[i], p1)
            assert _same(seg[i], s1)
            q1 = maxpool1d(o1)  # length 5: odd, zero-padded
            assert _same(pooled[i], q1) and _same(routed[i], maxpool_backward(dz[i], o1))


def test_interaction_conv1d_broadcasts_x_against_stacked_y():
    table = small_table()
    rng = make_rng(1)
    xs = [random_sentence(table, MAX_LEN, rng) for _ in range(3)]
    ys = [[random_sentence(table, MAX_LEN, rng) for _ in range(3)] for _ in range(2)]
    w, b = rng.normal(size=(5, 2 * 3 * 4)), rng.normal(size=5)
    pooled, gate, lt = interaction_conv1d(
        _stack(xs), np.stack([_stack(row) for row in ys]), w, b, 3, "relu")
    out, pre, seg_x, seg_y = lt.conv_out, lt.pre, lt.seg_x, lt.seg_y
    assert out.shape == (2, 3, 7, 7, 5) and seg_x.shape == (3, 7, 12)
    for s in range(2):
        for c in range(3):
            q1, g1, lt1 = interaction_conv1d(xs[c], ys[s][c], w, b, 3, "relu")
            o1, p1, sx1, sy1 = lt1.conv_out, lt1.pre, lt1.seg_x, lt1.seg_y
            assert _same(out[s, c], o1) and _same(gate[s, c], g1)
            assert _same(pre[s, c], p1)
            assert _same(seg_x[c], sx1) and _same(seg_y[s, c], sy1)
            assert _same(pooled[s, c], q1)


def test_conv2d_gated_stacked_equal_per_item():
    rng = make_rng(2)
    z = np.maximum(rng.normal(size=(2, 3, 5, 6, 3)), 0.0)
    z[1, 2, 2:, 3:] = 0.0  # an all-zero field gates off
    w, b = rng.normal(size=(4, 2 * 2 * 3)), rng.normal(size=4)
    out, gate, pre, seg = conv2d_gated(z, w, b, 2, "relu")
    assert not gate.all()
    for i in np.ndindex(z.shape[:2]):
        o1, g1, p1, s1 = conv2d_gated(z[i], w, b, 2, "relu")
        assert _same(out[i], o1) and _same(gate[i], g1)
        assert _same(pre[i], p1) and _same(seg[i], s1)


def test_maxpool2d_stacked_odd_extents_and_ties_equal_per_item():
    rng = make_rng(3)
    # small integers make ties common; odd extents exercise the zero pad
    z = rng.integers(0, 3, size=(4, 5, 7, 2)).astype(np.float64)
    pooled = maxpool2d(z)
    dz = rng.normal(size=pooled.shape)
    routed = maxpool_backward(dz, z, 2)
    assert pooled.shape == (4, 3, 4, 2) and routed.shape == z.shape
    for i in range(4):
        p1 = maxpool2d(z[i])
        assert _same(pooled[i], p1) and _same(routed[i], maxpool_backward(dz[i], z[i], 2))
    # tie rule: the first maximum of each block in row-major order wins,
    # and it alone gets the block's gradient
    padded = np.pad(z, ((0, 0), (0, 1), (0, 1), (0, 0)))
    for b, i, j, f in np.ndindex(pooled.shape):
        block = [padded[b, 2 * i + di, 2 * j + dj, f] for di in (0, 1) for dj in (0, 1)]
        first = block.index(max(block))
        got = [routed[b, 2 * i + di, 2 * j + dj, f] if 2 * i + di < 5 and 2 * j + dj < 7
               else 0.0 for di in (0, 1) for dj in (0, 1)]
        assert got == [dz[b, i, j, f] if m == first else 0.0 for m in range(4)]


def test_head_forward_stacked_equal_per_item():
    rng = make_rng(4)
    head = build_head(10, (7, 5), rng, activation="relu", dropout=0.3)
    v = rng.normal(size=(2, 3, 10))
    masks = [np.stack([draw_dropout_masks(head, rng)[li] for _ in range(3)])
             for li in range(2)]  # [3, hidden]: shared by both rows of v
    for split in (None, 4):
        scores, trace = head_forward(head, v, masks, split=split)
        assert scores.shape == (2, 3)
        for s in range(2):
            for c in range(3):
                s1, t1 = head_forward(head, v[s, c], [m[c] for m in masks], split=split)
                assert isinstance(s1, float) and scores[s, c] == s1
                for a, a1 in zip(trace.pres, t1.pres):
                    assert _same(a[s, c], a1)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_model_score_stacked_equals_per_pair(kind):
    table = small_table()
    rng = make_rng(5)
    model = BUILDERS[kind](make_rng(6))
    xs = [random_sentence(table, MAX_LEN, rng) for _ in range(3)]
    ys = [[random_sentence(table, MAX_LEN, rng) for _ in range(3)] for _ in range(2)]
    scores, _ = model.score(_stack(xs), np.stack([_stack(row) for row in ys]))
    for s in range(2):
        for c in range(3):
            assert scores[s, c] == model.score(xs[c], ys[s][c])[0]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_model_backward_sums_a_size_one_axis_stretched_by_broadcasting(kind):
    # x [1, L, D] against y [3, L, D]: the three pairs share x, so dx keeps
    # x's shape and holds the sum of their gradients
    table = small_table()
    rng = make_rng(14)
    model = BUILDERS[kind](make_rng(15))
    x = random_sentence(table, MAX_LEN, rng)
    ys = [random_sentence(table, MAX_LEN, rng) for _ in range(3)]
    scores, trace = model.score(x.x[None], _stack(ys))
    grads, dx, dy = model.backward(trace, np.ones(scores.shape))
    assert dx.shape == (1, MAX_LEN, 4) and dy.shape == (3, MAX_LEN, 4)
    want = {name: 0.0 for name in grads}
    want_dx = 0.0
    for c, y in enumerate(ys):
        _, trace1 = model.score(x, y)
        grads1, dx1, dy1 = model.backward(trace1, 1.0)
        want = {name: want[name] + g for name, g in grads1.items()}
        want_dx = want_dx + dx1
        assert np.allclose(dy[c], dy1, rtol=1e-12, atol=1e-15)
    assert np.allclose(dx[0], want_dx, rtol=1e-12, atol=1e-15)
    for name, g in grads.items():
        assert np.allclose(g, want[name], rtol=1e-12, atol=1e-15), name


# ---- sgd_step: chunked batch == summed per-pair score/backward -------------

def _per_pair_step(model, batch, cfg, rng, table):
    """The step written pair by pair: score, backward, sum, update."""
    finetune = cfg.finetune_embeddings and table is not None
    acc = {name: np.zeros_like(t) for name, t in model.named_params()}
    emb = np.zeros_like(table.vectors)
    total, active = 0.0, False
    for t in batch:
        sents = (t.x, t.y_pos, t.y_neg)
        if finetune:
            for s in sents:
                s.x[: s.length] = table.vectors[s.ids]
        masks = draw_dropout_masks(model.head, rng) if cfg.dropout > 0 else None
        s_pos, tr_pos = model.score(t.x, t.y_pos, masks)
        s_neg, tr_neg = model.score(t.x, t.y_neg, masks)
        loss = hinge_loss(s_pos, s_neg)
        total += loss
        if loss <= 0.0:
            continue
        active = True
        g_pos, dx_p, dy_p = model.backward(tr_pos, -1.0)
        g_neg, dx_n, dy_n = model.backward(tr_neg, +1.0)
        for name in acc:
            acc[name] += g_pos[name] + g_neg[name]
        for s, d in zip(sents, (dx_p + dx_n, dy_p, dy_n)):
            np.add.at(emb, s.ids, d[: s.length])
    if active:
        scale = cfg.learning_rate / len(batch)
        for name, t in model.named_params():
            t -= scale * acc[name]
        if finetune:
            table.vectors -= scale * emb
    return total / len(batch)


def _triples(table, n, rng, y_len=MAX_LEN):
    return [Triple(x=random_sentence(table, MAX_LEN, rng),
                   y_pos=random_sentence(table, y_len, rng),
                   y_neg=random_sentence(table, y_len, rng)) for _ in range(n)]


def _copy(table):
    return EmbeddingTable(table.vocab, table.dim, table.vectors.copy())


def _hinges(model, batch):
    return [hinge_loss(model.score(t.x, t.y_pos)[0], model.score(t.x, t.y_neg)[0])
            for t in batch]


def _sharpened(kind, activation, dropout):
    """A model whose scores spread widely, so that some triples meet the
    margin and others violate it."""
    model = BUILDERS[kind](make_rng(7), activation=activation, dropout=dropout)
    model.head.weights[-1] *= 40.0
    return model


def _check_step(setting, batch, table, model_fn):
    cfg = TrainConfig(learning_rate=0.3, batch_size=len(batch),
                      dropout=setting["dropout"],
                      finetune_embeddings=setting["finetune"])
    batched, per_pair = model_fn(), model_fn()
    t_batched, t_per_pair = _copy(table), _copy(table)
    loss = sgd_step(batched, batch, cfg, make_rng(9), t_batched)
    want = _per_pair_step(per_pair, batch, cfg, make_rng(9), t_per_pair)
    assert abs(loss - want) <= 1e-12
    assert np.abs(param_vector(batched) - param_vector(per_pair)).max() <= 1e-12
    assert np.abs(t_batched.vectors - t_per_pair.vectors).max() <= 1e-12
    return loss, want


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_sgd_step_matches_summed_per_pair_backward(kind, setting):
    s = SETTINGS[setting]
    table = small_table()
    # two full chunks and a partial one
    batch = _triples(table, 2 * CHUNK_TRIPLES + 3, make_rng(8))
    assert len(batch) % CHUNK_TRIPLES
    model_fn = functools.partial(_sharpened, kind, s["activation"], s["dropout"])
    hinges = _hinges(model_fn(), batch)
    if not s["dropout"]:  # dropout moves the scores, so the mix is only known without it
        assert min(hinges) == 0.0 and max(hinges) > 0.0
    loss, want = _check_step(s, batch, table, model_fn)
    assert loss == want  # per-triple hinges are summed in batch order


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_all_satisfied_batch_is_bitwise_noop(kind):
    table = small_table()
    model = _sharpened(kind, "relu", 0.0)
    satisfied = []
    for t in _triples(table, 5 * CHUNK_TRIPLES, make_rng(10)):
        hinge_fwd, hinge_rev = _hinges(model, [t, Triple(t.x, t.y_neg, t.y_pos)])
        if hinge_fwd == 0.0:
            satisfied.append(t)
        elif hinge_rev == 0.0:
            satisfied.append(Triple(t.x, t.y_neg, t.y_pos))
    assert len(satisfied) > CHUNK_TRIPLES
    before, table_before = param_vector(model).copy(), table.vectors.copy()
    cfg = TrainConfig(learning_rate=0.5, batch_size=len(satisfied),
                      finetune_embeddings=True)
    assert sgd_step(model, satisfied, cfg, make_rng(11), table) == 0.0
    assert np.array_equal(param_vector(model), before)
    assert np.array_equal(table.vectors, table_before)


def test_sgd_step_stacks_x_and_y_sides_of_different_lengths():
    table = small_table()
    batch = _triples(table, 2 * CHUNK_TRIPLES + 3, make_rng(12), y_len=MAX_LEN + 3)
    def model_fn():
        return build_arc1(4, MAX_LEN, make_rng(13), windows=(3, 2), feature_maps=(3, 2),
                          hidden=(6,), max_len_y=MAX_LEN + 3, activation="sigmoid",
                          dropout=0.3)

    _check_step(SETTINGS["dropout_sigmoid_finetune"], batch, table, model_fn)


def test_sgd_step_rejects_a_chunk_of_mixed_padded_lengths():
    table = small_table()
    batch = _triples(table, 2, make_rng(14))
    batch[1] = Triple(batch[1].x, random_sentence(table, MAX_LEN + 1, make_rng(15)),
                      batch[1].y_neg)
    model = build_wordembed(4, make_rng(16), hidden=(6,))
    with pytest.raises(ShapeError):
        sgd_step(model, batch, TrainConfig(batch_size=2), make_rng(17))
