import dataclasses
import sys

import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import (_pair_pool_backward, build_arc2, conv2d_gated,
                           embed_arc1_as_arc2, interaction_conv1d, maxpool2d)
from arcmatch.conv_sentence import encode, maxpool_backward
from arcmatch.errors import ConfigError, ShapeError
from arcmatch.models import param_vector, set_param_vector
from arcmatch.tensor import activate_grad_from_output, finite_diff, make_rng

from conftest import random_sentence, sentence_from_matrix, small_table
from reference import ref_arc2_score, ref_arc2_stack


def _model(seed=0, **kw):
    defaults = dict(window1=3, maps1=4, twod_layers=((2, 3), (2, 2)), hidden=(6,))
    defaults.update(kw)
    return build_arc2(4, 12, make_rng(seed), **defaults)


def test_interaction_tiny_hand_case():
    # one-word windows, scalar embeddings: cell (i, j) = x_i + y_j
    sx = sentence_from_matrix(np.array([[1.0], [2.0]]))
    sy = sentence_from_matrix(np.array([[3.0], [4.0]]))
    _, gate, lt = interaction_conv1d(sx, sy, np.array([[1.0, 1.0]]), np.zeros(1), 1)
    out = lt.conv_out
    assert out[:, :, 0].tolist() == [[4.0, 5.0], [5.0, 6.0]]
    assert gate.all()


def test_interaction_shape_14x14():
    table = small_table()
    rng = make_rng(0)
    sx = random_sentence(table, 16, rng)
    sy = random_sentence(table, 16, rng)
    w = np.zeros((5, 2 * 3 * 4))
    _, gate, lt = interaction_conv1d(sx, sy, w, np.zeros(5), 3)
    out = lt.conv_out
    assert out.shape == (14, 14, 5)


def test_interaction_gate_pair_semantics():
    # x has 2 real words then padding; y has 4; k1=2 windows
    table = small_table()
    sx = sentence_from_matrix(np.vstack([table.row("w1"), table.row("w2"),
                                         np.zeros(4), np.zeros(4)]))
    sy = sentence_from_matrix(np.vstack([table.row("w3"), table.row("w4"),
                                         table.row("w5"), table.row("w6")]))
    w = np.ones((2, 2 * 2 * 4))
    b = np.full(2, 3.0)
    _, gate, lt = interaction_conv1d(sx, sy, w, b, 2, "sigmoid")
    out = lt.conv_out
    # x-window 2 covers rows 2..3: all padding; every y-window has words
    assert gate[2].all()           # one side padding, other not: gate stays on
    assert out[2].all()            # computed normally (sigmoid of bias part)
    # both sides padding cannot happen here since y has no padded window
    sy_padded = sentence_from_matrix(np.vstack([table.row("w3"), np.zeros(4),
                                                np.zeros(4), np.zeros(4)]))
    _, gate2, lt2 = interaction_conv1d(sx, sy_padded, w, b, 2, "sigmoid")
    out2 = lt2.conv_out
    assert gate2[2, 1] == 0.0      # both segments all-zero
    assert not out2[2, 1].any()    # exactly zero despite bias
    assert gate2[2, 0] == 1.0      # y window 0 still has a word


def _winner_cells(z, out):
    """The (row, column) cells that pooling's backward routes each pooled
    cell to."""
    grad = maxpool_backward(np.ones_like(out), z, 2)
    return np.argwhere(grad[..., 0]).ravel().tolist()


def test_maxpool2d_block_and_odd_padding():
    z = np.array([[1.0, 3.0], [2.0, 0.0]]).reshape(2, 2, 1)
    out = maxpool2d(z)
    assert out.ravel().tolist() == [3.0]
    assert _winner_cells(z, out) == [0, 1]

    z3 = np.arange(9, dtype=float).reshape(3, 3, 1)
    out3 = maxpool2d(z3)
    assert out3.shape == (2, 2, 1)
    assert out3[:, :, 0].tolist() == [[4.0, 5.0], [7.0, 8.0]]


def test_maxpool2d_tie_row_major_first():
    z = np.full((2, 2, 1), 7.0)
    out = maxpool2d(z)
    assert _winner_cells(z, out) == [0, 0]


def test_conv2d_hand_case():
    z = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    out, gate, _, _ = conv2d_gated(z, np.array([[1.0, 1.0, 1.0, 1.0]]),
                                   np.zeros(1), 2)
    assert out.ravel().tolist() == [10.0]


def test_conv2d_shape_law_and_errors():
    z = np.zeros((14, 14, 2))
    w = np.zeros((3, 9 * 2))
    out, _, _, _ = conv2d_gated(z, w, np.zeros(3), 3)
    assert out.shape == (12, 12, 3)
    with pytest.raises(ShapeError):
        conv2d_gated(np.zeros((2, 2, 1)), np.zeros((1, 9)), np.zeros(1), 3)


def test_conv2d_gate_zero_field():
    z = np.zeros((3, 3, 1))
    z[0, 0, 0] = 1.0
    out, gate, _, _ = conv2d_gated(z, np.ones((1, 4)), np.full(1, 9.0), 2,
                                   "sigmoid")
    assert gate[0, 0] == 1.0 and gate[1, 1] == 0.0
    assert not out[1, 1].any()


def test_score_finite_and_matches_loop_oracle():
    table = small_table()
    rng = make_rng(17)
    for trial in range(6):
        model = _model(seed=trial,
                       activation="relu" if trial % 2 else "sigmoid")
        sx = random_sentence(table, 12, rng)
        sy = random_sentence(table, 12, rng)
        s, _ = model.score(sx, sy)
        assert np.isfinite(s)
        assert abs(s - ref_arc2_score(model, sx, sy)) < 1e-10


def test_padding_only_grid_region_stays_zero():
    table = small_table()
    rng = make_rng(21)
    model = _model(seed=3)
    sx = random_sentence(table, 12, rng, max_tokens=5)
    sy = random_sentence(table, 12, rng, max_tokens=5)
    _, trace = model.score(sx, sy)
    grid = trace.layers[0].conv_out
    fx = sx.length  # first x-window made purely of padding
    fy = sy.length
    assert not grid[fx:, fy:, :].any()


def test_backward_matches_finite_differences():
    table = small_table()
    for activation in ("relu", "sigmoid"):
        model = _model(seed=31, activation=activation)
        rng = make_rng(7)
        sx = random_sentence(table, 12, rng, min_len=8)
        sy = random_sentence(table, 12, rng, min_len=8)
        s, trace = model.score(sx, sy)
        grads, _, _ = model.backward(trace, 1.0)
        analytic = np.concatenate(
            [grads[name].ravel() for name, _ in model.named_params()])
        theta0 = param_vector(model)

        def score_at(theta):
            set_param_vector(model, theta)
            return model.score(sx, sy)[0]

        numeric = finite_diff(score_at, theta0, 1e-5)
        set_param_vector(model, theta0)
        live = np.abs(analytic) + np.abs(numeric) >= 1e-8
        denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
        assert (np.abs(analytic - numeric) / denom)[live].max() < 1e-4


def test_permuting_padding_region_changes_nothing():
    table = small_table()
    rng = make_rng(51)
    model = _model(seed=8)
    sx = random_sentence(table, 12, rng, max_tokens=6)
    sy = random_sentence(table, 12, rng, max_tokens=6)
    s1, t1 = model.score(sx, sy)
    g1, dx1, dy1 = model.backward(t1, 1.0)
    # "permute" words beyond the true length: padding rows are all zero, so
    # any reordering of them is the identity on the matrix
    sy.x[sy.length :] = sy.x[sy.length :][::-1]
    s2, t2 = model.score(sx, sy)
    g2, dx2, dy2 = model.backward(t2, 1.0)
    assert s1 == s2
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)
    assert np.array_equal(dy1, dy2)


# --- first layer pooled before it becomes a grid -----------------------------


def _int_sentences(rng, shape, dim=2):
    """Small-integer sentence matrices [*shape, L, dim] with about a third
    of the rows all zero, so that both sides have dead windows and exact
    ties are common."""
    x = rng.integers(-2, 3, size=(*shape, dim)).astype(np.float64)
    x[rng.random(shape) < 0.35] = 0.0
    return x


def _int_layer(rng, k1, dim=2, maps=3):
    return (rng.integers(-2, 3, size=(maps, 2 * k1 * dim)).astype(np.float64),
            rng.integers(-1, 2, size=maps).astype(np.float64))


def _loop_pair_pool_backward(lt, dz):
    """Oracle: walk each 2x2 block of the full gated grid and route its
    gradient to the first maximum in row-major block order."""
    out = lt.conv_out
    n = out.shape[0]
    gx, gy = np.zeros(lt.px.shape), np.zeros(lt.py.shape)
    for bi, bj, c in np.ndindex(dz.shape):
        cells = [(i, j) for i in (2 * bi, 2 * bi + 1) for j in (2 * bj, 2 * bj + 1)]
        vals = [out[i, j, c] if i < n and j < n else 0.0 for i, j in cells]
        i, j = cells[vals.index(max(vals))]
        g = dz[bi, bj, c] * activate_grad_from_output(np.array(max(vals)), lt.activation)
        if i < n and j < n:
            gx[i, c] += g
            gy[j, c] += g
    return gx, gy


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("max_len", [7, 8, 11])
def test_pooled_first_layer_equals_maxpool_of_the_grid(activation, max_len):
    rng = make_rng(80 + max_len)
    gated = 0
    for trial in range(20):
        k1 = 1 + trial % 3
        if trial % 2:
            w, b = _int_layer(rng, k1)
            x, y = _int_sentences(rng, (max_len,)), _int_sentences(rng, (max_len,))
        else:
            w, b = rng.normal(size=(3, 4 * k1)), rng.normal(size=3)
            x, y = rng.normal(size=(max_len, 2)), rng.normal(size=(max_len, 2))
            x[rng.integers(max_len // 2, max_len):] = 0.0
            y[rng.integers(max_len // 2, max_len):] = 0.0
        pooled, gate, lt = interaction_conv1d(x, y, w, b, k1, activation)
        assert np.array_equal(pooled, maxpool2d(lt.conv_out))
        assert np.array_equal(gate, lt.gate)
        gated += not gate.all()
    assert gated >= 5


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_pooled_first_layer_backward_routes_to_first_row_major_max(activation):
    rng = make_rng(90)
    ties = gated = 0
    for trial in range(150):
        max_len, k1 = int(rng.integers(2, 10)), 1 + trial % 2
        if max_len < k1 + 1:
            continue
        w, b = _int_layer(rng, k1)
        x, y = _int_sentences(rng, (max_len,)), _int_sentences(rng, (max_len,))
        pooled, gate, lt = interaction_conv1d(x, y, w, b, k1, activation)
        dz = rng.normal(size=pooled.shape)
        gx, gy = _pair_pool_backward(dz, lt)
        want_x, want_y = _loop_pair_pool_backward(lt, dz)
        assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y), trial
        grid = np.pad(lt.conv_out, ((0, lt.px.shape[0] % 2),) * 2 + ((0, 0),))
        blocks = np.stack([grid[di::2, dj::2] for di in (0, 1) for dj in (0, 1)])
        ties += int(((blocks == pooled).sum(axis=0) > 1)[pooled > 0].sum())
        gated += not gate.all()
    assert ties >= 50 and gated >= 30


def test_pooled_first_layer_stacked_equals_per_item():
    rng = make_rng(91)
    w, b = _int_layer(rng, 2)
    x = _int_sentences(rng, (4, 9))
    y = _int_sentences(rng, (2, 4, 9))
    y[0, 1] = rng.normal(size=(9, 2))   # a pair without dead y windows
    for activation in ("relu", "sigmoid"):
        pooled, gate, lt = interaction_conv1d(x, y, w, b, 2, activation)
        # the stack takes the live terms; pair (0, 1) alone skips them
        assert not gate.all() and gate[0, 1].all()
        dz = rng.normal(size=pooled.shape)
        gx, gy = _pair_pool_backward(dz, lt)
        for s, c in np.ndindex(2, 4):
            p1, g1, lt1 = interaction_conv1d(x[c], y[s, c], w, b, 2, activation)
            gx1, gy1 = _pair_pool_backward(dz[s, c], lt1)
            assert np.array_equal(pooled[s, c], p1) and np.array_equal(gate[s, c], g1)
            assert np.array_equal(gx[s, c], gx1) and np.array_equal(gy[s, c], gy1)


def test_stacked_route_equals_per_pair_route_when_sums_round_together():
    # pair 0 has no gated cell (y has no zero window), so alone its forward
    # skips the live terms; pair 1 has one, so their stack takes them. px
    # of pair 0 is [1 - 2**-52, 1] against py = [4, 4]: every sum rounds to
    # 5.0. Backward reads the winner off the pair's own windows, so it is
    # the same alone and stacked, and here it is the full grid's first
    # maximum, row 0
    w, b = np.array([[1.0, 1.0]]), np.array([1.0])
    x = np.array([[[-2.0 ** -52], [0.0]], [[1.0], [0.0]]])
    y = np.array([[[4.0], [4.0]], [[2.0], [0.0]]])
    pooled, gate, lt = interaction_conv1d(x, y, w, b, 1)
    assert not gate.all() and gate[0].all()
    dz = np.ones(pooled.shape)
    gx, gy = _pair_pool_backward(dz, lt)
    for c in range(2):
        p1, _, lt1 = interaction_conv1d(x[c], y[c], w, b, 1)
        gx1, gy1 = _pair_pool_backward(dz[c], lt1)
        assert np.array_equal(pooled[c], p1)
        assert np.array_equal(gx[c], gx1) and np.array_equal(gy[c], gy1)
        want_x, want_y = _loop_pair_pool_backward(lt1, dz[c])
        assert np.array_equal(gx1, want_x) and np.array_equal(gy1, want_y)


def _arrays(obj):
    """Every numpy array reachable from a trace object."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _arrays_made_during(fn):
    """Run fn, collecting every array bound to a local name or returned in
    the arcmatch frames it runs."""
    seen = []

    def local(frame, event, arg):
        seen.extend(v for v in frame.f_locals.values() if isinstance(v, np.ndarray))
        if event == "return":
            seen.extend(_arrays(arg))
        return local

    def calls(frame, event, arg):
        return local if "arcmatch" in frame.f_code.co_filename else None

    sys.settrace(calls)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, seen


def test_stacked_trace_and_backward_hold_no_full_grid():
    table = small_table()
    rng = make_rng(92)
    model = build_arc2(4, 9, make_rng(93), window1=3, maps1=5,
                       twod_layers=((2, 4),), hidden=(6,))
    n, f, m = 7, 5, 4
    x = np.stack([random_sentence(table, 9, rng, max_tokens=5).x for _ in range(3)])
    y = np.stack([[random_sentence(table, 9, rng, max_tokens=5).x for _ in range(3)]
                  for _ in range(2)])
    pairs = 6

    def full_grid(a):
        return a.shape[-3:] in ((n, n, f), (2 * m, 2 * m, f)) or a.size >= pairs * n * n * f

    (scores, trace), made = _arrays_made_during(lambda: model.score(x, y))
    assert not trace.layers[0].live_x.all()   # the gated route ran
    assert made and not any(full_grid(a) for a in made)
    assert not any(full_grid(a) for a in _arrays(trace))
    _, made = _arrays_made_during(lambda: model.backward(trace, np.ones(scores.shape)))
    assert made and not any(full_grid(a) for a in made)
    # the trace still rebuilds the full grid when asked
    assert trace.layers[0].conv_out.shape == (2, 3, n, n, f)


# --- order preservation ------------------------------------------------------


def _x_receptive_ranges(config):
    """Static x-side word range [a(i), b(i)] per cell of every layer."""
    n = config.max_len - config.window1 + 1
    ranges = [(i, i + config.window1 - 1) for i in range(n)]
    out = [list(ranges)]

    def pool(r):
        pooled = []
        for i in range((len(r) + 1) // 2):
            lo = r[2 * i][0]
            hi = r[min(2 * i + 1, len(r) - 1)][1]
            pooled.append((lo, hi))
        return pooled

    ranges = pool(ranges)
    out.append(list(ranges))
    for k, _ in config.twod_layers:
        conv = [(ranges[i][0], ranges[i + k - 1][1])
                for i in range(len(ranges) - k + 1)]
        out.append(list(conv))
        ranges = pool(conv)
        out.append(list(ranges))
    return out


def test_order_preservation_static_ranges_monotone():
    model = _model(seed=2)
    for layer_ranges in _x_receptive_ranges(model.config):
        starts = [r[0] for r in layer_ranges]
        ends = [r[1] for r in layer_ranges]
        assert starts == sorted(starts)
        assert ends == sorted(ends)


def test_order_preservation_perturbation_confined_to_covering_cells():
    table = small_table()
    model = _model(seed=4)
    rng = make_rng(60)
    sx = random_sentence(table, 12, rng, min_len=12)
    sy = random_sentence(table, 12, rng, min_len=12)
    ranges = _x_receptive_ranges(model.config)
    _, base = model.score(sx, sy)

    for p in (0, 5, 11):
        sx2 = sentence_from_matrix(sx.x.copy())
        sx2.x[p] = rng.normal(size=4)
        _, pert = model.score(sx2, sy)
        # conv layers of the trace: layers[li].conv_out, layer index in the
        # static table is 2*li (conv) and 2*li+1 (pool)
        for li, (lt_base, lt_pert) in enumerate(zip(base.layers, pert.layers)):
            conv_ranges = ranges[2 * li]
            changed = np.nonzero(
                np.any(lt_base.conv_out != lt_pert.conv_out, axis=(1, 2)))[0]
            for i in changed:
                a, b = conv_ranges[i]
                assert a <= p <= b, (li, i, p)


# --- siamese model embedded in the grid model --------------------------------


def _compatible_arc1(seed, activation="relu"):
    return build_arc1(3, 12, make_rng(seed), windows=(3, 2),
                      feature_maps=(4, 3), hidden=(5,), activation=activation)


def test_embedding_construction_rank_one_maps():
    table = small_table(dim=3, n_tokens=14, seed=2)
    rng = make_rng(70)
    arc1 = _compatible_arc1(1)
    grid = embed_arc1_as_arc2(arc1)
    sx = random_sentence(table, 12, rng, min_len=12)
    sy = random_sentence(table, 12, rng, min_len=12)
    _, trace = grid.score(sx, sy)
    first = trace.layers[0].conv_out  # [n, n, 2*F1]
    f1 = arc1.config_x.feature_maps[0]
    for f in range(first.shape[2]):
        m = first[:, :, f]
        devoted_x = f < f1
        if devoted_x:
            # every column identical
            assert np.max(np.abs(m - m[:, :1])) == 0.0
        else:
            assert np.max(np.abs(m - m[:1, :])) == 0.0
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] <= 1e-8 * max(1.0, s[0])


def test_embedding_construction_stack_equality_on_full_length_inputs():
    table = small_table(dim=3, n_tokens=14, seed=3)
    rng = make_rng(71)
    for trial in range(20):
        arc1 = _compatible_arc1(100 + trial)
        grid = embed_arc1_as_arc2(arc1)
        sx = random_sentence(table, 12, rng, min_len=12)
        sy = random_sentence(table, 12, rng, min_len=12)
        f1 = arc1.config_x.feature_maps[0]
        f2 = arc1.config_x.feature_maps[1]

        _, gtrace = grid.score(sx, sy)
        _, xtrace = encode(sx, arc1.params_x, arc1.config_x)
        _, ytrace = encode(sy, arc1.params_y, arc1.config_y)

        # after the 2x2 pool, x-devoted channels replicate the 1D pool
        pooled = gtrace.layers[0].pool_out
        want_x = xtrace.layers[0].pool_out          # [m, F1]
        for j in range(pooled.shape[1]):
            assert np.max(np.abs(pooled[:, j, :f1] - want_x)) < 1e-6
        want_y = ytrace.layers[0].pool_out
        for i in range(pooled.shape[0]):
            assert np.max(np.abs(pooled[i, :, f1:] - want_y)) < 1e-6

        # after the second conv, x-devoted channels replicate conv layer 2
        conv2 = gtrace.layers[1].conv_out           # [m2, m2, 2*F2]
        want_x2 = xtrace.layers[1].conv_out         # [m2, F2]
        for j in range(conv2.shape[1]):
            assert np.max(np.abs(conv2[:, j, :f2] - want_x2)) < 1e-6
        want_y2 = ytrace.layers[1].conv_out
        for i in range(conv2.shape[0]):
            assert np.max(np.abs(conv2[i, :, f2:] - want_y2)) < 1e-6


def test_embedding_construction_gate_caveat_documented_by_test():
    # with padding, the pair gate differs from the per-sentence gate, so
    # the equality claim is scoped to full-length inputs: exhibit a padded
    # case where the x-devoted stack and the siamese stack disagree.
    table = small_table(dim=3, n_tokens=14, seed=4)
    rng = make_rng(72)
    arc1 = _compatible_arc1(55)
    # give the x-encoder's first layer a bias so sigma(b) != 0 on padding
    arc1.params_x.layers[0][1][...] = 0.7
    arc1.config_x.activation = "sigmoid"
    arc1.config_y.activation = "sigmoid"
    arc1.head.activation = "sigmoid"
    grid = embed_arc1_as_arc2(arc1)
    sx = random_sentence(table, 12, rng, max_tokens=4)   # heavy padding
    sy = random_sentence(table, 12, rng, min_len=12)
    _, gtrace = grid.score(sx, sy)
    _, xtrace = encode(sx, arc1.params_x, arc1.config_x)
    f1 = arc1.config_x.feature_maps[0]
    grid_first = gtrace.layers[0].conv_out[:, 0, :f1]
    arc1_first = xtrace.layers[0].conv_out
    assert np.max(np.abs(grid_first - arc1_first)) > 1e-3


def test_embedding_construction_rejects_incompatible_shapes():
    bad = build_arc1(3, 12, make_rng(9), windows=(3, 3), feature_maps=(4, 3),
                     hidden=(5,))
    with pytest.raises(ConfigError) as err:
        embed_arc1_as_arc2(bad)
    assert "window" in str(err.value)
