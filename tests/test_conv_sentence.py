import itertools

import numpy as np
import pytest

from arcmatch.arc2 import maxpool2d
from arcmatch.conv_sentence import (SentenceModelConfig, conv1d_gated, encode,
                                    encode_backward, init_sentence_params,
                                    maxpool1d, maxpool_backward)
from arcmatch.errors import ConfigError, ShapeError
from arcmatch.models import param_vector
from arcmatch.tensor import finite_diff_gap, make_rng

from conftest import random_sentence, small_table
from reference import ref_encode, ref_layer_lengths, ref_maxpool1d, ref_maxpool2d


def test_conv_hand_case_sum_window():
    z = np.array([[1.0], [2.0], [3.0]])
    out, gate, _ = conv1d_gated(z, np.array([[1.0, 1.0]]), np.zeros(1), 2)
    assert out.tolist() == [[3.0], [5.0]]
    assert gate.tolist() == [1.0, 1.0]


def test_conv_hand_case_relu_clips():
    z = np.array([[1.0], [2.0], [3.0]])
    out, _, _ = conv1d_gated(z, np.array([[1.0, -1.0]]), np.zeros(1), 2)
    assert out.tolist() == [[0.0], [0.0]]


def test_conv_gate_zeroes_output_despite_bias():
    z = np.zeros((4, 2))
    z[0] = [1.0, -1.0]
    z[1] = [0.5, 0.0]  # rows 2..3 are padding
    w = np.ones((3, 4))
    b = np.full(3, 5.0)
    out, gate, _ = conv1d_gated(z, w, b, 2, "sigmoid")
    assert gate.tolist() == [1.0, 1.0, 0.0]
    assert not out[2].any()  # all-zero window: exactly zero, bias ignored
    assert out[1].all()      # half-padding window still computes


@pytest.mark.parametrize("sum_rows", [False, True])
def test_depth_zero_encoder_reads_out_the_word_rows(sum_rows):
    rng = make_rng(3)
    x = rng.normal(size=(2, 5, 3))
    config = SentenceModelConfig(embed_dim=3, max_len=None if sum_rows else 5,
                                 windows=(), feature_maps=(), sum_rows=sum_rows)
    params = init_sentence_params(config, rng)
    vec, trace = encode(x, params, config)
    assert np.array_equal(vec, x.sum(axis=1) if sum_rows else x.reshape(2, 15))
    assert vec.shape[-1] == config.output_len
    up = rng.normal(size=vec.shape)
    grads, dx = encode_backward(trace, params, config, up)
    assert grads == []
    assert np.array_equal(dx, np.repeat(up[:, None, :], 5, axis=1) if sum_rows
                          else up.reshape(x.shape))


def test_open_max_len_needs_summed_rows():
    with pytest.raises(ConfigError):
        SentenceModelConfig(embed_dim=3, max_len=None, windows=(),
                            feature_maps=()).validate()


def test_conv_rejects_short_input():
    with pytest.raises(ShapeError):
        conv1d_gated(np.ones((2, 1)), np.ones((1, 3)), np.zeros(1), 3)


def _winner_rows(z, out):
    """The rows that pooling's backward routes each pooled unit to."""
    grad = maxpool_backward(np.ones_like(out), z)
    return np.flatnonzero(grad.ravel()).tolist()


def test_maxpool_basic():
    out = maxpool1d(np.array([[1.0], [4.0], [2.0], [3.0]]))
    assert out.ravel().tolist() == [4.0, 3.0]


def test_maxpool_odd_zero_pad():
    z = np.array([[1.0], [4.0], [2.0]])
    out = maxpool1d(z)
    assert out.ravel().tolist() == [4.0, 2.0]
    assert _winner_rows(z, out) == [1, 2]  # pad row never wins


def test_maxpool_halves_length():
    out = maxpool1d(np.zeros((14, 3)))
    assert out.shape == (7, 3)


def test_maxpool_tie_prefers_lower_index():
    z = np.array([[2.0], [2.0]])
    out = maxpool1d(z)
    assert out.ravel().tolist() == [2.0]
    assert _winner_rows(z, out) == [0]


@pytest.mark.parametrize("nd", [1, 2])
def test_pool_matches_loop_oracle_and_routes_to_its_winner(nd):
    # one pair rule pools sentences and grids; small integers with zeros
    # and negatives make ties common, and odd extents add a zero pad that
    # wins a window of negatives and then passes no gradient
    pool, ref = (maxpool1d, ref_maxpool1d) if nd == 1 else (maxpool2d, ref_maxpool2d)
    rng = make_rng(40 + nd)
    ties = 0
    for extents in itertools.product(range(1, 16 if nd == 1 else 7), repeat=nd):
        for f in (1, 3):
            z = rng.integers(-1, 3, size=(*extents, f)).astype(np.float64)
            z[rng.random(z.shape) < 0.3] = 0.0
            want = ref(z)
            pooled = pool(z)
            assert np.array_equal(pooled, want)
            g = rng.normal(size=pooled.shape)
            expect = np.zeros(z.shape)
            for *out, c in np.ndindex(pooled.shape):
                members = [tuple(2 * o + d for o, d in zip(out, ds))
                           for ds in itertools.product((0, 1), repeat=nd)]
                inside = [all(i < n for i, n in zip(m, extents)) for m in members]
                vals = [z[(*m, c)] if ok else 0.0 for m, ok in zip(members, inside)]
                first = vals.index(want[(*out, c)])  # the oracle's tie rule
                ties += vals.count(want[(*out, c)]) > 1
                if inside[first]:
                    expect[(*members[first], c)] = g[(*out, c)]
            assert np.array_equal(maxpool_backward(g, z, nd), expect), extents
    assert ties >= 30


def test_encode_shape_law_16_to_3():
    cfg = SentenceModelConfig(embed_dim=4, max_len=16, windows=(3, 2),
                              feature_maps=(5, 2))
    plan = cfg.layer_plan()
    assert plan == [(14, 7), (6, 3)]
    assert plan == ref_layer_lengths(16, (3, 2))
    assert cfg.output_len == 3 * 2

    table = small_table()
    sent = random_sentence(table, 16, make_rng(0))
    params = init_sentence_params(cfg, make_rng(1))
    vec, _ = encode(sent, params, cfg)
    assert vec.shape == (6,)


def test_whole_sentence_pool_routes_to_first_max():
    # windows (3, 1), (1, 3), (3, 2) read their first row: the conv outputs
    # 3, 1, 3 tie, and the first maximum takes the gradient
    cfg = SentenceModelConfig(embed_dim=1, max_len=4, windows=(2,), feature_maps=(1,),
                              global_pool=True)
    params = init_sentence_params(cfg, make_rng(0))
    params.layers[0] = (np.array([[1.0, 0.0]]), np.zeros(1))
    vec, trace = encode(np.array([[3.0], [1.0], [3.0], [2.0]]), params, cfg)
    assert vec.tolist() == [3.0]
    grads, dx = encode_backward(trace, params, cfg, np.ones(1))
    assert grads[0][0].tolist() == [[3.0, 1.0]]
    assert dx.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]


def test_encode_global_pool_length_is_maps():
    for max_len in (8, 12, 20):
        cfg = SentenceModelConfig(embed_dim=4, max_len=max_len, windows=(3,),
                                  feature_maps=(3,), global_pool=True)
        table = small_table()
        sent = random_sentence(table, max_len, make_rng(2))
        params = init_sentence_params(cfg, make_rng(3))
        vec, _ = encode(sent, params, cfg)
        assert vec.shape == (3,)


def test_empty_layer_is_build_time_config_error():
    cfg = SentenceModelConfig(embed_dim=4, max_len=6, windows=(3, 4),
                              feature_maps=(2, 2))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_global_pool_requires_depth_one():
    cfg = SentenceModelConfig(embed_dim=4, max_len=8, windows=(3, 2),
                              feature_maps=(2, 2), global_pool=True)
    with pytest.raises(ConfigError):
        cfg.validate()


def _padding_frontier(length, max_len, windows, global_pool=False):
    """Independent induction: which positions are guaranteed padding."""
    frontiers = []
    is_pad = [r >= length for r in range(max_len)]
    for k in windows:
        conv_len = len(is_pad) - k + 1
        conv_pad = [all(is_pad[i : i + k]) for i in range(conv_len)]
        if global_pool:
            frontiers.append(conv_pad)
            return frontiers
        if conv_len % 2 == 1:
            conv_pad = conv_pad + [True]
        pool_pad = [conv_pad[2 * i] and conv_pad[2 * i + 1]
                    for i in range(len(conv_pad) // 2)]
        frontiers.append((conv_pad, pool_pad))
        is_pad = pool_pad
    return frontiers


def test_padding_hierarchy_invariant_100_random_models():
    rng = make_rng(99)
    table = small_table(dim=3, n_tokens=12, seed=8)
    for trial in range(100):
        depth = int(rng.integers(1, 3))
        windows = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        maps = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        max_len = int(rng.integers(8, 17))
        cfg = SentenceModelConfig(embed_dim=3, max_len=max_len, windows=windows,
                                  feature_maps=maps,
                                  activation="relu" if trial % 2 else "sigmoid")
        try:
            cfg.validate()
        except ConfigError:
            continue
        params = init_sentence_params(cfg, rng)
        sent = random_sentence(table, max_len, rng, min_len=1)
        _, trace = encode(sent, params, cfg)
        frontiers = _padding_frontier(sent.length, max_len, windows)
        for lt, (conv_pad, pool_pad) in zip(trace.layers, frontiers):
            conv_pad = conv_pad[: lt.conv_out.shape[0]]
            for i, pad in enumerate(conv_pad):
                if pad:
                    assert not lt.conv_out[i].any(), (trial, i)
            for i, pad in enumerate(pool_pad):
                if pad:
                    assert not lt.pool_out[i].any(), (trial, i)


def test_encode_matches_loop_oracle_50_configs():
    rng = make_rng(123)
    table = small_table(dim=3, n_tokens=12, seed=6)
    checked = 0
    while checked < 50:
        depth = int(rng.integers(1, 3))
        windows = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        maps = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        max_len = int(rng.integers(6, 15))
        global_pool = depth == 1 and bool(rng.integers(2))
        cfg = SentenceModelConfig(
            embed_dim=3, max_len=max_len, windows=windows, feature_maps=maps,
            activation="relu" if checked % 2 else "sigmoid",
            global_pool=global_pool)
        try:
            cfg.validate()
        except ConfigError:
            continue
        params = init_sentence_params(cfg, rng)
        sent = random_sentence(table, max_len, rng, min_len=1)
        vec, _ = encode(sent, params, cfg)
        want = ref_encode(sent.x, params.layers, windows, cfg.activation,
                          global_pool=global_pool)
        assert np.max(np.abs(vec - want)) < 1e-10
        checked += 1


def _encode_loss(sent, params, cfg, upstream):
    vec, _ = encode(sent, params, cfg)
    return float(vec @ upstream)


def test_encode_backward_matches_finite_differences():
    for activation in ("relu", "sigmoid"):
        rng = make_rng(31 if activation == "relu" else 32)
        table = small_table(dim=3, n_tokens=12, seed=9)
        cfg = SentenceModelConfig(embed_dim=3, max_len=10, windows=(3, 2),
                                  feature_maps=(3, 2), activation=activation)
        cfg.validate()
        params = init_sentence_params(cfg, rng)
        sent = random_sentence(table, 10, rng, min_len=5)
        upstream = rng.normal(size=cfg.output_len)

        vec, trace = encode(sent, params, cfg)
        grads, dx = encode_backward(trace, params, cfg, upstream)

        flat_analytic = np.concatenate(
            [np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])

        def loss_at(theta):
            offset = 0
            new_layers = []
            for w, b in params.layers:
                w2 = theta[offset : offset + w.size].reshape(w.shape)
                offset += w.size
                b2 = theta[offset : offset + b.size]
                offset += b.size
                new_layers.append((w2, b2))
            p2 = type(params)(layers=new_layers)
            return _encode_loss(sent, p2, cfg, upstream)

        theta0 = np.concatenate(
            [np.concatenate([w.ravel(), b.ravel()]) for w, b in params.layers])
        numeric = finite_diff_gap(loss_at, theta0, 1e-5)[0]
        live = np.abs(flat_analytic) + np.abs(numeric) >= 1e-8
        denom = np.maximum(1e-8, np.abs(flat_analytic) + np.abs(numeric))
        rel = np.abs(flat_analytic - numeric) / denom
        assert rel[live].max() < 1e-4, activation

        # input gradient as well (used for embedding fine-tuning)
        def loss_at_x(flat_x):
            return _encode_loss(flat_x.reshape(sent.x.shape), params, cfg, upstream)

        numeric_dx = finite_diff_gap(loss_at_x, sent.x.ravel(), 1e-5)[0]
        live = np.abs(dx.ravel()) + np.abs(numeric_dx) >= 1e-8
        denom = np.maximum(1e-8, np.abs(dx.ravel()) + np.abs(numeric_dx))
        assert (np.abs(dx.ravel() - numeric_dx) / denom)[live].max() < 1e-4


def test_backward_zero_upstream_gives_zero_grads():
    rng = make_rng(77)
    table = small_table()
    cfg = SentenceModelConfig(embed_dim=4, max_len=8, windows=(3,),
                              feature_maps=(3,))
    params = init_sentence_params(cfg, rng)
    sent = random_sentence(table, 8, rng)
    _, trace = encode(sent, params, cfg)
    grads, dx = encode_backward(trace, params, cfg, np.zeros(cfg.output_len))
    assert not dx.any()
    assert all(not dw.any() and not db.any() for dw, db in grads)


def test_gated_off_units_contribute_no_gradient():
    # zero first-layer weights with bias -1: relu silences every unit, so
    # the second layer is fully gated off and its parameters must get
    # exactly zero gradient, analytically and numerically.
    table = small_table()
    cfg = SentenceModelConfig(embed_dim=4, max_len=8, windows=(2, 2),
                              feature_maps=(2, 2), activation="relu")
    params = init_sentence_params(cfg, make_rng(0))
    params.layers[0] = (np.zeros_like(params.layers[0][0]),
                        np.full_like(params.layers[0][1], -1.0))
    sent = random_sentence(table, 8, make_rng(1), min_len=4)
    upstream = np.ones(cfg.output_len)
    _, trace = encode(sent, params, cfg)
    grads, _ = encode_backward(trace, params, cfg, upstream)
    assert not grads[1][0].any() and not grads[1][1].any()

    w2, b2 = params.layers[1]

    def loss_at(theta):
        p2 = type(params)(layers=[params.layers[0],
                                  (theta[: w2.size].reshape(w2.shape),
                                   theta[w2.size :])])
        return _encode_loss(sent, p2, cfg, upstream)

    numeric = finite_diff_gap(loss_at, np.concatenate([w2.ravel(), b2.ravel()]), 1e-5)[0]
    assert np.abs(numeric).max() < 1e-8


def test_padding_only_receptive_fields_stay_zero_at_every_layer():
    table = small_table()
    cfg = SentenceModelConfig(embed_dim=4, max_len=16, windows=(3, 2),
                              feature_maps=(4, 3))
    params = init_sentence_params(cfg, make_rng(5))
    sent = random_sentence(table, 16, make_rng(6), min_len=2, max_tokens=4)
    _, trace = encode(sent, params, cfg)
    # layer 1: windows fully beyond the sentence
    first_pad_window = sent.length  # window i covers rows i..i+2
    assert not trace.layers[0].conv_out[first_pad_window:].any()
