import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.conv_sentence import SentenceModelConfig, encode
from arcmatch.embeddings import encode_sentence
from arcmatch.errors import ConfigError, ShapeError
from arcmatch.tensor import make_rng

from conftest import random_sentence, sentence_from_matrix, small_table
from reference import ref_senmlp_score, ref_wordembed_score


def test_wordembed_order_invariance():
    table = small_table()
    model = build_wordembed(4, make_rng(0), hidden=(6,))
    tokens = ["w1", "w2", "w3", "w4", "w5"]
    sy = random_sentence(table, 8, make_rng(1))
    base = model.score(encode_sentence(tokens, table, 8), sy)[0]
    rng = make_rng(2)
    for _ in range(10):
        perm = [tokens[i] for i in rng.permutation(len(tokens))]
        s = model.score(encode_sentence(perm, table, 8), sy)[0]
        # mathematically identical; fp summation order may move the last ulp
        assert abs(s - base) < 1e-9


def test_wordembed_repeated_word_sums():
    table = small_table()
    model = build_wordembed(4, make_rng(3), hidden=(5,))
    s3 = encode_sentence(["w2"] * 3, table, 8)
    assert np.allclose(s3.x.sum(axis=0), 3 * table.row("w2"))


def test_wordembed_matches_loop_oracle():
    table = small_table()
    rng = make_rng(4)
    for trial in range(5):
        model = build_wordembed(4, make_rng(trial), hidden=(6,),
                                activation="relu" if trial % 2 else "sigmoid")
        sx = random_sentence(table, 8, rng)
        sy = random_sentence(table, 8, rng)
        s = model.score(sx, sy)[0]
        assert abs(s - ref_wordembed_score(model, sx, sy)) < 1e-10


def test_senmlp_order_sensitive():
    table = small_table()
    model = build_senmlp(4, 8, make_rng(5), hidden=(6,))
    sy = random_sentence(table, 8, make_rng(6))
    a = model.score(encode_sentence(["w1", "w2", "w3"], table, 8), sy)[0]
    b = model.score(encode_sentence(["w2", "w1", "w3"], table, 8), sy)[0]
    assert a != b


def test_senmlp_zero_sentences_score_bias_path():
    model = build_senmlp(3, 6, make_rng(7), hidden=(4,))
    zero = sentence_from_matrix(np.zeros((6, 3)))
    s, _ = model.score(zero, zero)
    # zero input: hidden = act(b) = act(0) for zero biases; score = out bias
    assert s == model.head.biases[-1][0]


def test_senmlp_shape_mismatch():
    table = small_table()
    model = build_senmlp(4, 8, make_rng(8))
    with pytest.raises(ShapeError):
        model.score(random_sentence(table, 6, make_rng(0)),
                    random_sentence(table, 6, make_rng(0)))


def test_senmlp_matches_loop_oracle():
    table = small_table()
    rng = make_rng(9)
    for trial in range(5):
        model = build_senmlp(4, 8, make_rng(20 + trial), hidden=(5,))
        sx = random_sentence(table, 8, rng)
        sy = random_sentence(table, 8, rng)
        s = model.score(sx, sy)[0]
        assert abs(s - ref_senmlp_score(model, sx, sy)) < 1e-10


def test_senna_output_width_independent_of_max_len():
    for max_len in (8, 14):
        model = build_senna(4, max_len, make_rng(10), window=3, maps=5)
        table = small_table()
        sx = random_sentence(table, max_len, make_rng(0))
        vec, _ = encode(sx, model.params_x, model.config_x)
        assert vec.shape == (5,)


def test_senna_requires_depth_one():
    cfg = SentenceModelConfig(embed_dim=4, max_len=8, windows=(3, 2),
                              feature_maps=(2, 2), global_pool=True)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_conv_builders_reject_an_empty_stack():
    # only WordEmbed and SenMLP encode without a convolution
    with pytest.raises(ConfigError):
        build_arc1(4, 8, make_rng(0), windows=(), feature_maps=())
    with pytest.raises(ConfigError):
        build_senna(4, 8, make_rng(0), maps=0)
    with pytest.raises(ConfigError):
        SentenceModelConfig(embed_dim=4, max_len=8, windows=(), feature_maps=(),
                            global_pool=True).validate()


def test_senna_equals_depth_one_encoder_with_whole_sentence_pool():
    # global pooling is literally a max over all conv locations
    table = small_table()
    model = build_senna(4, 10, make_rng(11), window=3, maps=4)
    sx = random_sentence(table, 10, make_rng(12))
    vec, trace = encode(sx, model.params_x, model.config_x)
    manual = trace.layers[0].conv_out.max(axis=0)
    assert np.array_equal(vec, manual)


def test_senna_translation_invariance_with_zero_margins():
    # content block with a zero margin of window-1 rows on each side can be
    # shifted inside the padded region without changing the pooled vector
    model = build_senna(3, 12, make_rng(13), window=3, maps=4)
    rng = make_rng(14)
    core = rng.uniform(0.1, 1.0, size=(4, 3))
    for shift in (0, 1, 2, 3):
        x = np.zeros((12, 3))
        x[shift + 2 : shift + 6] = core
        vec, _ = encode(sentence_from_matrix(x), model.params_x, model.config_x)
        if shift == 0:
            base = vec
        else:
            assert np.array_equal(vec, base)
