import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.errors import ShapeError
from arcmatch.models import param_vector, set_param_vector
from arcmatch.tensor import finite_diff_gap, make_rng

from conftest import random_sentence, small_table
from reference import ref_arc1_score


def _model(seed=0, **kw):
    defaults = dict(windows=(3, 2), feature_maps=(3, 2), hidden=(6,))
    defaults.update(kw)
    return build_arc1(4, 10, make_rng(seed), **defaults)


def test_symmetric_head_with_tied_encoders_is_swap_invariant():
    model = _model(tie_weights=True)
    # make the head exactly symmetric under swapping its two input halves
    w0 = model.head.weights[0]
    half = w0.shape[1] // 2
    w0[:, half:] = w0[:, :half]
    table = small_table()
    rng = make_rng(3)
    for _ in range(5):
        sx = random_sentence(table, 10, rng)
        sy = random_sentence(table, 10, rng)
        s_xy, _ = model.score(sx, sy)
        s_yx, _ = model.score(sy, sx)
        assert s_xy == s_yx


def test_zero_head_returns_bias():
    model = _model()
    for w in model.head.weights:
        w[...] = 0.0
    model.head.biases[-1][0] = 2.5
    table = small_table()
    rng = make_rng(4)
    s, _ = model.score(random_sentence(table, 10, rng),
                       random_sentence(table, 10, rng))
    assert s == 2.5


def test_score_matches_loop_oracle():
    table = small_table()
    rng = make_rng(11)
    for trial in range(8):
        model = _model(seed=trial,
                       activation="relu" if trial % 2 else "sigmoid")
        sx = random_sentence(table, 10, rng)
        sy = random_sentence(table, 10, rng)
        s, _ = model.score(sx, sy)
        assert abs(s - ref_arc1_score(model, sx, sy)) < 1e-10


def test_config_mismatch_is_shape_error():
    model = _model()
    table = small_table()
    sx = random_sentence(table, 10, make_rng(0))
    bad = random_sentence(table, 12, make_rng(0))
    with pytest.raises(ShapeError):
        model.score(bad, sx)


def test_backward_matches_finite_differences_tied_and_untied():
    table = small_table()
    for tie in (False, True):
        model = _model(seed=21 if tie else 22, tie_weights=tie)
        rng = make_rng(5)
        sx = random_sentence(table, 10, rng, min_len=6)
        sy = random_sentence(table, 10, rng, min_len=6)
        s, trace = model.score(sx, sy)
        grads, _, _ = model.backward(trace, 1.0)
        analytic = np.concatenate(
            [grads[name].ravel() for name, _ in model.named_params()])
        theta0 = param_vector(model)

        def score_at(theta):
            set_param_vector(model, theta)
            return model.score(sx, sy)[0]

        numeric = finite_diff_gap(score_at, theta0, 1e-5)[0]
        set_param_vector(model, theta0)
        live = np.abs(analytic) + np.abs(numeric) >= 1e-8
        denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
        assert (np.abs(analytic - numeric) / denom)[live].max() < 1e-4, tie


def test_backward_zero_upstream():
    model = _model()
    table = small_table()
    rng = make_rng(6)
    sx = random_sentence(table, 10, rng)
    sy = random_sentence(table, 10, rng)
    _, trace = model.score(sx, sy)
    grads, dx, dy = model.backward(trace, 0.0)
    assert all(not g.any() for g in grads.values())
    assert not dx.any() and not dy.any()


def test_tied_encoders_share_arrays_and_sum_gradients():
    model = _model(tie_weights=True)
    assert model.params_y is model.params_x
    names = [n for n, _ in model.named_params()]
    assert not any(n.startswith("enc_y") for n in names)


def test_x_representation_is_independent_of_y():
    # the siamese drawback: encode(sx) never sees sy
    model = _model()
    table = small_table()
    rng = make_rng(9)
    sx = random_sentence(table, 10, rng)
    vecs = set()
    for _ in range(4):
        sy = random_sentence(table, 10, rng)
        _, trace = model.score(sx, sy)
        vecs.add(trace.vec_x.tobytes())
    assert len(vecs) == 1
