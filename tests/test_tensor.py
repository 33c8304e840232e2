import numpy as np
import pytest

from arcmatch.errors import NumericError
from arcmatch.tensor import (activate, finite_diff, init_uniform, make_rng, relu,
                             sigmoid)


def test_relu_and_sigmoid_values():
    assert activate(np.array([-1.0, 0.0, 2.0]), "relu").tolist() == [0.0, 0.0, 2.0]
    assert activate(np.array([0.0]), "sigmoid").tolist() == [0.5]


def test_sigmoid_saturation_no_overflow():
    hi = sigmoid(np.array([100.0]))[0]
    lo = sigmoid(np.array([-745.0]))[0]
    assert 1.0 - 1e-6 < hi <= 1.0
    assert 0.0 <= lo < 1e-6
    assert np.isfinite(sigmoid(np.array([1e4, -1e4]))).all()


def test_relu_idempotent():
    rng = make_rng(3)
    for _ in range(20):
        v = rng.normal(size=int(rng.integers(1, 30)))
        once = relu(v)
        assert np.array_equal(relu(once), once)


def test_init_uniform_bound_is_one_for_fan_three():
    rng = make_rng(0)
    t = init_uniform((50, 50), 3, 3, rng)
    assert np.all(t >= -1.0) and np.all(t <= 1.0)


def test_init_uniform_deterministic():
    a = init_uniform((7, 9), 4, 5, make_rng(11))
    b = init_uniform((7, 9), 4, 5, make_rng(11))
    assert np.array_equal(a, b)


def test_init_uniform_mean_near_zero():
    t = init_uniform((100_000,), 3, 3, make_rng(2))
    assert abs(t.mean()) < 0.01


def test_finite_diff_quadratic():
    grad = finite_diff(lambda t: t[0] ** 2, np.array([3.0]), 1e-4)
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    grad = finite_diff(lambda t: 5.0, np.array([1.0, -2.0, 0.5]), 1e-4)
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_relu_locally_linear():
    grad = finite_diff(lambda t: max(t[0], 0.0), np.array([1.0]), 1e-4)
    assert abs(grad[0] - 1.0) < 1e-6


def test_finite_diff_rejects_non_finite():
    with pytest.raises(NumericError):
        finite_diff(lambda t: float("nan"), np.array([1.0]), 1e-4)


def test_purity_same_rng_state_same_output():
    a = init_uniform((4, 4), 2, 2, make_rng(9))
    b = init_uniform((4, 4), 2, 2, make_rng(9))
    assert a.tobytes() == b.tobytes()
