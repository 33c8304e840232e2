import numpy as np
import pytest

from arcmatch.errors import NumericError, ShapeError
from arcmatch.tensor import (activate, finite_diff_gap, init_uniform,
                             make_rng, relu, sigmoid, split_by)
from arcmatch.training import GRADCHECK_GAP_ABS, GRADCHECK_GAP_REL


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
    grad = finite_diff_gap(lambda t: t[0] ** 2, np.array([3.0]), 1e-4)[0]
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    grad = finite_diff_gap(lambda t: 5.0, np.array([1.0, -2.0, 0.5]), 1e-4)[0]
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_relu_locally_linear():
    grad = finite_diff_gap(lambda t: max(t[0], 0.0), np.array([1.0]), 1e-4)[0]
    assert abs(grad[0] - 1.0) < 1e-6


def test_finite_diff_rejects_non_finite():
    with pytest.raises(NumericError, match="^finite_diff_gap: non-finite evaluation at theta"):
        finite_diff_gap(lambda t: float("nan"), np.array([1.0]), 1e-4)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
def test_finite_diff_rejects_an_eps_that_is_not_positive_and_finite(eps):
    calls = []
    with pytest.raises(ShapeError, match=f"^eps must be positive and finite, got {eps}$"):
        finite_diff_gap(lambda t: calls.append(t) or 0.0, np.array([1.0]), eps)
    assert not calls


def _kinked(central, gap):
    """gradient_check's rule: a gap beyond rounding means a kink in the stencil."""
    return gap > GRADCHECK_GAP_ABS + GRADCHECK_GAP_REL * np.abs(central)


def test_finite_diff_gap_is_rounding_on_a_linear_function():
    theta = np.array([0.3, -1.2, 7.5])
    central, gap = finite_diff_gap(lambda t: 3.7 * t[0] - 2.1 * t[1] + 0.4 * t[2] + 0.9,
                                   theta, 1e-5)
    assert np.allclose(central, [3.7, -2.1, 0.4], atol=1e-9)
    assert gap.max() < 1e-9
    assert not _kinked(central, gap).any()


@pytest.mark.parametrize("offset,want_gap", [(0.0, 1.0), (0.5, 0.5), (2.0, 0.0)])
def test_finite_diff_gap_flags_a_kink_inside_the_stencil(offset, want_gap):
    # relu's kink at offset*eps above theta: inside the stencil for offset
    # 0 (at theta itself) and 1/2, outside for 2
    eps = 1e-4
    central, gap = finite_diff_gap(lambda t: 2.0 * max(t[0], 0.0), np.array([-offset * eps]), eps)
    assert gap[0] == pytest.approx(2.0 * want_gap, abs=1e-9)
    assert _kinked(central, gap)[0] == (want_gap > 0)
    # theta sits on the flat side, so half the gap is the central error
    assert central[0] == pytest.approx(gap[0] / 2, abs=1e-9)


def test_purity_same_rng_state_same_output():
    a = init_uniform((4, 4), 2, 2, make_rng(9))
    b = init_uniform((4, 4), 2, 2, make_rng(9))
    assert a.tobytes() == b.tobytes()


def test_split_by_is_where_bit_for_bit():
    # signed zeros, infinities, NaNs with payloads and signs, subnormals
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.5, -3.0])
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000123, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, nans])
    rng = make_rng(17)
    g = rng.choice(values, size=(4, 6, 24))
    mask = rng.random((4, 6, 24)) < 0.5
    cases = [(mask, g), (mask[:, :1], g),                      # broadcast mask
             (mask[::2, ::-1], g[1::2, ::-1]),                 # strided views
             (mask[..., 1::3], g[..., ::3]),
             (mask.T, g.T)]
    for m, v in cases:
        unselected, selected = split_by(m, v)
        assert unselected.tobytes() == np.where(m, 0.0, v).tobytes()
        assert selected.tobytes() == np.where(m, v, 0.0).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128])
def test_split_by_rejects_other_dtypes(dtype):
    with pytest.raises(ShapeError):
        split_by(np.ones(3, dtype=bool), np.ones(3, dtype=dtype))
