"""Dense-tensor substrate.

Tensors are plain float64 numpy arrays in row-major (C) order; every
operation here is pure and single-threaded. Randomness comes from numpy's
PCG64 generator seeded explicitly, so identical seeds give identical
streams on one platform.

Leading-dimension convention: every layer takes its operand with any
number of leading batch dimensions in front of the per-item shape
(sentences [..., L, D], grids [..., ni, nj, F], head inputs [..., W]) and
returns results with the same leading dimensions. Matrix products are
issued as one BLAS call per item, so a stacked call returns exactly, bit
for bit, what per-item calls return; an input without leading dimensions
is the single-pair case. Backward passes sum parameter gradients over all
leading dimensions.
"""

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "sigmoid")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed (PCG64)."""
    return np.random.default_rng(seed)


def named_layers(prefix: str, layers) -> list:
    """[(prefix.i.w, w), (prefix.i.b, b)] for each (w, b) layer i, in order:
    the parameter and gradient names of every layer stack."""
    return [(f"{prefix}.{i}.{n}", t) for i, (w, b) in enumerate(layers)
            for n, t in (("w", w), ("b", b))]


def sum_to_shape(g: np.ndarray, shape) -> np.ndarray:
    """Adjoint of broadcasting: sum g over the leading axes that
    broadcasting added in front of an array of `shape`, and over the axes
    it stretched from size 1."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def split_by(mask: np.ndarray, g: np.ndarray):
    """(where(mask, 0.0, g), where(mask, g, 0.0)) bit for bit, for a
    float64 g and a bool mask that broadcast together: each value kept as
    it is (signs of zero and NaN payloads too), +0.0 elsewhere. The values
    are selected as integers (v & -1 keeps v, v & 0 is +0.0), which is
    several times faster than np.where."""
    if g.dtype != np.float64:
        raise ShapeError(f"split_by takes float64 values, got {g.dtype}")
    bits = g.view(np.int64)
    chosen = bits & -mask.view(np.int8)
    return (bits ^ chosen).view(np.float64), chosen.view(np.float64)


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; never overflows for large |v|."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def activate(v: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return relu(v)
    if kind == "sigmoid":
        return sigmoid(v)
    raise ConfigError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def activate_grad_from_output(out: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation expressed through its own output.

    relu' = 1 where out > 0, sigmoid' = out * (1 - out). Gated-off units
    have out == 0 and get derivative 0 under both, which is exactly the
    discounting the gate requires.
    """
    if kind == "relu":
        return (out > 0.0).astype(np.float64)
    if kind == "sigmoid":
        return out * (1.0 - out)
    raise ConfigError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def init_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform in [-r, r] with r = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError(f"fan_in/fan_out must be positive, got {fan_in}, {fan_out}")
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def init_layers(name: str, fan_ins, widths, rng: np.random.Generator) -> list:
    """[(w [width, fan_in] from init_uniform, zero bias [width])] per layer,
    drawn in layer order: the initial parameters of every layer stack.
    Raises ConfigError naming the first layer whose fan-in or width is
    below 1."""
    for i, (fan_in, width) in enumerate(zip(fan_ins, widths, strict=True)):
        if fan_in < 1 or width < 1:
            raise ConfigError(f"{name} layer {i}: fan-in {fan_in} and width {width} "
                              f"must be >= 1")
    return [(init_uniform((width, fan_in), fan_in, width, rng), np.zeros(width))
            for fan_in, width in zip(fan_ins, widths)]


def finite_diff_gap(f, theta: np.ndarray, eps: float):
    """(central differences, |forward - backward difference|) per coordinate
    of a scalar function f of a flat vector.

    The central difference is (f(theta + eps*e_i) - f(theta - eps*e_i)) /
    (2*eps), and the gap is |f(theta + eps*e_i) - 2 f(theta) +
    f(theta - eps*e_i)| / eps.
    For f linear along e_i it is rounding. For f piecewise linear along e_i
    with one kink at distance d < eps from theta, it is the jump in slope
    times (eps - d) / eps, and half of it is exactly the central
    difference's error. Raises NumericError if f returns a non-finite
    value.
    """
    if not 0 < eps < np.inf:
        raise ShapeError(f"eps must be positive and finite, got {eps}")
    theta = np.asarray(theta, dtype=np.float64)
    f0 = float(f(theta))
    if not np.isfinite(f0):
        raise NumericError("finite_diff_gap: non-finite evaluation at theta")
    fp = np.empty_like(theta)
    fm = np.empty_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fp[i] = float(f(tp))
        fm[i] = float(f(tm))
        if not (np.isfinite(fp[i]) and np.isfinite(fm[i])):
            raise NumericError(f"finite_diff_gap: non-finite evaluation at coordinate {i}")
    return (fp - fm) / (2.0 * eps), np.abs(fp - 2.0 * f0 + fm) / eps
