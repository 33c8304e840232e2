"""Scoring head: a small MLP ending in one scalar output.

Hidden layers use the configured activation; the output layer is linear.
Dropout (inverted scaling) applies to hidden activations only, and only
when masks are supplied, so scoring/eval paths stay deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import ACTIVATIONS, activate, activate_grad_from_output, init_layers


@dataclass
class MlpHead:
    weights: list  # per layer, [out, in]; final layer has out == 1
    biases: list
    activation: str = "relu"
    dropout: float = 0.0

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def hidden_widths(self) -> list:
        return [w.shape[0] for w in self.weights[:-1]]


@dataclass
class HeadTrace:
    inputs: list   # input [..., width] to each layer (post-dropout for hidden ones)
    outputs: list  # pre-dropout hidden activations
    masks: list | None


def build_head(input_width: int, hidden_widths, rng, activation="relu",
               dropout=0.0) -> MlpHead:
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
    layers = init_layers("head", (input_width, *hidden_widths), (*hidden_widths, 1), rng)
    return MlpHead(weights=[w for w, _ in layers], biases=[b for _, b in layers],
                   activation=activation, dropout=dropout)


def draw_dropout_masks(head: MlpHead, rng: np.random.Generator):
    """One inverted-scaling mask per hidden layer; None when dropout is off."""
    if head.dropout == 0.0:
        return None
    keep = 1.0 - head.dropout
    return [
        (rng.random(w.shape[0]) < keep).astype(np.float64) / keep
        for w in head.weights[:-1]
    ]


def concat_pair(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """[vx, vy] along the last axis, broadcasting their leading dimensions."""
    if vx.shape[:-1] != vy.shape[:-1]:
        lead = np.broadcast_shapes(vx.shape[:-1], vy.shape[:-1])
        vx = np.broadcast_to(vx, (*lead, vx.shape[-1]))
        vy = np.broadcast_to(vy, (*lead, vy.shape[-1]))
    return np.concatenate([vx, vy], axis=-1)


def _matvec(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """w @ h over the last axis of h, as one BLAS matrix-vector product per
    item, so stacked and single inputs round identically."""
    return np.matmul(w, h[..., None])[..., 0]


def _affine(w, b, h, split):
    """Layer pre-activation, computed per input half when split is set.

    Splitting makes swapping two identical halves of the input bitwise
    neutral (float addition of the two half-products commutes), which the
    swap-symmetry property of tied siamese models relies on.
    """
    if split is None:
        return _matvec(w, h) + b
    return _matvec(w[:, :split], h[..., :split]) + _matvec(w[:, split:], h[..., split:]) + b


def head_forward(head: MlpHead, v: np.ndarray, masks=None,
                 split: int | None = None):
    """Score inputs v [..., width]; returns (score, HeadTrace).

    The score is a float for a single input and an array [...] for a
    stack. Masks are [..., hidden] per hidden layer and broadcast against
    the input's leading dimensions.
    """
    if v.shape[-1] != head.input_width:
        raise ShapeError(
            f"head expects input width {head.input_width}, got {v.shape[-1]}"
        )
    inputs, outputs = [], []
    h = v
    n_hidden = len(head.weights) - 1
    for li in range(n_hidden):
        inputs.append(h)
        pre = _affine(head.weights[li], head.biases[li], h,
                      split if li == 0 else None)
        a = activate(pre, head.activation)
        outputs.append(a)
        h = a * masks[li] if masks is not None else a
    inputs.append(h)
    final = _affine(head.weights[-1], head.biases[-1], h,
                    split if n_hidden == 0 else None)[..., 0]
    score = final.item() if final.ndim == 0 else final
    return score, HeadTrace(inputs=inputs, outputs=outputs, masks=masks)


def _outer_sum(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over the leading dimensions of the outer products d x^T."""
    return d.reshape(-1, d.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def head_backward(head: MlpHead, trace: HeadTrace, upstream):
    """Gradients of sum(upstream * score) w.r.t. head params and the input.

    upstream is a float, or an array [...] matching a stacked score.
    Returns (weight_grads, bias_grads, input_grad [..., width]); parameter
    gradients are summed over the leading dimensions.
    """
    wgrads = [None] * len(head.weights)
    bgrads = [None] * len(head.biases)
    d = np.asarray(upstream, dtype=np.float64)[..., None]
    for li in range(len(head.weights) - 1, -1, -1):
        if li < len(head.weights) - 1:
            if trace.masks is not None:
                d = d * trace.masks[li]
            d = d * activate_grad_from_output(trace.outputs[li], head.activation)
        wgrads[li] = _outer_sum(d, trace.inputs[li])
        bgrads[li] = d.reshape(-1, d.shape[-1]).sum(axis=0)
        d = d @ head.weights[li]
    return wgrads, bgrads, d
