"""Model registry: build by kind, serialize/rebuild configs, flatten params.

Every model exposes the same duck-typed surface: .kind, .score(sx, sy,
masks), .backward(trace, upstream) and .named_params() in the fixed
checkpoint order. score takes one pair of sentences, or stacks [..., L, D]
whose leading dimensions broadcast, and returns a float or an array of
scores; backward takes an upstream of the score's shape and sums the
parameter gradients over all pairs.
"""

import numpy as np

from .arc1 import build_arc1
from .arc2 import build_arc2
from .baselines import build_senmlp, build_senna, build_wordembed
from .errors import CheckpointShapeError, ConfigError
from .tensor import make_rng

MODEL_KINDS = ("arc1", "arc2", "wordembed", "senmlp", "senna")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _ints(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _pairs(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    pairs = tuple(tuple(int(v) for v in item.split(":")) for item in text.split(","))
    if any(len(p) != 2 for p in pairs):
        raise ValueError(f"expected window:maps pairs, got {text!r}")
    return pairs


def model_config_kv(model) -> dict:
    """Canonical key=value view of a model's architecture."""
    kind = model.kind
    kv = {"kind": kind}
    if kind == "arc1":
        cx = model.config_x
        kv.update(embed_dim=cx.embed_dim, max_len=cx.max_len,
                  max_len_y=model.config_y.max_len,
                  windows=_csv(cx.windows), feature_maps=_csv(cx.feature_maps),
                  activation=cx.activation,
                  hidden=_csv(model.head.hidden_widths),
                  dropout=model.head.dropout,
                  tie_weights=int(model.tie_weights))
    elif kind == "arc2":
        c = model.config
        kv.update(embed_dim=c.embed_dim, max_len=c.max_len, window1=c.window1,
                  maps1=c.maps1,
                  twod=",".join(f"{k}:{f}" for k, f in c.twod_layers),
                  activation=c.activation,
                  hidden=_csv(model.head.hidden_widths),
                  dropout=model.head.dropout)
    elif kind == "wordembed":
        kv.update(embed_dim=model.embed_dim,
                  hidden=_csv(model.head.hidden_widths),
                  activation=model.head.activation, dropout=model.head.dropout)
    elif kind == "senmlp":
        kv.update(embed_dim=model.embed_dim, max_len=model.max_len,
                  hidden=_csv(model.head.hidden_widths),
                  activation=model.head.activation, dropout=model.head.dropout)
    elif kind == "senna":
        cx = model.config_x
        kv.update(embed_dim=cx.embed_dim, max_len=cx.max_len,
                  window=cx.windows[0], maps=cx.feature_maps[0],
                  activation=cx.activation,
                  hidden=_csv(model.head.hidden_widths),
                  dropout=model.head.dropout)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    return {k: str(v) for k, v in kv.items()}


def build_model_from_kv(kv: dict, rng=None):
    """Rebuild a model skeleton from a config mapping (fresh random params).

    A missing key, or a value that does not parse as its type, raises
    CheckpointShapeError naming the key.
    """
    rng = rng if rng is not None else make_rng(0)

    def get(key, parse=str):
        if key not in kv:
            raise CheckpointShapeError(f"config key {key!r} is missing")
        try:
            return parse(kv[key])
        except ValueError:
            raise CheckpointShapeError(f"config key {key!r} has invalid value {kv[key]!r}")

    kind = get("kind")
    if kind == "arc1":
        return build_arc1(get("embed_dim", int), get("max_len", int), rng,
                          windows=get("windows", _ints),
                          feature_maps=get("feature_maps", _ints),
                          hidden=get("hidden", _ints),
                          activation=get("activation"),
                          dropout=get("dropout", float),
                          tie_weights=bool(get("tie_weights", int)),
                          max_len_y=get("max_len_y", int))
    if kind == "arc2":
        return build_arc2(get("embed_dim", int), get("max_len", int), rng,
                          window1=get("window1", int), maps1=get("maps1", int),
                          twod_layers=get("twod", _pairs),
                          hidden=get("hidden", _ints),
                          activation=get("activation"),
                          dropout=get("dropout", float))
    if kind == "wordembed":
        return build_wordembed(get("embed_dim", int), rng,
                               hidden=get("hidden", _ints),
                               activation=get("activation"),
                               dropout=get("dropout", float))
    if kind == "senmlp":
        return build_senmlp(get("embed_dim", int), get("max_len", int), rng,
                            hidden=get("hidden", _ints),
                            activation=get("activation"),
                            dropout=get("dropout", float))
    if kind == "senna":
        return build_senna(get("embed_dim", int), get("max_len", int), rng,
                           window=get("window", int), maps=get("maps", int),
                           hidden=get("hidden", _ints),
                           activation=get("activation"),
                           dropout=get("dropout", float))
    raise CheckpointShapeError(f"config key 'kind' has invalid value {kind!r}")


def param_vector(model) -> np.ndarray:
    """All parameters flattened in named_params order."""
    return np.concatenate([t.ravel() for _, t in model.named_params()])


def set_param_vector(model, theta: np.ndarray) -> None:
    """Write a flat vector back into the model's parameter tensors."""
    offset = 0
    for _, t in model.named_params():
        n = t.size
        t[...] = theta[offset : offset + n].reshape(t.shape)
        offset += n
    if offset != theta.size:
        raise ConfigError(
            f"parameter vector has {theta.size} values, model needs {offset}"
        )


def clone_params(model) -> list:
    """Snapshot of all parameter tensors (for best-checkpoint restore)."""
    return [(name, t.copy()) for name, t in model.named_params()]


def restore_params(model, snapshot) -> None:
    for (name, t), (sname, s) in zip(model.named_params(), snapshot):
        if name != sname or t.shape != s.shape:
            raise ConfigError(f"snapshot mismatch at {name}/{sname}")
        t[...] = s
