"""Model registry: one table of the model kinds, checkpoint configs, and
flat parameter views.

Every model exposes the same duck-typed surface: .kind, .score(sx, sy,
masks), .backward(trace, upstream) and .named_params() in the fixed
checkpoint order. score takes one pair of sentences, or stacks [..., L, D]
whose leading dimensions broadcast, and returns a float or an array of
scores; backward takes an upstream of the score's shape and sums the
parameter gradients over all pairs.

Two classes serve the five kinds: arc2.Arc2Model for ARC-II, and
arc1.Arc1Model for ARC-I and the three baselines, which differ only in
their sentence encoders. KINDS is the one place that tells the kinds
apart: each kind's builder, the checkpoint keys that rebuild it, the
tiny configuration gradient_check uses, and the chunk size of its SGD
steps.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arc1 import build_arc1
from .arc2 import build_arc2
from .baselines import build_senmlp, build_senna, build_wordembed
from .errors import CheckpointShapeError, ConfigError
from .tensor import make_rng


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


@dataclass(frozen=True)
class Key:
    """A checkpoint config key: how its text parses into a builder argument,
    and how a model's value for it is read."""

    parse: Callable[[str], object]
    read: Callable[[object], object]
    arg: str = ""  # the builder argument, when it is not named like the key


@dataclass(frozen=True)
class Kind:
    build: Callable   # builder(rng=..., **arguments)
    keys: dict        # checkpoint key -> Key
    gradcheck: dict   # builder arguments of gradient_check's tiny model
    chunk: int        # triples per stacked score/backward in training.sgd_step


_HEAD = {
    "hidden": Key(_ints, lambda m: _csv(m.head.hidden_widths)),
    "activation": Key(str, lambda m: m.head.activation),
    "dropout": Key(float, lambda m: m.head.dropout),
}
_EMBED_DIM = {"embed_dim": Key(int, lambda m: m.config_x.embed_dim)}
_SIAMESE = {**_HEAD, **_EMBED_DIM, "max_len": Key(int, lambda m: m.config_x.max_len)}

# Kind.chunk: larger chunks spread sgd_step's per-call Python overhead over
# more triples but hold larger traces. A chunk also fixes the groups of
# triples whose gradients are summed together, so changing a kind's chunk
# changes its trained parameters in their last bits. The siamese kinds take
# 64: in an earlier sweep, 128 gained 7-17% more only in batches above 64,
# for 1.4-1.5x the memory. ARC-II's sweep, at the README configuration with
# fine-tuned embeddings, batches of 64, one BLAS thread and sgd_step's heap
# thresholds set (2-vCPU VM, numpy 2.4): ms per SGD batch (best / median of
# 8 interleaved runs of 12 batches), the tracemalloc peak of one step, and
# the benchmark's `train` workload (perfbench/run.py, two 20 s runs each,
# seeds 9501-9502).
#
#   chunk   ms/batch      step peak   train peak_rss_mb   train items/s
#   16      8.56 / 8.80    3.16 MB     60.29-60.40         14,230-14,300
#   32      7.17 / 7.55    5.47 MB     62.87-62.88         14,940-15,420
#   64      6.83 / 7.09   10.21 MB     67.64-67.67         15,050-15,330
#
# ARC-II takes 32. Chunks of 64 run its own batches a little faster but not
# the whole workload, and they raise peak_rss_mb by 12% over chunks of 16
# (32: 4%).

KINDS = {
    "arc1": Kind(build_arc1, {
        **_SIAMESE,
        "max_len_y": Key(int, lambda m: m.config_y.max_len),
        "windows": Key(_ints, lambda m: _csv(m.config_x.windows)),
        "feature_maps": Key(_ints, lambda m: _csv(m.config_x.feature_maps)),
        "tie_weights": Key(lambda t: bool(int(t)), lambda m: int(m.tie_weights)),
    }, dict(windows=(3, 2), feature_maps=(3, 2), hidden=(4,)), chunk=64),
    "arc2": Kind(build_arc2, {
        **_HEAD,
        "embed_dim": Key(int, lambda m: m.config.embed_dim),
        "max_len": Key(int, lambda m: m.config.max_len),
        "window1": Key(int, lambda m: m.config.window1),
        "maps1": Key(int, lambda m: m.config.maps1),
        "twod": Key(_pairs, lambda m: ",".join(f"{k}:{f}" for k, f in m.config.twod_layers),
                    arg="twod_layers"),
    }, dict(window1=2, maps1=3, twod_layers=((2, 2),), hidden=(4,)), chunk=32),
    "wordembed": Kind(build_wordembed, {**_HEAD, **_EMBED_DIM}, dict(hidden=(5,)), chunk=64),
    "senmlp": Kind(build_senmlp, _SIAMESE, dict(hidden=(5,)), chunk=64),
    "senna": Kind(build_senna, {
        **_SIAMESE,
        "window": Key(int, lambda m: m.config_x.windows[0]),
        "maps": Key(int, lambda m: m.config_x.feature_maps[0]),
    }, dict(window=3, maps=4, hidden=(4,)), chunk=64),
}
MODEL_KINDS = tuple(KINDS)


def builder_args(kind: str) -> set:
    """The builder arguments of a kind: one per checkpoint key."""
    return {key.arg or name for name, key in KINDS[kind].keys.items()}


def build_model(kind: str, arguments: dict, rng):
    """Build a model of `kind` from whichever of `arguments` its builder
    takes; the rest are ignored, and missing ones take the builder's
    defaults."""
    return KINDS[kind].build(rng=rng, **{a: arguments[a] for a in builder_args(kind)
                                         if a in arguments})


def model_config_kv(model) -> dict:
    """Canonical key=value view of a model's architecture."""
    keys = KINDS[model.kind].keys
    return {"kind": model.kind, **{k: str(key.read(model)) for k, key in keys.items()}}


def build_model_from_kv(kv: dict, rng=None):
    """Rebuild a model skeleton from a config mapping (fresh random params).

    A missing key, or a value that does not parse as its type, raises
    CheckpointShapeError naming the key; so do keys that parse but
    describe no valid model, naming the kind.
    """
    kind = kv.get("kind")
    if kind not in KINDS:
        raise CheckpointShapeError(
            "config key 'kind' is missing" if kind is None
            else f"config key 'kind' has invalid value {kind!r}")
    arguments = {}
    for k, key in KINDS[kind].keys.items():
        if k not in kv:
            raise CheckpointShapeError(f"config key {k!r} is missing")
        try:
            arguments[key.arg or k] = key.parse(kv[k])
        except ValueError:
            raise CheckpointShapeError(f"config key {k!r} has invalid value {kv[k]!r}")
    try:
        return build_model(kind, arguments, rng if rng is not None else make_rng(0))
    except ConfigError as err:
        raise CheckpointShapeError(f"config describes an invalid {kind} model: {err}") from err


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
