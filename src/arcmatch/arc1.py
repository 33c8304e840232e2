"""Siamese matching architecture (ARC-I) and its cheaper variants.

Each sentence is encoded independently by a sentence model; the two
fixed-length vectors are concatenated and scored by the MLP head. ARC-I's
encoder is a stack of gated convolutions and two-unit max-pooling, and
the two encoders may share parameters (tie_weights) when the task is
homogeneous. The baselines (baselines.py) are this same model with a
simpler encoder, told apart only by `kind`.
"""

from dataclasses import dataclass, replace

import numpy as np

from .conv_sentence import (SentenceModelConfig, SentenceModelParams, encode,
                            encode_backward, init_sentence_params)
from .errors import ConfigError
from .mlp import MlpHead, build_head, concat_pair, head_backward, head_forward
from .tensor import named_layers, sum_to_shape


@dataclass
class Arc1Trace:
    vec_x: np.ndarray
    vec_y: np.ndarray
    enc_x: object
    enc_y: object
    head: object
    score: float

    @property
    def layers(self) -> list:
        """Conv-layer traces of both encoders."""
        return self.enc_x.layers + self.enc_y.layers


@dataclass
class Arc1Model:
    config_x: SentenceModelConfig
    config_y: SentenceModelConfig
    params_x: SentenceModelParams
    params_y: SentenceModelParams  # aliases params_x when tie_weights
    head: MlpHead
    tie_weights: bool = False
    kind: str = "arc1"

    def score(self, sx, sy, masks=None):
        """Score a pair, or stacks [..., L, D] of pairs with broadcasting
        leading dimensions; each distinct sentence is encoded once."""
        vec_x, enc_x = encode(sx, self.params_x, self.config_x)
        vec_y, enc_y = encode(sy, self.params_y, self.config_y)
        s, head_trace = head_forward(self.head, concat_pair(vec_x, vec_y),
                                     masks, split=vec_x.shape[-1])
        return s, Arc1Trace(vec_x=vec_x, vec_y=vec_y, enc_x=enc_x, enc_y=enc_y,
                            head=head_trace, score=s)

    def backward(self, trace: Arc1Trace, upstream):
        wg, bg, dvec = head_backward(self.head, trace.head, upstream)
        # a sentence shared by several pairs gets their summed gradient
        nx = trace.vec_x.shape[-1]
        gx, dx = encode_backward(trace.enc_x, self.params_x, self.config_x,
                                 sum_to_shape(dvec[..., :nx], trace.vec_x.shape))
        gy, dy = encode_backward(trace.enc_y, self.params_y, self.config_y,
                                 sum_to_shape(dvec[..., nx:], trace.vec_y.shape))
        if self.tie_weights:
            enc = named_layers("enc_x", [(dwx + dwy, dbx + dby) for (dwx, dbx), (dwy, dby)
                                         in zip(gx, gy)])
        else:
            enc = named_layers("enc_x", gx) + named_layers("enc_y", gy)
        return dict(enc + named_layers("head", zip(wg, bg))), dx, dy

    def named_params(self):
        """Fixed order: encoder layers ascending (w before b), head last."""
        enc = named_layers("enc_x", self.params_x.layers)
        if not self.tie_weights:
            enc += named_layers("enc_y", self.params_y.layers)
        return enc + named_layers("head", zip(self.head.weights, self.head.biases))


def build_siamese(config_x: SentenceModelConfig, config_y: SentenceModelConfig,
                  rng, hidden, activation, dropout, tie_weights=False,
                  kind="arc1") -> Arc1Model:
    """Initialize the encoders (x, then y unless tied), then the head."""
    config_x.validate()
    config_y.validate()
    if tie_weights and config_x != config_y:
        raise ConfigError("tie_weights requires identical encoder configs")
    params_x = init_sentence_params(config_x, rng)
    params_y = params_x if tie_weights else init_sentence_params(config_y, rng)
    head = build_head(config_x.output_len + config_y.output_len, hidden, rng,
                      activation=activation, dropout=dropout)
    return Arc1Model(config_x=config_x, config_y=config_y,
                     params_x=params_x, params_y=params_y,
                     head=head, tie_weights=tie_weights, kind=kind)


def build_arc1(embed_dim: int, max_len: int, rng,
               windows=(3, 2), feature_maps=(16, 16), hidden=(128,),
               activation="relu", dropout=0.0, tie_weights=False,
               max_len_y=None) -> Arc1Model:
    """Assemble a siamese model with freshly initialized parameters."""
    if not windows:
        raise ConfigError("arc1 needs at least one conv layer, got no windows")
    config_x = SentenceModelConfig(embed_dim=embed_dim, max_len=max_len,
                                   windows=tuple(windows),
                                   feature_maps=tuple(feature_maps),
                                   activation=activation)
    config_y = replace(config_x, max_len=max_len if max_len_y is None else max_len_y)
    return build_siamese(config_x, config_y, rng, hidden, activation, dropout,
                         tie_weights)
