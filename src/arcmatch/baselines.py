"""Cheap competitor scorers sharing the training loop and MLP head.

WordEmbed sums word vectors per sentence (order-blind by construction);
SenMLP feeds the whole padded matrices straight into the head; the
SENNA-style model is a single gated convolution with a per-feature max
over the entire sentence.
"""

from dataclasses import dataclass

import numpy as np

from .conv_sentence import (SentenceModelConfig, SentenceModelParams, encode,
                            encode_backward, init_sentence_params)
from .embeddings import sentence_matrix
from .mlp import MlpHead, build_head, concat_pair, head_backward, head_forward
from .tensor import sum_to_shape


@dataclass
class PairTrace:
    vec_x: np.ndarray
    vec_y: np.ndarray
    head: object
    score: float
    enc_x: object = None
    enc_y: object = None
    rows: int = 0


@dataclass
class WordEmbedModel:
    head: MlpHead  # input width 2 * embed_dim
    embed_dim: int
    kind: str = "wordembed"

    def score(self, sx, sy, masks=None):
        x, y = sentence_matrix(sx), sentence_matrix(sy)
        vx = x.sum(axis=-2)  # padding rows are zero, so they add nothing
        vy = y.sum(axis=-2)
        s, ht = head_forward(self.head, concat_pair(vx, vy), masks,
                             split=vx.shape[-1])
        return s, PairTrace(vec_x=vx, vec_y=vy, head=ht, score=s,
                            rows=x.shape[-2])

    def backward(self, trace, upstream):
        wg, bg, dvec = head_backward(self.head, trace.head, upstream)
        grads = {}
        for li, (dw, db) in enumerate(zip(wg, bg)):
            grads[f"head.{li}.w"] = dw
            grads[f"head.{li}.b"] = db
        d = self.embed_dim
        # every row of the sentence matrix shares the summed gradient
        dvx = sum_to_shape(dvec[..., :d], trace.vec_x.shape)
        dvy = sum_to_shape(dvec[..., d:], trace.vec_y.shape)
        dx = np.repeat(dvx[..., None, :], trace.rows, axis=-2)
        dy = np.repeat(dvy[..., None, :], trace.rows, axis=-2)
        return grads, dx, dy

    def named_params(self):
        return [(f"head.{li}.{n}", t)
                for li, (w, b) in enumerate(zip(self.head.weights, self.head.biases))
                for n, t in (("w", w), ("b", b))]


@dataclass
class SenMlpModel:
    head: MlpHead  # input width 2 * max_len * embed_dim
    max_len: int
    embed_dim: int
    kind: str = "senmlp"

    def score(self, sx, sy, masks=None):
        x, y = sentence_matrix(sx), sentence_matrix(sy)
        vx = x.reshape(*x.shape[:-2], -1)
        vy = y.reshape(*y.shape[:-2], -1)
        s, ht = head_forward(self.head, concat_pair(vx, vy), masks,
                             split=vx.shape[-1])
        return s, PairTrace(vec_x=vx, vec_y=vy, head=ht, score=s)

    def backward(self, trace, upstream):
        wg, bg, dvec = head_backward(self.head, trace.head, upstream)
        grads = {}
        for li, (dw, db) in enumerate(zip(wg, bg)):
            grads[f"head.{li}.w"] = dw
            grads[f"head.{li}.b"] = db
        n = self.max_len * self.embed_dim
        dx = sum_to_shape(dvec[..., :n], trace.vec_x.shape)
        dy = sum_to_shape(dvec[..., n:], trace.vec_y.shape)
        shape = (self.max_len, self.embed_dim)
        dx = dx.reshape(*dx.shape[:-1], *shape)
        dy = dy.reshape(*dy.shape[:-1], *shape)
        return grads, dx, dy

    def named_params(self):
        return [(f"head.{li}.{n}", t)
                for li, (w, b) in enumerate(zip(self.head.weights, self.head.biases))
                for n, t in (("w", w), ("b", b))]


@dataclass
class SennaModel:
    """One conv layer + whole-sentence max pool per side, then the head."""

    config_x: SentenceModelConfig
    config_y: SentenceModelConfig
    params_x: SentenceModelParams
    params_y: SentenceModelParams
    head: MlpHead
    kind: str = "senna"

    def score(self, sx, sy, masks=None):
        vec_x, enc_x = encode(sx, self.params_x, self.config_x)
        vec_y, enc_y = encode(sy, self.params_y, self.config_y)
        s, ht = head_forward(self.head, concat_pair(vec_x, vec_y),
                             masks, split=vec_x.shape[-1])
        return s, PairTrace(vec_x=vec_x, vec_y=vec_y, head=ht, score=s,
                            enc_x=enc_x, enc_y=enc_y)

    def backward(self, trace, upstream):
        wg, bg, dvec = head_backward(self.head, trace.head, upstream)
        nx = trace.vec_x.shape[-1]
        gx, dx = encode_backward(trace.enc_x, self.params_x, self.config_x,
                                 sum_to_shape(dvec[..., :nx], trace.vec_x.shape))
        gy, dy = encode_backward(trace.enc_y, self.params_y, self.config_y,
                                 sum_to_shape(dvec[..., nx:], trace.vec_y.shape))
        grads = {}
        for li, (dw, db) in enumerate(gx):
            grads[f"enc_x.{li}.w"] = dw
            grads[f"enc_x.{li}.b"] = db
        for li, (dw, db) in enumerate(gy):
            grads[f"enc_y.{li}.w"] = dw
            grads[f"enc_y.{li}.b"] = db
        for li, (dw, db) in enumerate(zip(wg, bg)):
            grads[f"head.{li}.w"] = dw
            grads[f"head.{li}.b"] = db
        return grads, dx, dy

    def named_params(self):
        out = []
        for li, (w, b) in enumerate(self.params_x.layers):
            out.append((f"enc_x.{li}.w", w))
            out.append((f"enc_x.{li}.b", b))
        for li, (w, b) in enumerate(self.params_y.layers):
            out.append((f"enc_y.{li}.w", w))
            out.append((f"enc_y.{li}.b", b))
        for li, (w, b) in enumerate(zip(self.head.weights, self.head.biases)):
            out.append((f"head.{li}.w", w))
            out.append((f"head.{li}.b", b))
        return out


def build_wordembed(embed_dim: int, rng, hidden=(64,), activation="relu",
                    dropout=0.0) -> WordEmbedModel:
    head = build_head(2 * embed_dim, hidden, rng, activation=activation,
                      dropout=dropout)
    return WordEmbedModel(head=head, embed_dim=embed_dim)


def build_senmlp(embed_dim: int, max_len: int, rng, hidden=(64,),
                 activation="relu", dropout=0.0) -> SenMlpModel:
    head = build_head(2 * max_len * embed_dim, hidden, rng,
                      activation=activation, dropout=dropout)
    return SenMlpModel(head=head, max_len=max_len, embed_dim=embed_dim)


def build_senna(embed_dim: int, max_len: int, rng, window=3, maps=16,
                hidden=(64,), activation="relu", dropout=0.0) -> SennaModel:
    config = SentenceModelConfig(embed_dim=embed_dim, max_len=max_len,
                                 windows=(window,), feature_maps=(maps,),
                                 activation=activation, global_pool=True)
    config.validate()
    params_x = init_sentence_params(config, rng)
    params_y = init_sentence_params(config, rng)
    head = build_head(2 * maps, hidden, rng, activation=activation,
                      dropout=dropout)
    return SennaModel(config_x=config, config_y=config,
                      params_x=params_x, params_y=params_y, head=head)
