"""Cheap competitor scorers: the siamese model with simpler encoders.

Each baseline is an arc1.Arc1Model with untied encoders and its own
`kind`; only the sentence encoder differs. WordEmbed sums the word vectors
of a sentence (order-blind by construction); SenMLP feeds the whole padded
matrix, flattened, straight into the head; the SENNA-style model is a
single gated convolution with a per-feature max over the entire sentence.
"""

from .arc1 import Arc1Model, build_siamese
from .conv_sentence import SentenceModelConfig
# perfbench/tracer.py times layers by replacing encode, encode_backward,
# head_forward and head_backward on this module as well as on arc1, and
# times models through the class names below, so these names stay here
# though only arc1 calls them.
from .conv_sentence import encode, encode_backward  # noqa: F401
from .mlp import head_backward, head_forward  # noqa: F401

WordEmbedModel = SenMlpModel = SennaModel = Arc1Model


def build_wordembed(embed_dim: int, rng, hidden=(64,), activation="relu",
                    dropout=0.0) -> Arc1Model:
    config = SentenceModelConfig(embed_dim=embed_dim, max_len=None, windows=(),
                                 feature_maps=(), activation=activation,
                                 sum_rows=True)
    return build_siamese(config, config, rng, hidden, activation, dropout,
                         kind="wordembed")


def build_senmlp(embed_dim: int, max_len: int, rng, hidden=(64,),
                 activation="relu", dropout=0.0) -> Arc1Model:
    config = SentenceModelConfig(embed_dim=embed_dim, max_len=max_len, windows=(),
                                 feature_maps=(), activation=activation)
    return build_siamese(config, config, rng, hidden, activation, dropout,
                         kind="senmlp")


def build_senna(embed_dim: int, max_len: int, rng, window=3, maps=16,
                hidden=(64,), activation="relu", dropout=0.0) -> Arc1Model:
    config = SentenceModelConfig(embed_dim=embed_dim, max_len=max_len,
                                 windows=(window,), feature_maps=(maps,),
                                 activation=activation, global_pool=True)
    return build_siamese(config, config, rng, hidden, activation, dropout,
                         kind="senna")
