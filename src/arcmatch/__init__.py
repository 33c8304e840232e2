"""Convolutional sentence-matching engine.

Two matching architectures built on a gated convolutional sentence model:
arc1 encodes each sentence separately and compares the vectors with an
MLP; arc2 convolves all segment pairs of the two sentences into an
interaction grid and composes it with 2D pooling and convolution. Training
uses a margin ranking loss over (x, y+, y-) triples with mini-batch SGD.
"""

from .arc1 import Arc1Model, build_arc1
from .arc2 import Arc2Model, build_arc2, embed_arc1_as_arc2
from .baselines import (SenMlpModel, SennaModel, WordEmbedModel,
                        build_senmlp, build_senna, build_wordembed)
from .checkpoint import load_checkpoint, save_checkpoint
from .conv_sentence import (SentenceModelConfig, SentenceModelParams,
                            conv1d_gated, encode, encode_backward,
                            init_sentence_params, maxpool1d)
from .data import (PairCorpus, RankingInstance, bag_overlap_score,
                   encode_instances, encode_triples, gen_synthetic_corpus,
                   load_pairs, load_triples, make_eval_instances,
                   sample_negatives, save_pairs, save_triples)
from .embeddings import (EmbeddingTable, EncodedSentence, Vocabulary,
                         encode_sentence, load_embeddings, random_embeddings,
                         tokenize)
from .metrics import EvalReport, classify_eval, margin_stats, p_at_1
from .tensor import activate, finite_diff, init_uniform, make_rng
from .training import (TrainConfig, TrainHistory, Triple, gradient_check,
                       hinge_loss, sgd_step, train)

__version__ = "0.1.0"
