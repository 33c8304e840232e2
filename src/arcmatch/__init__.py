"""Convolutional sentence-matching engine.

Two matching architectures built on a gated convolutional sentence model:
arc1 encodes each sentence separately and compares the vectors with an
MLP; arc2 convolves all segment pairs of the two sentences into an
interaction grid and composes it with 2D pooling and convolution. Training
uses a margin ranking loss over (x, y+, y-) triples with mini-batch SGD.

Each name below is imported from its module on first use, so importing one
module (arcmatch.data, say) loads only the modules that it imports.
"""

import importlib

_EXPORTS = {
    "arc1": "Arc1Model build_arc1",
    "arc2": "Arc2Model build_arc2 embed_arc1_as_arc2",
    "baselines": "SenMlpModel SennaModel WordEmbedModel build_senmlp build_senna "
                 "build_wordembed",
    "checkpoint": "load_checkpoint save_checkpoint",
    "conv_sentence": "SentenceModelConfig SentenceModelParams conv1d_gated encode "
                     "encode_backward init_sentence_params maxpool1d",
    "data": "PairCorpus RankingInstance Triple encode_instances encode_triples "
            "gen_synthetic_corpus load_pairs make_eval_instances sample_negatives "
            "save_pairs",
    "embeddings": "EmbeddingTable EncodedSentence Vocabulary encode_sentence "
                  "load_embeddings random_embeddings tokenize",
    "metrics": "EvalReport classify_eval margin_stats p_at_1 rank_report",
    "tensor": "activate init_uniform make_rng",
    "training": "TrainConfig TrainHistory gradient_check hinge_loss score_instances sgd_step "
                "train",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
