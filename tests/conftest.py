import numpy as np
import pytest

from arcmatch.embeddings import EncodedSentence, random_embeddings, encode_sentence
from arcmatch.tensor import make_rng


@pytest.fixture
def rng():
    return make_rng(1234)


def small_table(dim=4, n_tokens=15, seed=5):
    return random_embeddings([f"w{i}" for i in range(n_tokens)], dim, make_rng(seed))


def table_row(table, token):
    return table.vectors[table.vocab.indices([token])[0]]


def random_sentence(table, max_len, rng, min_len=2, max_tokens=None):
    hi = max_tokens if max_tokens is not None else max_len
    length = int(rng.integers(min_len, hi + 1))
    names = table.vocab.index_to_token[1:]
    tokens = [names[int(rng.integers(len(names)))] for _ in range(length)]
    return encode_sentence(tokens, table, max_len)


def sentence_from_matrix(x):
    """Hand-built sentence wrapper for tests that craft x directly."""
    return EncodedSentence(ids=[0] * x.shape[0], length=x.shape[0],
                          x=np.asarray(x, dtype=np.float64))
