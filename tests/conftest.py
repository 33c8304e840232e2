import pytest

from arcmatch.arc1 import Arc1Model
from arcmatch.arc2 import Arc2Model
from arcmatch.embeddings import random_embeddings, encode_sentence
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


def double_every_gradient(monkeypatch):
    """Make every model's backward return each parameter gradient doubled:
    a relative error of 1/3 wherever a gradient is live."""
    for cls in (Arc1Model, Arc2Model):
        def doubled(self, trace, upstream, backward=cls.backward):
            grads, dx, dy = backward(self, trace, upstream)
            return {name: 2.0 * g for name, g in grads.items()}, dx, dy
        monkeypatch.setattr(cls, "backward", doubled)
