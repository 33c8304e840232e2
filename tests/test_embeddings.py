import io

import numpy as np
import pytest

from arcmatch.embeddings import (RunStats, encode_sentence, load_embeddings,
                                 random_embeddings, tokenize)
from arcmatch.errors import DataError, ParseError
from arcmatch.tensor import make_rng

from conftest import small_table, table_row


def _src(text):
    return io.StringIO(text)


def test_load_counts_and_dim():
    table = load_embeddings(_src("2 3\nfoo 1 2 3\nbar 4 5 6\n"))
    assert table.vectors.shape == (3, 3)
    assert table.dim == 3
    assert len(table.vocab) == 3


def test_load_wrong_arity_reports_line():
    with pytest.raises(ParseError) as err:
        load_embeddings(_src("2 3\nfoo 1 2 3\nbar 4 5\n"))
    assert err.value.line == 3


def test_load_duplicate_token_reports_line():
    with pytest.raises(ParseError) as err:
        load_embeddings(_src("2 2\nfoo 1 2\nfoo 3 4\n"))
    assert err.value.line == 3


def test_load_malformed_header():
    with pytest.raises(ParseError):
        load_embeddings(_src("banana\nfoo 1 2\n"))
    with pytest.raises(ParseError):
        load_embeddings(_src("2\nfoo 1 2\n"))


def test_unk_is_mean_of_loaded_rows():
    table = load_embeddings(_src("3 2\na 1 2\nb 3 4\nc 5 0\n"))
    # independent summation
    want = [(1 + 3 + 5) / 3, (2 + 4 + 0) / 3]
    assert np.allclose(table.vectors[0], want, atol=1e-15)
    assert table.vectors[0].any()


def test_tokenize():
    assert tokenize("the cat sat") == ["the", "cat", "sat"]
    assert tokenize("  a  b ") == ["a", "b"]
    assert tokenize("") == []


def test_encode_pads_with_zero_rows():
    table = small_table()
    sent = encode_sentence(["w1", "w2", "w3"], table, 6)
    assert sent.length == 3
    assert not sent.x[3:].any()
    assert np.array_equal(sent.x[0], table_row(table, "w1"))


def test_encode_oov_maps_to_unk():
    table = small_table()
    sent = encode_sentence(["nosuchtoken"], table, 4)
    assert sent.ids == [0]
    assert np.array_equal(sent.x[0], table.vectors[0])


def test_encode_truncates_and_counts():
    table = small_table()
    stats = RunStats()
    sent = encode_sentence([f"w{i % 9}" for i in range(8)], table, 6, stats)
    assert sent.length == 6
    assert stats.truncated == 1
    assert stats.sentences == 1


def test_encode_empty_is_error():
    with pytest.raises(DataError):
        encode_sentence([], small_table(), 4)


def test_random_embeddings_rows_and_nonzero():
    table = random_embeddings([f"t{i}" for i in range(10)], 4, make_rng(0))
    assert table.vectors.shape == (11, 4)
    assert all(row.any() for row in table.vectors)


def test_random_embeddings_deterministic():
    a = random_embeddings({"b", "a", "c"}, 3, make_rng(7))
    b = random_embeddings(["c", "a", "b"], 3, make_rng(7))
    assert np.array_equal(a.vectors, b.vectors)
    assert a.vocab.index_to_token == b.vocab.index_to_token


def test_gate_fires_exactly_on_padding_rows():
    # g(row) == 0 iff the row is beyond the true length
    table = small_table()
    rng = make_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        tokens = [f"w{int(rng.integers(15))}" for _ in range(n)]
        sent = encode_sentence(tokens, table, 8)
        for r in range(8):
            is_zero = not sent.x[r].any()
            assert is_zero == (r >= sent.length)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_load_non_finite_value_reports_line(value):
    with pytest.raises(ParseError) as err:
        load_embeddings(_src(f"3 2\nfoo 1 2\nbar 3 {value}\nbaz 5 6\n"))
    assert err.value.line == 3
    assert "bar" in str(err.value)
