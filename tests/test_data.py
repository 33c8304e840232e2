import io
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from arcmatch.data import (HARD_BAND, PairCorpus, RunStats, gen_synthetic_corpus, load_pairs,
                           make_eval_instances, sample_negatives)
from arcmatch.embeddings import open_text, random_embeddings
from arcmatch.errors import ConfigError, DataError, ParseError
from arcmatch.metrics import p_at_1
from arcmatch.tensor import make_rng

from conftest import table_row


def test_load_pairs_basic():
    corpus = load_pairs(io.StringIO("a b\tc d\n"))
    assert corpus.pairs == [(["a", "b"], ["c", "d"])]


def test_load_pairs_missing_tab_reports_line():
    with pytest.raises(ParseError) as err:
        load_pairs(io.StringIO("a b\n"))
    assert err.value.line == 1


def test_load_pairs_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.pairs"
    path.write_bytes(b"a b\tc d\n" * 3 + b"a \xff\tc\n" + b"a\tb\n" * 3000)
    with open_text(path) as fh, pytest.raises(ParseError) as err:
        load_pairs(fh)
    assert err.value.line == 4
    # a strictly decoding file fails a whole buffer ahead: still a ParseError
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="not UTF-8"):
        load_pairs(fh)


def test_load_pairs_counts_lines():
    corpus = load_pairs(io.StringIO("a\tb\nc\td\ne\tf\n"))
    assert len(corpus) == 3


def test_load_pairs_empty_side_is_error():
    with pytest.raises(ParseError):
        load_pairs(io.StringIO("a \t\n"))


def _corpus(n=30, seed=0):
    rng = make_rng(seed)
    corpus, tokens = gen_synthetic_corpus(n, 160, (7, 12), 5, rng)
    return corpus, tokens


def test_sample_negatives_ten_per_positive():
    corpus, _ = _corpus(600)
    triples = sample_negatives(corpus, 10, "random", None, make_rng(1))
    assert len(triples) == 6000


def test_random_negatives_differ_from_positive():
    corpus, _ = _corpus()
    triples = sample_negatives(corpus, 5, "random", None, make_rng(2))
    assert all(t.y_neg != t.y_pos for t in triples)


def test_shuffle_negative_is_a_permutation():
    corpus, _ = _corpus()
    triples = sample_negatives(corpus, 3, "shuffle", None, make_rng(3))
    for t in triples:
        assert sorted(t.y_neg) == sorted(t.y_pos)
        assert t.y_neg != t.y_pos


def test_shuffle_single_token_sentences_skipped_with_counter():
    corpus = PairCorpus(pairs=[(["a"], ["b"]), (["c"], ["d"])])
    stats = RunStats()
    triples = sample_negatives(corpus, 2, "shuffle", None, make_rng(4), stats)
    assert triples == []
    assert stats.shuffle_skipped == 4


def test_hard_negatives_band_recomputed_independently():
    corpus, tokens = _corpus(120, seed=8)
    table = random_embeddings(tokens, 8, make_rng(9))
    stats = RunStats()
    triples = sample_negatives(corpus, 1, "hard", table, make_rng(10), stats)
    assert triples
    assert stats.hard_negatives == len(corpus.pairs)
    n_in_band = 0
    lo, hi = HARD_BAND
    for t in triples:
        # independent cosine recomputation
        def vec(tokens):
            v = np.zeros(8)
            for tok in tokens:
                v += table_row(table, tok)
            return v

        u, v = vec(t.y_pos), vec(t.y_neg)
        c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        in_band = lo - 1e-12 <= c <= hi + 1e-12
        n_in_band += in_band
    # fallbacks are allowed but must be reported; everything else in band
    assert n_in_band + stats.hard_negative_fallbacks == len(triples)
    assert n_in_band > 0  # the synthetic corpus offers in-band candidates


def test_hard_mode_requires_table():
    corpus, _ = _corpus()
    with pytest.raises(DataError):
        sample_negatives(corpus, 1, "hard", None, make_rng(0))


def test_tiny_corpus_cannot_sample():
    corpus = PairCorpus(pairs=[(["a"], ["b"])])
    with pytest.raises(DataError):
        sample_negatives(corpus, 1, "random", None, make_rng(0))


def test_eval_instances_shape_and_answer():
    corpus, _ = _corpus(40)
    instances = make_eval_instances(corpus, 4, "random", None, make_rng(11))
    assert instances
    for inst in instances:
        assert len(inst.candidates) == 5
        assert len({tuple(c) for c in inst.candidates}) == 5
        # the recorded answer really is the positive y
        found = [i for i, (x, y) in enumerate(corpus.pairs)
                 if y == inst.candidates[inst.answer] and x == inst.x]
        assert found


def test_eval_instances_deterministic_in_seed():
    corpus, _ = _corpus(25)
    a = make_eval_instances(corpus, 4, "random", None, make_rng(12))
    b = make_eval_instances(corpus, 4, "random", None, make_rng(12))
    c = make_eval_instances(corpus, 4, "random", None, make_rng(13))
    assert [i.candidates for i in a] == [i.candidates for i in b]
    assert [i.candidates for i in a] != [i.candidates for i in c]


def test_synthetic_topics_roughly_balanced():
    rng = make_rng(14)
    corpus, _ = gen_synthetic_corpus(1000, 250, (7, 12), 10, rng)
    counts = Counter()
    for x, _ in corpus.pairs:
        topical = [t for t in x if t.startswith("t")]
        assert topical
        counts[topical[0].split("w")[0]] += 1
    assert len(counts) == 10
    for topic, n in counts.items():
        assert 50 <= n <= 150, (topic, n)


def test_synthetic_pairs_share_topic_cross_pairs_do_not():
    corpus, _ = _corpus(60, seed=15)

    def topical(tokens):
        return {t for t in tokens if t[0] in ("t", "r")}

    def topic_of(tokens):
        tops = {t.split("w")[0].lstrip("tr") for t in topical(tokens)}
        assert len(tops) == 1
        return tops.pop()

    for x, y in corpus.pairs:
        assert topic_of(x) == topic_of(y)
        assert len(set(x) & set(y)) >= 2  # echoed topic words
    # cross-topic pairs share no topical tokens
    for (x1, _), (_, y2) in zip(corpus.pairs, corpus.pairs[1:]):
        if topic_of(x1) != topic_of(y2):
            assert not (topical(x1) & topical(y2))


def test_synthetic_deterministic():
    a, _ = gen_synthetic_corpus(50, 160, (7, 12), 5, make_rng(16))
    b, _ = gen_synthetic_corpus(50, 160, (7, 12), 5, make_rng(16))
    assert a.pairs == b.pairs


def test_synthetic_too_small_vocab_is_config_error():
    with pytest.raises(ConfigError):
        gen_synthetic_corpus(10, 30, (7, 12), 5, make_rng(0))
    with pytest.raises(ConfigError):
        gen_synthetic_corpus(10, 300, (7, 12), 1, make_rng(0))


def _bag_overlap_score(x_tokens, y_tokens) -> float:
    """Order-blind sanity scorer: size of the shared token set."""
    return float(len(set(x_tokens) & set(y_tokens)))


def test_bag_overlap_separates_random_but_not_shuffle():
    rng = make_rng(17)
    corpus, _ = gen_synthetic_corpus(400, 400, (7, 12), 10, rng)
    random_inst = make_eval_instances(corpus, 4, "random", None, make_rng(18))
    shuffle_inst = make_eval_instances(corpus, 4, "shuffle", None, make_rng(19))

    report_random = p_at_1(_bag_overlap_score, random_inst)
    report_shuffle = p_at_1(_bag_overlap_score, shuffle_inst)
    assert report_random.value > 0.9
    assert report_shuffle.value <= 0.25


@pytest.mark.parametrize("text,line", [
    ("a\tb\tc\n", 1),
    ("a b\tc\n\n \t \nd\t\te\n", 4),
    ("a\t \nb\tc\td\n", 1),
], ids=["labeled line", "extra TAB after blank lines", "earlier empty side first"])
def test_load_pairs_wrong_column_count_or_empty_side_names_the_line(text, line):
    with pytest.raises(ParseError) as err:
        load_pairs(io.StringIO(text))
    assert err.value.line == line


def test_read_rows_without_a_column_count_keeps_every_column():
    from arcmatch.data import read_rows

    numbers, rows = read_rows(io.StringIO("a b\tc\t1\n\n\t\nd\n e \t\tf g\t\n"))
    assert numbers == [1, 4, 5]
    assert rows == [(["a", "b"], ["c"], ["1"]), (["d"],), (["e"], [], ["f", "g"], [])]


def test_data_imports_only_embeddings_and_errors():
    import arcmatch
    src = os.path.dirname(os.path.dirname(arcmatch.__file__))
    probe = ("import sys, arcmatch.data; "
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('arcmatch'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["arcmatch", "arcmatch.data", "arcmatch.embeddings",
                           "arcmatch.errors"]
