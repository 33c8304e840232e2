"""Encode-once: data.encode_triples and data.encode_instances build one
EncodedSentence per distinct token list and share it among every triple
or instance that holds the list.

Sharing must change nothing a caller can observe: every matrix equals
encode_sentence's, RunStats counts every occurrence, and SGD steps,
validation and training runs over shared sentences equal, bit for bit,
the same runs over sentences encoded one occurrence at a time. A
sentence holds word ids, so whatever changes the table, every sharer
reads the table as it is.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcmatch.data import (RankingInstance, Triple, encode_instances, encode_triples,
                           gen_synthetic_corpus, make_eval_instances, sample_negatives)
from arcmatch.embeddings import EmbeddingTable, RunStats, encode_sentence, random_embeddings
from arcmatch.errors import DataError
from arcmatch.models import KINDS, MODEL_KINDS, build_model, param_vector
from arcmatch.tensor import make_rng
from arcmatch.training import TrainConfig, score_instances, sgd_step, train

MAX_LEN = 9
DIM = 4


def _corpus(n_pairs, seed=0):
    corpus, tokens = gen_synthetic_corpus(n_pairs, 160, (7, 12), 5, make_rng(seed))
    return corpus, random_embeddings(tokens, DIM, make_rng(seed + 1))


def _side_by_side_triples(token_triples, table, max_len, stats=None):
    """The per-occurrence encoding: one fresh matrix for every slot."""
    return [Triple(x=encode_sentence(t.x, table, max_len, stats),
                   y_pos=encode_sentence(t.y_pos, table, max_len, stats),
                   y_neg=encode_sentence(t.y_neg, table, max_len, stats))
            for t in token_triples]


def _side_by_side_instances(instances, table, max_len, stats=None):
    return [RankingInstance(x=encode_sentence(inst.x, table, max_len, stats),
                            candidates=[encode_sentence(c, table, max_len, stats)
                                        for c in inst.candidates],
                            answer=inst.answer)
            for inst in instances]


def _slots(triples):
    return [s for t in triples for s in (t.x, t.y_pos, t.y_neg)]


def _copy(table):
    return EmbeddingTable(table.vocab, table.dim, table.vectors.copy())


def test_equal_token_lists_share_one_sentence_and_unequal_ones_do_not():
    corpus, table = _corpus(40)
    token_triples = sample_negatives(corpus, 5, "random", None, make_rng(2))
    encoded = encode_triples(token_triples, table, MAX_LEN)
    by_tokens = {}
    for tokens, sent in zip(_slots(token_triples), _slots(encoded)):
        by_tokens.setdefault(tuple(tokens), set()).add(id(sent))
    assert all(len(ids) == 1 for ids in by_tokens.values())
    assert len({i for ids in by_tokens.values() for i in ids}) == len(by_tokens)
    assert len(by_tokens) < len(_slots(token_triples))  # sharing happened
    # a list equal to another triple's list on a different side is shared too
    a, b = Triple(["p", "q"], ["r"], ["s"]), Triple(["r"], ["p", "q"], ["r", "s"])
    ea, eb = encode_triples([a, b], table, MAX_LEN)
    assert ea.x is eb.y_pos and ea.y_pos is eb.x
    assert eb.y_neg is not ea.y_pos and eb.y_neg is not ea.y_neg

    instances = make_eval_instances(corpus, 4, "random", None, make_rng(3))
    enc = encode_instances(instances, table, MAX_LEN)
    seen = {}
    for inst, e in zip(instances, enc):
        for tokens, sent in zip([inst.x, *inst.candidates], [e.x, *e.candidates]):
            assert seen.setdefault(tuple(tokens), sent) is sent
    assert len({id(s) for s in seen.values()}) == len(seen)


def test_shared_matrices_equal_encode_sentence_bitwise():
    corpus, table = _corpus(40)
    token_triples = sample_negatives(corpus, 5, "shuffle", None, make_rng(4))
    for max_len in (6, MAX_LEN, 13):  # 6 truncates, 13 pads every sentence
        for tokens, sent in zip(_slots(token_triples),
                                _slots(encode_triples(token_triples, table, max_len))):
            want = encode_sentence(tokens, table, max_len)
            assert sent.ids == want.ids and sent.length == want.length
            assert sent.x.dtype == want.x.dtype and np.array_equal(sent.x, want.x)


def test_run_stats_count_every_occurrence_including_truncated():
    corpus, table = _corpus(40)
    token_triples = sample_negatives(corpus, 5, "random", None, make_rng(5))
    instances = make_eval_instances(corpus, 4, "random", None, make_rng(6))
    max_len = 9  # lengths 7-12: some sentences are truncated
    shared, per_slot = RunStats(), RunStats()
    encode_triples(token_triples, table, max_len, shared)
    _side_by_side_triples(token_triples, table, max_len, per_slot)
    encode_instances(instances, table, max_len, shared)
    _side_by_side_instances(instances, table, max_len, per_slot)
    assert shared == per_slot
    assert 0 < shared.truncated < shared.sentences
    assert shared.sentences == 3 * len(token_triples) + 6 * len(instances)


def test_encoding_checks_still_run():
    _, table = _corpus(10)
    with pytest.raises(DataError):
        encode_triples([Triple(["a"], [], ["b"])], table, MAX_LEN)
    with pytest.raises(DataError):
        encode_triples([Triple(["a"], ["b"], ["c"])], table, 0)
    assert encode_triples([], table, 0) == []


def test_an_encoding_error_leaves_the_counts_of_the_slots_before_it():
    _, table = _corpus(10)
    long = ["a"] * (MAX_LEN + 3)
    stats = RunStats()
    with pytest.raises(DataError, match="empty"):
        encode_triples([Triple(long, ["b"], ["c"]), Triple(long, ["b"], [])],
                       table, MAX_LEN, stats)
    assert (stats.sentences, stats.truncated) == (5, 2)


SETTINGS = {
    "frozen": dict(finetune_embeddings=False, dropout=0.0, activation="relu"),
    "finetune_dropout": dict(finetune_embeddings=True, dropout=0.3, activation="sigmoid"),
}


def _model(kind, setting):
    flags = dict(embed_dim=DIM, max_len=MAX_LEN, dropout=setting["dropout"],
                 activation=setting["activation"], **KINDS[kind].gradcheck)
    model = build_model(kind, flags, make_rng(7))
    model.head.weights[-1] *= 20.0  # spread the scores: some hinges met, some not
    return model


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_sgd_step_over_shared_triples_equals_side_by_side(kind, setting):
    s = SETTINGS[setting]
    corpus, table = _corpus(30)
    token_triples = sample_negatives(corpus, 6, "random", None, make_rng(8))
    shared = encode_triples(token_triples, table, MAX_LEN)
    apart = _side_by_side_triples(token_triples, table, MAX_LEN)
    assert len({id(x) for x in _slots(shared)}) < len({id(x) for x in _slots(apart)})
    cfg = TrainConfig(learning_rate=0.3, batch_size=40,
                      finetune_embeddings=s["finetune_embeddings"])
    runs = []
    for triples in (shared, apart):
        model, tab, rng = _model(kind, s), _copy(table), make_rng(9)
        order = make_rng(10).permutation(len(triples))
        losses = [sgd_step(model, [triples[i] for i in order[b:b + cfg.batch_size]],
                           cfg, rng, tab)
                  for b in range(0, 4 * cfg.batch_size, cfg.batch_size)]
        runs.append((losses, param_vector(model), tab.vectors))
    (l1, p1, t1), (l2, p2, t2) = runs
    assert l1 == l2 and any(l1) and np.array_equal(p1, p2) and np.array_equal(t1, t2)
    if s["finetune_embeddings"]:
        assert not np.array_equal(t1, table.vectors)


@pytest.mark.parametrize("kind", ["arc1", "arc2"])
def test_training_run_over_shared_sentences_equals_side_by_side(kind):
    """train() with fine-tuning: validation reads shared sentences from
    the moving table, and the history, parameters and table must come out
    as they do when every occurrence has its own sentence."""
    setting = SETTINGS["finetune_dropout"]
    corpus, table = _corpus(40)
    token_triples = sample_negatives(corpus, 3, "random", None, make_rng(11))
    val = make_eval_instances(corpus, 4, "random", None, make_rng(12))
    cfg = TrainConfig(learning_rate=0.3, batch_size=20, max_epochs=2, patience=50,
                      eval_every=2, finetune_embeddings=True)
    runs = []
    for encode_t, encode_i in ((encode_triples, encode_instances),
                               (_side_by_side_triples, _side_by_side_instances)):
        tab = _copy(table)
        model, history = train(_model(kind, setting), encode_t(token_triples, tab, MAX_LEN),
                               encode_i(val, tab, MAX_LEN), cfg, table=tab)
        runs.append((history.records, history.best_index, param_vector(model), tab.vectors))
    (h1, b1, p1, t1), (h2, b2, p2, t2) = runs
    assert h1 == h2 and b1 == b2 and np.array_equal(p1, p2) and np.array_equal(t1, t2)
    assert len({rec[3] for rec in h1}) > 1  # validation P@1 moved as the table did


def test_a_sentence_matrix_is_read_only_and_the_table_is_not_compared():
    _, table = _corpus(10)
    sent = encode_sentence(["a", "b"], table, MAX_LEN)
    with pytest.raises(ValueError, match="read-only"):
        sent.x[0, 0] = 1.0
    assert sent.x is not sent.x  # built anew on each access
    assert sent == encode_sentence(["a", "b"], _copy(table), MAX_LEN)
    assert "table" not in repr(sent)


@functools.cache
def _property_instances():
    """Token instances whose sentences are shared, and the table rows they read."""
    corpus, table = _corpus(12, seed=15)
    instances = make_eval_instances(corpus, 3, "random", None, make_rng(16))
    slots = [s for inst in instances for s in (inst.x, *inst.candidates)]
    assert len({tuple(s) for s in slots}) < len(slots)
    used = sorted(set(table.vocab.indices(t for s in slots for t in s[:MAX_LEN])))
    return instances, table, used


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(changes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, DIM - 1),
                                  st.floats(-2.0, 2.0)), min_size=1, max_size=12))
def test_scores_read_the_table_as_changed_in_place(kind, changes):
    """Fine-tuning writes into table.vectors; stacked scores, per-pair
    scores and scores of sentences encoded anew must all read the change."""
    token_instances, table, used = _property_instances()
    model = _model(kind, SETTINGS["frozen"])
    tab = _copy(table)
    encoded = encode_instances(token_instances, tab, MAX_LEN)
    for row, col, value in changes:
        tab.vectors[used[row % len(used)], col] = value
    stacked = score_instances(model, encoded)
    per_pair = [[model.score(inst.x, c)[0] for c in inst.candidates] for inst in encoded]
    anew = [[model.score(inst.x, c)[0] for c in inst.candidates]
            for inst in _side_by_side_instances(token_instances, tab, MAX_LEN)]
    assert stacked.tobytes() == np.array(per_pair).tobytes() == np.array(anew).tobytes()


def test_readme_sized_triples_hold_one_sentence_per_distinct_token_list():
    """The README corpus: 1,600 training pairs with 10 random negatives.

    Encoding each of the 48,000 sentence slots on its own, with a matrix
    each, peaked at 94 MB of traced allocations, and one matrix per
    distinct sentence at 12.6 MB; word ids alone peak at about 4 MB.
    """
    corpus, tokens = gen_synthetic_corpus(2000, 400, (7, 12), 10, make_rng(0))
    corpus.pairs = corpus.pairs[:1600]
    table = random_embeddings(tokens, 16, make_rng(1))
    token_triples = sample_negatives(corpus, 10, "random", None, make_rng(2))
    distinct = {tuple(tokens) for tokens in _slots(token_triples)}
    assert len(token_triples) == 16000 and len(distinct) == 3200
    tracemalloc.start()
    try:
        triples = encode_triples(token_triples, table, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(s) for s in _slots(triples)}) == len(distinct)
    assert peak < 8 * 2**20, f"encode_triples peaked at {peak / 2**20:.1f} MB"
