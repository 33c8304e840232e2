"""Negative sampling draws the same stream as one draw at a time.

Random mode draws each block of candidates with one rng.integers call,
and hard mode each negative's capped run of candidates; the properties
below hold both to the one-draw-at-a-time oracles of tests/reference.py,
outputs and generator state alike, on tiny corpora where self-draws,
duplicate y's and already-taken candidates are rejected often. The
digests pin every mode's outputs and generator states at fixed seeds,
so a numpy whose stream changes fails here rather than moving the
stochastic acceptance criteria.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arcmatch.data import (PairCorpus, gen_synthetic_corpus, make_eval_instances,
                           sample_negatives)
from arcmatch.embeddings import RunStats, random_embeddings
from arcmatch.errors import DataError
from arcmatch.tensor import make_rng

from reference import ref_hard_negative, ref_instances, ref_random_negative, ref_triples

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# y's from a pool of four short sentences, so equal y's are common; x is
# the pair's own index, so equal pairs still differ
tiny_corpus = st.lists(st.sampled_from(["a", "b", "a b", "b a"]), min_size=2,
                       max_size=9).map(
    lambda ys: PairCorpus(pairs=[([f"x{i}"], y.split()) for i, y in enumerate(ys)]))


def _random(corpus, rng):
    return lambda idx, taken: ref_random_negative(corpus.pairs, idx, rng, taken)


def _hard(corpus, table, rng, stats):
    return lambda idx, taken: ref_hard_negative(corpus.pairs, idx, table, rng, stats, taken)


def _outcome(fn, rng):
    """(result or the DataError's message, generator state afterwards)."""
    try:
        out = fn(rng)
    except DataError as err:
        out = ("DataError", str(err))
    return out, rng.bit_generator.state


@settings(PROPERTY)
@given(corpus=tiny_corpus, k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(corpus=PairCorpus(pairs=[(["p"], ["a"]), (["q"], ["a"])]), k=3, seed=0)
def test_random_triples_equal_one_draw_at_a_time(corpus, k, seed):
    def fast(rng):
        return [(t.x, t.y_pos, t.y_neg)
                for t in sample_negatives(corpus, k, "random", None, rng)]

    assert (_outcome(fast, make_rng(seed))
            == _outcome(lambda rng: ref_triples(corpus.pairs, k, _random(corpus, rng)),
                        make_rng(seed)))


@settings(PROPERTY)
@given(corpus=tiny_corpus, m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(corpus=PairCorpus(pairs=[(["p"], ["a"]), (["q"], ["b"]), (["r"], ["b"])]),
         m=1, seed=0)
def test_random_instances_equal_one_draw_at_a_time(corpus, m, seed):
    def fast(rng):
        return [(i.x, i.candidates, i.answer)
                for i in make_eval_instances(corpus, m, "random", None, rng)]

    assert (_outcome(fast, make_rng(seed))
            == _outcome(lambda rng: ref_instances(corpus.pairs, m, rng, _random(corpus, rng)),
                        make_rng(seed)))


# y's over three words with 2-d vectors from table_seed, so cosines spread
# and a negative is now accepted early, now a fallback after all the draws
hard_corpus = st.lists(st.sampled_from(["a", "b", "c", "a b", "b c", "c a b"]),
                       min_size=2, max_size=6).map(
    lambda ys: PairCorpus(pairs=[([f"x{i}"], y.split()) for i, y in enumerate(ys)]))
HARD_PROPERTY = settings(PROPERTY, max_examples=40)


def _hard_outcomes(fast, oracle, table_seed, seed):
    """_outcome of fast and of oracle, each with its fallback count."""
    table = random_embeddings(["a", "b", "c"], 2, make_rng(table_seed))
    outcomes = []
    for fn in (fast, oracle):
        stats = RunStats()
        outcomes.append((_outcome(lambda rng: fn(table, rng, stats), make_rng(seed)),
                         stats.hard_negative_fallbacks))
    return outcomes


@settings(HARD_PROPERTY)
@given(corpus=hard_corpus, k=st.integers(1, 3), table_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1))
@example(corpus=PairCorpus(pairs=[(["p"], ["a"]), (["q"], ["a"])]), k=2, table_seed=0, seed=0)
def test_hard_triples_equal_one_draw_at_a_time(corpus, k, table_seed, seed):
    def fast(table, rng, stats):
        return [(t.x, t.y_pos, t.y_neg)
                for t in sample_negatives(corpus, k, "hard", table, rng, stats)]

    def oracle(table, rng, stats):
        return ref_triples(corpus.pairs, k, _hard(corpus, table, rng, stats))

    got, want = _hard_outcomes(fast, oracle, table_seed, seed)
    assert got == want


@settings(HARD_PROPERTY)
@given(corpus=hard_corpus, m=st.integers(1, 3), table_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1))
def test_hard_instances_equal_one_draw_at_a_time(corpus, m, table_seed, seed):
    def fast(table, rng, stats):
        return [(i.x, i.candidates, i.answer)
                for i in make_eval_instances(corpus, m, "hard", table, rng, stats)]

    def oracle(table, rng, stats):
        return ref_instances(corpus.pairs, m, rng, _hard(corpus, table, rng, stats))

    got, want = _hard_outcomes(fast, oracle, table_seed, seed)
    assert got == want


def _digest(rows) -> str:
    return hashlib.sha256("\n".join("\t".join(map(str, row)) for row in rows)
                          .encode()).hexdigest()


def _triple_rows(triples):
    return [(" ".join(t.x), " ".join(t.y_pos), " ".join(t.y_neg)) for t in triples]


def _instance_rows(instances):
    return [(" ".join(i.x), i.answer, *(" ".join(c) for c in i.candidates))
            for i in instances]


def _state_rows(rngs):
    return [(s["state"]["state"], s["has_uint32"], s["uinteger"])
            for s in (rng.bit_generator.state for rng in rngs)]


# sha256 of the token lists of sample_negatives (k=3, or 1 for hard) and
# make_eval_instances (m=4, or 2 for hard) on a 40-pair synthetic corpus,
# recorded with the one-draw-at-a-time sampler (numpy 2.4.6, PCG64), the
# hard-negative fallbacks over both calls, and the sha256 of both
# generators' states afterwards
GOLDEN = {
    (101, "random"): ("1d9d69f7f707177402629d4d2b8d22722845cb9072dfbb482f3939035cbcd520",
                     "b99c7a7b46781c63a159b775c47d83c884a9afb5e43bd971528ec15936ec853c", 0,
                     "3107e7a0f90e7d32e5ac2c7c526e11f3d383acf048dd01a5b41cfed90d683ca4"),
    (101, "hard"): ("3dafa53e5f13fcb451624b448a54d8d08fe164cf39fac0b24a00628e56ab0af2",
                   "976007c11cbfd40cf975281f27bc02dac46c1cad70b4b625de2639ed3c27f9af", 47,
                   "eb018095f308a9cebb0ce64f1fdb9437366836ebd926c33f809881c64ec737c2"),
    (101, "shuffle"): ("2f00402956c085c353abf9f2e8073af3a1616b9136693dbf7ac6230f3f461823",
                      "11dc060e765f6738bee6a1c48b9ca7b93c0a67346ce940bec18d8f8fe14abdd7", 0,
                      "6a02c1862de86f82ba38268c94ad728d148efa474d435db5140fd8e3e944b780"),
    (202, "random"): ("28332cdbab8f54dc58fc99ce26f840ec483100384281889bf3b50d30b64c2cbc",
                     "76de89865c02f8192dc9fd82ab2f0d5d0e81fdb502e3f6dc0dec09883e9ae312", 0,
                     "3a0b4f7b57e5175ff2695ceb4fe85a8b6942619730b63938680ab29b54eb1b80"),
    (202, "hard"): ("8b13d97b83283a1c6e2676ab61804a79fc4df17c9fa4486c9cd4e75d68626753",
                   "344662e90ce92b11300eec06f9ed9b4a0b33c9dd304df924fad15d316c5d62e1", 43,
                   "c8b72fedc4301d1fe7a587aab389cb769545d7789a8d5b8e09aa4f377000d367"),
    (202, "shuffle"): ("b839246eb4830baeb972812281a61a11ee1ae5b571ec5d2f003dc341b49fb652",
                      "cedbc68c5278321add7b596c8f2bea3c801f8c1ec45988d7de1a917ab9a520c8", 0,
                      "1bb1c6bbe3d7081ac2cd88d94b9b75e77e91e8ae9c8458ad47bb1ee9e29ad5c5"),
}


@pytest.mark.parametrize("seed,mode", sorted(GOLDEN))
def test_sampled_token_lists_match_their_recorded_digests(seed, mode):
    corpus, tokens = gen_synthetic_corpus(40, 160, (7, 12), 5, make_rng(seed))
    table = random_embeddings(tokens, 8, make_rng(seed + 1))
    k, m = (1, 2) if mode == "hard" else (3, 4)
    stats = RunStats()
    rngs = make_rng(seed + 2), make_rng(seed + 3)
    triples = sample_negatives(corpus, k, mode, table, rngs[0], stats)
    instances = make_eval_instances(corpus, m, mode, table, rngs[1], stats)
    want_triples, want_instances, want_fallbacks, want_states = GOLDEN[seed, mode]
    assert _digest(_triple_rows(triples)) == want_triples
    assert _digest(_instance_rows(instances)) == want_instances
    assert stats.hard_negative_fallbacks == want_fallbacks
    assert _digest(_state_rows(rngs)) == want_states
