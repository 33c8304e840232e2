"""Negative sampling draws the same stream as one draw at a time.

Random mode draws each block of candidates with one rng.integers call;
the properties below hold it to the one-draw-at-a-time oracle of
tests/reference.py, outputs and generator state alike, on tiny corpora
where self-draws, duplicate y's and already-taken candidates are
rejected often. The digests pin every mode's outputs at fixed seeds, so
a numpy whose stream changes fails here rather than moving the
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

from reference import ref_random_instances, ref_random_triples

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# y's from a pool of four short sentences, so equal y's are common; x is
# the pair's own index, so equal pairs still differ
tiny_corpus = st.lists(st.sampled_from(["a", "b", "a b", "b a"]), min_size=2,
                       max_size=9).map(
    lambda ys: PairCorpus(pairs=[([f"x{i}"], y.split()) for i, y in enumerate(ys)]))


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
            == _outcome(lambda rng: ref_random_triples(corpus.pairs, k, rng), make_rng(seed)))


@settings(PROPERTY)
@given(corpus=tiny_corpus, m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(corpus=PairCorpus(pairs=[(["p"], ["a"]), (["q"], ["b"]), (["r"], ["b"])]),
         m=1, seed=0)
def test_random_instances_equal_one_draw_at_a_time(corpus, m, seed):
    def fast(rng):
        return [(i.x, i.candidates, i.answer)
                for i in make_eval_instances(corpus, m, "random", None, rng)]

    assert (_outcome(fast, make_rng(seed))
            == _outcome(lambda rng: ref_random_instances(corpus.pairs, m, rng), make_rng(seed)))


def _digest(rows) -> str:
    return hashlib.sha256("\n".join("\t".join(map(str, row)) for row in rows)
                          .encode()).hexdigest()


def _triple_rows(triples):
    return [(" ".join(t.x), " ".join(t.y_pos), " ".join(t.y_neg)) for t in triples]


def _instance_rows(instances):
    return [(" ".join(i.x), i.answer, *(" ".join(c) for c in i.candidates))
            for i in instances]


# sha256 of the token lists of sample_negatives (k=3, or 1 for hard) and
# make_eval_instances (m=4, or 2 for hard) on a 40-pair synthetic corpus,
# recorded with the one-draw-at-a-time sampler (numpy 2.4.6, PCG64), and
# the hard-negative fallbacks over both calls
GOLDEN = {
    (101, "random"): ("1d9d69f7f707177402629d4d2b8d22722845cb9072dfbb482f3939035cbcd520",
                     "b99c7a7b46781c63a159b775c47d83c884a9afb5e43bd971528ec15936ec853c", 0),
    (101, "hard"): ("3dafa53e5f13fcb451624b448a54d8d08fe164cf39fac0b24a00628e56ab0af2",
                   "976007c11cbfd40cf975281f27bc02dac46c1cad70b4b625de2639ed3c27f9af", 47),
    (101, "shuffle"): ("2f00402956c085c353abf9f2e8073af3a1616b9136693dbf7ac6230f3f461823",
                      "11dc060e765f6738bee6a1c48b9ca7b93c0a67346ce940bec18d8f8fe14abdd7", 0),
    (202, "random"): ("28332cdbab8f54dc58fc99ce26f840ec483100384281889bf3b50d30b64c2cbc",
                     "76de89865c02f8192dc9fd82ab2f0d5d0e81fdb502e3f6dc0dec09883e9ae312", 0),
    (202, "hard"): ("8b13d97b83283a1c6e2676ab61804a79fc4df17c9fa4486c9cd4e75d68626753",
                   "344662e90ce92b11300eec06f9ed9b4a0b33c9dd304df924fad15d316c5d62e1", 43),
    (202, "shuffle"): ("b839246eb4830baeb972812281a61a11ee1ae5b571ec5d2f003dc341b49fb652",
                      "cedbc68c5278321add7b596c8f2bea3c801f8c1ec45988d7de1a917ab9a520c8", 0),
}


@pytest.mark.parametrize("seed,mode", sorted(GOLDEN))
def test_sampled_token_lists_match_their_recorded_digests(seed, mode):
    corpus, tokens = gen_synthetic_corpus(40, 160, (7, 12), 5, make_rng(seed))
    table = random_embeddings(tokens, 8, make_rng(seed + 1))
    k, m = (1, 2) if mode == "hard" else (3, 4)
    stats = RunStats()
    triples = sample_negatives(corpus, k, mode, table, make_rng(seed + 2), stats)
    instances = make_eval_instances(corpus, m, mode, table, make_rng(seed + 3), stats)
    want_triples, want_instances, want_fallbacks = GOLDEN[seed, mode]
    assert _digest(_triple_rows(triples)) == want_triples
    assert _digest(_instance_rows(instances)) == want_instances
    assert stats.hard_negative_fallbacks == want_fallbacks
