"""Corpus handling: pair files, negative sampling, ranking instances, and
a synthetic desk-scale matching task.

Negative modes:
  random  - another pair's y, drawn uniformly;
  hard    - candidates filtered to 0.7..0.8 cosine similarity between
            summed word vectors (closest-to-0.75 fallback after a capped
            number of draws);
  shuffle - a permutation of the positive y's own tokens, so only word
            order separates it from the truth.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# unused encode_sentence: perfbench/tracer.py wraps it here, and fails if it is missing
from .embeddings import (EmbeddingTable, RunStats, encode_block, encode_sentence,
                         numbered_lines, tokenize)
from .errors import ConfigError, DataError, ParseError

HARD_NEGATIVE_DRAW_CAP = 1000
HARD_BAND = (0.7, 0.8)


@dataclass
class PairCorpus:
    pairs: list  # (x_tokens, y_tokens)
    provenance: str = ""

    def __len__(self):
        return len(self.pairs)


# Both records hold token lists as sampled, and EncodedSentences once
# encode_triples / encode_instances have encoded them.
@dataclass
class Triple:
    x: list
    y_pos: list
    y_neg: list


@dataclass
class RankingInstance:
    x: list
    candidates: list  # m+1 distinct sentences
    answer: int       # index of the true y


def read_rows(source, columns=None, what="row"):
    """(line numbers, rows) of source's non-blank lines; a row holds the
    token lists of a line's TAB-separated columns. With columns, a line of
    another column count or with an empty column is a ParseError naming
    the first such line. The loop only cuts at TABs; one map tokenizes
    every cell (a map per line made load_pairs about 15% slower)."""
    numbers, widths, cells = [], [], []
    try:
        for lineno, line in numbered_lines(source):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != (columns or len(cols)):
                raise ParseError(f"{what} line has {len(cols)} columns, expected {columns}",
                                 line=lineno)
            numbers.append(lineno)
            widths.append(len(cols))
            cells += cols
    finally:  # so that an earlier line's empty column is reported first
        tokens = list(map(tokenize, cells))
        if columns and [] in tokens:
            raise ParseError(f"{what} line has an empty side",
                             line=numbers[tokens.index([]) // columns])
    if columns:
        return numbers, list(zip(*[iter(tokens)] * columns))
    tokens = iter(tokens)
    return numbers, [tuple(itertools.islice(tokens, width)) for width in widths]


def load_pairs(source, provenance: str = "") -> PairCorpus:
    """One pair per line: x-tokens TAB y-tokens."""
    return PairCorpus(pairs=read_rows(source, 2, "pair")[1], provenance=provenance)


def save_pairs(corpus: PairCorpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in corpus.pairs:
            fh.write(" ".join(x) + "\t" + " ".join(y) + "\n")


def _sumvec(tokens, table: EmbeddingTable) -> np.ndarray:
    return table.vectors[table.vocab.indices(tokens)].sum(axis=0)


def _cosine(a, b) -> float:
    """Cosine of two (vector, norm) pairs; 0 when either norm is 0."""
    (u, nu), (v, nv) = a, b
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def _random_negatives(ys, pairs, k, rng, taken=None) -> list:
    """For each pair index idx in pairs, k negatives: ys[j] for uniform
    draws j, rejecting j == idx, ys[idx] itself and (with one pair) any
    tuple in taken, which grows by each negative.

    The draws, and the generator's state after them, are those of drawing
    one j at a time through the pairs: rng.integers(n, size=c) yields the
    values, and leaves the state, of c scalar draws. So the draws are
    fetched in blocks, none longer than the count of negatives still to
    draw, nor than the tries left to the negative being drawn (100 n).
    """
    n = len(ys)
    cap = 100 * max(n, 2)
    out, draws, left = [], iter(()), k * len(pairs)
    for idx in pairs:
        y_pos, got, tries = ys[idx], [], 0
        while len(got) < k:
            j = next(draws, None)
            if j is None:
                draws = iter(rng.integers(n, size=min(left, cap - tries)).tolist())
                continue
            cand = ys[j]
            if j == idx or cand == y_pos or taken is not None and tuple(cand) in taken:
                tries += 1
                if tries == cap:
                    raise DataError("corpus too small to draw a distinct random negative")
                continue
            got.append(cand)
            left, tries = left - 1, 0
            if taken is not None:
                taken.add(tuple(cand))
        out.append(got)
    return out


def _shuffle_negative(y_pos, rng, stats: RunStats | None, taken=()):
    """A permutation of y_pos's tokens; None when it must be skipped."""
    if len(y_pos) < 2 or len(set(y_pos)) < 2:
        if stats is not None:
            stats.shuffle_skipped += 1
        return None
    for _ in range(200):
        perm = list(rng.permutation(len(y_pos)))
        cand = [y_pos[i] for i in perm]
        if cand != y_pos and tuple(cand) not in taken:
            return cand
    if stats is not None:
        stats.shuffle_skipped += 1
    return None


def _hard_negative(ys, idx, summed, rng, stats: RunStats | None, taken=()):
    """The first drawn y whose cosine to ys[idx] is in HARD_BAND, else the
    closest to the band's middle after HARD_NEGATIVE_DRAW_CAP draws.

    The cap's draws come from one rng.integers call. When draw i is
    accepted, the generator is rewound and draws i + 1 again, so it ends
    where drawing one at a time would (see _random_negatives)."""
    n, y_pos = len(ys), ys[idx]
    ref = summed(idx)
    best, best_gap = None, np.inf
    lo, hi = HARD_BAND
    if stats is not None:
        stats.hard_negatives += 1
    state = rng.bit_generator.state
    for i, j in enumerate(rng.integers(n, size=HARD_NEGATIVE_DRAW_CAP).tolist()):
        cand = ys[j]
        if j == idx or cand == y_pos or tuple(cand) in taken:
            continue
        c = _cosine(ref, summed(j))
        if lo <= c <= hi:
            rng.bit_generator.state = state
            rng.integers(n, size=i + 1)
            return cand
        gap = abs(c - (lo + hi) / 2.0)
        if gap < best_gap:
            best, best_gap = cand, gap
    if best is None:
        raise DataError("corpus too small to draw a distinct hard negative")
    if stats is not None:
        stats.hard_negative_fallbacks += 1
    return best


def _sampler(corpus: PairCorpus, mode: str, table: EmbeddingTable | None,
             rng: np.random.Generator, stats: RunStats | None):
    """draw(pairs, k, taken=None) -> per pair index in pairs, its
    negatives in the order drawn.

    Random mode fills all k or raises. The other modes draw one at a time;
    one that must be skipped is left out, and with taken (one pair, whose
    negatives must all be distinct) drawing stops there.
    """
    ys = [y for _, y in corpus.pairs]
    if mode == "random":
        return lambda pairs, k, taken=None: _random_negatives(ys, pairs, k, rng, taken)
    if mode == "shuffle":
        def one(idx, taken):
            return _shuffle_negative(ys[idx], rng, stats, taken)
    elif mode == "hard":
        if table is None:
            raise DataError("hard-negative sampling requires an embedding table")

        @functools.cache
        def summed(j):
            """ys[j]'s summed word vector and its norm, once per call."""
            u = _sumvec(ys[j], table)
            return u, np.linalg.norm(u)

        def one(idx, taken):
            return _hard_negative(ys, idx, summed, rng, stats, taken)
    else:
        raise ConfigError(f"unknown negative-sampling mode {mode!r}")

    def negatives(idx, k, taken):
        out = []
        for _ in range(k):
            y_neg = one(idx, () if taken is None else taken)
            if y_neg is None:
                if taken is None:
                    continue
                break
            out.append(y_neg)
            if taken is not None:
                taken.add(tuple(y_neg))
        return out

    return lambda pairs, k, taken=None: [negatives(idx, k, taken) for idx in pairs]


def sample_negatives(corpus: PairCorpus, per_positive: int, mode: str,
                     table: EmbeddingTable | None, rng: np.random.Generator,
                     stats: RunStats | None = None) -> list:
    """Token-level triples: per positive pair, per_positive negatives
    (fewer where shuffle or hard mode must skip one)."""
    if per_positive < 1:
        raise ConfigError(f"training needs at least 1 negative per pair, got {per_positive}")
    if len(corpus.pairs) < 2:
        raise DataError("need at least 2 pairs to sample negatives")
    draw = _sampler(corpus, mode, table, rng, stats)
    return [Triple(x=x, y_pos=y_pos, y_neg=y_neg)
            for (x, y_pos), negatives in zip(corpus.pairs,
                                             draw(range(len(corpus.pairs)), per_positive))
            for y_neg in negatives]


def make_eval_instances(corpus: PairCorpus, m: int, mode: str,
                        table: EmbeddingTable | None, rng: np.random.Generator,
                        stats: RunStats | None = None) -> list:
    """One ranking instance per pair: the true y among m distinct negatives."""
    if m < 1:
        raise ConfigError(f"a ranking instance needs at least 1 negative, got {m}")
    if len(corpus.pairs) < 2:
        raise DataError("need at least 2 pairs to build ranking instances")
    draw = _sampler(corpus, mode, table, rng, stats)
    instances = []
    for idx, (x, y_pos) in enumerate(corpus.pairs):
        [negatives] = draw([idx], m, taken={tuple(y_pos)})
        if len(negatives) < m:
            continue  # skip instances that cannot be filled (counted via stats)
        candidates = [y_pos, *negatives]
        order = rng.permutation(len(candidates))
        shuffled = [candidates[i] for i in order]
        answer = int(order.argmin())  # where the true y (index 0) went
        instances.append(RankingInstance(x=x, candidates=shuffled, answer=answer))
    return instances


def _encode_shared(slots, table: EmbeddingTable, max_len: int,
                   stats: RunStats | None) -> list:
    """encode_sentence of every token list in slots, one EncodedSentence
    per distinct list.

    Equal lists get the same object, and the distinct lists are looked up
    in the vocabulary together (encode_block). stats counts every slot,
    truncated ones included (if a slot cannot be encoded, only those
    before it). Slots are matched by object first (slots holds them, so no
    id is reused) and by tuple once per object.
    """
    keys = list(map(id, slots))
    objects = dict(zip(keys, slots))  # in first-occurrence order
    distinct, index = {}, {}
    for key, tokens in objects.items():
        index[key] = distinct.setdefault(tuple(tokens), len(distinct))
    counted = slots
    if max_len < 1 or () in distinct:  # encode_block raises at the first failing slot
        counted = slots[:0 if max_len < 1 else next(i for i, t in enumerate(slots) if not t)]
    if stats is not None:
        stats.sentences += len(counted)
        if any(len(tokens) > max_len for tokens in distinct):  # else no slot is
            stats.truncated += sum(len(tokens) > max_len for tokens in counted)
    sents = encode_block(list(distinct), table, max_len)
    sent_of = {key: sents[i] for key, i in index.items()}
    return list(map(sent_of.__getitem__, keys))


def encode_triples(triples, table: EmbeddingTable, max_len: int,
                   stats: RunStats | None = None) -> list:
    """Encoded triples; every occurrence of a token list shares one
    EncodedSentence."""
    sents = iter(_encode_shared([s for t in triples for s in (t.x, t.y_pos, t.y_neg)],
                                table, max_len, stats))
    return list(map(Triple, sents, sents, sents))


def encode_instances(instances, table: EmbeddingTable, max_len: int,
                     stats: RunStats | None = None) -> list:
    """Encoded ranking instances; sentences are shared as in
    encode_triples."""
    sents = iter(_encode_shared([s for inst in instances for s in (inst.x, *inst.candidates)],
                                table, max_len, stats))
    return [RankingInstance(x=next(sents),
                            candidates=[next(sents) for _ in inst.candidates],
                            answer=inst.answer)
            for inst in instances]


# --- synthetic topical task ------------------------------------------------

TOPIC_LEXICON_SIZE = 8  # topic words per topic; responses pair one-to-one


def _synthetic_vocab(vocab_size: int, n_topics: int):
    """(topic_words, response_words, filler): per topic, its ordered
    prompt-side words and their paired response words; then the filler."""
    per_topic = 2 * TOPIC_LEXICON_SIZE
    filler_count = vocab_size - n_topics * per_topic
    if n_topics < 2:
        raise ConfigError(f"need at least 2 topics, got {n_topics}")
    if filler_count < 8:
        raise ConfigError(
            f"vocab_size {vocab_size} too small for {n_topics} topics "
            f"(needs at least {n_topics * per_topic + 8})"
        )
    topic_words = [[f"t{t}w{i}" for i in range(TOPIC_LEXICON_SIZE)]
                   for t in range(n_topics)]
    response_words = [[f"r{t}w{i}" for i in range(TOPIC_LEXICON_SIZE)]
                      for t in range(n_topics)]
    filler = [f"f{i}" for i in range(filler_count)]
    return topic_words, response_words, filler


def gen_synthetic_corpus(n_pairs: int, vocab_size: int, len_range, n_topics: int,
                         rng: np.random.Generator):
    """Topical pair corpus where word order within y carries signal.

    Each pair draws a topic and a subset of its lexicon, presented in a
    pair-specific order at pair-specific positions. The x side scatters
    the chosen topic words among filler; the y side echoes each topic word
    at the same position it holds in x and adds its paired response word
    at another position, preserving x's presentation order.

    The true y is thus identifiable from topical co-occurrence (the echoed
    words overlap x literally), and word ORDER within y is informative: it
    must line up with x. Because the presentation order and the positions
    are drawn fresh per pair, a lone y carries no order signal at all: a
    shuffled y has the same bag of words and the same (uniform) position
    statistics, and differs only in no longer lining up with x. Telling
    the two apart therefore requires modeling the pair jointly, which is
    exactly what separates interaction models from per-sentence encoders.

    Returns (PairCorpus, token set).
    """
    lo, hi = len_range
    if lo < 5 or hi < lo:
        raise ConfigError(f"len_range must satisfy 5 <= lo <= hi, got {len_range}")
    topic_words, response_words, filler = _synthetic_vocab(vocab_size, n_topics)
    pairs = []
    for _ in range(n_pairs):
        t = int(rng.integers(n_topics))
        length = int(rng.integers(lo, hi + 1))  # shared: y mirrors x's layout
        c_max = min(4, (length - 1) // 2, TOPIC_LEXICON_SIZE)
        c = int(rng.integers(min(3, c_max), c_max + 1))
        order = rng.permutation(TOPIC_LEXICON_SIZE)[:c].tolist()
        slots = rng.permutation(length)[: 2 * c]
        echo_slots = sorted(int(s) for s in slots[:c])
        resp_slots = sorted(int(s) for s in slots[c:])
        x = [None] * length
        y = [None] * length
        for k, i in enumerate(order):
            # x states each topic word; y echoes it at the same position and
            # answers with the paired response word elsewhere, same order
            x[echo_slots[k]] = topic_words[t][i]
            y[echo_slots[k]] = topic_words[t][i]
            y[resp_slots[k]] = response_words[t][i]
        for sent in (x, y):
            for pos in range(length):
                if sent[pos] is None:
                    sent[pos] = filler[int(rng.integers(len(filler)))]
        pairs.append((x, y))
    tokens = set(filler)
    for t in range(n_topics):
        tokens.update(topic_words[t])
        tokens.update(response_words[t])
    corpus = PairCorpus(pairs=pairs,
                        provenance=f"synthetic({n_pairs} pairs, {n_topics} topics)")
    return corpus, tokens
