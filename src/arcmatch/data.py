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

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable, EncodedSentence, RunStats, encode_sentence, tokenize
from .errors import ConfigError, DataError, ParseError
from .training import Triple

HARD_NEGATIVE_DRAW_CAP = 1000
HARD_BAND = (0.7, 0.8)


@dataclass
class PairCorpus:
    pairs: list  # (x_tokens, y_tokens)
    provenance: str = ""

    def __len__(self):
        return len(self.pairs)


@dataclass
class RankingInstance:
    x: list          # tokens
    candidates: list  # m+1 token lists, distinct
    answer: int      # index of the true y


@dataclass
class TokenTriple:
    x: list
    y_pos: list
    y_neg: list


@dataclass
class EncodedInstance:
    x: EncodedSentence
    candidates: list
    answer: int


def load_pairs(source, provenance: str = "") -> PairCorpus:
    """One pair per line: x-tokens TAB y-tokens."""
    pairs = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError("pair line has no TAB separator", line=lineno)
        left, _, right = line.partition("\t")
        x, y = tokenize(left), tokenize(right)
        if not x or not y:
            raise ParseError("pair line has an empty side", line=lineno)
        pairs.append((x, y))
    return PairCorpus(pairs=pairs, provenance=provenance)


def save_pairs(corpus: PairCorpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in corpus.pairs:
            fh.write(" ".join(x) + "\t" + " ".join(y) + "\n")


def load_triples(source) -> list:
    """One triple per line: x-tokens TAB y+-tokens TAB y--tokens."""
    triples = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(f"triple line has {len(cols)} columns, expected 3",
                             line=lineno)
        x, y_pos, y_neg = (tokenize(c) for c in cols)
        if not x or not y_pos or not y_neg:
            raise ParseError("triple line has an empty side", line=lineno)
        triples.append(TokenTriple(x=x, y_pos=y_pos, y_neg=y_neg))
    return triples


def save_triples(triples, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(" ".join(t.x) + "\t" + " ".join(t.y_pos) + "\t"
                     + " ".join(t.y_neg) + "\n")


def _sumvec(tokens, table: EmbeddingTable) -> np.ndarray:
    return table.vectors[[table.vocab.index(t) for t in tokens]].sum(axis=0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def _draw_negative(corpus, idx, y_pos, mode, table, rng,
                   stats: RunStats | None, taken=()):
    """One y-negative for pair idx; returns None when it must be skipped."""
    n = len(corpus.pairs)
    if mode == "shuffle":
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
    if mode == "random":
        for _ in range(100 * max(n, 2)):
            j = int(rng.integers(n))
            cand = corpus.pairs[j][1]
            if j != idx and cand != y_pos and tuple(cand) not in taken:
                return cand
        raise DataError("corpus too small to draw a distinct random negative")
    if mode == "hard":
        if table is None:
            raise DataError("hard-negative sampling requires an embedding table")
        ref = _sumvec(y_pos, table)
        best, best_gap = None, np.inf
        lo, hi = HARD_BAND
        if stats is not None:
            stats.hard_negatives += 1
        for _ in range(HARD_NEGATIVE_DRAW_CAP):
            j = int(rng.integers(n))
            cand = corpus.pairs[j][1]
            if j == idx or cand == y_pos or tuple(cand) in taken:
                continue
            c = _cosine(ref, _sumvec(cand, table))
            if lo <= c <= hi:
                return cand
            gap = abs(c - (lo + hi) / 2.0)
            if gap < best_gap:
                best, best_gap = cand, gap
        if best is None:
            raise DataError("corpus too small to draw a distinct hard negative")
        if stats is not None:
            stats.hard_negative_fallbacks += 1
        return best
    raise ConfigError(f"unknown negative-sampling mode {mode!r}")


def sample_negatives(corpus: PairCorpus, per_positive: int, mode: str,
                     table: EmbeddingTable | None, rng: np.random.Generator,
                     stats: RunStats | None = None) -> list:
    """Token-level triples: per positive pair, per_positive negatives."""
    if len(corpus.pairs) < 2:
        raise DataError("need at least 2 pairs to sample negatives")
    triples = []
    for idx, (x, y_pos) in enumerate(corpus.pairs):
        for _ in range(per_positive):
            y_neg = _draw_negative(corpus, idx, y_pos, mode, table, rng, stats)
            if y_neg is None:
                continue
            triples.append(TokenTriple(x=x, y_pos=y_pos, y_neg=y_neg))
    return triples


def make_eval_instances(corpus: PairCorpus, m: int, mode: str,
                        table: EmbeddingTable | None, rng: np.random.Generator,
                        stats: RunStats | None = None) -> list:
    """One ranking instance per pair: the true y among m distinct negatives."""
    if m < 1:
        raise ConfigError(f"a ranking instance needs at least 1 negative, got {m}")
    if len(corpus.pairs) < 2:
        raise DataError("need at least 2 pairs to build ranking instances")
    instances = []
    for idx, (x, y_pos) in enumerate(corpus.pairs):
        negatives = []
        taken = {tuple(y_pos)}
        for _ in range(m):
            y_neg = _draw_negative(corpus, idx, y_pos, mode, table, rng,
                                   stats, taken=taken)
            if y_neg is None:
                break
            negatives.append(y_neg)
            taken.add(tuple(y_neg))
        if len(negatives) < m:
            continue  # skip instances that cannot be filled (counted via stats)
        candidates = [y_pos, *negatives]
        order = rng.permutation(len(candidates))
        shuffled = [candidates[i] for i in order]
        answer = int(np.argwhere(order == 0)[0][0])
        instances.append(RankingInstance(x=x, candidates=shuffled, answer=answer))
    return instances


def encode_triples(triples, table: EmbeddingTable, max_len: int,
                   stats: RunStats | None = None) -> list:
    return [
        Triple(x=encode_sentence(t.x, table, max_len, stats),
               y_pos=encode_sentence(t.y_pos, table, max_len, stats),
               y_neg=encode_sentence(t.y_neg, table, max_len, stats))
        for t in triples
    ]


def encode_instances(instances, table: EmbeddingTable, max_len: int,
                     stats: RunStats | None = None) -> list:
    return [
        EncodedInstance(x=encode_sentence(inst.x, table, max_len, stats),
                        candidates=[encode_sentence(c, table, max_len, stats)
                                    for c in inst.candidates],
                        answer=inst.answer)
        for inst in instances
    ]


# --- synthetic topical task ------------------------------------------------

TOPIC_LEXICON_SIZE = 8  # topic words per topic; responses pair one-to-one


@dataclass
class SyntheticVocab:
    topic_words: list     # per topic, ordered list of prompt-side words
    response_words: list  # per topic, ordered list of paired response words
    filler: list


def _synthetic_vocab(vocab_size: int, n_topics: int) -> SyntheticVocab:
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
    return SyntheticVocab(topic_words=topic_words, response_words=response_words,
                          filler=filler)


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
    voc = _synthetic_vocab(vocab_size, n_topics)
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
            x[echo_slots[k]] = voc.topic_words[t][i]
            y[echo_slots[k]] = voc.topic_words[t][i]
            y[resp_slots[k]] = voc.response_words[t][i]
        for sent in (x, y):
            for pos in range(length):
                if sent[pos] is None:
                    sent[pos] = voc.filler[int(rng.integers(len(voc.filler)))]
        pairs.append((x, y))
    tokens = set(voc.filler)
    for t in range(n_topics):
        tokens.update(voc.topic_words[t])
        tokens.update(voc.response_words[t])
    corpus = PairCorpus(pairs=pairs,
                        provenance=f"synthetic({n_pairs} pairs, {n_topics} topics)")
    return corpus, tokens


def bag_overlap_score(x_tokens, y_tokens) -> float:
    """Order-blind sanity scorer: size of the shared token set."""
    return float(len(set(x_tokens) & set(y_tokens)))
