"""Vocabulary, word-vector loading, tokenization and sentence encoding.

A sentence is encoded as its word ids. Models read it as a fixed-size
matrix of the embedding table's current rows: one row per word, then
all-zero rows up to the model's maximum length. The <unk> vector is never
all-zero, so the all-zero gate in the convolution layers fires only on
genuine padding.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParseError, ShapeError

UNK = "<unk>"


class Vocabulary:
    """Token <-> index map with index 0 reserved for <unk>."""

    def __init__(self):
        self.token_to_index = {UNK: 0}
        self.index_to_token = [UNK]

    def add(self, token: str) -> int:
        if token in self.token_to_index:
            return self.token_to_index[token]
        idx = len(self.index_to_token)
        self.token_to_index[token] = idx
        self.index_to_token.append(token)
        return idx

    def indices(self, tokens) -> list[int]:
        """The index of each token, 0 (<unk>) for one that is absent."""
        return list(map(self.token_to_index.get, tokens, itertools.repeat(0)))

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def __len__(self) -> int:
        return len(self.index_to_token)


@dataclass
class EmbeddingTable:
    """Word vectors, one row per vocabulary entry (row 0 is <unk>)."""

    vocab: Vocabulary
    dim: int
    vectors: np.ndarray  # [len(vocab), dim]


@dataclass
class EncodedSentence:
    """The word ids and true token count of a sentence padded to max_len,
    read against the table it was encoded with.

    .x is the padded [max_len, dim] matrix of that table's current rows,
    built read-only on each access, so that every sentence reads what
    fine-tuning last wrote into the table.
    """

    ids: list[int]
    length: int
    table: EmbeddingTable = field(repr=False, compare=False)
    max_len: int

    @property
    def x(self) -> np.ndarray:  # [max_len, dim]; rows length.. are all-zero
        x = np.zeros((self.max_len, self.table.dim), dtype=np.float64)
        x[: self.length] = self.table.vectors.take(self.ids, axis=0)
        x.flags.writeable = False
        return x


def sentence_matrix(sent) -> np.ndarray:
    """The padded matrix of an EncodedSentence; a stack of sentences is
    passed as an array [..., max_len, dim] and returned unchanged."""
    return sent if isinstance(sent, np.ndarray) else sent.x


def stack_sentences(sents, table: EmbeddingTable | None = None):
    """Sentences of one padded length as a stack [n, max_len, dim] of
    table's current rows, and the (flat stack row, word id) of every word.

    Without a table the rows come from the one the sentences were encoded
    with, which they must share.
    """
    max_len = sents[0].max_len
    if any(s.max_len != max_len for s in sents):
        raise ShapeError(f"sentences stacked together must share one padded length, "
                         f"got {sorted({s.max_len for s in sents})}")
    if table is None:
        table = sents[0].table
        if any(s.table is not table for s in sents):
            raise DataError("sentences stacked without a table must share the one "
                            "they were encoded with")
    lengths = np.array([s.length for s in sents])
    ids = np.fromiter(itertools.chain.from_iterable(s.ids for s in sents),
                      dtype=np.int64, count=lengths.sum())
    rows = np.flatnonzero(np.arange(max_len) < lengths[:, None])
    stack = np.zeros((len(sents) * max_len, table.dim), dtype=np.float64)
    stack[rows] = table.vectors[ids]
    return stack.reshape(len(sents), max_len, table.dim), (rows, ids)


# Split on runs of whitespace; no other normalization. str.split itself,
# so that data.read_rows maps it over a line's columns at C speed.
tokenize = str.split


def open_text(path: str):
    """path opened for numbered_lines: undecodable bytes are kept as lone
    surrogates, so the line that holds them is the one reported."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def numbered_lines(source):
    """(line number, line) for each line of source, an iterable of text
    lines. A line that is not UTF-8 raises ParseError: with its number
    from an open_text file; from a file that decodes strictly, which
    fails a whole buffer ahead, with the first line it may be."""
    lineno = 0
    try:
        for lineno, line in enumerate(source, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("line is not UTF-8 text", line=lineno) from None
            yield lineno, line
    except UnicodeDecodeError as err:
        raise ParseError(f"a line at or after line {lineno + 1} is not UTF-8: "
                         f"{err.reason}") from None


def load_embeddings(source) -> EmbeddingTable:
    """Parse word2vec text format: header "V D", then V lines "token v1 .. vD".

    The <unk> row is set to the arithmetic mean of all loaded vectors.
    `source` is an iterable of text lines (an open file works).
    """
    lines = numbered_lines(source)
    try:
        _, header = next(lines)
    except StopIteration:
        raise ParseError("empty embedding source", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"malformed header {header.strip()!r}; expected 'V D'", line=1)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"malformed header {header.strip()!r}; expected two integers", line=1)
    if count < 1 or dim < 1:
        raise ParseError(f"header must declare positive counts, got {count} {dim}", line=1)

    vocab = Vocabulary()
    rows = [np.zeros(dim)]  # placeholder for <unk>, filled below
    for lineno, raw in lines:
        if lineno - 1 > count:
            break
        fields = raw.split()
        if not fields:
            raise ParseError("blank line inside vector block", line=lineno)
        token = fields[0]
        if token in vocab:
            raise ParseError(f"duplicate token {token!r}", line=lineno)
        if len(fields) - 1 != dim:
            raise ParseError(
                f"token {token!r} has {len(fields) - 1} values, expected {dim}", line=lineno
            )
        try:
            vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric value in vector for {token!r}", line=lineno)
        vocab.add(token)
        rows.append(vec)
    loaded = len(rows) - 1
    if loaded != count:
        raise ParseError(f"header declared {count} vectors but {loaded} were found", line=1 + loaded)

    vectors = np.vstack(rows)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ParseError(f"non-finite value in vector for "
                         f"{vocab.index_to_token[row]!r}", line=row + 1)
    vectors[0] = vectors[1:].mean(axis=0)
    if not vectors[0].any():
        raise DataError("mean of loaded vectors is all-zero; <unk> would be gated off as padding")
    return EmbeddingTable(vocab=vocab, dim=dim, vectors=vectors)


def random_embeddings(tokens, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Uniform [-1, 1] vectors for a token set; all-zero rows are resampled.

    Tokens are sorted before assignment so the table depends only on the
    set and the seed.
    """
    if dim < 1:
        raise DataError(f"embedding dim must be >= 1, got {dim}")
    vocab = Vocabulary()
    ordered = sorted(set(tokens))
    n = len(ordered) + 1
    vectors = np.empty((n, dim), dtype=np.float64)
    for i in range(n):
        while True:
            vec = rng.uniform(-1.0, 1.0, size=dim)
            if vec.any():
                break
        vectors[i] = vec
    for token in ordered:
        vocab.add(token)
    return EmbeddingTable(vocab=vocab, dim=dim, vectors=vectors)


def encode_sentence(tokens, table: EmbeddingTable, max_len: int) -> EncodedSentence:
    """The sentence of tokens, padded to max_len, against table.

    Unknown tokens map to <unk>; sentences longer than max_len are
    truncated (not an error; data.RunStats counts them).
    """
    if not tokens:
        raise DataError("cannot encode an empty sentence")
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    ids = table.vocab.indices(tokens[:max_len])
    return EncodedSentence(ids, len(ids), table, max_len)


def write_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write the table back in word2vec text format (excluding <unk>)."""
    with open(path, "w", encoding="utf-8") as fh:
        n = len(table.vocab) - 1
        fh.write(f"{n} {table.dim}\n")
        for idx in range(1, len(table.vocab)):
            token = table.vocab.index_to_token[idx]
            vals = " ".join(repr(float(v)) for v in table.vectors[idx])
            fh.write(f"{token} {vals}\n")
