"""Pre-trained word-vector loading, token-id encoding, and the tweet
pipeline.

Vector files use the GloVe text format: one token followed by its components
per line, no header. Embeddings are frozen; they are never trained here, so
a tweet is carried as row ids into the table's matrix and its vectors are
gathered only where a batch enters the LSTM. `TweetPipeline` is the one path
from a tweet to model input (tokenize, then map tokens to row ids, then
encode the metadata); checkpoints record its settings and fingerprint, and
`eval` and `inspect` rebuild it from them.

Ids are packed in one pass: the pipeline tokenizes and truncates every tweet
first, then `embed` maps all kept tokens to ids at once and scatters them
into one pad-filled (N, max_len) int32 block. A single tweet goes through
the same `embed` call, as a batch of one.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from typing import Iterable, NamedTuple

import numpy as np

from .config import from_strings
from .data import Truncation, TweetRecord, checked
from .errors import DataError
from .tokenizer import tokenize

DEFAULT_MAX_LEN = 30


@checked
class EmbeddingTable(NamedTuple):
    """Frozen word vectors as one (V + 2, d) matrix: the V vocabulary rows,
    then the unknown-token row (their mean), then the all-zero pad row. A
    tweet travels as row ids into it. `_build_table`, the one constructor,
    lays out that shape; the check refuses a non-finite entry, such as a mean
    that overflowed where float errors are not raised."""

    vocabulary: dict[str, int]
    matrix: np.ndarray

    def _check(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("vectors contain non-finite entries")
        self.matrix.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def unknown_id(self) -> int:
        return len(self.vocabulary)

    @property
    def pad_id(self) -> int:
        return len(self.vocabulary) + 1

    def content_hash(self) -> str:
        """Deterministic fingerprint of dimension, vocabulary, and values."""
        h = hashlib.sha256()
        h.update(str(self.dimension).encode())
        for token, idx in sorted(self.vocabulary.items()):
            h.update(token.encode("utf-8"))
            h.update(str(idx).encode())
        h.update(self.matrix[: self.unknown_id].tobytes())
        return h.hexdigest()


def _build_table(tokens: list[str], rows, dimension: int) -> EmbeddingTable:
    matrix = np.zeros((len(tokens) + 2, dimension), dtype=np.float64)
    if tokens:
        matrix[: len(tokens)] = rows
        matrix[len(tokens)] = matrix[: len(tokens)].mean(axis=0)
    return EmbeddingTable(vocabulary={tok: i for i, tok in enumerate(tokens)}, matrix=matrix)


def load_glove(
    path,
    expected_dimension: int,
    restrict_to: Iterable[str] | None = None,
) -> EmbeddingTable:
    """Load a GloVe-format text file.

    Duplicate tokens keep their first occurrence. The unknown-token vector is
    the component-wise mean of all loaded vectors (distinct from the all-zero
    padding vector). ``restrict_to`` keeps memory bounded by loading only the
    given tokens. A file that yields no vector (none at all, or none of
    ``restrict_to``) is a data error: every token would embed as zeros.
    """
    keep = set(restrict_to) if restrict_to is not None else None
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != expected_dimension + 1:
                raise DataError(f"{path}:{lineno}: expected {expected_dimension + 1} fields, "
                                f"got {len(parts)}")
            token = parts[0]
            if token in seen:
                continue
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite component")
            seen.add(token)
            if keep is not None and token not in keep:
                continue
            tokens.append(token)
            rows.append(vec)
    if not tokens:
        raise DataError(f"{path}: no embedding vector loaded")
    return _build_table(tokens, rows, expected_dimension)


def truncate(tokens, max_len: int, truncation: Truncation = Truncation.TAIL):
    """The tokens kept at max_len (>= 1, as `TweetPipeline` checks): TAIL
    drops the tail of a long sequence, HEAD drops its head."""
    return tokens[:max_len] if truncation == Truncation.TAIL else tokens[-max_len:]


def embed(
    sequences: list[list[str]],
    table: EmbeddingTable,
    max_len: int = DEFAULT_MAX_LEN,
) -> tuple[np.ndarray, np.ndarray]:
    """Map token sequences, each already cut to max_len by `truncate`, to
    rows of `table.matrix` ids: an (N, max_len) int32 block and the (N,)
    int64 true lengths.

    Out-of-vocabulary tokens map to the unknown row. Each row is padded at
    the end with the pad row, so the ids before its first pad are the tokens
    read.
    """
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    tokens = itertools.chain.from_iterable(sequences)
    flat = np.fromiter(map(table.vocabulary.get, tokens, itertools.repeat(table.unknown_id)),
                       dtype=np.int32, count=int(lengths.sum()))
    ids = np.full((len(sequences), max_len), table.pad_id, dtype=np.int32)
    ids[np.arange(max_len) < lengths[:, None]] = flat
    return ids, lengths


def most_frequent_tokens(sequences: Iterable[list[str]], n: int) -> set[str]:
    """The n most frequent tokens of a corpus; ties resolve alphabetically."""
    counts = Counter()
    for seq in sequences:
        counts.update(seq)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {tok for tok, _ in ranked[:n]}


def fixture_table(tokens: Iterable[str], dimension: int, seed: int) -> EmbeddingTable:
    """Seeded random embedding table over the given tokens, for desk tests."""
    ordered = sorted(set(tokens))
    rng = np.random.Generator(np.random.PCG64(seed))
    vectors = rng.standard_normal((len(ordered), dimension)) / np.sqrt(dimension)
    return _build_table(ordered, vectors, dimension)


def write_glove_file(table: EmbeddingTable, path) -> None:
    """Write a table back out in GloVe text format (round-trips exactly)."""
    by_index = sorted(table.vocabulary.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for token, idx in by_index:  # one row's floats at a time, not the table's
            fh.write(f"{token} {' '.join(map(repr, table.matrix[idx].tolist()))}\n")


@checked
class TweetPipeline(NamedTuple):
    """A model's tweet preprocessing: tokenize, embed, encode the metadata.

    Training fixes the settings and writes them into the checkpoint with a
    fingerprint; scoring and introspection rebuild the pipeline from there,
    so every command reads a tweet exactly as training did.
    """

    table: EmbeddingTable
    max_len: int = DEFAULT_MAX_LEN
    truncation: Truncation = Truncation.TAIL
    repeat_tag: bool = False

    def _check(self):
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")

    def _kept(self, tweet: TweetRecord) -> list[str]:
        return truncate(tokenize(tweet.text, repeat_tag=self.repeat_tag),
                        self.max_len, self.truncation)

    def embed_tweet(self, tweet: TweetRecord) -> tuple[tuple[str, ...], np.ndarray]:
        """The tokens the model reads, after truncation, and their row ids."""
        kept = self._kept(tweet)
        ids, _ = embed([kept], self.table, self.max_len)
        return tuple(kept), ids[0]

    def tensors(self, tweets: list[TweetRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(N, max_len) int32 row ids, (N,) int64 true lengths and raw (N, 6)
        metadata for a list of tweets, with every tweet's ids from one
        `embed` pass."""
        ids, lengths = embed([self._kept(tweet) for tweet in tweets], self.table, self.max_len)
        metadata = np.array([tweet.metadata for tweet in tweets], dtype=np.float64)
        return ids, lengths, metadata

    def fingerprint(self) -> str:
        """Hash of the embedding table and the tokenizer/embedding settings."""
        h = hashlib.sha256()
        h.update(self.table.content_hash().encode())
        h.update(f"|max_len={self.max_len}|trunc={self.truncation.value}"
                 f"|repeat={self.repeat_tag}".encode())
        return h.hexdigest()

    def meta(self) -> dict[str, str]:
        """The checkpoint meta entries that record this pipeline."""
        return {"pipeline_hash": self.fingerprint(), "max_len": str(self.max_len),
                "truncation": self.truncation.value, "repeat_tag": str(int(self.repeat_tag))}

    @classmethod
    def from_meta(cls, meta, table: EmbeddingTable) -> TweetPipeline:
        """The pipeline recorded in checkpoint meta, over the given table;
        checkpoints without the entries get the defaults."""
        settings = {k: meta[k] for k in ("max_len", "truncation", "repeat_tag") if k in meta}
        return from_strings(cls, settings, table=table)

    def matches(self, meta) -> bool:
        """False when meta records a different pipeline fingerprint."""
        stored = meta.get("pipeline_hash")
        return not stored or stored == self.fingerprint()
