"""Embedding matrix ingest and emit: text format and a binary fast path.

The text format is one word followed by H space-separated decimal floats
per line. Word order is preserved through every read/write path, since
codes address words by position.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import ConfigError, DataError

log = logging.getLogger("codecomp.embeddings")

MATRIX_MAGIC = b"DEM1"


@dataclass
class EmbeddingMatrix:
    """An ordered vocabulary and its |V| x H float32 matrix."""

    vocab: list
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2:
            raise ConfigError(f"embedding matrix must be 2-D, got {self.matrix.ndim}-D")
        if len(self.vocab) != self.matrix.shape[0]:
            raise ConfigError(
                f"vocabulary has {len(self.vocab)} words but matrix has "
                f"{self.matrix.shape[0]} rows"
            )
        if len(set(self.vocab)) != len(self.vocab):
            raise DataError("vocabulary contains duplicate words")

    @property
    def vocab_size(self):
        return len(self.vocab)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def require_finite(self, consumer):
        """DataError naming the first word with a NaN or infinite value, if any."""
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            row = int(finite.argmin())
            raise DataError(
                f"word {self.vocab[row]!r} (row {row}) has a non-finite value; "
                f"{consumer} needs finite embeddings"
            )


def read_text_embeddings(path, limit=None):
    """Parse a text embedding file, preserving order.

    The first whitespace-separated field of each line is the word; the rest
    are its vector. With limit set only the first `limit` data lines are
    read. A repeated word keeps its first occurrence and logs a warning.
    Blank lines are skipped.
    """
    vocab = []
    seen = {}
    rows = []
    dim = None
    consumed = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if limit is not None and consumed >= limit:
                    break
                consumed += 1
                parts = line.split()
                word, fields = parts[0], parts[1:]
                if dim is None:
                    dim = len(fields)
                    if dim == 0:
                        raise DataError(f"{path}: line {lineno}: no vector values")
                elif len(fields) != dim:
                    raise DataError(
                        f"{path}: line {lineno}: expected {dim} values, "
                        f"got {len(fields)}"
                    )
                try:
                    values = [float(f) for f in fields]
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
                if word in seen:
                    log.warning(
                        "%s: line %d: duplicate word %r, keeping first occurrence",
                        path, lineno, word,
                    )
                    continue
                seen[word] = True
                vocab.append(word)
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dim is None:
        dim = 0
    matrix = np.asarray(rows, dtype=np.float32).reshape(len(vocab), dim)
    return EmbeddingMatrix(vocab=vocab, matrix=matrix)


def write_text_embeddings(emb, path):
    """Inverse of read_text_embeddings; floats round-trip to identical bits.

    Each value is rendered with Python's shortest repr of its exact float64
    widening, which parses back to the same float32.
    """
    for word in emb.vocab:
        if not word or any(ch.isspace() for ch in word):
            raise DataError(
                f"word {word!r} cannot be written: text format is whitespace-delimited"
            )
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(emb.vocab, emb.matrix):
            fh.write(word)
            for value in row:
                fh.write(" ")
                fh.write(repr(float(value)))
            fh.write("\n")


def write_binary_matrix(emb, path):
    """Binary embedding file: dims, row-major float32 payload, vocabulary."""
    with open(path, "wb") as fh:
        fh.write(container.header(MATRIX_MAGIC, emb.vocab_size, emb.dim))
        fh.write(container.floats(emb.matrix))
        fh.write(container.vocab_bytes(emb.vocab))


def read_binary_matrix(path):
    with open(path, "rb") as fh:
        data = fh.read()
    (vocab_size, dim), offset = container.read_header(data, MATRIX_MAGIC, 2, path)
    matrix, offset = container.read_array(data, offset, (vocab_size, dim), path)
    vocab, _ = container.read_vocab(data, offset, vocab_size, path)
    return EmbeddingMatrix(vocab=vocab, matrix=matrix)
