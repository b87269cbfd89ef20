"""Embedding matrix ingest and emit: text format and a binary fast path.

The text format is one word followed by H space-separated decimal floats
per line. Word order is preserved through every read/write path, since
codes address words by position.
"""

import logging
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import container
from .errors import ConfigError, DataError

log = logging.getLogger("codecomp.embeddings")

MATRIX_MAGIC = b"DEM1"

# Bytes of a float64 block in every pass over the whole vocabulary (decode,
# export, code packing, finiteness checks, reports): a block's temporaries
# stay in L2 and a small fraction of the matrix however large it is.
BLOCK_BYTES = 256 * 1024


def row_blocks(n, width):
    """Slices that cover rows 0..n-1 in order, each BLOCK_BYTES of float64 `width` wide."""
    step = max(1, BLOCK_BYTES // (8 * max(1, width)))
    return [slice(start, start + step) for start in range(0, n, step)]


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
        # dict.fromkeys, not set: its table is about a quarter of a set's.
        if len(dict.fromkeys(self.vocab)) != len(self.vocab):
            raise DataError("vocabulary contains duplicate words")

    @property
    def vocab_size(self):
        return len(self.vocab)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def require_input(self, consumer, H):
        """Train's and export's input check: H columns, then require_finite."""
        if self.dim != H:
            raise ConfigError(
                f"embedding dimension {self.dim} does not match scheme H={H}"
            )
        self.require_finite(consumer)

    def require_finite(self, consumer):
        """DataError naming the first word with a NaN or infinite value, if any."""
        for rows in row_blocks(self.vocab_size, self.dim):
            finite = np.isfinite(self.matrix[rows]).all(axis=1)
            if not finite.all():
                row = rows.start + int(finite.argmin())
                raise DataError(
                    f"word {self.vocab[row]!r} (row {row}) has a non-finite value; "
                    f"{consumer} needs finite embeddings"
                )


def read_text_embeddings(path, limit=None):
    """Parse a text embedding file, preserving order.

    The first whitespace-separated field of each line is the word; the rest
    are its vector. Fields are split as str.split() splits them, and blank
    or whitespace-only lines are skipped. With limit set only the first
    `limit` data lines are read, repeated words included. A repeated word
    keeps its first occurrence and logs a warning; its values are still
    parsed, so a bad one raises.

    Values come from numpy's C text reader, which converts each field with
    the routine float() uses and rounds it to float32, and words from one
    split per line. Whatever that reader rejects (a bad or ragged line,
    non-UTF-8 bytes, the underscores and non-ASCII digits float() takes) is
    read again by _read_text_checked, which also names each fault.
    """
    words = {}  # an ordered set: the vocabulary so far
    duplicates = []  # (row, line number, word) of each repeat, in file order

    def data_lines(fh):  # the first `limit` non-blank lines, noting each word
        for lineno, line in enumerate(fh, start=1):
            head = line.split(None, 1)
            if not head:
                continue
            row = len(words) + len(duplicates)
            if limit is not None and row >= limit:
                return
            if head[0] in words:
                duplicates.append((row, lineno, head[0]))
            else:
                words[head[0]] = None
            yield line

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = data_lines(fh)
            first = next(lines, "")
            dim = len(first.split()) - 1
            if dim < 1:  # no line, or no values: the checked path tells which
                raise ValueError(path)
            # Column 0 is the words: the converter reads each as 0.0.
            values = np.loadtxt(chain([first], lines), dtype=np.float32, comments=None,
                                ndmin=2, converters={0: lambda word: 0.0})
        if values.shape != (len(words) + len(duplicates), dim + 1):
            raise ValueError(path)
    except ValueError:  # UnicodeDecodeError is one too
        return _read_text_checked(path, limit)
    # Drop column 0 and the repeats' rows in place, a block at a time: kept
    # row j moves back to element j * dim, behind every row still to move.
    keep = np.delete(np.arange(len(values)), [row for row, _, _ in duplicates])
    for block in row_blocks(len(keep), dim):
        kept = values[keep[block], 1:]
        values.reshape(-1)[block.start * dim:][:kept.size] = kept.ravel()
    values.resize((len(keep), dim), refcheck=False)
    for _, lineno, word in duplicates:
        log.warning("%s: line %d: duplicate word %r, keeping first occurrence",
                    path, lineno, word)
    return EmbeddingMatrix(vocab=list(words), matrix=values)


def _read_text_checked(path, limit):
    """read_text_embeddings line by line with float(), into a float32 buffer
    that grows in place: each fault is raised, and each repeat logged, at its line."""
    words = {}  # an ordered set: the vocabulary so far
    matrix = np.empty((0, 0), dtype=np.float32)
    dim = None
    consumed = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if limit is not None and consumed >= limit:
                    break
                consumed += 1
                if dim is None:
                    dim = len(fields) - 1
                    if dim == 0:
                        raise DataError(f"{path}: line {lineno}: no vector values")
                elif len(fields) - 1 != dim:
                    raise DataError(
                        f"{path}: line {lineno}: expected {dim} values, "
                        f"got {len(fields) - 1}"
                    )
                row = len(words)
                if row == len(matrix):  # full: grow by half, in place where it can
                    matrix.resize((row + row // 2 + 1, dim), refcheck=False)
                try:
                    matrix[row] = np.fromiter(
                        map(float, islice(fields, 1, None)), np.float32, count=dim,
                    )
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
                word = fields[0]
                if word in words:
                    log.warning(
                        "%s: line %d: duplicate word %r, keeping first occurrence",
                        path, lineno, word,
                    )
                    continue
                words[word] = None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    matrix.resize((len(words), dim or 0), refcheck=False)
    return EmbeddingMatrix(vocab=list(words), matrix=matrix)


def write_text_embeddings(emb, path):
    """Inverse of read_text_embeddings; floats round-trip to identical bits.

    Each value is written %.9g, float32's max_digits10: the decimal lies
    within 0.084 ulp of the float32, so float() then float32 gets it back.
    """
    for word in emb.vocab:
        if word.split() != [word]:
            raise DataError(
                f"word {word!r} cannot be written: text format is whitespace-delimited"
            )
    line = "%s" + " %.9g" * emb.dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:  # one row's text at a time
        fh.writelines(line % (w, *row.tolist()) for w, row in zip(emb.vocab, emb.matrix))


def write_binary_matrix(emb, path):
    """Binary embedding file: dims, row-major float32 payload, vocabulary."""
    with open(path, "wb") as fh:
        fh.write(container.header(MATRIX_MAGIC, emb.vocab_size, emb.dim))
        fh.write(container.floats(emb.matrix))
        fh.write(container.vocab_bytes(emb.vocab))


def read_binary_matrix(path, limit=None):
    """A DEM1 file, or its first `limit` rows and words; the rest is still checked."""
    with open(path, "rb") as fh:
        vocab_size, dim = container.read_header(fh, MATRIX_MAGIC, 2, path)
        matrix = container.read_array(fh, (vocab_size, dim), path, keep=limit)
        vocab = container.read_vocab(fh, vocab_size, path, keep=limit)
    return EmbeddingMatrix(vocab=vocab, matrix=matrix)


def read_embeddings(path, limit=None):
    """A DEM1 file if path starts with its magic, else a text embedding file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        return read_binary_matrix(path, limit=limit)
    return read_text_embeddings(path, limit=limit)
