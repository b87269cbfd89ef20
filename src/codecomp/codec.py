"""Discrete code export, embedding composition, and packed serialization.

A word's code is M small integers, one per codebook, each in [0, K-1]
(stored 0-based). Reconstruction sums the selected codeword from each
codebook. Codes pack into ceil(M*log2(K)/8) bytes per word: components are
concatenated LSB-first into a little-endian bit stream and each word is
padded to a byte boundary for O(1) random access.
"""

import io

import numpy as np
# numpy's matmul, unused here, but bench/tracing.py patches codec.matmul by name.
from numpy import matmul  # noqa: F401

from . import container
from .embeddings import EmbeddingMatrix, row_blocks
from .errors import ConfigError, DataError
from .model import assign, bits_per_word, check_scheme, encode

CODE_MAGIC = b"DCC1"
BOOK_MAGIC = b"DCB1"


class CodeMatrix:
    """Per-word discrete codes: a vocab_size x M integer matrix.

    An int32 array is taken over, not copied: the caller hands it over and
    must not write to it afterwards. Any other integer array is converted.
    """

    def __init__(self, M, K, codes):
        M, K = int(M), int(K)
        check_scheme(M, K)
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != M:
            raise ConfigError(f"codes shape {codes.shape} does not match M={M}")
        if codes.size and (codes.min() < 0 or codes.max() >= K):
            raise DataError(
                f"code components must lie in [0, {K - 1}], "
                f"found range [{codes.min()}, {codes.max()}]"
            )
        self.M = M
        self.K = K
        self.codes = codes.astype(np.int32, copy=False)

    @property
    def vocab_size(self):
        return self.codes.shape[0]

    @property
    def bits_per_word(self):
        return bits_per_word(self.M, self.K)

    @property
    def bytes_per_word(self):
        return (self.bits_per_word + 7) // 8

    def check_vocab(self, vocab):
        """ConfigError unless vocab names exactly one word per code."""
        if len(vocab) != self.vocab_size:
            raise ConfigError(
                f"vocabulary has {len(vocab)} words but codes cover {self.vocab_size}"
            )


class Codebooks:
    """M codebooks of K codewords each, stacked as an (M*K) x H float32 matrix.

    Row i*K + k is codeword k of codebook i; the layout matches ModelParams.A,
    so a trained model's A reinterprets directly as the export codebooks.
    """

    def __init__(self, M, K, H, vectors):
        M, K, H = int(M), int(K), int(H)
        check_scheme(M, K, H)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (M * K, H):
            raise ConfigError(
                f"codebook matrix shape {vectors.shape}, expected {(M * K, H)}"
            )
        if not np.all(np.isfinite(vectors)):
            raise DataError("codebooks contain non-finite entries")
        self.M = M
        self.K = K
        self.H = H
        self.vectors = vectors


def export_codes(params, emb):
    """Codes and codebooks for every word under params.scheme.

    Each code is the argmax of the word's scores, as model.assign picks it,
    so the exported codes reconstruct exactly what hard forward scores.
    A word with a NaN or infinite value raises DataError naming it.
    """
    cfg = params.scheme
    emb.require_input("export", cfg.H)
    out = np.empty((emb.vocab_size, cfg.M), dtype=np.int32)
    for rows in row_blocks(emb.vocab_size, cfg.H):
        _, alpha = encode(params, emb.matrix[rows])
        out[rows] = assign(alpha)
    books = Codebooks(cfg.M, cfg.K, cfg.H, params.A.copy())
    return CodeMatrix(cfg.M, cfg.K, out), books


def codeword_sums(codes, books, out):
    """Each word's codeword sum, rounded into its row of out; returns out.

    The one decoder. Sums are float64 from +0.0, codebook 0 first, over
    codebooks widened once; a row's sum depends only on its own code, so
    the block size does not change its bits.
    """
    if codes.M != books.M or codes.K != books.K:
        raise DataError(
            f"codes are ({codes.M}, {codes.K}) but codebooks are "
            f"({books.M}, {books.K})"
        )
    wide = books.vectors.astype(np.float64)
    for rows in row_blocks(codes.vocab_size, books.H):
        block = codes.codes[rows]
        acc = np.zeros((len(block), books.H))
        for i in range(books.M):
            acc += wide[i * books.K + block[:, i]]
        out[rows] = acc
    return out


def reconstruct_all(codes, books, vocab):
    """Compose every word's embedding from its code; returns an EmbeddingMatrix.

    vocab names the words in code order; a code file carries them, codes do
    not. No vocabulary-sized float64 array exists.
    """
    matrix = np.empty((codes.vocab_size, books.H), dtype=np.float32)
    return EmbeddingMatrix(vocab=list(vocab), matrix=codeword_sums(codes, books, matrix))


def pack_codes(codes):
    """Serialize a CodeMatrix to bytes: header then one padded record per word."""
    bits = bits_per_word(1, codes.K)  # per component
    packed = np.empty((codes.vocab_size, codes.bytes_per_word), dtype=np.uint8)
    # Bit plane b is every bits-th bit from b, LSB first; bits past M * bits pad.
    for rows in row_blocks(codes.vocab_size, codes.bytes_per_word + codes.M):
        block = codes.codes[rows]
        flat = np.zeros((len(block), codes.bytes_per_word * 8), dtype=np.uint8)
        for b in range(bits):
            flat[:, b:codes.M * bits:bits] = (block >> b) & 1
        packed[rows] = np.packbits(flat, axis=1, bitorder="little")
    header = container.header(CODE_MAGIC, codes.M, codes.K, codes.vocab_size)
    return header + packed.tobytes()


def unpack_codes(data, source="code data"):
    """Parse packed codes; returns (CodeMatrix, offset just past the records).

    data is the bytes pack_codes wrote, or a binary file open at their
    start, which is left just past the records: code files append the
    vocabulary there. source prefixes errors.
    """
    fh = data if hasattr(data, "read") else io.BytesIO(data)
    m, k, vocab_size = container.read_header(fh, CODE_MAGIC, 3, source)
    container.check_header(source, m, k)
    bits = bits_per_word(1, k)  # per component
    shape = (vocab_size, (m * bits + 7) // 8)
    raw = container.read_array(fh, shape, source, dtype=np.uint8)
    values = np.empty((vocab_size, m), dtype=np.int32)
    # A row's bits and int32 planes: a float64 per packed byte and per component.
    for rows in row_blocks(vocab_size, shape[1] + m):
        flat = np.unpackbits(raw[rows], axis=1, bitorder="little")
        block = values[rows]  # bit plane b is every bits-th bit from b: one OR each
        block[...] = flat[:, 0:m * bits:bits]
        for b in range(1, bits):
            block |= flat[:, b:m * bits:bits].astype(np.int32) << b
    return CodeMatrix(m, k, values), fh.tell()


def write_code_file(path, codes, vocab):
    """Code file: packed codes followed by the vocabulary, in word order."""
    codes.check_vocab(vocab)
    with open(path, "wb") as fh:
        fh.write(pack_codes(codes))
        fh.write(container.vocab_bytes(vocab))


def read_code_file(path):
    with open(path, "rb") as fh:
        codes, _ = unpack_codes(fh, path)
        vocab = container.read_vocab(fh, codes.vocab_size, path)
    return codes, vocab


def write_codebook_file(path, books):
    """Codebook file: scheme dims then M*K*H little-endian float32 values."""
    with open(path, "wb") as fh:
        fh.write(container.header(BOOK_MAGIC, books.M, books.K, books.H))
        fh.write(container.floats(books.vectors))


def read_codebook_file(path):
    with open(path, "rb") as fh:
        m, k, h = container.read_header(fh, BOOK_MAGIC, 3, path)
        container.check_header(path, m, k, h)
        vectors = container.read_array(fh, (m * k, h), path)
    if not np.isfinite(vectors).all():
        raise DataError(f"{path}: codebooks contain non-finite entries")
    return Codebooks(m, k, h, vectors)
