"""Discrete code export, embedding composition, and packed serialization.

A word's code is M small integers, one per codebook, each in [0, K-1]
(stored 0-based). Reconstruction sums the selected codeword from each
codebook. Codes pack into ceil(M*log2(K)/8) bytes per word: components are
concatenated LSB-first into a little-endian bit stream and each word is
padded to a byte boundary for O(1) random access.
"""

import numpy as np

from . import container
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .model import bits_per_word, check_k, encode
# matmul is unused here, but bench/tracing.py patches codec.matmul by name.
from .tensor import matmul, sample_gumbel  # noqa: F401

CODE_MAGIC = b"DCC1"
BOOK_MAGIC = b"DCB1"

# Export runs the encoder in slices this large to bound peak memory.
_EXPORT_CHUNK = 8192


class CodeMatrix:
    """Per-word discrete codes: a vocab_size x M integer matrix."""

    def __init__(self, M, K, codes):
        M, K = int(M), int(K)
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != M:
            raise ConfigError(f"codes shape {codes.shape} does not match M={M}")
        check_k(K)
        if codes.size and (codes.min() < 0 or codes.max() >= K):
            raise DataError(
                f"code components must lie in [0, {K - 1}], "
                f"found range [{codes.min()}, {codes.max()}]"
            )
        self.M = M
        self.K = K
        self.codes = codes.astype(np.int32)

    @property
    def vocab_size(self):
        return self.codes.shape[0]

    @property
    def bits_per_word(self):
        return bits_per_word(self.M, self.K)

    @property
    def bytes_per_word(self):
        return (self.bits_per_word + 7) // 8

    def __eq__(self, other):
        return (
            isinstance(other, CodeMatrix)
            and self.M == other.M
            and self.K == other.K
            and np.array_equal(self.codes, other.codes)
        )


class Codebooks:
    """M codebooks of K codewords each, stacked as an (M*K) x H float32 matrix.

    Row i*K + k is codeword k of codebook i; the layout matches ModelParams.A,
    so a trained model's A reinterprets directly as the export codebooks.
    """

    def __init__(self, M, K, H, vectors):
        M, K, H = int(M), int(K), int(H)
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


def export_codes(params, emb, cfg, noise_rng=None):
    """Hard codes for every word: argmax over alpha per component, noise-free.

    Ties break toward the smallest index. Passing noise_rng adds Gumbel
    noise to the logits before the argmax, giving stochastic codes for
    experimentation; the default deterministic path is what training's
    hard-mode loss and the file formats are defined against.
    """
    params.validate(cfg)
    matrix = emb.matrix
    if matrix.shape[1] != cfg.H:
        raise ConfigError(
            f"embedding dimension {matrix.shape[1]} does not match scheme H={cfg.H}"
        )
    vocab_size = matrix.shape[0]
    out = np.empty((vocab_size, cfg.M), dtype=np.int32)
    for start in range(0, vocab_size, _EXPORT_CHUNK):
        _, scores = encode(params, matrix[start:start + _EXPORT_CHUNK], cfg)
        if noise_rng is not None:
            noise = sample_gumbel(noise_rng, len(scores), cfg.M * cfg.K)
            scores = np.log(scores) + noise.reshape(scores.shape)
        out[start:start + _EXPORT_CHUNK] = scores.argmax(axis=2)
    books = Codebooks(cfg.M, cfg.K, cfg.H, params.A.copy())
    return CodeMatrix(cfg.M, cfg.K, out), books


def codeword_sums(codes, books):
    """vocab_size x H float64 sums of each word's codewords, codebook 0 first.

    The one decoder: reconstruct_all and synthetic_embeddings round it.
    """
    if codes.M != books.M or codes.K != books.K:
        raise DataError(
            f"codes are ({codes.M}, {codes.K}) but codebooks are "
            f"({books.M}, {books.K})"
        )
    acc = np.zeros((codes.vocab_size, books.H), dtype=np.float64)
    for i in range(books.M):
        acc += books.vectors[i * books.K + codes.codes[:, i]]
    return acc


def reconstruct_all(codes, books, vocab=None):
    """Compose every word's embedding from its code; returns an EmbeddingMatrix.

    Without a vocabulary, positional names are generated, since codes do not
    carry words (the code file format does).
    """
    matrix = codeword_sums(codes, books).astype(np.float32)
    if vocab is None:
        vocab = [f"w{i}" for i in range(codes.vocab_size)]
    return EmbeddingMatrix(vocab=list(vocab), matrix=matrix)


def pack_codes(codes):
    """Serialize a CodeMatrix to bytes: header then one padded record per word."""
    bits = bits_per_word(1, codes.K)  # per component
    # (V, M, bits) bit planes, LSB first, flattened per word then padded
    # out to whole bytes.
    planes = (codes.codes[:, :, None] >> np.arange(bits)) & 1
    flat = planes.reshape(codes.vocab_size, codes.M * bits).astype(np.uint8)
    pad = codes.bytes_per_word * 8 - flat.shape[1]
    if pad:
        flat = np.pad(flat, ((0, 0), (0, pad)))
    packed = np.packbits(flat, axis=1, bitorder="little")
    header = container.header(CODE_MAGIC, codes.M, codes.K, codes.vocab_size)
    return header + packed.tobytes()


def unpack_codes(data, source="code data"):
    """Parse packed codes; returns (CodeMatrix, offset just past the records).

    Code files append the vocabulary after the records. source prefixes errors.
    """
    (m, k, vocab_size), offset = container.read_header(data, CODE_MAGIC, 3, source)
    try:
        check_k(k)
    except ConfigError as exc:
        raise DataError(f"{source}: header at offset 9: {exc}") from exc
    bits = bits_per_word(1, k)  # per component
    shape = (vocab_size, (m * bits + 7) // 8)
    raw, offset = container.read_array(data, offset, shape, source, dtype=np.uint8)
    flat = np.unpackbits(raw, axis=1, bitorder="little")
    planes = flat[:, : m * bits].reshape(vocab_size, m, bits)
    values = (planes.astype(np.int32) << np.arange(bits, dtype=np.int32)).sum(axis=2)
    return CodeMatrix(m, k, values), offset


def write_code_file(path, codes, vocab):
    """Code file: packed codes followed by the vocabulary, in word order."""
    if len(vocab) != codes.vocab_size:
        raise ConfigError(
            f"vocabulary has {len(vocab)} words but codes cover {codes.vocab_size}"
        )
    with open(path, "wb") as fh:
        fh.write(pack_codes(codes))
        fh.write(container.vocab_bytes(vocab))


def read_code_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    codes, offset = unpack_codes(data, path)
    vocab, _ = container.read_vocab(data, offset, codes.vocab_size, path)
    return codes, vocab


def write_codebook_file(path, books):
    """Codebook file: scheme dims then M*K*H little-endian float32 values."""
    with open(path, "wb") as fh:
        fh.write(container.header(BOOK_MAGIC, books.M, books.K, books.H))
        fh.write(container.floats(books.vectors))


def read_codebook_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    (m, k, h), offset = container.read_header(data, BOOK_MAGIC, 3, path)
    vectors, _ = container.read_array(data, offset, (m * k, h), path)
    return Codebooks(m, k, h, vectors)
