"""Synthetic compositional embeddings with a known ground truth.

Generates M codebooks with Uniform(-1, 1) entries, assigns every word a
random code, and emits embeddings equal to the exact codeword sums plus
Gaussian noise. Because the generating codes and codebooks are returned,
the data has a known reconstruction floor, which makes it the standard
fixture for training and baseline comparisons.
"""

import numpy as np

from .codec import Codebooks, CodeMatrix, codeword_sums
from .embeddings import EmbeddingMatrix
from .tensor import new_rng


def synthetic_embeddings(M, K, H, vocab_size, noise_std, seed):
    """Returns (EmbeddingMatrix, true CodeMatrix, true Codebooks).

    Draw order (codebooks, codes, noise) is fixed, so a seed pins the data
    bit-exactly.
    """
    rng = new_rng(seed)
    books = Codebooks(M, K, H, rng.uniform(-1.0, 1.0, size=(M * K, H)))
    codes = CodeMatrix(M, K, rng.integers(0, K, size=(vocab_size, M)))
    acc = codeword_sums(codes, books, np.empty((vocab_size, H)))
    acc += rng.normal(0.0, noise_std, size=(vocab_size, H))
    vocab = [f"w{i}" for i in range(vocab_size)]
    emb = EmbeddingMatrix(vocab=vocab, matrix=acc.astype(np.float32))
    return emb, codes, books
