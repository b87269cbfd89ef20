"""Storage accounting, code-distribution analyses, PQ baseline, quality reports.

Storage arithmetic: a scheme with M codebooks of K codewords needs
M*log2(K) bits per word, against N/2 bits for a binary code supporting the
same N = M*K basis vectors. Sizes reported are raw uncompressed bytes; MB
means 10^6 bytes.
"""

from dataclasses import dataclass

import numpy as np

from .codec import Codebooks, CodeMatrix
from .embeddings import row_blocks
from .errors import ConfigError
from .model import check_scheme
from .tensor import new_rng

# nn-overlap scores this many queries per similarity block and ranks them
# _RANK_ROWS at a time, so the block (float64) and argpartition's indices
# (int64) stay at about 128 + 32 rows of V. Larger blocks pass over the
# unit-row copy fewer times.
_OVERLAP_CHUNK = 128
_RANK_ROWS = 32
_EPS = np.finfo(np.float64).eps


@dataclass
class BalanceTable:
    counts: np.ndarray  # M x K word counts per (component, subcode)
    min_count: int
    max_count: int
    entropy_bits: np.ndarray  # per-component entropy of the subcode distribution

    def to_csv(self):
        return "\n".join(",".join(str(c) for c in row) for row in self.counts) + "\n"

    def as_pairs(self):
        pairs = [
            ("components", self.counts.shape[0]),
            ("codewords", self.counts.shape[1]),
            ("min_count", self.min_count),
            ("max_count", self.max_count),
            ("dead_codewords", int((self.counts == 0).sum())),
        ]
        for i, ent in enumerate(self.entropy_bits):
            pairs.append((f"entropy_bits_{i}", float(ent)))
        return pairs


def size_report(scheme, vocab_size):
    """Exact storage accounting for a scheme over a vocabulary, as a dict.

    Keys come in report order. code_bytes_exact packs the codes with no
    per-word padding; code_bytes_aligned pads each word to whole bytes, as
    the code file stores them; total_bytes adds the float32 codebooks.
    """
    if vocab_size < 0:
        raise ConfigError(f"vocab_size must be >= 0, got {vocab_size}")
    bits = scheme.bits_per_word
    n_basis = scheme.M * scheme.K
    vector_bytes = n_basis * scheme.H * 4
    code_bytes_aligned = vocab_size * ((bits + 7) // 8)
    total = vector_bytes + code_bytes_aligned
    baseline = vocab_size * scheme.H * 4
    return {
        "M": scheme.M,
        "K": scheme.K,
        "H": scheme.H,
        "vocab_size": vocab_size,
        "num_vectors": n_basis,
        "code_bits_per_word": bits,
        "code_bytes_exact": (vocab_size * bits + 7) // 8,
        "code_bytes_aligned": code_bytes_aligned,
        "vector_bytes": vector_bytes,
        "total_bytes": total,
        "total_mb": total / 1e6,
        "baseline_bytes": baseline,
        "baseline_mb": baseline / 1e6,
        "compression_ratio": baseline / total,
        "binary_equivalent_bits": n_basis // 2,
    }


def balance_table(codes):
    """Word counts per (component, subcode), plus extremes and entropies."""
    counts = np.zeros((codes.M, codes.K), dtype=np.int64)
    for i in range(codes.M):
        counts[i] = np.bincount(codes.codes[:, i], minlength=codes.K)
    total = codes.vocab_size
    entropy = np.zeros(codes.M)
    if total:
        p = counts / total
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log2(p), 0.0)
        entropy = terms.sum(axis=1)
    return BalanceTable(
        counts=counts,
        min_count=int(counts.min()),
        max_count=int(counts.max()),
        entropy_bits=entropy,
    )


def shared_code_groups(codes, vocab):
    """Groups of words with identical full codes, largest group first.

    Only groups of two or more words are returned. Groups of equal size
    keep first-occurrence order, so output is deterministic. Words within
    a group keep their vocabulary order.
    """
    codes.check_vocab(vocab)
    # Each word's code as one opaque M x 4-byte value: np.unique sorts those
    # bytewise, several times faster than rows with axis=0. Its order of
    # groups is never shown; first gives each group's first word.
    rows = np.ascontiguousarray(codes.codes)
    keys = rows.view(np.dtype((np.void, rows.itemsize * codes.M)))
    _, first, inverse, counts = np.unique(
        keys.reshape(-1), return_index=True, return_inverse=True, return_counts=True,
    )
    # Word indices grouped by code, in vocabulary order within each group.
    members = np.argsort(inverse, kind="stable")
    starts = np.cumsum(counts) - counts
    shared = np.flatnonzero(counts >= 2)
    shared = shared[np.lexsort((first[shared], -counts[shared]))]
    return [
        (tuple(rows[first[g]].tolist()),
         [vocab[i] for i in members[starts[g]:starts[g] + counts[g]]])
        for g in shared
    ]


def _nearest(block, xx, xn, centroids):
    """Index of each row's nearest centroid, exactly as the broadcast argmin.

    The result equals ((block[:, None, :] - centroids[None]) ** 2)
    .sum(axis=2).argmin(axis=1), ties included (lowest index wins), without
    forming that (n, K, d) temporary for most rows. xx holds the rows'
    squared norms and xn their square roots; all arrays are float64.

    One GEMM screens: approx = ||x||^2 - 2 x.c + ||c||^2, laid out K x n so
    every reduction runs across rows, not along the short K axis. Let
    D = ||x - c||^2 and u = eps / 2 the unit roundoff. The broadcast sum
    of d non-negative rounded squares is within about (d + 2) u D of D.
    The GEMM form's three inner products (xx, x.c, cc) are each within d u
    times the sum of their absolute terms; with x.c's taken twice, those
    sums add up to at most (||x|| + ||c||)^2 by Cauchy-Schwarz. Its two
    additions add at most 2 u (||x|| + ||c||)^2. This holds for any BLAS
    summation order, blocking or FMA. So to first order both are within
    (d + 2) u (||x|| + ||c||)^2 of D and within (d + 2) eps (||x|| +
    ||c||)^2 of each other; tol = 4 (d + 2) eps (xn + max ||c||)^2 is four
    times that, leaving room for the rounding of xn and cc. If j is the
    broadcast argmin and b the screened best, approx[j] <= broadcast[j] +
    tol / 4 <= broadcast[b] + tol / 4 <= approx[b] + tol / 2, so j lies
    within best + 2 * tol. A row with a single centroid in that window
    therefore has it as its exact argmin; rows with more are re-scored
    with the broadcast.
    """
    cc = np.einsum("ij,ij->i", centroids, centroids)
    approx = centroids @ block.T
    approx *= -2.0
    approx += cc[:, None]
    approx += xx
    tol = 4 * (block.shape[1] + 2) * _EPS * (xn + np.sqrt(cc.max())) ** 2
    within = approx <= approx.min(axis=0) + 2 * tol
    # Where a row has one centroid in the window, this is its index.
    nearest = (np.arange(len(cc), dtype=np.float64) @ within).astype(np.intp)
    ambiguous = np.flatnonzero(np.count_nonzero(within, axis=0) > 1)
    if ambiguous.size:
        exact = ((block[ambiguous][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        nearest[ambiguous] = exact.argmin(axis=1)
    return nearest


def _kmeans_block(block, K, iterations, rng):
    """Lloyd's algorithm with k-means++ seeding on one dimension block.

    Empty clusters are repaired by splitting the largest cluster: the empty
    centroid moves to that cluster's farthest member, which is reassigned to
    it. Every phase is non-increasing in within-cluster squared distance.
    Assignments come from _nearest, so they are the exact broadcast argmin.
    """
    n = block.shape[0]
    centroids = np.zeros((K, block.shape[1]))
    centroids[0] = block[rng.integers(0, n)]
    d2 = ((block - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[k] = block[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((block - centroids[k]) ** 2).sum(axis=1))

    xx = np.einsum("ij,ij->i", block, block)
    xn = np.sqrt(xx)
    for _ in range(iterations):
        assign = _nearest(block, xx, xn, centroids)
        counts = np.bincount(assign, minlength=K)
        for empty in np.flatnonzero(counts == 0):
            largest = counts.argmax()
            members = np.flatnonzero(assign == largest)
            spread = ((block[members] - centroids[largest]) ** 2).sum(axis=1)
            victim = members[spread.argmax()]
            centroids[empty] = block[victim]
            assign[victim] = empty
            counts[largest] -= 1
            counts[empty] += 1
        # Bit for bit block[assign == k].mean(axis=0): the stable sort keeps
        # each cluster's rows in index order, and mean is add.reduce over
        # them divided by the count. np.add.reduceat adds each run in another
        # order, so its float64 centroids differ in the last bits.
        grouped = block[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        filled = np.flatnonzero(counts)
        for k in filled:
            np.add.reduce(grouped[ends[k] - counts[k]:ends[k]], axis=0, out=centroids[k])
        centroids[filled] /= counts[filled, None]

    assign = _nearest(block, xx, xn, centroids)
    sse = float(((block - centroids[assign]) ** 2).sum())
    return assign, centroids, sse


def pq_baseline(emb, M, K, iterations=25, seed=0):
    """Product quantization baseline: independent k-means per dimension block.

    Dimensions split into M contiguous blocks as np.array_split does: H/M
    each when M divides H, otherwise the first H mod M blocks are one wider.
    Each block is clustered into K centroids and a word's code component i
    is its cluster in block i. Returned codebooks embed the centroids in
    full-width vectors zero-padded outside their block, so reconstruct_all
    reproduces the PQ reconstruction exactly. Loss uses the training
    convention: squared L2 summed over dimensions, averaged over words.
    Block i draws from the i-th generator spawned from the seed, so each
    block's clustering depends only on the seed and its own columns; this
    is the seeding contract the pinned PQ digests hold. A word with a NaN
    or infinite value raises DataError naming it before any clustering.
    """
    matrix = emb.matrix
    vocab_size, dim = matrix.shape
    if not 1 <= M <= dim:
        raise ConfigError(f"M must be between 1 and H={dim}, got {M}")
    check_scheme(M, K, dim)
    if vocab_size < K:
        raise ConfigError(f"need at least K={K} words, got {vocab_size}")
    emb.require_finite("PQ")
    codes = np.empty((vocab_size, M), dtype=np.int32)
    books = np.zeros((M * K, dim), dtype=np.float32)
    total_sse = 0.0
    for i, (cols, rng) in enumerate(zip(np.array_split(np.arange(dim), M),
                                        new_rng(seed).spawn(M))):
        lo, hi = cols[0], cols[-1] + 1
        assign, centroids, sse = _kmeans_block(
            matrix[:, lo:hi].astype(np.float64), K, iterations, rng)
        codes[:, i] = assign
        books[i * K:(i + 1) * K, lo:hi] = centroids
        total_sse += sse
    loss = total_sse / vocab_size
    return CodeMatrix(M, K, codes), Codebooks(M, K, dim, books), loss


def _normalize_rows(matrix):
    """A float64 copy of matrix with unit rows; zero rows stay zero.

    The copy is divided in place, block by block, so it is the only
    vocabulary-sized array made.
    """
    x = matrix.astype(np.float64)
    for rows in row_blocks(len(x), x.shape[1]):
        block = x[rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, norms, out=block, where=norms > 0)
    return x


def _check_pair(original, recon, consumer):
    """Two matrices to compare: the same words in order, every value finite."""
    if original.vocab != recon.vocab:
        raise ConfigError(f"{consumer} needs identical vocabularies in order")
    original.require_finite(consumer)
    recon.require_finite(consumer)


def _top_neighbors(matrix, queries, k):
    """Each query's k nearest rows by cosine, itself excluded, in no order.

    Queries are scored against a float64 unit-row copy of the matrix, which
    is freed on return. A row's similarities and argpartition do not depend
    on the block it falls in, so neither does its result.
    """
    x = _normalize_rows(matrix)
    top = np.empty((len(queries), k), dtype=np.intp)
    # One similarity buffer for every block: each block overwrites the last.
    sims = np.empty((min(_OVERLAP_CHUNK, len(queries)), len(x)))
    for start in range(0, len(queries), _OVERLAP_CHUNK):
        rows = queries[start:start + _OVERLAP_CHUNK]
        block = np.matmul(x[rows], x.T, out=sims[:len(rows)])
        block[np.arange(len(rows)), rows] = -np.inf  # exclude self before ranking
        for i in range(0, len(rows), _RANK_ROWS):
            part = block[i:i + _RANK_ROWS]
            top[start + i:start + i + len(part)] = np.argpartition(part, -k, axis=1)[:, -k:]
    return top


def neighbor_overlap(original, recon, k, sample, seed=0):
    """Mean fraction of shared top-k cosine neighbors over sampled queries.

    Exact brute-force neighbors, excluding the query itself. Queries are
    drawn without replacement from a seeded generator. The matrices are
    ranked one after the other, so only one float64 unit-row copy (2x the
    float32 matrix) and one block of similarities exist at a time.
    """
    _check_pair(original, recon, "neighbor overlap")
    vocab_size = original.vocab_size
    if k >= vocab_size:
        raise ConfigError(f"k={k} must be smaller than the vocabulary ({vocab_size})")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    rng = new_rng(seed)
    queries = rng.choice(vocab_size, size=min(sample, vocab_size), replace=False)
    top_o = _top_neighbors(original.matrix, queries, k)
    top_r = _top_neighbors(recon.matrix, queries, k)
    # Each row holds k distinct indices, so a shared neighbor is a pair of
    # equal neighbors in its sorted 2k; the float64 sum of the counts is exact.
    both = np.sort(np.concatenate([top_o, top_r], axis=1), axis=1)
    shared = (both[:, 1:] == both[:, :-1]).sum(axis=1)
    return float(np.mean(shared) / k) if len(shared) else 0.0


def reconstruction_report(original, recon):
    """Quality of a reconstruction against the original matrix.

    mse follows the training convention (squared L2 summed over dimensions,
    averaged over words). Cosines of exactly-zero rows count as 0. Rows are
    compared in float64 one block at a time; only per-row vectors span the
    vocabulary, and each row's sums are those of a whole-matrix pass.
    """
    _check_pair(original, recon, "the reconstruction report")
    if original.dim != recon.dim:
        raise ConfigError(f"dimension mismatch: {original.dim} vs {recon.dim}")
    vocab_size = original.vocab_size
    sq_err, dot, na, nb = np.empty((4, vocab_size))
    max_abs = 0.0
    for rows in row_blocks(vocab_size, original.dim):
        a = original.matrix[rows].astype(np.float64)
        b = recon.matrix[rows].astype(np.float64)
        na[rows] = np.linalg.norm(a, axis=1)
        nb[rows] = np.linalg.norm(b, axis=1)
        dot[rows] = (a * b).sum(axis=1)
        b -= a
        max_abs = max(max_abs, float(np.abs(b).max(initial=0.0)))
        sq_err[rows] = (b ** 2).sum(axis=1)
    denom = na * nb
    cos = np.divide(dot, denom, out=np.zeros(vocab_size), where=denom > 0)
    return {
        "vocab_size": vocab_size,
        "dim": original.dim,
        "mse": float(sq_err.mean()) if vocab_size else 0.0,
        "max_abs_error": max_abs,
        "mean_cosine": float(cos.mean()) if len(cos) else 0.0,
        "min_cosine": float(cos.min()) if len(cos) else 0.0,
    }
