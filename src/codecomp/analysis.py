"""Storage accounting, code-distribution analyses, PQ baseline, quality reports.

Storage arithmetic: a scheme with M codebooks of K codewords needs
M*log2(K) bits per word, against N/2 bits for a binary code supporting the
same N = M*K basis vectors. Sizes reported are raw uncompressed bytes; MB
means 10^6 bytes.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import Codebooks, CodeMatrix
from .errors import ConfigError
from .model import check_k
from .tensor import new_rng

_OVERLAP_CHUNK = 256
_EPS = np.finfo(np.float64).eps


@dataclass
class SizeReport:
    M: int
    K: int
    H: int
    vocab_size: int
    num_vectors: int          # basis vectors stored: M*K
    vector_bytes: int         # M*K*H float32 values
    code_bits_per_word: int   # M*log2(K)
    code_bytes_exact: int     # ceil(|V| * bits / 8), no per-word padding
    code_bytes_aligned: int   # |V| * ceil(bits / 8), as the code file stores them
    total_bytes: int          # vector_bytes + code_bytes_aligned
    baseline_bytes: int       # |V| * H * 4, the uncompressed matrix
    compression_ratio: float
    binary_equivalent_bits: int  # N/2 for a binary code over the same basis

    def as_pairs(self):
        return [
            ("M", self.M),
            ("K", self.K),
            ("H", self.H),
            ("vocab_size", self.vocab_size),
            ("num_vectors", self.num_vectors),
            ("code_bits_per_word", self.code_bits_per_word),
            ("code_bytes_exact", self.code_bytes_exact),
            ("code_bytes_aligned", self.code_bytes_aligned),
            ("vector_bytes", self.vector_bytes),
            ("total_bytes", self.total_bytes),
            ("total_mb", self.total_bytes / 1e6),
            ("baseline_bytes", self.baseline_bytes),
            ("baseline_mb", self.baseline_bytes / 1e6),
            ("compression_ratio", self.compression_ratio),
            ("binary_equivalent_bits", self.binary_equivalent_bits),
        ]


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
    """Exact storage accounting for a scheme over a vocabulary."""
    if vocab_size < 0:
        raise ConfigError(f"vocab_size must be >= 0, got {vocab_size}")
    bits = scheme.bits_per_word
    n_basis = scheme.M * scheme.K
    vector_bytes = n_basis * scheme.H * 4
    code_bytes_exact = (vocab_size * bits + 7) // 8
    code_bytes_aligned = vocab_size * ((bits + 7) // 8)
    total = vector_bytes + code_bytes_aligned
    baseline = vocab_size * scheme.H * 4
    return SizeReport(
        M=scheme.M,
        K=scheme.K,
        H=scheme.H,
        vocab_size=vocab_size,
        num_vectors=n_basis,
        vector_bytes=vector_bytes,
        code_bits_per_word=bits,
        code_bytes_exact=code_bytes_exact,
        code_bytes_aligned=code_bytes_aligned,
        total_bytes=total,
        baseline_bytes=baseline,
        compression_ratio=baseline / total if total else float("inf"),
        binary_equivalent_bits=n_basis // 2,
    )


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
    keep first-occurrence order, so output is deterministic.
    """
    if len(vocab) != codes.vocab_size:
        raise ConfigError(
            f"vocabulary has {len(vocab)} words but codes cover {codes.vocab_size}"
        )
    groups = {}
    for idx, row in enumerate(codes.codes):
        groups.setdefault(tuple(int(c) for c in row), []).append(idx)
    shared = [(code, idxs) for code, idxs in groups.items() if len(idxs) >= 2]
    shared.sort(key=lambda item: (-len(item[1]), item[1][0]))
    return [(code, [vocab[i] for i in idxs]) for code, idxs in shared]


def _map(fn, items, threads):
    """[fn(item) for item in items], on a pool of `threads` threads when > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
        # them divided by the count.
        grouped = block[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        filled = np.flatnonzero(counts)
        for k in filled:
            np.add.reduce(grouped[ends[k] - counts[k]:ends[k]], axis=0, out=centroids[k])
        centroids[filled] /= counts[filled, None]

    assign = _nearest(block, xx, xn, centroids)
    sse = float(((block - centroids[assign]) ** 2).sum())
    return assign, centroids, sse


def pq_baseline(emb, M, K, iterations=25, seed=0, threads=1):
    """Product quantization baseline: independent k-means per dimension block.

    Dimensions split into M contiguous blocks as np.array_split does: H/M
    each when M divides H, otherwise the first H mod M blocks are one wider.
    Each block is clustered into K centroids and a word's code component i
    is its cluster in block i. Returned codebooks embed the centroids in
    full-width vectors zero-padded outside their block, so reconstruct_all
    reproduces the PQ reconstruction exactly. Loss uses the training
    convention: squared L2 summed over dimensions, averaged over words.
    Blocks get independently spawned generators, so results do not depend
    on the thread count. A word with a NaN or infinite value raises
    DataError naming it before any clustering.
    """
    matrix = emb.matrix
    vocab_size, dim = matrix.shape
    if not 1 <= M <= dim:
        raise ConfigError(f"M must be between 1 and H={dim}, got {M}")
    check_k(K)
    if vocab_size < K:
        raise ConfigError(f"need at least K={K} words, got {vocab_size}")
    emb.require_finite("PQ")
    blocks = [(cols[0], cols[-1] + 1) for cols in np.array_split(np.arange(dim), M)]
    block_rngs = new_rng(seed).spawn(M)

    def run(i):
        lo, hi = blocks[i]
        block = matrix[:, lo:hi].astype(np.float64)
        return _kmeans_block(block, K, iterations, block_rngs[i])

    results = _map(run, range(M), threads)

    codes = np.zeros((vocab_size, M), dtype=np.int32)
    books = np.zeros((M * K, dim), dtype=np.float32)
    total_sse = 0.0
    for i, ((lo, hi), (assign, centroids, sse)) in enumerate(zip(blocks, results)):
        codes[:, i] = assign
        books[i * K:(i + 1) * K, lo:hi] = centroids
        total_sse += sse
    loss = total_sse / vocab_size if vocab_size else 0.0
    return CodeMatrix(M, K, codes), Codebooks(M, K, dim, books), loss


def _normalize_rows(matrix):
    x = matrix.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def _check_pair(original, recon, consumer):
    """Two matrices to compare: the same words in order, every value finite."""
    if original.vocab != recon.vocab:
        raise ConfigError(f"{consumer} needs identical vocabularies in order")
    original.require_finite(consumer)
    recon.require_finite(consumer)


def neighbor_overlap(original, recon, k, sample, seed=0, threads=1):
    """Mean fraction of shared top-k cosine neighbors over sampled queries.

    Exact brute-force neighbors, excluding the query itself. Queries are
    drawn without replacement from a seeded generator. Chunked evaluation
    has fixed boundaries, so any thread count gives identical results.
    """
    _check_pair(original, recon, "neighbor overlap")
    vocab_size = original.vocab_size
    if k >= vocab_size:
        raise ConfigError(f"k={k} must be smaller than the vocabulary ({vocab_size})")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    rng = new_rng(seed)
    queries = rng.choice(vocab_size, size=min(sample, vocab_size), replace=False)
    x_orig = _normalize_rows(original.matrix)
    x_recon = _normalize_rows(recon.matrix)

    def topk(sims, rows):
        # Exclude self before ranking.
        sims[np.arange(len(rows)), rows] = -np.inf
        part = np.argpartition(sims, -k, axis=1)[:, -k:]
        return part

    def run(chunk):
        rows = queries[chunk]
        top_o = topk(x_orig[rows] @ x_orig.T, rows)
        top_r = topk(x_recon[rows] @ x_recon.T, rows)
        shared = [
            len(set(a.tolist()) & set(b.tolist())) for a, b in zip(top_o, top_r)
        ]
        return np.asarray(shared, dtype=np.float64)

    chunks = [
        slice(i, min(i + _OVERLAP_CHUNK, len(queries)))
        for i in range(0, len(queries), _OVERLAP_CHUNK)
    ]
    parts = _map(run, chunks, threads)
    shared = np.concatenate(parts) if parts else np.zeros(0)
    return float(shared.mean() / k) if len(shared) else 0.0


def reconstruction_report(original, recon):
    """Quality of a reconstruction against the original matrix.

    mse follows the training convention (squared L2 summed over dimensions,
    averaged over words). Cosines of exactly-zero rows count as 0.
    """
    _check_pair(original, recon, "the reconstruction report")
    if original.dim != recon.dim:
        raise ConfigError(
            f"dimension mismatch: {original.dim} vs {recon.dim}"
        )
    a = original.matrix.astype(np.float64)
    b = recon.matrix.astype(np.float64)
    diff = b - a
    mse = float((diff ** 2).sum(axis=1).mean()) if len(a) else 0.0
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    cos = np.divide(
        (a * b).sum(axis=1), denom, out=np.zeros(len(a)), where=denom > 0
    )
    return {
        "vocab_size": original.vocab_size,
        "dim": original.dim,
        "mse": mse,
        "max_abs_error": float(np.abs(diff).max()) if diff.size else 0.0,
        "mean_cosine": float(cos.mean()) if len(cos) else 0.0,
        "min_cosine": float(cos.min()) if len(cos) else 0.0,
    }


def format_pairs(pairs, fmt):
    """Render (key, value) pairs as human text or as key<TAB>value lines."""
    if fmt == "kv":
        return "\n".join(f"{key}\t{value}" for key, value in pairs) + "\n"
    width = max((len(str(k)) for k, _ in pairs), default=0)
    return "\n".join(f"{str(k).ljust(width)}  {value}" for k, value in pairs) + "\n"
