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
from .tensor import new_rng

_OVERLAP_CHUNK = 256


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


def _kmeans_block(block, K, iterations, rng):
    """Lloyd's algorithm with k-means++ seeding on one dimension block.

    Empty clusters are repaired by splitting the largest cluster: the empty
    centroid moves to that cluster's farthest member, which is reassigned to
    it. Every phase is non-increasing in within-cluster squared distance.
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

    for _ in range(iterations):
        dist = ((block[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
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
        for k in range(K):
            if counts[k]:
                centroids[k] = block[assign == k].mean(axis=0)

    dist = ((block[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    assign = dist.argmin(axis=1)
    sse = float(((block - centroids[assign]) ** 2).sum())
    return assign, centroids, sse


def pq_baseline(emb, M, K, iterations=25, seed=0, threads=1):
    """Product quantization baseline: independent k-means per dimension block.

    Dimensions split into M contiguous blocks of H/M; each block is
    clustered into K centroids and a word's code component i is its cluster
    in block i. Returned codebooks embed the centroids in full-width vectors
    zero-padded outside their block, so compose_embedding reproduces the PQ
    reconstruction exactly. Loss uses the training convention: squared L2
    summed over dimensions, averaged over words. Blocks get independently
    spawned generators, so results do not depend on the thread count.
    """
    matrix = emb.matrix
    vocab_size, dim = matrix.shape
    if M < 1 or dim % M != 0:
        raise ConfigError(f"H={dim} is not divisible by M={M}")
    if K < 2 or (K & (K - 1)) != 0:
        raise ConfigError(f"K must be a power of 2 and >= 2, got {K}")
    if vocab_size < K:
        raise ConfigError(f"need at least K={K} words, got {vocab_size}")
    sub = dim // M
    block_rngs = new_rng(seed).spawn(M)

    def run(i):
        block = matrix[:, i * sub:(i + 1) * sub].astype(np.float64)
        return _kmeans_block(block, K, iterations, block_rngs[i])

    results = _map(run, range(M), threads)

    codes = np.zeros((vocab_size, M), dtype=np.int32)
    books = np.zeros((M * K, dim), dtype=np.float32)
    total_sse = 0.0
    for i, (assign, centroids, sse) in enumerate(results):
        codes[:, i] = assign
        books[i * K:(i + 1) * K, i * sub:(i + 1) * sub] = centroids
        total_sse += sse
    loss = total_sse / vocab_size if vocab_size else 0.0
    return CodeMatrix(M, K, codes), Codebooks(M, K, dim, books), loss


def _normalize_rows(matrix):
    x = matrix.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def neighbor_overlap(original, recon, k, sample, seed=0, threads=1):
    """Mean fraction of shared top-k cosine neighbors over sampled queries.

    Exact brute-force neighbors, excluding the query itself. Queries are
    drawn without replacement from a seeded generator. Chunked evaluation
    has fixed boundaries, so any thread count gives identical results.
    """
    if original.vocab != recon.vocab:
        raise ConfigError("neighbor_overlap needs identical vocabularies in order")
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
    if original.vocab != recon.vocab:
        raise ConfigError("reconstruction_report needs identical vocabularies in order")
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
