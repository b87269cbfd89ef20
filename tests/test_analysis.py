import hashlib
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from codecomp import tensor
from codecomp.analysis import (
    _kmeans_block,
    _nearest,
    _top_neighbors,
    balance_table,
    neighbor_overlap,
    pq_baseline,
    reconstruction_report,
    shared_code_groups,
    size_report,
)
from codecomp.codec import CodeMatrix, reconstruct_all
from codecomp.embeddings import EmbeddingMatrix
from codecomp.errors import ConfigError, DataError
from codecomp.model import SchemeConfig
from codecomp.synthetic import synthetic_embeddings


def random_embeddings(vocab_size, dim, seed):
    rng = tensor.new_rng(seed)
    return EmbeddingMatrix(
        vocab=[f"w{i}" for i in range(vocab_size)],
        matrix=rng.standard_normal((vocab_size, dim)).astype(np.float32),
    )


class TestSizeReport:
    def test_bits_for_standard_schemes(self):
        cases = {(8, 64): 48, (16, 32): 80, (32, 16): 128, (64, 8): 192}
        for (m_books, k_words), bits in cases.items():
            rep = size_report(SchemeConfig(M=m_books, K=k_words, H=300), 75102)
            assert rep["code_bits_per_word"] == bits, (m_books, k_words)

    def test_full_accounting_16_32(self):
        rep = size_report(SchemeConfig(M=16, K=32, H=300), 75102)
        assert rep["num_vectors"] == 512
        assert rep["vector_bytes"] == 512 * 300 * 4
        assert rep["code_bytes_exact"] == 751020
        assert rep["code_bytes_aligned"] == 751020
        assert rep["total_bytes"] == 614400 + 751020
        assert rep["baseline_bytes"] == 75102 * 300 * 4
        assert rep["compression_ratio"] == pytest.approx(90122400 / 1365420)
        assert rep["binary_equivalent_bits"] == 256

    def test_aligned_records_for_128_bit_codes(self):
        rep = size_report(SchemeConfig(M=32, K=16, H=300), 75102)
        assert rep["code_bytes_aligned"] == 75102 * 16
        assert rep["code_bytes_aligned"] == 1201632

    def test_exact_vs_aligned_disagree_for_narrow_codes(self):
        rep = size_report(SchemeConfig(M=1, K=2, H=4), 10)
        assert rep["code_bits_per_word"] == 1
        assert rep["code_bytes_exact"] == 2   # ceil(10 bits / 8)
        assert rep["code_bytes_aligned"] == 10

    def test_empty_vocab(self):
        rep = size_report(SchemeConfig(M=2, K=4, H=4), 0)
        assert rep["code_bytes_exact"] == 0
        assert rep["total_bytes"] == rep["vector_bytes"]

    def test_negative_vocab(self):
        with pytest.raises(ConfigError):
            size_report(SchemeConfig(M=2, K=4, H=4), -1)

    def test_pairs_include_mb(self):
        rep = size_report(SchemeConfig(M=16, K=32, H=300), 75102)
        assert list(rep) == [
            "M", "K", "H", "vocab_size", "num_vectors", "code_bits_per_word",
            "code_bytes_exact", "code_bytes_aligned", "vector_bytes", "total_bytes",
            "total_mb", "baseline_bytes", "baseline_mb", "compression_ratio",
            "binary_equivalent_bits",
        ]
        assert rep["total_mb"] == pytest.approx(1.36542)
        assert rep["baseline_mb"] == pytest.approx(90.1224)


class TestBalanceTable:
    def test_hand_counts(self):
        codes = CodeMatrix(2, 4, np.array([[0, 1], [0, 3], [1, 1]]))
        table = balance_table(codes)
        assert table.counts.tolist() == [[2, 1, 0, 0], [0, 2, 0, 1]]
        assert table.min_count == 0
        assert table.max_count == 2
        # Component 0 splits 2/1: entropy of (2/3, 1/3).
        want = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert table.entropy_bits[0] == pytest.approx(want)

    def test_rows_sum_to_vocab(self):
        rng = tensor.new_rng(8)
        codes = CodeMatrix(3, 8, rng.integers(0, 8, size=(101, 3)))
        table = balance_table(codes)
        assert np.array_equal(table.counts.sum(axis=1), np.full(3, 101))

    def test_uniform_distribution_hits_log2k(self):
        codes = CodeMatrix(1, 4, np.tile(np.arange(4), 5).reshape(20, 1))
        table = balance_table(codes)
        assert table.entropy_bits[0] == 2.0
        assert table.min_count == table.max_count == 5

    def test_dead_codewords_counted(self):
        codes = CodeMatrix(2, 4, np.zeros((6, 2), dtype=np.int64))
        pairs = dict(balance_table(codes).as_pairs())
        assert pairs["dead_codewords"] == 6
        assert pairs["min_count"] == 0
        assert pairs["max_count"] == 6

    def test_csv_shape(self):
        codes = CodeMatrix(2, 4, np.array([[0, 1], [0, 3]]))
        text = balance_table(codes).to_csv()
        lines = text.strip().split("\n")
        assert lines == ["2,0,0,0", "0,1,0,1"]

    def test_empty_codes(self):
        codes = CodeMatrix(2, 4, np.zeros((0, 2), dtype=np.int64))
        table = balance_table(codes)
        assert table.counts.sum() == 0
        assert np.array_equal(table.entropy_bits, np.zeros(2))


class TestSharedGroups:
    def test_groups_sorted_and_singletons_dropped(self):
        values = np.array([
            [0, 0],  # group A
            [1, 1],  # group B
            [0, 0],  # A
            [2, 2],  # singleton
            [1, 1],  # B
            [1, 1],  # B
        ])
        codes = CodeMatrix(2, 4, values)
        vocab = ["a", "b", "c", "d", "e", "f"]
        groups = shared_code_groups(codes, vocab)
        assert groups[0] == ((1, 1), ["b", "e", "f"])
        assert groups[1] == ((0, 0), ["a", "c"])
        assert len(groups) == 2

    def test_equal_sizes_keep_first_occurrence_order(self):
        values = np.array([[3, 3], [0, 0], [3, 3], [0, 0]])
        codes = CodeMatrix(2, 4, values)
        groups = shared_code_groups(codes, ["p", "q", "r", "s"])
        assert [g[0] for g in groups] == [(3, 3), (0, 0)]

    def test_counting_identity_against_brute_force(self):
        rng = tensor.new_rng(17)
        values = rng.integers(0, 2, size=(60, 3))
        codes = CodeMatrix(3, 2, values)
        vocab = [f"w{i}" for i in range(60)]
        groups = shared_code_groups(codes, vocab)
        brute = {}
        for i, row in enumerate(values):
            brute.setdefault(tuple(row), []).append(f"w{i}")
        for code, words in groups:
            assert brute[code] == words
        shared_words = sum(len(w) for _, w in groups)
        singles = sum(1 for v in brute.values() if len(v) == 1)
        assert shared_words + singles == 60

    def test_equal_size_groups_keep_first_occurrence_and_word_order(self):
        # Three groups of two and two groups of three, interleaved: sizes
        # descend, ties go to the group seen first, words stay in order.
        values = np.array([[2, 1], [0, 3], [1, 1], [0, 3], [3, 3], [2, 1],
                           [1, 1], [3, 3], [0, 2], [3, 3], [0, 2], [1, 1]])
        codes = CodeMatrix(2, 4, values)
        vocab = [f"w{i}" for i in range(len(values))]
        assert shared_code_groups(codes, vocab) == [
            ((1, 1), ["w2", "w6", "w11"]),
            ((3, 3), ["w4", "w7", "w9"]),
            ((2, 1), ["w0", "w5"]),
            ((0, 3), ["w1", "w3"]),
            ((0, 2), ["w8", "w10"]),
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_grouping_word_by_word(self, data):
        m_books = data.draw(st.integers(1, 3))
        k_words = data.draw(st.sampled_from([2, 4]))
        rows = data.draw(st.lists(st.lists(st.integers(0, k_words - 1),
                                           min_size=m_books, max_size=m_books),
                                  max_size=40))
        values = np.array(rows, dtype=np.int64).reshape(len(rows), m_books)
        vocab = [f"w{i}" for i in range(len(rows))]
        groups = {}
        for idx, row in enumerate(values):
            groups.setdefault(tuple(int(c) for c in row), []).append(idx)
        want = [(code, [vocab[i] for i in idxs]) for code, idxs in groups.items()
                if len(idxs) >= 2]
        want.sort(key=lambda item: (-len(item[1]), vocab.index(item[1][0])))
        assert shared_code_groups(CodeMatrix(m_books, k_words, values), vocab) == want

    def test_empty_vocab(self):
        codes = CodeMatrix(2, 4, np.zeros((0, 2), dtype=np.int64))
        assert shared_code_groups(codes, []) == []

    def test_vocab_mismatch(self):
        codes = CodeMatrix(2, 4, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ConfigError, match="^vocabulary has 2 words but codes cover 3$"):
            shared_code_groups(codes, ["a", "b"])


class TestPqBaseline:
    def test_separable_clusters_reach_zero_loss(self):
        # 8 words made of 4 distinct block values each repeated twice: the
        # optimum has every word on a centroid.
        rng = tensor.new_rng(2)
        basis = rng.standard_normal((4, 6)).astype(np.float32)
        matrix = basis[np.repeat(np.arange(4), 2)]
        emb = EmbeddingMatrix(vocab=[f"w{i}" for i in range(8)], matrix=matrix)
        _, _, loss = pq_baseline(emb, M=2, K=4, seed=0)
        assert loss == 0.0

    def test_two_cluster_oracle(self):
        emb = EmbeddingMatrix(
            vocab=["a", "b", "c", "d"],
            matrix=np.array([[0.0], [1.0], [10.0], [11.0]], dtype=np.float32),
        )
        for seed in range(4):
            codes, books, loss = pq_baseline(emb, M=1, K=2, seed=seed)
            # Optimal centroids 0.5 and 10.5; SSE 4 * 0.25, averaged over 4 words.
            assert loss == 0.25
            assert codes.codes[0, 0] == codes.codes[1, 0]
            assert codes.codes[2, 0] == codes.codes[3, 0]

    def test_codebooks_reproduce_assignments(self):
        emb = random_embeddings(80, 8, seed=4)
        codes, books, loss = pq_baseline(emb, M=4, K=4, seed=1)
        recon = reconstruct_all(codes, books, vocab=emb.vocab)
        diff = recon.matrix.astype(np.float64) - emb.matrix.astype(np.float64)
        mse = float((diff ** 2).sum(axis=1).mean())
        assert mse == pytest.approx(loss, rel=1e-5)

    def test_more_iterations_never_hurt(self):
        emb = random_embeddings(120, 6, seed=6)
        losses = [
            pq_baseline(emb, M=2, K=8, iterations=n, seed=3)[2]
            for n in (1, 5, 25)
        ]
        assert losses[0] >= losses[1] >= losses[2]

    def test_deterministic_for_seed(self):
        emb = random_embeddings(100, 8, seed=5)
        a = pq_baseline(emb, M=2, K=4, seed=9)
        b = pq_baseline(emb, M=2, K=4, seed=9)
        assert np.array_equal(a[0].codes, b[0].codes)
        assert a[2] == b[2]

    def test_paper_scheme_on_indivisible_dimension(self):
        # M16 at H=300: blocks of 19 (twelve) and 18 (four) dimensions. Each
        # column must belong to exactly one block for the codebooks to
        # reproduce the reported loss.
        emb = random_embeddings(64, 300, seed=7)
        codes, books, loss = pq_baseline(emb, M=16, K=4, iterations=3, seed=0)
        assert codes.codes.shape == (64, 16)
        recon = reconstruct_all(codes, books, emb.vocab).matrix
        diff = recon.astype(np.float64) - emb.matrix.astype(np.float64)
        assert float((diff ** 2).sum(axis=1).mean()) == pytest.approx(loss, rel=1e-5)

    def test_m_outside_one_to_h(self):
        emb = random_embeddings(30, 7, seed=0)
        for M in (0, 8):
            with pytest.raises(ConfigError):
                pq_baseline(emb, M=M, K=4)

    def test_bad_k(self):
        emb = random_embeddings(30, 8, seed=0)
        with pytest.raises(ConfigError):
            pq_baseline(emb, M=2, K=3)

    def test_vocab_smaller_than_k(self):
        emb = random_embeddings(3, 8, seed=0)
        with pytest.raises(ConfigError):
            pq_baseline(emb, M=2, K=4)

    def test_non_finite_word_is_named_before_clustering(self):
        emb = random_embeddings(30, 8, seed=0)
        emb.matrix[7, 3] = np.nan
        emb.matrix[12, 0] = np.inf
        with pytest.raises(DataError, match=r"'w7' \(row 7\)"):
            pq_baseline(emb, M=2, K=4)


def test_negative_seed_is_a_config_error():
    emb = random_embeddings(30, 8, seed=0)
    with pytest.raises(ConfigError, match="-1"):
        pq_baseline(emb, 2, 4, seed=-1)
    with pytest.raises(ConfigError, match="-1"):
        neighbor_overlap(emb, emb, k=2, sample=5, seed=-1)


def broadcast_nearest(block, centroids):
    return ((block[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)


def clustering_case(seed, n, d, K, log_scale, grid):
    """A float64 block and centroids full of exact and near ties.

    Rows repeat, some rows are zero, and rows span four decades of scale
    around 10**log_scale; with grid, values sit on a coarse grid so distinct
    pairs tie exactly. Centroids are copies of rows (distance exactly 0),
    with duplicates among them, and mirrored pairs x + v, x - v around a
    row x with a small v: equally far from x in exact arithmetic, so the
    GEMM form cannot rank them and only the exact re-score can.
    """
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n, d))
    if grid:
        block = np.round(block * 2) / 2
    block *= 10.0 ** (log_scale + rng.uniform(-2, 2, size=(n, 1)))
    block = block[rng.integers(0, n, size=n)]
    block[rng.random(n) < 0.1] = 0.0
    centroids = block[rng.integers(0, n, size=K)]
    for i in range(0, K - 1, 4):
        x = block[rng.integers(0, n)]
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-6, -1) * (np.abs(x).max() + 1e-3)
        centroids[i], centroids[i + 1] = x + v, x - v
    centroids[rng.random(K) < 0.2] = centroids[0]
    return block, centroids


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           d=st.integers(1, 24), K=st.sampled_from([2, 3, 4, 8, 16, 64]),
           log_scale=st.integers(-4, 4), grid=st.booleans())
    def test_equals_broadcast_argmin(self, seed, n, d, K, log_scale, grid):
        block, centroids = clustering_case(seed, n, d, K, log_scale, grid)
        xx = (block * block).sum(axis=1)
        got = _nearest(block, xx, np.sqrt(xx), centroids)
        assert np.array_equal(got, broadcast_nearest(block, centroids))

    def test_identical_centroids_take_the_lower_index(self):
        # Centroids 1 and 2 are equal, so every row ties between them and
        # must be re-scored exactly; argmin's lowest index wins.
        block = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.6], [0.0, 0.0]])
        centroids = np.array([[9.0, 9.0], [0.5, 0.5], [0.5, 0.5]])
        xx = (block * block).sum(axis=1)
        got = _nearest(block, xx, np.sqrt(xx), centroids)
        assert got.tolist() == [1, 1, 1, 1]


def reference_kmeans(block, K, iterations, rng):
    """Lloyd's algorithm with the full (n, K, d) broadcast distance."""
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
        assign = broadcast_nearest(block, centroids)
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
    assign = broadcast_nearest(block, centroids)
    sse = float(((block - centroids[assign]) ** 2).sum())
    return assign, centroids, sse


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 80),
       d=st.integers(1, 20), K=st.sampled_from([2, 4, 8, 16]),
       log_scale=st.integers(-4, 4), grid=st.booleans())
def test_kmeans_matches_broadcast_lloyd_bit_for_bit(seed, n, d, K, log_scale, grid):
    block, _ = clustering_case(seed, n, d, K, log_scale, grid)
    got = _kmeans_block(block, K, 6, tensor.new_rng(seed))
    want = reference_kmeans(block, K, 6, tensor.new_rng(seed))
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert repr(got[2]) == repr(want[2])


def tie_heavy_embeddings():
    # Values on a 0.5 grid, 120 rows drawn from 40 distinct ones: many exact
    # distance ties between words and centroids.
    rng = tensor.new_rng(12)
    base = np.round(rng.standard_normal((40, 12)) * 2) / 2
    matrix = base[rng.integers(0, 40, size=120)].astype(np.float32)
    return EmbeddingMatrix(vocab=[f"w{i}" for i in range(120)], matrix=matrix)


# name -> (embeddings factory, M, K, codes sha256, codebooks sha256, repr(loss))
PQ_GOLDEN = {
    "m20_k16_h300": (
        lambda: synthetic_embeddings(M=8, K=16, H=300, vocab_size=1000,
                                     noise_std=0.1, seed=0)[0],
        20, 16,
        "8d0f3929c90af4c9fec69868c664ceef47a79fd1e3050625249fb9944631b3fd",
        "11e9244e7c43e30e52de2cbe2a8ce35e67633323a070a5e27f08e57617f0e916",
        "505.47064985507114",
    ),
    "m4_k8_h16": (
        lambda: synthetic_embeddings(M=4, K=8, H=16, vocab_size=200,
                                     noise_std=0.1, seed=4)[0],
        4, 8,
        "db2863cf970d31bfe3e7f37f5f4aa15dd1aa37f03baa4ff45173e7e9c79cfdc7",
        "5712aed3998dfacd35bf3b6e397cd10f01b5191762ecb405d78c6aecc5fba4ea",
        "7.13204774514272",
    ),
    "m16_k4_h300_indivisible": (
        lambda: synthetic_embeddings(M=4, K=8, H=300, vocab_size=64,
                                     noise_std=0.1, seed=7)[0],
        16, 4,
        "dd55c2aaf9e58d624d9ee93ecdfa56d1135e737140d39a07f0995208730206d7",
        "5b5dabfd931ddeebec6f71c35c5cfda746b3ee16c1b245eb110646b9212d24ce",
        "255.58063098697104",
    ),
    "tie_heavy": (
        tie_heavy_embeddings,
        3, 8,
        "f323728af512c8e9e9878823e15b0a2812e7a4a34daec8409f25849a020f756c",
        "6bd84ba0b4a04a299310a611440f2c0312ed77eb59a149bce6ce94a1bb35bc8f",
        "3.6097491825984473",
    ),
}


@pytest.mark.parametrize("name", sorted(PQ_GOLDEN))
def test_pq_golden(name):
    """PQ codes, codebook bytes and loss are pinned on fixed inputs.

    The digests were pinned with numpy 2.4.6 (scipy-openblas 0.3.31). They
    are only meaningful on a build that rounds like that one: every distance
    that decides an assignment, and every centroid mean, is a float64
    reduction inside numpy, whose summation order is a numpy implementation
    detail. The BLAS build does not decide any of these bytes.
    """
    make, M, K, codes_sha, books_sha, loss_repr = PQ_GOLDEN[name]
    codes, books, loss = pq_baseline(make(), M, K, seed=5)
    assert hashlib.sha256(codes.codes.tobytes()).hexdigest() == codes_sha
    assert hashlib.sha256(books.vectors.tobytes()).hexdigest() == books_sha
    assert repr(loss) == loss_repr


class TestNeighborOverlap:
    def test_identical_matrices_give_one(self):
        emb = random_embeddings(100, 10, seed=1)
        assert neighbor_overlap(emb, emb, k=5, sample=50, seed=0) == 1.0

    def test_uniform_scaling_gives_one(self):
        emb = random_embeddings(100, 10, seed=1)
        scaled = EmbeddingMatrix(vocab=list(emb.vocab), matrix=emb.matrix * 2.0)
        assert neighbor_overlap(emb, scaled, k=5, sample=50, seed=0) == 1.0

    def test_independent_matrices_sit_at_chance(self):
        a = random_embeddings(500, 20, seed=1)
        b = random_embeddings(500, 20, seed=2)
        overlap = neighbor_overlap(a, b, k=10, sample=200, seed=0)
        # Chance level is k/(V-1) ~ 0.02; observed 0.019 for these seeds.
        assert 0.005 < overlap < 0.035

    def test_count_equals_set_intersection_of_top_neighbors(self):
        a = random_embeddings(300, 12, seed=3)
        noise = random_embeddings(300, 12, seed=4).matrix
        b = EmbeddingMatrix(vocab=list(a.vocab), matrix=a.matrix + 0.6 * noise)
        k, sample = 20, 120
        queries = tensor.new_rng(9).choice(300, size=sample, replace=False)
        shared = [len(set(x.tolist()) & set(y.tolist())) for x, y in
                  zip(_top_neighbors(a.matrix, queries, k), _top_neighbors(b.matrix, queries, k))]
        assert 0 < min(shared) and max(shared) < k  # every query shares some, none all
        assert neighbor_overlap(a, b, k, sample, seed=9) == float(np.mean(shared) / k)

    def test_k_too_large(self):
        emb = random_embeddings(10, 4, seed=0)
        with pytest.raises(ConfigError):
            neighbor_overlap(emb, emb, k=10, sample=5)

    def test_vocab_mismatch(self):
        a = random_embeddings(10, 4, seed=0)
        b = EmbeddingMatrix(vocab=[f"x{i}" for i in range(10)], matrix=a.matrix)
        with pytest.raises(ConfigError):
            neighbor_overlap(a, b, k=2, sample=5)


class TestReconstructionReport:
    def test_perfect_reconstruction(self):
        emb = random_embeddings(20, 5, seed=7)
        twin = EmbeddingMatrix(vocab=list(emb.vocab), matrix=emb.matrix.copy())
        rep = reconstruction_report(emb, twin)
        assert rep["mse"] == 0.0
        assert rep["max_abs_error"] == 0.0
        assert rep["mean_cosine"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        a = EmbeddingMatrix(vocab=["w"], matrix=np.array([[1.0, 0.0]]))
        b = EmbeddingMatrix(vocab=["w"], matrix=np.array([[0.0, 1.0]]))
        rep = reconstruction_report(a, b)
        assert rep["mse"] == 2.0
        assert rep["max_abs_error"] == 1.0
        assert rep["mean_cosine"] == 0.0

    def test_zero_row_counts_as_zero_cosine(self):
        a = EmbeddingMatrix(vocab=["w"], matrix=np.array([[1.0, 1.0]]))
        b = EmbeddingMatrix(vocab=["w"], matrix=np.array([[0.0, 0.0]]))
        rep = reconstruction_report(a, b)
        assert rep["min_cosine"] == 0.0

    def test_dim_mismatch(self):
        a = EmbeddingMatrix(vocab=["w"], matrix=np.zeros((1, 2)))
        b = EmbeddingMatrix(vocab=["w"], matrix=np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            reconstruction_report(a, b)
