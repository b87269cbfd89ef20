import math

import numpy as np
import pytest

from codecomp import tensor
from codecomp.analysis import (
    balance_table,
    format_pairs,
    neighbor_overlap,
    pq_baseline,
    reconstruction_report,
    shared_code_groups,
    size_report,
)
from codecomp.codec import CodeMatrix, compose_embedding, reconstruct_all
from codecomp.embeddings import EmbeddingMatrix
from codecomp.errors import ConfigError
from codecomp.model import SchemeConfig


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
            assert rep.code_bits_per_word == bits, (m_books, k_words)

    def test_full_accounting_16_32(self):
        rep = size_report(SchemeConfig(M=16, K=32, H=300), 75102)
        assert rep.num_vectors == 512
        assert rep.vector_bytes == 512 * 300 * 4
        assert rep.code_bytes_exact == 751020
        assert rep.code_bytes_aligned == 751020
        assert rep.total_bytes == 614400 + 751020
        assert rep.baseline_bytes == 75102 * 300 * 4
        assert rep.compression_ratio == pytest.approx(90122400 / 1365420)
        assert rep.binary_equivalent_bits == 256

    def test_aligned_records_for_128_bit_codes(self):
        rep = size_report(SchemeConfig(M=32, K=16, H=300), 75102)
        assert rep.code_bytes_aligned == 75102 * 16
        assert rep.code_bytes_aligned == 1201632

    def test_exact_vs_aligned_disagree_for_narrow_codes(self):
        rep = size_report(SchemeConfig(M=1, K=2, H=4), 10)
        assert rep.code_bits_per_word == 1
        assert rep.code_bytes_exact == 2   # ceil(10 bits / 8)
        assert rep.code_bytes_aligned == 10

    def test_empty_vocab(self):
        rep = size_report(SchemeConfig(M=2, K=4, H=4), 0)
        assert rep.code_bytes_exact == 0
        assert rep.total_bytes == rep.vector_bytes

    def test_negative_vocab(self):
        with pytest.raises(ConfigError):
            size_report(SchemeConfig(M=2, K=4, H=4), -1)

    def test_pairs_include_mb(self):
        rep = size_report(SchemeConfig(M=16, K=32, H=300), 75102)
        pairs = dict(rep.as_pairs())
        assert pairs["total_mb"] == pytest.approx(1.36542)
        assert pairs["baseline_mb"] == pytest.approx(90.1224)


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

    def test_vocab_mismatch(self):
        codes = CodeMatrix(2, 4, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ConfigError):
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

    def test_thread_count_does_not_change_result(self):
        emb = random_embeddings(100, 8, seed=5)
        codes1, _, loss1 = pq_baseline(emb, M=4, K=4, seed=2, threads=1)
        codes2, _, loss2 = pq_baseline(emb, M=4, K=4, seed=2, threads=3)
        assert codes1 == codes2
        assert loss1 == loss2

    def test_deterministic_for_seed(self):
        emb = random_embeddings(100, 8, seed=5)
        a = pq_baseline(emb, M=2, K=4, seed=9)
        b = pq_baseline(emb, M=2, K=4, seed=9)
        assert a[0] == b[0]
        assert a[2] == b[2]

    def test_paper_scheme_on_indivisible_dimension(self):
        # M16 at H=300: blocks of 19 (twelve) and 18 (four) dimensions. Each
        # column must belong to exactly one block for the codebooks to
        # reproduce the reported loss.
        emb = random_embeddings(64, 300, seed=7)
        codes, books, loss = pq_baseline(emb, M=16, K=4, iterations=3, seed=0)
        assert codes.codes.shape == (64, 16)
        recon = np.stack([compose_embedding(row, books) for row in codes.codes])
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

    def test_threads_do_not_change_result(self):
        a = random_embeddings(400, 12, seed=3)
        b = random_embeddings(400, 12, seed=4)
        o1 = neighbor_overlap(a, b, k=7, sample=300, seed=5, threads=1)
        o2 = neighbor_overlap(a, b, k=7, sample=300, seed=5, threads=4)
        assert o1 == o2

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


class TestFormatPairs:
    def test_kv_is_tab_separated(self):
        out = format_pairs([("a", 1), ("bb", 2.5)], "kv")
        assert out == "a\t1\nbb\t2.5\n"

    def test_text_aligns_keys(self):
        out = format_pairs([("a", 1), ("long_key", 2)], "text")
        assert out == "a         1\nlong_key  2\n"

    def test_empty(self):
        assert format_pairs([], "kv") == "\n"
