import logging

import numpy as np
import pytest

from codecomp import tensor
from codecomp.embeddings import (
    EmbeddingMatrix,
    read_binary_matrix,
    read_text_embeddings,
    write_binary_matrix,
    write_text_embeddings,
)
from codecomp.errors import ConfigError, DataError
from codecomp.synthetic import synthetic_embeddings


class TestEmbeddingMatrix:
    def test_casts_to_float32(self):
        emb = EmbeddingMatrix(vocab=["a"], matrix=np.array([[1.0, 2.0]]))
        assert emb.matrix.dtype == np.float32
        assert emb.vocab_size == 1
        assert emb.dim == 2

    def test_rejects_duplicate_words(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(vocab=["a", "a"], matrix=np.zeros((2, 2)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ConfigError):
            EmbeddingMatrix(vocab=["a"], matrix=np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigError):
            EmbeddingMatrix(vocab=["a"], matrix=np.zeros(3))


class TestTextFormat:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("the 0.1 -0.2 0.3\nof 1.5 2.5 -3.5\n")
        emb = read_text_embeddings(path)
        assert emb.vocab == ["the", "of"]
        assert emb.matrix.shape == (2, 3)
        assert emb.matrix[1, 2] == np.float32(-3.5)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\n\n\nb 3 4\n")
        emb = read_text_embeddings(path)
        assert emb.vocab == ["a", "b"]

    def test_limit_takes_first_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i} {i}\n" for i in range(10)))
        emb = read_text_embeddings(path, limit=4)
        assert emb.vocab == ["w0", "w1", "w2", "w3"]

    def test_dimension_error_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 4 5\n")
        with pytest.raises(DataError, match="line 2"):
            read_text_embeddings(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb x 4\n")
        with pytest.raises(DataError, match="line 2"):
            read_text_embeddings(path)

    def test_word_with_no_vector(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("lonely\n")
        with pytest.raises(DataError, match="no vector"):
            read_text_embeddings(path)

    def test_duplicate_word_keeps_first_and_warns(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\na 9 9\n")
        with caplog.at_level(logging.WARNING, logger="codecomp.embeddings"):
            emb = read_text_embeddings(path)
        assert emb.vocab == ["a", "b"]
        assert emb.matrix[0, 0] == 1.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = tensor.new_rng(42)
        emb = EmbeddingMatrix(
            vocab=[f"w{i}" for i in range(30)],
            matrix=rng.standard_normal((30, 7)).astype(np.float32) * 100,
        )
        path = tmp_path / "emb.txt"
        write_text_embeddings(emb, path)
        again = read_text_embeddings(path)
        assert again.vocab == emb.vocab
        assert np.array_equal(
            again.matrix.view(np.uint32), emb.matrix.view(np.uint32)
        )

    def test_word_with_space_rejected_on_write(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["a b"], matrix=np.zeros((1, 2)))
        with pytest.raises(DataError):
            write_text_embeddings(emb, tmp_path / "emb.txt")

    def test_empty_word_rejected_on_write(self, tmp_path):
        emb = EmbeddingMatrix(vocab=[""], matrix=np.zeros((1, 2)))
        with pytest.raises(DataError):
            write_text_embeddings(emb, tmp_path / "emb.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        emb = read_text_embeddings(path)
        assert emb.vocab_size == 0


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        rng = tensor.new_rng(3)
        emb = EmbeddingMatrix(
            vocab=["alpha", "été", "w3"],
            matrix=rng.standard_normal((3, 5)).astype(np.float32),
        )
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        again = read_binary_matrix(path)
        assert again.vocab == emb.vocab
        assert np.array_equal(again.matrix, emb.matrix)

    def test_header_bytes(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["a"], matrix=np.zeros((1, 2)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DEM1"
        assert raw[4] == 1
        assert np.frombuffer(raw[5:13], dtype="<u4").tolist() == [1, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(DataError, match="magic"):
            read_binary_matrix(path)

    def test_truncation_names_byte_counts(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["a", "b"], matrix=np.ones((2, 3)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataError, match="expected 24 bytes"):
            read_binary_matrix(path)

    def test_truncated_vocab(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["abcdef", "ghijkl"], matrix=np.ones((2, 2)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="truncated vocabulary"):
            read_binary_matrix(path)


class TestSyntheticGenerator:
    def test_shapes_and_determinism(self):
        emb, codes, books = synthetic_embeddings(M=3, K=4, H=6, vocab_size=50,
                                                 noise_std=0.01, seed=5)
        assert emb.matrix.shape == (50, 6)
        assert codes.codes.shape == (50, 3)
        assert books.vectors.shape == (12, 6)
        emb2, codes2, _ = synthetic_embeddings(M=3, K=4, H=6, vocab_size=50,
                                               noise_std=0.01, seed=5)
        assert np.array_equal(emb.matrix, emb2.matrix)
        assert (codes2.M, codes2.K) == (3, 4)
        assert np.array_equal(codes.codes, codes2.codes)

    def test_embeddings_sit_near_compositional_sums(self):
        from codecomp.codec import reconstruct_all

        emb, codes, books = synthetic_embeddings(M=4, K=8, H=16, vocab_size=200,
                                                 noise_std=0.01, seed=9)
        clean = reconstruct_all(codes, books, vocab=emb.vocab)
        resid = emb.matrix.astype(np.float64) - clean.matrix.astype(np.float64)
        # Residuals are the injected Gaussian noise.
        assert abs(float(resid.std()) - 0.01) < 0.002
        assert float(np.abs(resid).max()) < 0.01 * 6

    def test_codebook_entries_bounded(self):
        _, _, books = synthetic_embeddings(M=2, K=4, H=5, vocab_size=30,
                                           noise_std=0.0, seed=1)
        assert float(np.abs(books.vectors).max()) <= 1.0

    def test_zero_noise_is_exactly_compositional(self):
        from codecomp.codec import reconstruct_all

        emb, codes, books = synthetic_embeddings(M=2, K=4, H=5, vocab_size=30,
                                                 noise_std=0.0, seed=2)
        clean = reconstruct_all(codes, books, vocab=emb.vocab)
        assert np.array_equal(emb.matrix, clean.matrix)
