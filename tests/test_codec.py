import numpy as np
import pytest

from codecomp import codec, model, tensor
from codecomp.codec import (
    CodeMatrix,
    Codebooks,
    export_codes,
    pack_codes,
    read_code_file,
    read_codebook_file,
    reconstruct_all,
    unpack_codes,
    write_code_file,
    write_codebook_file,
)
from codecomp.embeddings import EmbeddingMatrix
from codecomp.errors import ConfigError, DataError
from codecomp.model import SchemeConfig


def make_embeddings(vocab_size, dim, seed=0):
    rng = tensor.new_rng(seed)
    return EmbeddingMatrix(
        matrix=rng.standard_normal((vocab_size, dim)).astype(np.float32),
        vocab=[f"w{i}" for i in range(vocab_size)],
    )


class TestCodeMatrix:
    def test_range_validation(self):
        with pytest.raises(DataError):
            CodeMatrix(2, 4, np.array([[0, 4]]))
        with pytest.raises(DataError):
            CodeMatrix(2, 4, np.array([[-1, 0]]))

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            CodeMatrix(3, 4, np.zeros((5, 2), dtype=np.int64))

    def test_widths(self):
        codes = CodeMatrix(16, 32, np.zeros((3, 16), dtype=np.int64))
        assert codes.bits_per_word == 80
        assert codes.bytes_per_word == 10
        codes = CodeMatrix(32, 16, np.zeros((3, 32), dtype=np.int64))
        assert codes.bits_per_word == 128
        assert codes.bytes_per_word == 16
        codes = CodeMatrix(1, 2, np.zeros((3, 1), dtype=np.int64))
        assert codes.bits_per_word == 1
        assert codes.bytes_per_word == 1


class TestExport:
    def test_argmax_follows_encoder_head_bias(self):
        # theta = 0 makes h = 0, so the alphas reduce to softplus(b_prime)
        # and every word gets the code spelled out by the bias pattern.
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        params.theta[...] = 0
        params.b[...] = 0
        params.b_prime[...] = 0
        params.b_prime[2] = 3.0   # book 0: codeword 2 wins
        params.b_prime[4 + 1] = 5.0  # book 1: codeword 1 wins
        emb = make_embeddings(6, 5)
        codes, books = export_codes(params, emb, cfg)
        assert np.array_equal(codes.codes, np.tile([2, 1], (6, 1)))
        assert np.array_equal(books.vectors, params.A)

    def test_ties_break_to_smallest_index(self):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        params.theta[...] = 0
        params.b[...] = 0
        params.b_prime[...] = 0
        codes, _ = export_codes(params, make_embeddings(4, 5), cfg)
        assert np.array_equal(codes.codes, np.zeros((4, 2), dtype=np.int32))

    def test_chunked_export_matches_whole_matrix_math(self):
        cfg = SchemeConfig(M=2, K=4, H=4)
        params = model.init_params(cfg, tensor.new_rng(3))
        emb = make_embeddings(codec._EXPORT_CHUNK + 100, 4, seed=7)
        codes, _ = export_codes(params, emb, cfg)
        h = np.tanh(emb.matrix.astype(np.float64) @ params.theta + params.b)
        raw = h @ params.theta_prime + params.b_prime
        alpha = np.log1p(np.exp(np.minimum(raw, 30.0))) + np.maximum(raw - 30.0, 0)
        want = alpha.reshape(-1, 2, 4).argmax(axis=2)
        assert np.array_equal(codes.codes, want)

    def test_dimension_mismatch(self):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        with pytest.raises(ConfigError):
            export_codes(params, make_embeddings(4, 6), cfg)

    @pytest.mark.parametrize("M, K, H", [(4, 4, 5), (2, 8, 5), (2, 4, 6)])
    def test_scheme_mismatch(self, M, K, H):
        params = model.init_params(SchemeConfig(M=2, K=4, H=5), tensor.new_rng(0))
        with pytest.raises(ConfigError):
            export_codes(params, make_embeddings(4, H), SchemeConfig(M=M, K=K, H=H))

    def test_sampled_export_is_seeded_and_in_range(self):
        cfg = SchemeConfig(M=2, K=8, H=5)
        params = model.init_params(cfg, tensor.new_rng(1))
        emb = make_embeddings(50, 5)
        a, _ = export_codes(params, emb, cfg, noise_rng=tensor.new_rng(4))
        b, _ = export_codes(params, emb, cfg, noise_rng=tensor.new_rng(4))
        assert a == b
        assert a.codes.min() >= 0 and a.codes.max() < 8
        c, _ = export_codes(params, emb, cfg, noise_rng=tensor.new_rng(5))
        assert not np.array_equal(a.codes, c.codes)


def compose_one(code, books):
    """Reference decoder for one word: a float64 sum in ascending codebook order."""
    acc = np.zeros(books.H, dtype=np.float64)
    for i, k in enumerate(code):
        acc += books.vectors[i * books.K + k]
    return acc.astype(np.float32)


class TestCompose:
    def test_hand_case(self):
        vectors = np.arange(8 * 3, dtype=np.float32).reshape(8, 3)
        books = Codebooks(2, 4, 3, vectors)
        # book 0 codeword 3 is row 3, book 1 codeword 1 is row 5
        got = reconstruct_all(CodeMatrix(2, 4, np.array([[3, 1]])), books).matrix
        want = vectors[3] + vectors[5]
        assert np.array_equal(got, want[None])
        assert got.dtype == np.float32

    def test_out_of_range_code(self):
        # A code outside [0, K-1] cannot reach the decoder: CodeMatrix rejects it.
        with pytest.raises(DataError):
            reconstruct_all(CodeMatrix(2, 4, np.array([[0, 4]])),
                            Codebooks(2, 4, 3, np.zeros((8, 3), dtype=np.float32)))

    def test_wrong_length_code(self):
        with pytest.raises(ConfigError):
            reconstruct_all(CodeMatrix(2, 4, np.array([[0, 1, 2]])),
                            Codebooks(2, 4, 3, np.zeros((8, 3), dtype=np.float32)))

    def test_reconstruct_all_matches_per_word_compose(self):
        rng = tensor.new_rng(11)
        vectors = rng.standard_normal((3 * 8, 6)).astype(np.float32)
        books = Codebooks(3, 8, 6, vectors)
        codes = CodeMatrix(3, 8, rng.integers(0, 8, size=(20, 3)))
        recon = reconstruct_all(codes, books)
        assert recon.matrix.shape == (20, 6)
        assert recon.vocab[0] == "w0"
        for w in range(20):
            assert np.array_equal(recon.matrix[w], compose_one(codes.codes[w], books))

    def test_reconstruct_all_keeps_given_vocab(self):
        books = Codebooks(1, 2, 2, np.ones((2, 2), dtype=np.float32))
        codes = CodeMatrix(1, 2, np.zeros((2, 1), dtype=np.int64))
        recon = reconstruct_all(codes, books, vocab=["alpha", "beta"])
        assert recon.vocab == ["alpha", "beta"]

    def test_scheme_mismatch(self):
        books = Codebooks(2, 4, 3, np.zeros((8, 3), dtype=np.float32))
        codes = CodeMatrix(2, 8, np.zeros((5, 2), dtype=np.int64))
        with pytest.raises(DataError):
            reconstruct_all(codes, books)


class TestPacking:
    def test_hand_packed_bytes(self):
        # M=2, K=4: two 2-bit fields per word, one byte per word.
        # Word [3, 1]: bits 1,1 then 1,0 -> 0b0111 = 7.
        # Word [0, 2]: bits 0,0 then 0,1 -> 0b1000 = 8.
        codes = CodeMatrix(2, 4, np.array([[3, 1], [0, 2]]))
        blob = pack_codes(codes)
        assert blob[:4] == b"DCC1"
        assert blob[4] == 1
        assert np.frombuffer(blob[5:17], dtype="<u4").tolist() == [2, 4, 2]
        assert list(blob[17:]) == [7, 8]

    def test_padding_to_byte_boundary(self):
        # M=3, K=4 is 6 bits; each word still occupies a full byte.
        codes = CodeMatrix(3, 4, np.array([[3, 3, 3]]))
        blob = pack_codes(codes)
        assert len(blob) == 17 + 1
        assert blob[17] == 0b00111111

    def test_roundtrip_many_schemes(self):
        rng = tensor.new_rng(21)
        for m_books, k_words in [(1, 2), (8, 8), (16, 32), (32, 16), (64, 8), (5, 4)]:
            values = rng.integers(0, k_words, size=(97, m_books))
            codes = CodeMatrix(m_books, k_words, values)
            blob = pack_codes(codes)
            again, end = unpack_codes(blob)
            assert again == codes, (m_books, k_words)
            assert end == len(blob), (m_books, k_words)

    def test_record_size(self):
        codes = CodeMatrix(16, 32, np.zeros((10, 16), dtype=np.int64))
        assert len(pack_codes(codes)) == 17 + 10 * 10
        codes = CodeMatrix(32, 16, np.zeros((10, 32), dtype=np.int64))
        assert len(pack_codes(codes)) == 17 + 10 * 16

    def test_empty_vocab(self):
        codes = CodeMatrix(2, 4, np.zeros((0, 2), dtype=np.int64))
        blob = pack_codes(codes)
        assert len(blob) == 17
        assert unpack_codes(blob) == (codes, 17)

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            unpack_codes(b"XXXX" + bytes(13))

    def test_short_header(self):
        with pytest.raises(DataError, match="17"):
            unpack_codes(b"DCC1\x01")

    def test_bad_version(self):
        codes = CodeMatrix(2, 4, np.array([[1, 2]]))
        blob = bytearray(pack_codes(codes))
        blob[4] = 2
        with pytest.raises(DataError, match="version"):
            unpack_codes(bytes(blob))

    def test_non_power_of_two_k_in_header(self):
        import struct
        blob = b"DCC1" + struct.pack("<BIII", 1, 2, 3, 0)
        with pytest.raises(DataError, match="power of 2") as err:
            unpack_codes(blob)
        assert "offset 9" in str(err.value)

    def test_truncated_payload_reports_offset(self):
        codes = CodeMatrix(2, 4, np.array([[1, 2], [3, 0]]))
        blob = pack_codes(codes)
        with pytest.raises(DataError, match="offset 17"):
            unpack_codes(blob[:-1])


class TestCodeFile:
    def test_roundtrip_with_vocabulary(self, tmp_path):
        rng = tensor.new_rng(5)
        codes = CodeMatrix(4, 8, rng.integers(0, 8, size=(5, 4)))
        vocab = ["the", "of", "naive", "über", "日本語"]
        path = tmp_path / "codes.bin"
        write_code_file(path, codes, vocab)
        codes2, vocab2 = read_code_file(path)
        assert codes2 == codes
        assert vocab2 == vocab

    def test_vocab_length_mismatch(self, tmp_path):
        codes = CodeMatrix(2, 4, np.array([[1, 2]]))
        with pytest.raises(ConfigError):
            write_code_file(tmp_path / "codes.bin", codes, ["a", "b"])

    def test_truncated_vocab(self, tmp_path):
        codes = CodeMatrix(2, 4, np.array([[1, 2], [3, 0]]))
        path = tmp_path / "codes.bin"
        write_code_file(path, codes, ["alpha", "beta"])
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(DataError, match="truncated vocabulary"):
            read_code_file(path)


class TestCodebookFile:
    def test_roundtrip(self, tmp_path):
        rng = tensor.new_rng(6)
        books = Codebooks(3, 4, 7, rng.standard_normal((12, 7)).astype(np.float32))
        path = tmp_path / "books.bin"
        write_codebook_file(path, books)
        books2 = read_codebook_file(path)
        assert (books2.M, books2.K, books2.H) == (3, 4, 7)
        assert np.array_equal(books2.vectors, books.vectors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "books.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError, match="magic"):
            read_codebook_file(path)

    def test_truncated_payload(self, tmp_path):
        books = Codebooks(2, 4, 3, np.zeros((8, 3), dtype=np.float32))
        path = tmp_path / "books.bin"
        write_codebook_file(path, books)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DataError, match="truncated"):
            read_codebook_file(path)


class TestHardForwardAgreement:
    def test_export_then_compose_equals_hard_forward_loss(self):
        # The hard forward pass and the export/compose pipeline pick codes
        # the same way, so their reconstruction errors must agree.
        cfg = SchemeConfig(M=3, K=4, H=6)
        params = model.init_params(cfg, tensor.new_rng(13))
        emb = make_embeddings(40, 6, seed=14)
        trace = model.forward(params, emb.matrix, None, cfg, hard=True)
        codes, books = export_codes(params, emb, cfg)
        recon = reconstruct_all(codes, books, vocab=emb.vocab)
        diff = recon.matrix.astype(np.float64) - emb.matrix.astype(np.float64)
        mse = float((diff ** 2).sum(axis=1).mean())
        assert mse == pytest.approx(trace.loss, rel=1e-5)
