"""The four binary file formats: pinned bytes, round trips and truncation.

The golden digests pin every byte each writer produces from fixed inputs
that involve no training. The two exported code files also depend on the
float32 GEMMs (sgemm) of the numpy/BLAS build, so their digests are only
meaningful on a build that rounds like the one that pinned them (numpy
2.4.6 with scipy-openblas 0.3.31); the other digests depend only on the
PCG64 stream and the file layouts.
"""

import hashlib

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from codecomp import codec, model, tensor
from codecomp.embeddings import EmbeddingMatrix, read_binary_matrix, write_binary_matrix
from codecomp.errors import DataError
from codecomp.synthetic import synthetic_embeddings
from codecomp.trainer import load_checkpoint, save_checkpoint

GOLDEN = {
    "model.ckpt": "6cf0afbef811154c6a48de3db98b2caa2fcc3b64fbac5ff868a0ed5ee6f81e00",
    "emb.bin": "29a919c066266ccb0e99c0cdb41ad925d2e843e71d0eb17e08f8afeeaac4b604",
    "synthetic_codes.bin": "0463a6fe1603f12b464c6b5b0671ef5c67a46f1810cdda98372f223d1ab95be4",
    "synthetic_books.bin": "844a8b22a816a57583dff1e6eef86c17599e3e27c114f1929380b59112c1c5cd",
    "export_codes.bin": "80b8bf1d484f97127aada405e84c4989eb521312e2bf3a9e6093af2b0daf038a",
    "export_books.bin": "e551188761188781f678f75a90f7137be16a1f271fe38239dbce71bc438cf1d7",
    "noisy_codes.bin": "8409df89048af27316aeace0b9e6e4f12e1eb382a3d09f56f7f9a075e42955c8",
}


def write_golden_files(root):
    cfg = model.SchemeConfig(M=4, K=8, H=16)
    params = model.init_params(cfg, tensor.new_rng(3))
    emb, codes, books = synthetic_embeddings(M=4, K=8, H=16, vocab_size=200,
                                             noise_std=0.1, seed=4)
    # Non-ASCII words exercise the UTF-8 length prefixes.
    emb = EmbeddingMatrix(vocab=[f"wörd{i}日" for i in range(emb.vocab_size)],
                          matrix=emb.matrix)
    save_checkpoint(root / "model.ckpt", params, cfg, iteration=12345)
    write_binary_matrix(emb, root / "emb.bin")
    codec.write_code_file(root / "synthetic_codes.bin", codes, emb.vocab)
    codec.write_codebook_file(root / "synthetic_books.bin", books)
    got, got_books = codec.export_codes(params, emb, cfg)
    codec.write_code_file(root / "export_codes.bin", got, emb.vocab)
    codec.write_codebook_file(root / "export_books.bin", got_books)
    noisy, _ = codec.export_codes(params, emb, cfg, noise_rng=tensor.new_rng(5))
    codec.write_code_file(root / "noisy_codes.bin", noisy, emb.vocab)


def test_golden_digests(tmp_path):
    write_golden_files(tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    assert digests == GOLDEN


# Random valid contents of each format must read back exactly.

# tmp_path is shared by the examples of one test; each example overwrites it.
bounded = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])
words = st.text(max_size=6)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def embedding_matrices(draw):
    vocab = draw(st.lists(words, max_size=8, unique=True))
    dim = draw(st.integers(0, 5))
    matrix = draw(hnp.arrays(np.float32, (len(vocab), dim), elements=st.floats(width=32)))
    return EmbeddingMatrix(vocab=vocab, matrix=matrix)


@st.composite
def code_matrices(draw):
    m = draw(st.integers(1, 6))
    k = 2 ** draw(st.integers(1, 9))
    rows = draw(st.integers(0, 8))
    codes = draw(hnp.arrays(np.int32, (rows, m), elements=st.integers(0, k - 1)))
    return codec.CodeMatrix(m, k, codes), draw(st.lists(words, min_size=rows,
                                                          max_size=rows))


@st.composite
def schemes(draw):
    k = 2 ** draw(st.integers(1, 4))
    return model.SchemeConfig(M=draw(st.integers(1, 4)), K=k, H=draw(st.integers(1, 5)))


def finite_arrays(shape):
    return hnp.arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False,
                                                           allow_infinity=False))


@bounded
@given(embedding_matrices())
def test_binary_matrix_roundtrip(tmp_path, emb):
    write_binary_matrix(emb, tmp_path / "emb.bin")
    got = read_binary_matrix(tmp_path / "emb.bin")
    assert got.vocab == emb.vocab
    assert same_bits(got.matrix, emb.matrix)


@bounded
@given(code_matrices())
def test_code_file_roundtrip(tmp_path, codes_and_vocab):
    codes, vocab = codes_and_vocab
    codec.write_code_file(tmp_path / "codes.bin", codes, vocab)
    assert codec.read_code_file(tmp_path / "codes.bin") == (codes, vocab)


@bounded
@given(st.data())
def test_codebook_file_roundtrip(tmp_path, data):
    cfg = data.draw(schemes())
    vectors = data.draw(finite_arrays((cfg.M * cfg.K, cfg.H)))
    codec.write_codebook_file(tmp_path / "books.bin",
                              codec.Codebooks(cfg.M, cfg.K, cfg.H, vectors))
    got = codec.read_codebook_file(tmp_path / "books.bin")
    assert (got.M, got.K, got.H) == (cfg.M, cfg.K, cfg.H)
    assert same_bits(got.vectors, vectors)


@bounded
@given(st.data())
def test_checkpoint_roundtrip(tmp_path, data):
    cfg = data.draw(schemes())
    params = model.ModelParams(cfg, data.draw(finite_arrays((model.ModelParams.size(cfg),))))
    iteration = data.draw(st.integers(0, 2 ** 64 - 1))
    save_checkpoint(tmp_path / "model.ckpt", params, cfg, iteration)
    got, got_cfg, got_iteration = load_checkpoint(tmp_path / "model.ckpt")
    assert (got_cfg.M, got_cfg.K, got_cfg.H, got_iteration) == (
        cfg.M, cfg.K, cfg.H, iteration)
    for name, arr in params.items():
        assert same_bits(getattr(got, name), arr)


# Every proper prefix of a valid file is an error, never a short read.

def small_files(root):
    emb = EmbeddingMatrix(vocab=["a", "", "日本"], matrix=np.ones((3, 2)))
    cfg = model.SchemeConfig(M=2, K=4, H=3)
    codes = codec.CodeMatrix(2, 4, np.array([[1, 2], [3, 0], [0, 1]]))
    write_binary_matrix(emb, root / "emb.bin")
    codec.write_code_file(root / "codes.bin", codes, emb.vocab)
    codec.write_codebook_file(root / "books.bin", codec.Codebooks(
        2, 4, 3, np.arange(24, dtype=np.float32).reshape(8, 3)))
    save_checkpoint(root / "model.ckpt", model.init_params(cfg, tensor.new_rng(0)),
                    cfg, iteration=7)


@pytest.mark.parametrize("name, reader", [
    ("emb.bin", read_binary_matrix),
    ("codes.bin", codec.read_code_file),
    ("books.bin", codec.read_codebook_file),
    ("model.ckpt", load_checkpoint),
])
def test_every_proper_prefix_raises(tmp_path, name, reader):
    small_files(tmp_path)
    data = (tmp_path / name).read_bytes()
    reader(tmp_path / name)
    cut = tmp_path / "cut"
    for end in range(len(data)):
        cut.write_bytes(data[:end])
        with pytest.raises(DataError):
            reader(cut)
