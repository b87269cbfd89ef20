"""Whole-vocabulary passes run in row blocks: the same bits, bounded memory.

Decode, export, code packing and unpacking, finiteness checks and the
reports walk the vocabulary BLOCK_ROWS rows at a time. The bit tests
compare each with a whole-matrix reference at vocabulary sizes that are
not a multiple of BLOCK_ROWS. The memory tests take the tracemalloc peak,
which counts numpy's buffers, of one call on a 20K x 300 synthetic matrix
(24 MB as float32), as a multiple of that matrix's bytes; the inputs exist
before tracing starts, so the peak is what the call allocates.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from codecomp import analysis, codec, model, tensor
from codecomp.embeddings import (
    BLOCK_ROWS,
    EmbeddingMatrix,
    read_binary_matrix,
    write_binary_matrix,
)
from codecomp.errors import DataError
from codecomp.synthetic import synthetic_embeddings

BIG_VOCAB = 20_000  # 39 full blocks and one of 32 rows


@pytest.fixture(scope="module")
def big():
    emb, codes, books = synthetic_embeddings(M=16, K=32, H=300, vocab_size=BIG_VOCAB,
                                             noise_std=0.1, seed=5)
    params = model.init_params(model.SchemeConfig(M=16, K=32, H=300),
                               tensor.new_rng(1))
    return emb, codes, books, params


def traced_peak(fn, *args):
    """Bytes allocated at the peak of fn(*args), numpy's buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


# Memory: peaks as multiples of the float32 matrix.

def test_reconstruction_report_peak(big):
    emb, codes, books, _ = big
    recon = codec.reconstruct_all(codes, books, emb.vocab)
    peak = traced_peak(analysis.reconstruction_report, emb, recon)
    assert peak <= 0.5 * emb.matrix.nbytes, peak / emb.matrix.nbytes


def test_export_codes_peak(big):
    emb, _, _, params = big
    peak = traced_peak(codec.export_codes, params, emb)
    assert peak <= 0.5 * emb.matrix.nbytes, peak / emb.matrix.nbytes


def test_reconstruct_all_peak_includes_only_its_output(big):
    emb, codes, books, _ = big
    peak = traced_peak(codec.reconstruct_all, codes, books, emb.vocab)
    assert peak <= 1.25 * emb.matrix.nbytes, peak / emb.matrix.nbytes


def test_read_binary_matrix_holds_its_payload_once(big, tmp_path):
    emb = big[0]
    write_binary_matrix(emb, tmp_path / "emb.bin")
    peak = traced_peak(read_binary_matrix, tmp_path / "emb.bin")
    assert peak <= 1.1 * emb.matrix.nbytes, peak / emb.matrix.nbytes


def test_read_code_file_holds_its_codes_once(big, tmp_path):
    emb, codes, _, _ = big
    path = tmp_path / "codes.bin"
    codec.write_code_file(path, codes, emb.vocab)
    vocab_bytes = sys.getsizeof(emb.vocab) + sum(map(sys.getsizeof, emb.vocab))
    # Unpacking holds the packed bytes (0.16x the int32 codes) and one
    # block's bit planes beside the codes; a second copy of the codes
    # would take it past 2x.
    with open(path, "rb") as fh:
        peak = traced_peak(codec.unpack_codes, fh)
    assert peak <= 1.6 * codes.codes.nbytes, peak / codes.codes.nbytes
    # The whole read: the codes once, the vocabulary list and the file's
    # vocabulary bytes.
    peak = traced_peak(codec.read_code_file, path)
    assert peak <= 1.25 * codes.codes.nbytes + vocab_bytes, peak / codes.codes.nbytes


# Bits: each blocked pass against its whole-matrix reference.

def test_block_decode_equals_rounded_whole_matrix_sums(big):
    emb, codes, books, _ = big
    assert codes.vocab_size % BLOCK_ROWS
    got = codec.reconstruct_all(codes, books, emb.vocab).matrix
    assert same_bits(got, codec.codeword_sums(codes, books).astype(np.float32))


@pytest.mark.parametrize("M, K, H, vocab_size", [
    (16, 32, 300, BIG_VOCAB), (16, 32, 300, 3001), (4, 8, 16, 3001), (8, 16, 50, 3001),
])
def test_export_equals_one_whole_matrix_encode(M, K, H, vocab_size):
    emb, _, _ = synthetic_embeddings(M, K, H, vocab_size, noise_std=0.1, seed=8)
    params = model.init_params(model.SchemeConfig(M=M, K=K, H=H), tensor.new_rng(2))
    codes, _ = codec.export_codes(params, emb)
    _, alpha = model.encode(params, emb.matrix)
    assert np.array_equal(codes.codes, model.assign(alpha))


def pack_whole(codes):
    """Reference packer: every word's bit planes in one (V, M, bits) array."""
    bits = int(np.log2(codes.K))
    planes = (codes.codes[:, :, None] >> np.arange(bits)) & 1
    flat = planes.reshape(codes.vocab_size, codes.M * bits).astype(np.uint8)
    flat = np.pad(flat, ((0, 0), (0, codes.bytes_per_word * 8 - flat.shape[1])))
    return np.packbits(flat, axis=1, bitorder="little").tobytes()


@pytest.mark.parametrize("M, K", [(16, 32), (3, 8), (1, 2)])
def test_pack_and_unpack_match_whole_matrix_reference(M, K):
    values = tensor.new_rng(M).integers(0, K, size=(2 * BLOCK_ROWS + 77, M))
    codes = codec.CodeMatrix(M, K, values)
    blob = codec.pack_codes(codes)
    assert blob[17:] == pack_whole(codes)
    again, end = codec.unpack_codes(blob)
    assert end == len(blob)
    assert np.array_equal(again.codes, values)


def test_require_finite_names_a_word_past_the_first_block():
    matrix = np.ones((3 * BLOCK_ROWS, 4), dtype=np.float32)
    matrix[2 * BLOCK_ROWS + 5, 1] = np.inf
    matrix[2 * BLOCK_ROWS + 9, 0] = np.nan
    emb = EmbeddingMatrix(vocab=[f"w{i}" for i in range(len(matrix))], matrix=matrix)
    row = 2 * BLOCK_ROWS + 5
    with pytest.raises(DataError, match=rf"'w{row}' \(row {row}\)"):
        emb.require_finite("a check")


def whole_matrix_report(original, recon):
    """Reference: the report's float64 formulas over the whole matrices at once."""
    a = original.matrix.astype(np.float64)
    b = recon.matrix.astype(np.float64)
    diff = b - a
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    cos = np.divide((a * b).sum(axis=1), denom, out=np.zeros(len(a)), where=denom > 0)
    return {"mse": float((diff ** 2).sum(axis=1).mean()),
            "max_abs_error": float(np.abs(diff).max()),
            "mean_cosine": float(cos.mean()), "min_cosine": float(cos.min())}


def test_report_equals_whole_matrix_formulas_bit_for_bit():
    rng = tensor.new_rng(11)
    vocab_size = 2 * BLOCK_ROWS + 77
    vocab = [f"w{i}" for i in range(vocab_size)]
    a = rng.standard_normal((vocab_size, 30)).astype(np.float32)
    b = (a + 0.1 * rng.standard_normal(a.shape)).astype(np.float32)
    a[[3, BLOCK_ROWS + 1]] = 0.0  # zero rows: their cosine counts as 0
    b[2 * BLOCK_ROWS + 4] = 0.0
    original = EmbeddingMatrix(vocab=vocab, matrix=a)
    recon = EmbeddingMatrix(vocab=list(vocab), matrix=b)
    got = analysis.reconstruction_report(original, recon)
    want = whole_matrix_report(original, recon)
    assert {key: got[key] for key in want} == want


def test_normalized_rows_equal_whole_matrix_division_and_keep_zero_rows():
    rng = tensor.new_rng(12)
    matrix = rng.standard_normal((BLOCK_ROWS + 40, 7)).astype(np.float32)
    matrix[[0, BLOCK_ROWS + 3]] = 0.0
    x = matrix.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    want = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
    got = analysis._normalize_rows(matrix)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got[[0, BLOCK_ROWS + 3]].any()
