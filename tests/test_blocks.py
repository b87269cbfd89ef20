"""Whole-vocabulary passes run in row blocks: the same bits, bounded memory.

Decode, export, code packing and unpacking, finiteness checks and the
reports walk the vocabulary in blocks from embeddings.row_blocks, whose
rows depend on the block's width (256 KiB of float64: 109 rows at
H = 300); nn-overlap ranks its queries in blocks too, and PQ clusters
one dimension block at a time. The bit tests compare each with a reference written here, over the whole matrix,
at vocabulary sizes that are not a multiple of the block rows. The memory
tests take the tracemalloc peak, which counts numpy's buffers, of one call
on a 20K x 300 synthetic matrix (24 MB as float32), or on a 5K x 300 text
file of its first rows, as a multiple of that matrix's bytes; the inputs
exist before tracing starts, so the peak is what the call allocates.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import codecomp
from codecomp import analysis, codec, model, tensor
from codecomp.embeddings import (
    EmbeddingMatrix,
    read_binary_matrix,
    read_embeddings,
    read_text_embeddings,
    row_blocks,
    write_binary_matrix,
    write_text_embeddings,
)
from codecomp.errors import DataError
from codecomp.synthetic import synthetic_embeddings

BIG_VOCAB = 20_000  # 183 full blocks of 109 rows at H = 300 and one of 53


def block_rows(width):
    """Rows of each full block that row_blocks gives at this width."""
    return row_blocks(1, width)[0].stop


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


def vocab_bytes(vocab):
    return sys.getsizeof(vocab) + sum(map(sys.getsizeof, vocab))


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


def test_binary_limit_holds_only_its_rows(big, tmp_path):
    # `train --limit 1000` on a DEM1 file: the first 1,000 rows and words,
    # read on their own, not the whole payload behind a view of them.
    emb = big[0]
    path = tmp_path / "emb.bin"
    write_binary_matrix(emb, path)
    kept = emb.matrix[:1000].nbytes
    # The vocabulary section's bytes are read whole to walk it (about 0.15x).
    section = path.stat().st_size - 13 - emb.matrix.nbytes
    peak = traced_peak(read_embeddings, path, 1000)
    assert peak <= 1.1 * kept + section + vocab_bytes(emb.vocab[:1000]), peak / kept


def test_read_code_file_holds_its_codes_once(big, tmp_path):
    emb, codes, _, _ = big
    path = tmp_path / "codes.bin"
    codec.write_code_file(path, codes, emb.vocab)
    # Unpacking holds the packed bytes (0.16x the int32 codes) and one
    # block's bit planes beside the codes; a second copy of the codes
    # would take it past 2x.
    with open(path, "rb") as fh:
        peak = traced_peak(codec.unpack_codes, fh)
    assert peak <= 1.6 * codes.codes.nbytes, peak / codes.codes.nbytes
    # The whole read: the codes once, the vocabulary list and the file's
    # vocabulary bytes.
    peak = traced_peak(codec.read_code_file, path)
    assert peak <= 1.25 * codes.codes.nbytes + vocab_bytes(emb.vocab), \
        peak / codes.codes.nbytes


TEXT_VOCAB = 5_000


@pytest.fixture(scope="module")
def text_file(big, tmp_path_factory):
    """The first TEXT_VOCAB words of the big fixture as a text file."""
    emb = big[0]
    emb = EmbeddingMatrix(vocab=emb.vocab[:TEXT_VOCAB], matrix=emb.matrix[:TEXT_VOCAB])
    path = tmp_path_factory.mktemp("text") / "emb.txt"
    write_text_embeddings(emb, path)
    return emb, path


def test_read_text_embeddings_holds_its_matrix_once(text_file):
    # The float32 buffer grows by half when full, so it may hold up to
    # 1.5x the rows before the final trim; per-line temporaries are small.
    emb, path = text_file
    peak = traced_peak(read_text_embeddings, path)
    assert peak <= 2.0 * emb.matrix.nbytes + vocab_bytes(emb.vocab), \
        peak / emb.matrix.nbytes


def test_neighbor_overlap_peak(big):
    # One float64 unit-row copy (2x), one block of similarities (0.85x) and
    # one argpartition's indices (0.21x) at a time.
    emb, codes, books, _ = big
    recon = codec.reconstruct_all(codes, books, emb.vocab)
    peak = traced_peak(analysis.neighbor_overlap, emb, recon, 10, 200)
    assert peak <= 3.25 * emb.matrix.nbytes, peak / emb.matrix.nbytes


def test_pq_baseline_holds_one_block_of_codes(big):
    # At M150 K4 each block is 2 columns: its float64 copy is 0.013x the
    # matrix and its intp assignments 0.007x. Holding all 150 blocks'
    # assignments until the end would add 1x.
    emb = big[0]
    codes_nbytes = BIG_VOCAB * 150 * np.dtype(np.int32).itemsize
    peak = traced_peak(analysis.pq_baseline, emb, 150, 4, 2)
    assert peak <= codes_nbytes + 0.5 * emb.matrix.nbytes, \
        (peak - codes_nbytes) / emb.matrix.nbytes


RSS_SCRIPT = """
import resource, sys
from codecomp import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(["stats", "--emb", sys.argv[1], "--recon", sys.argv[1], "--quiet"])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, before, after)
"""


def test_text_stats_rss_in_a_fresh_interpreter(text_file):
    """tracemalloc misses what the allocator keeps; ru_maxrss does not.

    `stats` reads the text file twice, so it holds two matrices; the bound
    leaves two more for the readers' buffers and the report.
    """
    emb, path = text_file
    src = str(Path(codecomp.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", RSS_SCRIPT, str(path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, before, after = map(int, run.stdout.split()[-3:])
    assert code == 0
    grown = (after - before) * 1024  # ru_maxrss is in KiB on Linux
    assert grown <= 4 * emb.matrix.nbytes, grown / emb.matrix.nbytes


# Bits: each blocked pass against its whole-matrix reference.

def decode_whole(codes, books):
    """Reference decoder: float32 codewords widened and summed over the whole
    matrix from +0.0, codebook 0 first, then rounded to float32."""
    acc = np.zeros((codes.vocab_size, books.H))
    for i in range(books.M):
        acc = acc + books.vectors[i * books.K + codes.codes[:, i]].astype(np.float64)
    return acc.astype(np.float32)


def test_block_decode_equals_rounded_whole_matrix_sums(big):
    emb, codes, books, _ = big
    assert codes.vocab_size % block_rows(books.H)
    # Column 0 of every codeword is -0.0: its sums are +0.0, as from +0.0.
    vectors = books.vectors.copy()
    vectors[:, 0] = -0.0
    books = codec.Codebooks(books.M, books.K, books.H, vectors)
    got = codec.reconstruct_all(codes, books, emb.vocab).matrix
    want = decode_whole(codes, books)
    assert same_bits(got, want)
    assert not np.signbit(got[:, 0]).any()


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


@pytest.mark.parametrize("M, K", [(16, 32), (3, 8), (1, 2), (2, 512), (3, 1024)])
def test_pack_and_unpack_match_whole_matrix_reference(M, K):
    # 9 and 10 bits per component cross byte boundaries. Unpacking's blocks
    # are a float64 per packed byte and per component wide; packing's are
    # narrower.
    bytes_per_word = (M * int(np.log2(K)) + 7) // 8
    vocab_size = 2 * block_rows(bytes_per_word + M) + 77
    values = tensor.new_rng(M).integers(0, K, size=(vocab_size, M))
    codes = codec.CodeMatrix(M, K, values)
    assert codes.bytes_per_word == bytes_per_word
    blob = codec.pack_codes(codes)
    assert blob[17:] == pack_whole(codes)
    again, end = codec.unpack_codes(blob)
    assert end == len(blob)
    assert np.array_equal(again.codes, values)


def test_require_finite_names_a_word_past_the_first_block():
    rows = block_rows(4)
    matrix = np.ones((3 * rows, 4), dtype=np.float32)
    matrix[2 * rows + 5, 1] = np.inf
    matrix[2 * rows + 9, 0] = np.nan
    emb = EmbeddingMatrix(vocab=[f"w{i}" for i in range(len(matrix))], matrix=matrix)
    row = 2 * rows + 5
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
    rows = block_rows(30)
    vocab_size = 2 * rows + 77
    vocab = [f"w{i}" for i in range(vocab_size)]
    a = rng.standard_normal((vocab_size, 30)).astype(np.float32)
    b = (a + 0.1 * rng.standard_normal(a.shape)).astype(np.float32)
    a[[3, rows + 1]] = 0.0  # zero rows: their cosine counts as 0
    b[2 * rows + 4] = 0.0
    original = EmbeddingMatrix(vocab=vocab, matrix=a)
    recon = EmbeddingMatrix(vocab=list(vocab), matrix=b)
    got = analysis.reconstruction_report(original, recon)
    want = whole_matrix_report(original, recon)
    assert {key: got[key] for key in want} == want


def one_block_overlap(original, recon, k, sample, seed=0):
    """Reference: every query scored against each matrix in one block."""
    vocab_size = original.vocab_size
    queries = tensor.new_rng(seed).choice(vocab_size, size=min(sample, vocab_size),
                                          replace=False)
    tops = []
    for emb in (original, recon):
        x = emb.matrix.astype(np.float64)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
        sims = x[queries] @ x.T
        sims[np.arange(len(queries)), queries] = -np.inf
        tops.append(np.argpartition(sims, -k, axis=1)[:, -k:])
    shared = [len(set(a.tolist()) & set(b.tolist())) for a, b in zip(*tops)]
    return float(np.mean(shared) / k)


def test_neighbor_overlap_equals_one_block_reference(big):
    emb, codes, books, _ = big
    recon = codec.reconstruct_all(codes, books, emb.vocab)
    sample = 2 * analysis._OVERLAP_CHUNK + 44  # a last block that is not full
    assert analysis.neighbor_overlap(emb, recon, 10, sample, seed=3) == \
        one_block_overlap(emb, recon, 10, sample, seed=3)


def test_neighbor_overlap_equals_one_block_reference_with_ties():
    # 16 codes over 3,000 words: the reconstruction's rows repeat, so its
    # similarities tie exactly and argpartition picks among equals.
    emb, codes, books = synthetic_embeddings(M=2, K=4, H=16, vocab_size=3000,
                                             noise_std=0.05, seed=4)
    recon = codec.reconstruct_all(codes, books, emb.vocab)
    for k, sample in [(5, 300), (40, 1000)]:
        got = analysis.neighbor_overlap(emb, recon, k, sample, seed=1)
        assert got == one_block_overlap(emb, recon, k, sample, seed=1)


def test_normalized_rows_equal_whole_matrix_division_and_keep_zero_rows():
    rng = tensor.new_rng(12)
    rows = block_rows(7)
    matrix = rng.standard_normal((rows + 40, 7)).astype(np.float32)
    matrix[[0, rows + 3]] = 0.0
    x = matrix.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    want = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
    got = analysis._normalize_rows(matrix)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got[[0, rows + 3]].any()
