"""Output checks. Each failed check counts as one failed operation.

The checks read the files one pipeline iteration left behind and compare
them with what the CLI reported, through codecomp's package API.
"""

import numpy as np

# Criterion 08's tolerance: the hard-mode forward loss and the loss of the
# exported files compose the same codewords in a different order.
HARD_LOSS_RTOL = 1e-4
# PQ keeps float64 centroids for its loss but writes float32 codebooks.
PQ_LOSS_RTOL = 1e-5
# Validation loss recomputed from the float32 checkpoint on the same rows.
VAL_LOSS_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(name, got, want, rtol):
    if not abs(got - want) <= rtol * max(abs(want), 1e-12):
        raise CheckFailed(f"{name}: {got!r} vs {want!r} (rtol {rtol})")


def _mse(matrix, ref):
    diff = matrix.astype(np.float64) - ref.astype(np.float64)
    return float((diff ** 2).sum(axis=1).mean())


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a, np.float32).view(np.uint32),
        np.ascontiguousarray(b, np.float32).view(np.uint32),
    )


def validation_rows(cc, w, emb, seed):
    """Indices of the validation split `train --seed seed` holds out: the
    first draw of the run's generator, as the trainer documents. The split
    depends only on the vocabulary size and the CLI's default val_fraction."""
    tc = cc.TrainConfig(scheme=cc.SchemeConfig(M=w.M, K=w.K, H=emb.dim),
                        iterations=0, seed=seed)
    return cc.split_validation(emb, tc, cc.tensor.new_rng(seed))[1]


def checkpoint_matches_report(cc, w, files, reports, emb, seed):
    """The checkpoint holds the best iteration `train` reported, and its
    parameters reproduce the reported validation loss on the same split."""
    params, cfg, iteration = cc.load_checkpoint(files["ckpt"])
    report = reports["train"]
    if (cfg.M, cfg.K, cfg.H) != (w.M, w.K, emb.dim):
        raise CheckFailed(f"checkpoint scheme {(cfg.M, cfg.K, cfg.H)}")
    if str(iteration) != report["best_iteration"]:
        raise CheckFailed(f"checkpoint iteration {iteration} vs reported "
                          f"{report['best_iteration']}")
    loss = cc.forward(params, emb.matrix[validation_rows(cc, w, emb, seed)], None,
                      cfg).loss
    _close("validation loss", loss, float(report["best_val_loss"]), VAL_LOSS_RTOL)


def code_files_round_trip(cc, w, files, reports, emb, seed):
    """Code and codebook files read back to the words, shape and checkpoint
    codebooks, and write back to the same bytes."""
    codes, vocab = cc.read_code_file(files["codes"])
    books = cc.read_codebook_file(files["books"])
    if vocab != emb.vocab:
        raise CheckFailed("code file vocabulary differs from the input's")
    if codes.codes.shape != (emb.vocab_size, w.M) or codes.K != w.K:
        raise CheckFailed(f"codes shape {codes.codes.shape}, K={codes.K}")
    params, _, _ = cc.load_checkpoint(files["ckpt"])
    if not _same_bits(books.vectors, params.A):
        raise CheckFailed("codebook file differs from the checkpoint's codebooks")
    code_copy, book_copy = files["copy_codes"], files["copy_books"]
    cc.write_code_file(code_copy, codes, vocab)
    cc.write_codebook_file(book_copy, books)
    for original, copy in ((files["codes"], code_copy), (files["books"], book_copy)):
        with open(original, "rb") as a, open(copy, "rb") as b:
            if a.read() != b.read():
                raise CheckFailed(f"{original} does not round-trip byte for byte")


def recon_reads_back(cc, w, files, reports, emb, seed):
    """The written reconstruction reads back bit-exactly as the composition
    of the code and codebook files."""
    codes, vocab = cc.read_code_file(files["codes"])
    books = cc.read_codebook_file(files["books"])
    want = cc.reconstruct_all(codes, books, vocab)
    reader = cc.read_text_embeddings if w.fmt == "text" else cc.read_binary_matrix
    got = reader(files["recon"])
    if got.vocab != want.vocab or not _same_bits(got.matrix, want.matrix):
        raise CheckFailed(f"{files['recon']} does not read back bit-exactly")


def stats_matches_hard_forward(cc, w, files, reports, emb, seed):
    """`stats` MSE of the exported files equals the hard-mode forward loss."""
    params, cfg, _ = cc.load_checkpoint(files["ckpt"])
    hard = cc.forward(params, emb.matrix, None, cfg, hard=True).loss
    _close("stats mse vs hard forward", float(reports["stats"]["mse"]), hard,
           HARD_LOSS_RTOL)


def pq_loss_matches_files(cc, w, files, reports, emb, seed):
    """The reported PQ loss equals the MSE of the PQ code and codebook files."""
    codes, vocab = cc.read_code_file(files["pq_codes"])
    books = cc.read_codebook_file(files["pq_books"])
    recon = cc.reconstruct_all(codes, books, vocab)
    _close("pq loss", _mse(recon.matrix, emb.matrix), float(reports["pq"]["loss"]),
           PQ_LOSS_RTOL)


def code_usage(cc, files):
    """Used codewords over M*K in the exported code file."""
    codes, _ = cc.read_code_file(files["codes"])
    used = sum(len(np.unique(codes.codes[:, i])) for i in range(codes.M))
    return used / (codes.M * codes.K)


CHECKS = (
    checkpoint_matches_report,
    code_files_round_trip,
    recon_reads_back,
    stats_matches_hard_forward,
    pq_loss_matches_files,
)
