"""Command-line interface.

One subcommand per invocation. Each cmd_* returns its report: (key, value)
pairs, a finished string, or None for nothing to print; main writes it to
stdout (human text by default, key<TAB>value lines with --format kv).
Progress logs go to stderr and are suppressed by --quiet. Exit codes: 2
for configuration errors and for paths that cannot be read or written, 3
for data errors, 4 for numeric failures.
"""

import argparse
import functools
import logging
import os
import sys

from . import analysis, codec, embeddings, trainer
from .errors import CodecompError, ConfigError, NumericError
from .model import SchemeConfig

log = logging.getLogger("codecomp.cli")


def format_pairs(pairs, fmt):
    """Render (key, value) pairs as human text or as key<TAB>value lines."""
    if fmt == "kv":
        return "\n".join(f"{key}\t{value}" for key, value in pairs) + "\n"
    width = max((len(str(k)) for k, _ in pairs), default=0)
    return "\n".join(f"{str(k).ljust(width)}  {value}" for k, value in pairs) + "\n"


def _count(minimum):
    """argparse type: an int >= minimum; argparse exits 2 naming the flag."""
    def int_at_least(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    int_at_least.__name__ = "int"  # so a non-integer reads "invalid int value"
    return int_at_least


def _read_embeddings(path, limit=None):
    """Load a text or binary embedding file, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == embeddings.MATRIX_MAGIC:
        return embeddings.read_binary_matrix(path, limit=limit)
    return embeddings.read_text_embeddings(path, limit=limit)


def _require_writable(*paths):
    """Raise OSError naming the first path that cannot be opened for writing.

    None stands for an output not asked for and is skipped. Opening for
    append keeps an existing file's bytes; a file the check creates is
    removed again, so a run that fails later leaves nothing.
    """
    for path in paths:
        if path is None:
            continue
        existed = os.path.exists(path)
        with open(path, "ab"):
            pass
        if not existed:
            os.remove(path)


def _load_recon(args):
    """Reconstruction source for report commands: --recon or --codes/--books."""
    if args.recon:
        return _read_embeddings(args.recon)
    if args.codes and args.books:
        codes, vocab = codec.read_code_file(args.codes)
        books = codec.read_codebook_file(args.books)
        return codec.reconstruct_all(codes, books, vocab)
    raise ConfigError("need either --recon or both --codes and --books")


def cmd_train(args):
    _require_writable(args.out)  # fail before reading and training, not after
    emb = _read_embeddings(args.emb, limit=args.limit)
    cfg = SchemeConfig(M=args.M, K=args.K, H=emb.dim)
    tc = trainer.TrainConfig(
        scheme=cfg,
        batch_size=args.batch,
        lr=args.lr,
        iterations=args.iters,
        seed=args.seed,
    )
    try:
        params, report = trainer.train(emb, tc)
    except NumericError as exc:
        trainer.save_checkpoint(args.out, exc.params, exc.report.best_iteration)
        log.error("kept last-good checkpoint at %s", args.out)
        raise
    trainer.save_checkpoint(args.out, params, report.best_iteration)
    return [
        ("iterations_run", report.iterations_run),
        ("best_val_loss", report.best_val_loss),
        ("final_val_loss", report.val_loss_history[-1][1]),
        ("best_iteration", report.best_iteration),
        ("wall_time_s", round(report.wall_time, 3)),
        ("checkpoint", args.out),
    ]


def cmd_export(args):
    _require_writable(args.codes, args.books)
    params, _, _ = trainer.load_checkpoint(args.checkpoint)
    emb = _read_embeddings(args.emb)
    codes, books = codec.export_codes(params, emb)
    codec.write_code_file(args.codes, codes, emb.vocab)
    codec.write_codebook_file(args.books, books)
    return [("words", codes.vocab_size), ("M", codes.M), ("K", codes.K),
            ("bits_per_word", codes.bits_per_word), ("codes", args.codes),
            ("books", args.books)]


def cmd_reconstruct(args):
    _require_writable(args.out)
    emb = _load_recon(args)
    if args.out_format == "binary":
        embeddings.write_binary_matrix(emb, args.out)
    else:
        embeddings.write_text_embeddings(emb, args.out)
    log.info("wrote %d reconstructed vectors to %s", emb.vocab_size, args.out)


def cmd_stats(args):
    original = _read_embeddings(args.emb)
    recon = _load_recon(args)
    return list(analysis.reconstruction_report(original, recon).items())


def cmd_balance(args):
    codes, _ = codec.read_code_file(args.codes)
    table = analysis.balance_table(codes)
    return table.to_csv() if args.format == "csv" else table.as_pairs()


def cmd_shared(args):
    codes, vocab = codec.read_code_file(args.codes)
    groups = analysis.shared_code_groups(codes, vocab)
    if args.format == "kv":
        pairs = [("group_count", len(groups))]
        for i, (code, words) in enumerate(groups):
            pairs.append((f"group.{i}.code", "-".join(str(c) for c in code)))
            pairs.append((f"group.{i}.size", len(words)))
            pairs.append((f"group.{i}.words", " ".join(words)))
        return pairs
    lines = [f"{len(groups)} shared codes"]
    for code, words in groups:
        code_txt = "-".join(str(c) for c in code)
        lines.append(f"  [{code_txt}] x{len(words)}: {' '.join(words)}")
    return "\n".join(lines) + "\n"


def cmd_size(args):
    scheme = SchemeConfig(M=args.M, K=args.K, H=args.H)
    report = analysis.size_report(scheme, args.vocab)
    pairs = list(report.items())
    if args.format == "kv":
        return pairs
    return format_pairs(pairs, "text") + (
        f"note: binary coding over the same {report['num_vectors']} basis vectors "
        f"needs {report['binary_equivalent_bits']} bits/word\n"
        "note: sizes are raw uncompressed bytes; MB means 10^6 bytes\n"
    )


def cmd_pq(args):
    _require_writable(args.codes, args.books)
    emb = _read_embeddings(args.emb, limit=args.limit)
    codes, books, loss = analysis.pq_baseline(
        emb, args.M, args.K, iterations=args.iters, seed=args.seed,
    )
    if args.codes:
        codec.write_code_file(args.codes, codes, emb.vocab)
    if args.books:
        codec.write_codebook_file(args.books, books)
    return [("words", emb.vocab_size), ("M", args.M), ("K", args.K),
            ("iterations", args.iters), ("seed", args.seed), ("loss", loss)]


def cmd_nn_overlap(args):
    original = _read_embeddings(args.emb)
    recon = _load_recon(args)
    overlap = analysis.neighbor_overlap(
        original, recon, k=args.k, sample=args.sample, seed=args.seed,
    )
    return [("k", args.k), ("sample", min(args.sample, original.vocab_size)),
            ("overlap", overlap)]


def _add_common_flags(parser, formats=("text", "kv")):
    """Add the flags every subcommand takes; returns parser."""
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logs on stderr")
    parser.add_argument("--format", choices=formats, default="text",
                        help="report format")
    return parser


@functools.cache
def build_parser():
    """The codecomp argument parser, built on first use and then shared.

    Parsing mutates no parser state: each call returns a fresh Namespace,
    and every default is an immutable value or a cmd_* function. So
    in-process callers of main build the tree once; callers must not
    change the returned parser.
    """
    common = _add_common_flags(argparse.ArgumentParser(add_help=False))
    # What _load_recon reads: the original and one reconstruction source.
    compare = argparse.ArgumentParser(add_help=False)
    compare.add_argument("--emb", required=True, help="original embeddings")
    compare.add_argument("--recon", default=None, help="reconstructed embedding file")
    compare.add_argument("--codes", default=None)
    compare.add_argument("--books", default=None)

    parser = argparse.ArgumentParser(
        prog="codecomp",
        description="Compress word embeddings into compositional codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="learn codes for an embedding file")
    p.add_argument("--emb", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--iters", type=_count(0), default=trainer.TrainConfig.iterations)
    p.add_argument("--batch", type=_count(1), default=trainer.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig.lr)
    p.add_argument("--seed", type=_count(0), default=trainer.TrainConfig.seed)
    p.add_argument("--limit", type=_count(1), default=None,
                   help="use only the first N words")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("export", parents=[common],
                       help="write discrete codes and codebooks from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--codes", required=True, help="code file output path")
    p.add_argument("--books", required=True, help="codebook file output path")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="compose embeddings from codes and codebooks")
    p.add_argument("--codes", required=True)
    p.add_argument("--books", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=("text", "binary"), default="text")
    p.set_defaults(fn=cmd_reconstruct, recon=None)

    p = sub.add_parser("stats", parents=[common, compare],
                       help="reconstruction quality report")
    p.set_defaults(fn=cmd_stats)

    # balance alone writes csv; its own flags cost less than a second parent.
    p = sub.add_parser("balance", help="per-component subcode usage counts")
    _add_common_flags(p, ("text", "kv", "csv"))
    p.add_argument("--codes", required=True)
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("shared", parents=[common],
                       help="groups of words sharing one code")
    p.add_argument("--codes", required=True)
    p.set_defaults(fn=cmd_shared)

    p = sub.add_parser("size", parents=[common], help="storage accounting")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--H", type=int, default=300,
                   help="embedding dimension for vector storage (default 300)")
    p.add_argument("--vocab", type=_count(0), required=True)
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("pq", parents=[common],
                       help="product-quantization baseline")
    p.add_argument("--emb", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--iters", type=_count(0), default=25)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--limit", type=_count(1), default=None)
    p.add_argument("--codes", default=None, help="optional code file output")
    p.add_argument("--books", default=None, help="optional codebook output")
    p.set_defaults(fn=cmd_pq)

    p = sub.add_parser("nn-overlap", parents=[common, compare],
                       help="shared nearest-neighbor fraction")
    p.add_argument("--k", type=_count(1), default=10)
    p.add_argument("--sample", type=_count(1), default=100)
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(fn=cmd_nn_overlap)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.ERROR if args.quiet else logging.INFO,
            format="%(message)s",
            force=True,
        )
        report = args.fn(args)
        if isinstance(report, list):
            report = format_pairs(report, args.format)
        if report:
            sys.stdout.write(report)
        return 0
    except SystemExit as exc:  # argparse: --help, or a bad flag (exit 2)
        return int(exc.code) if exc.code is not None else 0
    except CodecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path that cannot be opened names itself
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
