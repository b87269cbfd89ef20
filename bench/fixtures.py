"""Benchmark input generator: synthetic compositional embeddings, numpy only.

Follows the algorithm of codecomp.synthetic.synthetic_embeddings (M codebooks
drawn Uniform(-1, 1), one random code per word, codeword sums plus Gaussian
noise, draw order codebooks -> codes -> noise) but imports nothing from the
program and writes the text and DEM1 formats itself. A change to the
program's generator or file writers therefore cannot change the benchmark's
inputs: the same seed gives byte-identical files on every commit.

Run as a script, in its own process, so generation stays outside every
timing:

    python3 bench/fixtures.py --out DIR --seed N --M 4 --K 8 --H 16 \
        --vocab 1000 --noise 0.01 --format binary

It writes DIR/emb.bin or DIR/emb.txt and DIR/meta.json, which records the
shape, seed and the file's sha256.
"""

import argparse
import hashlib
import json
import os
import struct
import sys

import numpy as np


def generate(M, K, H, vocab, noise, seed):
    """(words, float32 matrix) drawn exactly as the program's generator draws."""
    rng = np.random.default_rng(seed)
    books = rng.uniform(-1.0, 1.0, size=(M * K, H)).astype(np.float32)
    codes = rng.integers(0, K, size=(vocab, M))
    acc = np.zeros((vocab, H), dtype=np.float64)
    for i in range(M):
        acc += books[i * K + codes[:, i]]
    acc += rng.normal(0.0, noise, size=(vocab, H))
    return [f"w{i}" for i in range(vocab)], acc.astype(np.float32)


def write_binary(path, words, matrix):
    """DEM1: magic, u8 version 1, u32 rows and dim, float32 rows, u32-prefixed words."""
    with open(path, "wb") as fh:
        fh.write(b"DEM1")
        fh.write(struct.pack("<BII", 1, matrix.shape[0], matrix.shape[1]))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())
        for word in words:
            blob = word.encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def write_text(path, words, matrix):
    """One `word v1 ... vH` line per word; each value is the shortest repr of
    its float64 widening, which parses back to the same float32."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, matrix.tolist()):
            fh.write(word + " " + " ".join(map(repr, row)) + "\n")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    for name in ("M", "K", "H", "vocab"):
        parser.add_argument(f"--{name}", type=int, required=True)
    parser.add_argument("--noise", type=float, required=True)
    parser.add_argument("--format", choices=("binary", "text"), required=True)
    args = parser.parse_args(argv)

    words, matrix = generate(args.M, args.K, args.H, args.vocab, args.noise, args.seed)
    os.makedirs(args.out, exist_ok=True)
    name = "emb.bin" if args.format == "binary" else "emb.txt"
    path = os.path.join(args.out, name)
    (write_binary if args.format == "binary" else write_text)(path, words, matrix)
    meta = {
        "file": name,
        "sha256": sha256_file(path),
        "seed": args.seed,
        "shape": {"M": args.M, "K": args.K, "H": args.H, "vocab": args.vocab,
                  "noise": args.noise, "format": args.format},
    }
    # meta.json is written last: its presence marks a complete fixture.
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
