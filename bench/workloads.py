"""The benchmark's workloads: input shape, coding scheme and CLI stages.

Each workload is one closed loop with one client: the harness runs the
stages in order through ``codecomp.cli.main`` and starts the next pipeline
iteration only after the last stage returns. The workload seed drives the
fixture and every ``--seed`` flag; the program sees only the generated files.
The coding scheme `train` learns is the one the fixture was generated with
(M, K), and the batch is the CLI default, 128.
"""

from dataclasses import dataclass

OVERLAP_SAMPLE = 1000  # nn-overlap queries (the program caps it at the vocabulary)
OVERLAP_K = 50         # nn-overlap neighbours per query


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str          # embedding file format: "binary" (DEM1) or "text"
    M: int            # codebooks, of the fixture and of the learned scheme
    K: int            # codewords per codebook
    H: int            # embedding dimension
    vocab: int        # words in the fixture
    noise: float      # fixture noise
    iters: int        # `train --iters` per pipeline iteration
    pq: tuple         # (M, K) of the PQ baseline, the same bits per word
    timed: tuple      # stages timed every pipeline iteration
    quality: tuple    # stages run once per run, untimed, for the quality metrics

    @property
    def shape(self):
        return {"M": self.M, "K": self.K, "H": self.H, "vocab": self.vocab,
                "noise": self.noise, "format": self.fmt, "iters": self.iters,
                "pq": {"M": self.pq[0], "K": self.pq[1]},
                "overlap": {"sample": OVERLAP_SAMPLE, "k": OVERLAP_K}}


TRAIN_STAGES = ("train", "export", "reconstruct", "stats-codes")
ANALYSIS_STAGES = ("nn-overlap", "pq")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="train-paper", fmt="binary", M=16, K=32, H=300, vocab=4000,
                 noise=0.1, iters=60, pq=(20, 16),
                 timed=TRAIN_STAGES, quality=ANALYSIS_STAGES),
        Workload(name="train-small", fmt="binary", M=4, K=8, H=16, vocab=1000,
                 noise=0.01, iters=2000, pq=(4, 8),
                 timed=TRAIN_STAGES, quality=ANALYSIS_STAGES),
        Workload(name="pipeline-text", fmt="text", M=16, K=32, H=300, vocab=1000,
                 noise=0.1, iters=20, pq=(20, 16),
                 timed=("train", "export", "reconstruct", "stats-recon")
                 + ANALYSIS_STAGES,
                 quality=()),
    )
}


def stage_argv(stage, w, files, seed):
    """CLI arguments of one stage; every call also gets --quiet --format kv."""
    emb, codes, books = files["emb"], files["codes"], files["books"]
    if stage == "train":
        return ["train", "--emb", emb, "--M", str(w.M), "--K", str(w.K),
                "--iters", str(w.iters), "--seed", str(seed), "--out", files["ckpt"]]
    if stage == "export":
        return ["export", "--checkpoint", files["ckpt"], "--emb", emb,
                "--codes", codes, "--books", books]
    if stage == "reconstruct":
        return ["reconstruct", "--codes", codes, "--books", books,
                "--out", files["recon"], "--out-format", w.fmt]
    if stage == "stats-codes":
        return ["stats", "--emb", emb, "--codes", codes, "--books", books]
    if stage == "stats-recon":
        return ["stats", "--emb", emb, "--recon", files["recon"]]
    if stage == "nn-overlap":
        return ["nn-overlap", "--emb", emb, "--codes", codes, "--books", books,
                "--sample", str(OVERLAP_SAMPLE), "--k", str(OVERLAP_K),
                "--seed", str(seed)]
    if stage == "pq":
        return ["pq", "--emb", emb, "--M", str(w.pq[0]), "--K", str(w.pq[1]),
                "--seed", str(seed), "--codes", files["pq_codes"],
                "--books", files["pq_books"]]
    raise ValueError(f"unknown stage {stage!r}")
