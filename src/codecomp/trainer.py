"""Training loop: batching, validation cadence, best-checkpoint tracking.

The RNG draw order is part of the determinism contract: one generator
seeded from TrainConfig.seed produces, in order, the validation split
permutation, the parameter init, then per iteration the batch indices
followed by the Gumbel noise. Identical config and seed therefore yield
bit-identical parameters on the same build, single-threaded.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import container
from .errors import ConfigError, DataError, NumericError
from .model import (
    ModelParams,
    SchemeConfig,
    backward,
    adam_step,
    forward,
    init_params,
    new_adam_state,
)
from .tensor import new_rng, sample_gumbel

log = logging.getLogger("codecomp.trainer")

CHECKPOINT_MAGIC = b"DCLM"

# Share of the vocabulary held out for validation (before the caps below).
VAL_FRACTION = 0.05

# Iterations between validations; iteration 0 and the last are validated too.
VALIDATE_EVERY = 1000


@dataclass
class TrainConfig:
    scheme: SchemeConfig
    batch_size: int = 128
    lr: float = 1e-4
    iterations: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")


@dataclass
class TrainReport:
    best_val_loss: float = math.inf  # inf only while no validation has passed
    val_loss_history: list = field(default_factory=list)  # (iteration, loss) pairs
    wall_time: float = 0.0
    iterations_run: int = 0
    best_iteration: int = 0


def split_validation(emb, tc, rng):
    """Disjoint (train_indices, val_indices) over the vocabulary.

    Validation size is round(VAL_FRACTION * |V|) capped at 3000 and floored
    at 10, so it depends only on the vocabulary size, not on tc. Both index
    arrays come back sorted, which fixes the sampling layout independently
    of the permutation's internal order.
    """
    vocab_size = len(emb.vocab)
    if vocab_size < 20:
        raise ConfigError(f"need at least 20 words to split, got {vocab_size}")
    n_val = min(int(round(VAL_FRACTION * vocab_size)), 3000)
    n_val = max(n_val, 10)
    perm = rng.permutation(vocab_size)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return train_idx, val_idx


def train(emb, tc):
    """Learn codes for an embedding matrix; returns (best params, report).

    Iteration it in 0..iterations is validated when it % VALIDATE_EVERY == 0
    or it == iterations: the validation loss, with zero noise and soft
    assignments, of the parameters after it steps (iteration 0 scores the
    initial parameters). The parameters with the lowest validation loss
    seen are kept and returned, so best_val_loss is always a float and
    best_iteration an int. Validation draws no random numbers. A word with
    a NaN or infinite value raises DataError naming it before training
    starts. A non-finite value in a training step or in a validation
    forward aborts with NumericError carrying the last-good parameters and
    the report so far.
    """
    cfg = tc.scheme
    matrix = emb.matrix
    emb.require_input("training", cfg.H)
    t_start = time.perf_counter()
    rng = new_rng(tc.seed)
    train_idx, val_idx = split_validation(emb, tc, rng)
    params = init_params(cfg, rng)
    grads = ModelParams(cfg, np.empty_like(params.flat))
    state = new_adam_state(params, lr=tc.lr)
    x_val = matrix[val_idx]

    report = TrainReport()
    best_params = params.copy()

    for it in range(tc.iterations + 1):
        try:
            if it:
                batch_pos = rng.integers(0, len(train_idx), size=tc.batch_size)
                xb = matrix[train_idx[batch_pos]]
                noise = sample_gumbel(rng, (tc.batch_size, cfg.M, cfg.K))
                trace = forward(params, xb, noise, cfg)
                backward(params, xb, trace, grads)
                adam_step(params, grads, state)
            if it % VALIDATE_EVERY and it != tc.iterations:
                continue
            val_loss = forward(params, x_val, None, cfg).loss
        except NumericError as exc:
            report.iterations_run = it
            report.wall_time = time.perf_counter() - t_start
            raise NumericError(
                f"training aborted at iteration {it}: {exc}",
                params=best_params,
                report=report,
            ) from exc

        report.val_loss_history.append((it, val_loss))
        log.info("iteration %d: validation loss %.6f", it, val_loss)
        if val_loss < report.best_val_loss:
            np.copyto(best_params.flat, params.flat)
            report.best_val_loss = val_loss
            report.best_iteration = it

    report.iterations_run = tc.iterations
    report.wall_time = time.perf_counter() - t_start
    return best_params, report


def save_checkpoint(path, params, iteration):
    """Write a checkpoint of params: its scheme dims, all five groups, iteration.

    Layout: magic "DCLM", version byte, u32 M/K/H of params.scheme
    little-endian, then the flat parameter buffer (theta, b, theta_prime,
    b_prime, A, each row-major) as little-endian float32, then a u64
    iteration counter (the iteration the saved parameters came from).
    """
    cfg = params.scheme
    with open(path, "wb") as fh:
        fh.write(container.header(CHECKPOINT_MAGIC, cfg.M, cfg.K, cfg.H))
        fh.write(container.floats(params.flat))
        fh.write(np.array([iteration], dtype="<u8"))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, scheme, iteration)."""
    with open(path, "rb") as fh:
        m, k, h = container.read_header(fh, CHECKPOINT_MAGIC, 3, path)
        container.check_header(path, m, k, h)
        cfg = SchemeConfig(M=m, K=k, H=h)
        flat = container.read_array(fh, (ModelParams.size(cfg),), path)
        iteration = int(container.read_array(fh, (1,), path, dtype="<u8")[0])
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: checkpoint contains non-finite parameters")
    return ModelParams(cfg, flat), cfg, iteration
