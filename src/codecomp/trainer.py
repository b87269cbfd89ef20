"""Training loop: batching, validation cadence, best-checkpoint tracking.

The RNG draw order is part of the determinism contract: one generator
seeded from TrainConfig.seed produces, in order, the validation split
permutation, the parameter init, then per iteration the batch indices
followed by the Gumbel noise. Identical config and seed therefore yield
bit-identical parameters on the same build, single-threaded.
"""

import logging
import math
import struct
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


@dataclass
class TrainConfig:
    scheme: SchemeConfig
    batch_size: int = 128
    lr: float = 1e-4
    iterations: int = 200_000
    validate_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.validate_every < 1:
            raise ConfigError(f"validate_every must be >= 1, got {self.validate_every}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        # iterations = 0 is the degenerate "return the init" case; any positive
        # budget must cover at least one validation checkpoint.
        if self.iterations != 0 and self.iterations < self.validate_every:
            raise ConfigError(
                f"iterations ({self.iterations}) must be 0 or >= validate_every "
                f"({self.validate_every})"
            )


@dataclass
class TrainReport:
    best_val_loss: float | None
    val_loss_history: list = field(default_factory=list)  # (iteration, loss) pairs
    wall_time: float = 0.0
    iterations_run: int = 0
    best_iteration: int | None = None


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

    Every validate_every iterations the validation loss is evaluated with
    zero noise and soft assignments; the parameters yielding the lowest
    validation loss seen so far are kept and returned. If training never
    reaches a validation checkpoint the final parameters are returned and
    best_val_loss is None. A word with a NaN or infinite value raises
    DataError naming it before training starts. A non-finite value in a
    training step or in a validation forward aborts with NumericError
    carrying the last-good parameters and the report so far.
    """
    cfg = tc.scheme
    matrix = emb.matrix
    if matrix.shape[1] != cfg.H:
        raise ConfigError(
            f"embedding dimension {matrix.shape[1]} does not match scheme H={cfg.H}"
        )
    emb.require_finite("training")
    t_start = time.perf_counter()
    rng = new_rng(tc.seed)
    train_idx, val_idx = split_validation(emb, tc, rng)
    params = init_params(cfg, rng)
    grads = ModelParams(cfg, np.empty_like(params.flat))
    state = new_adam_state(params, lr=tc.lr)
    x_val = matrix[val_idx]

    report = TrainReport(best_val_loss=None)
    best_params = params.copy()
    best_loss = np.inf

    for it in range(1, tc.iterations + 1):
        batch_pos = rng.integers(0, len(train_idx), size=tc.batch_size)
        xb = matrix[train_idx[batch_pos]]
        noise = sample_gumbel(rng, tc.batch_size, cfg.M * cfg.K).reshape(
            tc.batch_size, cfg.M, cfg.K
        )
        try:
            trace = forward(params, xb, noise, cfg)
            backward(params, xb, cfg, trace, grads)
            adam_step(params, grads, state)
            val_loss = None
            if it % tc.validate_every == 0:
                val_loss = forward(params, x_val, None, cfg).loss
        except NumericError as exc:
            report.iterations_run = it
            report.wall_time = time.perf_counter() - t_start
            raise NumericError(
                f"training aborted at iteration {it}: {exc}",
                params=best_params,
                report=report,
            ) from exc

        if val_loss is not None:
            report.val_loss_history.append((it, val_loss))
            log.info("iteration %d: validation loss %.6f", it, val_loss)
            if val_loss < best_loss:
                best_loss = val_loss
                best_params = params.copy()
                report.best_val_loss = val_loss
                report.best_iteration = it

    report.iterations_run = tc.iterations
    report.wall_time = time.perf_counter() - t_start
    if report.best_val_loss is None:
        # No validation checkpoint was reached; hand back what we have.
        best_params = params
        report.best_iteration = tc.iterations
    return best_params, report


def save_checkpoint(path, params, cfg, iteration):
    """Write a checkpoint: scheme dims, all five parameter groups, iteration.

    Layout: magic "DCLM", version byte, u32 M/K/H little-endian, then the
    flat parameter buffer (theta, b, theta_prime, b_prime, A, each
    row-major) as little-endian float32, then a
    u64 iteration counter (the iteration the saved parameters came from).
    tau is not serialized; code export is temperature-invariant.
    """
    params.validate(cfg)
    with open(path, "wb") as fh:
        fh.write(container.header(CHECKPOINT_MAGIC, cfg.M, cfg.K, cfg.H))
        fh.write(container.floats(params.flat))
        fh.write(struct.pack("<Q", iteration))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, scheme, iteration). tau defaults to 1."""
    with open(path, "rb") as fh:
        data = fh.read()
    (m, k, h), offset = container.read_header(data, CHECKPOINT_MAGIC, 3, path)
    try:
        cfg = SchemeConfig(M=m, K=k, H=h)
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint holds invalid scheme: {exc}") from exc
    flat, offset = container.read_array(data, offset, (ModelParams.size(cfg),), path)
    if offset + 8 > len(data):
        raise DataError(
            f"{path}: truncated checkpoint: missing iteration counter "
            f"at offset {offset}"
        )
    (iteration,) = struct.unpack_from("<Q", data, offset)
    return ModelParams(cfg, flat), cfg, iteration
