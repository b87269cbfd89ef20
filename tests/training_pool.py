"""Independent training runs side by side in a two-process spawn pool.

Training is single-threaded and deterministic, so runs that share nothing
can go to separate processes and return the bits they would in this one.
This module imports neither numpy nor codecomp at the top: a spawned worker
imports it first, and its initializer pins BLAS to one thread before numpy
is first imported. A worker returns the flat parameter buffer and the
report, and the parent rebuilds ModelParams around the buffer, because an
unpickled ModelParams's groups are no longer views of its flat buffer.
"""

import multiprocessing
import os

PROCESSES = 2
# Fails the run rather than hanging when a worker dies with a run unfinished:
# far above the longest run, a 200K-iteration one of about a minute.
RESULT_TIMEOUT_S = 1800


def _pin_one_blas_thread():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _train_flat(emb, tc):
    from codecomp.trainer import train

    params, report = train(emb, tc)
    return params.flat, report


def train_all(jobs):
    """{key: (params, report)} for {key: (emb, TrainConfig)}.

    Runs start in the order given, so list the longest first.
    """
    from codecomp.model import ModelParams

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(PROCESSES, initializer=_pin_one_blas_thread) as pool:
        pending = {key: pool.apply_async(_train_flat, job) for key, job in jobs.items()}
        done = {key: result.get(RESULT_TIMEOUT_S) for key, result in pending.items()}
    return {key: (ModelParams(jobs[key][1].scheme, flat), report)
            for key, (flat, report) in done.items()}
