"""Dense 2-D float kernel and seeded random sampling.

Everything above this module works with plain numpy arrays; the helpers
here pin down the numeric conventions the rest of the package relies on:

* parameters and data are stored as 32-bit floats,
* matrix products run in the operands' own dtype (float32 GEMMs in
  training), so each entry is within inner * eps * (|a| @ |b|) of the
  exact product,
* random numbers come from numpy's PCG64 generator, so a seed fixes the
  entire sample stream bit-exactly on a given build.

Functions are dtype-generic: feeding float64 arrays through keeps the whole
computation in float64, which the gradient tests use as a high-precision
shadow of the float32 path.
"""

import numpy as np

from .errors import ConfigError

# Clamp for uniform draws before the double-log Gumbel transform.
GUMBEL_EPS = 1e-20


def new_rng(seed):
    """Seeded random generator (numpy PCG64).

    The generator algorithm is part of the determinism contract: identical
    seeds yield identical sample streams across runs of the same build.
    """
    return np.random.default_rng(seed)


def matmul(a, b, out=None):
    """Matrix product computed by BLAS in the operands' own dtype.

    Both operands must be 2-D with matching inner dimension. Float32
    operands take the sgemm path and float64 operands stay float64; each
    output entry is within inner * eps(dtype) * (|a| @ |b|) of the exact
    product (Higham, Accuracy and Stability of Numerical Algorithms, 3.5).
    The output is not scanned for non-finite values; callers check at their
    own stages. With out, the product is written there and out is returned.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


def softplus(x):
    """log(1 + e^x) with an overflow guard: for x > 30 return x directly."""
    x = np.asarray(x)
    out = np.minimum(x, 30, out=np.empty_like(x))
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.copyto(out, x, where=x > 30)
    return out


def gumbel_from_uniform(u):
    """Map uniform draws to Gumbel(0, 1) samples: g = -log(-log(u)).

    u is clamped to [1e-20, 1 - 1e-20] first; the inner -log(u) is floored
    at 1e-20 as well so u values indistinguishable from 1.0 in float64
    (where the upper clamp is a no-op) still map to a finite sample. The
    floor is unreachable for generator output, whose largest draw is
    1 - 2^-53, so the sample stream is unaffected.
    """
    g = np.clip(np.asarray(u, dtype=np.float64), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.maximum(g, GUMBEL_EPS, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    return g


def sample_gumbel(rng, rows, cols):
    """rows x cols matrix of Gumbel(0, 1) noise as float32."""
    return gumbel_from_uniform(rng.random((rows, cols))).astype(np.float32)
