"""Dense 2-D float kernel and seeded random sampling.

Everything above this module works with plain numpy arrays; the helpers
here pin down the numeric conventions the rest of the package relies on:

* parameters and data are stored as 32-bit floats,
* matrix products run in the operands' own dtype (float32 GEMMs in
  training), so each entry is within inner * eps * (|a| @ |b|) of the
  exact product,
* random numbers come from numpy's PCG64 generator, so a seed fixes the
  entire sample stream bit-exactly on a given build,
* Gumbel noise, which only training's soft forward pass takes, is drawn
  here and nowhere else.

Functions are dtype-generic: feeding float64 arrays through keeps the whole
computation in float64, which the gradient tests use as a high-precision
shadow of the float32 path.
"""

import numpy as np

from .errors import ConfigError

# Floor for uniform draws before the double-log Gumbel transform.
GUMBEL_EPS = 1e-20


def new_rng(seed):
    """Seeded random generator (numpy PCG64).

    The generator algorithm is part of the determinism contract: identical
    seeds yield identical sample streams across runs of the same build.
    A seed that is not a non-negative integer raises ConfigError.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
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


def sample_gumbel(rng, shape):
    """Gumbel(0, 1) noise of the given shape as float32: g = -log(-log(u)).

    u is a float64 uniform draw on [0, 1), floored at GUMBEL_EPS so that
    u = 0 maps to a finite sample. That floor is the one clamp generator
    output can reach: its largest draw, 1 - 2^-53, already gives a finite g.
    """
    g = rng.random(shape)
    np.maximum(g, GUMBEL_EPS, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    return g.astype(np.float32)
