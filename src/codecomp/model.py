"""Compositional code learner: encoder, Gumbel-softmax assignment, additive decoder.

The network embeds a batch of word vectors x (B x H) as follows:

    h      = tanh(x @ theta + b)                     hidden layer, width M*K/2
    alpha  = softplus(h @ theta_prime + b_prime)     per-component codeword scores
    d_i    = softmax(log alpha_i + G_i)              soft one-hot per component i
           = alpha_i * e^G_i / sum_k alpha_ik * e^G_ik
    recon  = sum_i d_i @ A_i                         additive reconstruction

where G is Gumbel(0, 1) noise and A stacks M codebooks of K codewords each.
The Gumbel-softmax runs at temperature 1, where the two forms of d_i are
the same; forward computes the second, which needs no log and no max shift.
Noise is a training device: only the soft forward pass takes it. A word's
code is the argmax of its scores (assign); hard forward passes and code
export both take it there.
The training loss is the squared L2 distance summed over dimensions and
averaged over the batch. Backpropagation is written out analytically; the
Gumbel noise enters through the reparameterized soft assignment, so the
gradient flows through the softmax rather than a straight-through estimator.

All functions are dtype-generic: float32 parameters give the production
path (float32 GEMMs; sums over K and over the batch as products with a
ones vector; Adam updates in place in 32 bits; only the loss accumulates
in float64), while float64 parameters give a high-precision shadow,
float64 end to end, used by the finite-difference gradient tests.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy import matmul

from .errors import ConfigError, DataError, NumericError
from .tensor import softplus

# Floor applied to alpha so 32-bit softplus underflow cannot zero a score:
# each normaliser stays positive and backward's division by alpha finite.
# Gradient is defined as zero where the floor is active.
ALPHA_FLOOR = 1e-10

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def check_scheme(M, K, H=1):
    """Raise ConfigError unless M >= 1, K is a power of 2 >= 2 and H >= 1.

    The scheme rule, which SchemeConfig, CodeMatrix and Codebooks apply.
    """
    if M < 1:
        raise ConfigError(f"M must be >= 1, got {M}")
    if K < 2 or (K & (K - 1)) != 0:
        raise ConfigError(f"K must be a power of 2 and >= 2, got {K}")
    if H < 1:
        raise ConfigError(f"H must be >= 1, got {H}")


def check_header(source, m, k, h=1):
    """DataError naming the first header field that breaks the scheme rule.

    Code, codebook and checkpoint headers hold u32 M at offset 5, K at 9
    and (codebooks, checkpoints) H at 13. Each field is checked alone, with
    valid stand-ins for the others.
    """
    for offset, fields in ((5, (m, 2, 1)), (9, (1, k, 1)), (13, (1, 2, h))):
        try:
            check_scheme(*fields)
        except ConfigError as exc:
            raise DataError(f"{source}: header at offset {offset}: {exc}") from exc


def bits_per_word(M, K):
    """Code bits per word: M components of log2(K) bits each."""
    return M * (K.bit_length() - 1)


@dataclass(frozen=True)
class SchemeConfig:
    """Coding scheme: M codebooks of K codewords each over H dimensions."""

    M: int
    K: int
    H: int

    def __post_init__(self):
        check_scheme(self.M, self.K, self.H)

    @property
    def hidden(self):
        return self.M * self.K // 2

    @property
    def bits_per_word(self):
        return bits_per_word(self.M, self.K)


class ModelParams:
    """Encoder weights and the stacked codebook matrix in one flat buffer.

    flat holds the groups back to back, row-major, in the order and shapes
    that shapes() gives (theta, b, theta_prime, b_prime, A); each group is
    a view of its slice, so writing into a group writes into flat; scheme
    is the SchemeConfig the layout follows, and functions that take params
    read the scheme there. No attribute can be rebound, so the views stay
    on the buffer. Gradients and Adam's moments share this layout, so Adam
    runs over flat arrays.

    A is (M*K) x H with rows [i*K, (i+1)*K) forming codebook i, so a soft
    assignment flattened to (B, M*K) reconstructs as a single matrix product.
    """

    def __init__(self, scheme, flat=None, dtype=np.float32):
        """Views over flat (zeros of dtype when None) laid out for scheme."""
        size = self.size(scheme)
        if flat is None:
            flat = np.zeros(size, dtype=dtype)
        if flat.shape != (size,):
            raise ConfigError(f"parameter buffer has shape {flat.shape}, expected {(size,)}")
        views = {}
        offset = 0
        for name, shape in self.shapes(scheme).items():
            count = math.prod(shape)
            views[name] = flat[offset:offset + count].reshape(shape)
            offset += count
        # Plain attributes (fast to read), set past __setattr__.
        self.__dict__.update(views, flat=flat, scheme=scheme)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"ModelParams.{name} cannot be rebound; write into it instead"
        )

    def copy(self):
        return ModelParams(self.scheme, self.flat.copy())

    @staticmethod
    def shapes(cfg):
        """Shape of each parameter group under a scheme, in buffer order."""
        hid = cfg.hidden
        mk = cfg.M * cfg.K
        return {
            "theta": (cfg.H, hid),
            "b": (hid,),
            "theta_prime": (hid, mk),
            "b_prime": (mk,),
            "A": (mk, cfg.H),
        }

    @staticmethod
    def size(cfg):
        """Length of the flat buffer under a scheme."""
        return sum(math.prod(shape) for shape in ModelParams.shapes(cfg).values())


@dataclass
class ForwardTrace:
    """Intermediate activations of one forward pass, reused by backward."""

    h: np.ndarray      # B x hidden
    alpha: np.ndarray  # B x M x K, floored at ALPHA_FLOOR
    d: np.ndarray      # B x M x K, soft one-hots (exact one-hots in hard mode)
    recon: np.ndarray  # B x H
    loss: float


@dataclass
class AdamState:
    """Adam moments, flat like ModelParams.flat, and one block of scratch.

    m and v are unscaled: Kingma & Ba's moments over (1 - beta1), (1 - beta2).
    work holds min(ADAM_BLOCK, size) elements, reused by every block.
    Single-writer.
    """

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    lr: float
    t: int = 0


def new_adam_state(params, lr):
    """Zeroed moments and a one-block scratch buffer, in the parameter dtype."""
    flat = params.flat
    return AdamState(
        m=np.zeros_like(flat),
        v=np.zeros_like(flat),
        work=np.empty(min(ADAM_BLOCK, flat.size), dtype=flat.dtype),
        lr=lr,
    )


def init_params(cfg, rng, dtype=np.float32):
    """Uniform Glorot init for weights, zeros for biases.

    Scale s = sqrt(6 / (fan_in + fan_out)) per matrix; the codebook matrix A
    uses fan (M*K, H). Draw order is theta, theta_prime, A, which is part of
    the determinism contract for a given seed.
    """
    hid = cfg.hidden
    mk = cfg.M * cfg.K
    params = ModelParams(cfg, dtype=dtype)
    s1 = np.sqrt(6.0 / (cfg.H + hid))
    params.theta[...] = rng.uniform(-s1, s1, size=(cfg.H, hid))
    s2 = np.sqrt(6.0 / (hid + mk))
    params.theta_prime[...] = rng.uniform(-s2, s2, size=(hid, mk))
    s_a = np.sqrt(6.0 / (mk + cfg.H))
    params.A[...] = rng.uniform(-s_a, s_a, size=(mk, cfg.H))
    return params


@functools.lru_cache(maxsize=64)
def _ones(shape, dtype):
    """Read-only ones, built once per shape and dtype. A sum taken as a
    product with them is one BLAS call; numpy reduces short axes slowly."""
    ones = np.ones(shape, dtype=dtype)
    ones.flags.writeable = False
    return ones


def _sum_last(x):
    """Sums over the last axis of x, kept as a length-1 axis."""
    k = x.shape[-1]
    sums = matmul(x.reshape(-1, k), _ones((k, 1), x.dtype))
    return sums.reshape(x.shape[:-1] + (1,))


def _raise_first_bad(stages):
    """NumericError naming the first (stage, array) pair holding a non-finite value."""
    for stage, arr in stages:
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite values in forward stage '{stage}'")


def encode(params, x, check=True):
    """Encoder: hidden layer h (B x hidden) and codeword scores alpha (B x M x K).

    alpha is floored at ALPHA_FLOOR. Training's forward pass and code export
    both score words here, so export's codes come from what training optimised.
    With check, a non-finite alpha raises NumericError naming 'hidden' or
    'alpha'; an argmax over alpha would hide it. The soft forward pass
    checks its row sums over K and its loss instead, which any non-finite
    stage reaches. x must be B x H, or ConfigError is raised.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != params.scheme.H:
        raise ConfigError(f"batch shape {x.shape} does not match H={params.scheme.H}")
    h = matmul(x, params.theta)
    h += params.b
    np.tanh(h, out=h)
    raw = matmul(h, params.theta_prime)
    raw += params.b_prime
    alpha = softplus(raw)
    np.maximum(alpha, raw.dtype.type(ALPHA_FLOOR), out=alpha)
    alpha = alpha.reshape(x.shape[0], params.scheme.M, params.scheme.K)
    if check and not np.isfinite(alpha).all():
        _raise_first_bad((("hidden", h), ("alpha", alpha)))
    return h, alpha


def assign(alpha):
    """Codes (B x M): the argmax over K of alpha (B x M x K).

    The one code assignment rule; hard forward passes and code export both
    call it. Ties go to the smaller index. The argmax runs on alpha itself,
    not on log(alpha), since a float32 log can merge two adjacent scores.
    """
    return alpha.argmax(axis=2)


def forward(params, batch, noise, cfg, hard=False):
    """Run the autoencoder on a batch, returning all intermediate stages.

    noise is a B x M x K matrix of Gumbel samples for a training step, or
    None for the deterministic soft pass validation scores. With hard=True
    the soft assignment is replaced by the exact one-hot of assign's code,
    which is the reconstruction the exported codes produce; hard mode takes
    no noise, and passing some raises ConfigError, as an empty batch does.
    cfg must equal params.scheme, or ConfigError is raised; it stays in the
    signature because bench/checks.py passes it positionally. A non-finite
    value raises NumericError naming the first stage that holds one.
    """
    if cfg != params.scheme:
        raise ConfigError(f"parameters are for {params.scheme}, not {cfg}")
    batch = np.asarray(batch)
    h, alpha = encode(params, batch, check=hard)
    bsz = batch.shape[0]
    if bsz == 0:
        raise ConfigError("empty batch: forward needs at least one row")
    if noise is not None:
        if hard:
            raise ConfigError("hard forward takes no noise: a code is alpha's argmax")
        noise = np.asarray(noise)
        if noise.shape != (bsz, cfg.M, cfg.K):
            raise ConfigError(
                f"noise shape {noise.shape}, expected {(bsz, cfg.M, cfg.K)}"
            )

    if hard:
        d = np.zeros_like(alpha)
        np.put_along_axis(d, assign(alpha)[:, :, None], 1.0, axis=2)
    else:
        if noise is None:
            d = alpha.copy()
        else:
            d = np.exp(noise, dtype=alpha.dtype)
            d *= alpha
        sums = _sum_last(d)
        # NaN fails here, and so does an overflowed sum, which would zero its row.
        if not sums.max() < np.inf:
            _raise_first_bad((("hidden", h), ("alpha", alpha)))
            raise NumericError("non-finite values in forward stage 'assignment'")
        d /= sums

    recon = matmul(d.reshape(bsz, cfg.M * cfg.K), params.A)
    res = (recon - batch).astype(np.float64).reshape(1, -1)
    loss = float(matmul(res, res.T)[0, 0]) / bsz
    if not math.isfinite(loss):
        _raise_first_bad((("hidden", h), ("alpha", alpha), ("assignment", d),
                          ("reconstruction", recon)))
        raise NumericError("non-finite values in forward stage 'loss'")
    return ForwardTrace(h=h, alpha=alpha, d=d, recon=recon, loss=loss)


def backward(params, batch, trace, grads):
    """Analytic gradients of the batch loss for all five parameter groups.

    Writes every group of grads, a ModelParams laid out like params, and
    returns it. The softmax Jacobian contracts to
    d * (g - sum(g * d)) per K-slice; the chain through log(softplus(raw))
    simplifies to (1 - exp(-alpha)) / alpha since
    sigmoid(raw) = 1 - exp(-softplus(raw)). Where the alpha floor is active
    the gradient is defined as zero.
    """
    batch = np.asarray(batch)
    bsz = batch.shape[0]
    cfg = params.scheme
    mk = cfg.M * cfg.K
    d_flat = trace.d.reshape(bsz, mk)
    alpha_flat = trace.alpha.reshape(bsz, mk)

    d_recon = trace.recon - batch
    d_recon *= 2.0 / bsz
    matmul(d_flat.T, d_recon, out=grads.A)

    # d_raw = softmax backward, then through log(softplus), in place.
    d_raw = matmul(d_recon, params.A.T)
    d_d = d_raw.reshape(bsz, cfg.M, cfg.K)
    d_d -= _sum_last(d_d * trace.d)
    d_d *= trace.d
    factor = np.negative(alpha_flat)
    np.exp(factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    factor[alpha_flat <= ALPHA_FLOOR] = 0.0
    d_raw *= factor
    d_raw /= alpha_flat

    matmul(trace.h.T, d_raw, out=grads.theta_prime)
    ones = _ones((1, bsz), d_raw.dtype)
    matmul(ones, d_raw, out=grads.b_prime.reshape(1, -1))

    d_pre = matmul(d_raw, params.theta_prime.T)
    dtanh = np.square(trace.h)
    np.subtract(1.0, dtanh, out=dtanh)
    d_pre *= dtanh
    matmul(batch.T, d_pre, out=grads.theta)
    matmul(ones, d_pre, out=grads.b.reshape(1, -1))
    return grads


# Adam walks the flat buffers in blocks of this many elements: the five
# buffers' slices of one block (1.25 MB in float32) stay in a 2 MB L2 cache
# across its 10 passes, where one pass over paper-shape buffers spills it.
ADAM_BLOCK = 65_536


def adam_step(params, grads, state):
    """One Adam update with bias correction, in place.

    Moments, scratch and parameters are updated in place in the parameter
    dtype, block by block over the flat buffers; the arrays bound to params
    stay the same objects. The moments' scales and the bias corrections
    fold into a step size and an eps, two Python floats per step, so each
    block takes 10 passes in the parameter dtype. With
    c = sqrt((1 - beta2) / (1 - beta2^t)) and eps outside the square root:

        p -= lr (1 - beta1) / ((1 - beta1^t) c) * m / (sqrt(v) + eps / c)
    """
    state.t += 1
    t = state.t
    c = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2 ** t))
    step = state.lr * (1.0 - ADAM_BETA1) / ((1.0 - ADAM_BETA1 ** t) * c)
    eps = ADAM_EPS / c
    flat = params.flat
    for start in range(0, flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g = flat[block], grads.flat[block]
        m, v, work = state.m[block], state.v[block], state.work[:p.size]
        m *= ADAM_BETA1
        m += g
        v *= ADAM_BETA2
        np.multiply(g, g, out=work)
        v += work
        np.sqrt(v, out=work)
        work += eps
        np.divide(m, work, out=work)
        work *= step
        p -= work
