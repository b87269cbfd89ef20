"""Compositional code learner: encoder, Gumbel-softmax assignment, additive decoder.

The network embeds a batch of word vectors x (B x H) as follows:

    h      = tanh(x @ theta + b)                     hidden layer, width M*K/2
    alpha  = softplus(h @ theta_prime + b_prime)     per-component codeword scores
    d_i    = softmax((log alpha_i + G_i) / tau)      soft one-hot per component i
    recon  = sum_i d_i @ A_i                         additive reconstruction

where G is Gumbel(0, 1) noise and A stacks M codebooks of K codewords each.
The training loss is the squared L2 distance summed over dimensions and
averaged over the batch. Backpropagation is written out analytically; the
Gumbel noise enters through the reparameterized soft assignment, so the
gradient flows through the softmax rather than a straight-through estimator.

All functions are dtype-generic: float32 parameters give the production
path (float32 GEMMs; Adam updates in place in 32 bits), while float64
parameters give a high-precision shadow, float64 end to end, used by the
finite-difference gradient tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import matmul, softplus

# Floor applied to alpha before the log so 32-bit softplus underflow cannot
# produce -inf logits. Gradient is defined as zero where the floor is active.
ALPHA_FLOOR = 1e-10

PARAM_NAMES = ("theta", "b", "theta_prime", "b_prime", "A")


@dataclass(frozen=True)
class SchemeConfig:
    """Coding scheme: M codebooks of K codewords each over H dimensions."""

    M: int
    K: int
    H: int
    tau: float = 1.0

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.K < 2 or (self.K & (self.K - 1)) != 0:
            raise ConfigError(f"K must be a power of 2 and >= 2, got {self.K}")
        if self.H < 1:
            raise ConfigError(f"H must be >= 1, got {self.H}")
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if (self.M * self.K) % 2 != 0:
            raise ConfigError("M*K must be even (hidden width is M*K/2)")

    @property
    def hidden(self):
        return self.M * self.K // 2

    @property
    def bits_per_word(self):
        return self.M * (self.K.bit_length() - 1)


@dataclass
class ModelParams:
    """Encoder weights and the stacked codebook matrix.

    A is (M*K) x H with rows [i*K, (i+1)*K) forming codebook i, so a soft
    assignment flattened to (B, M*K) reconstructs as a single matrix product.
    """

    theta: np.ndarray        # H x hidden
    b: np.ndarray            # hidden
    theta_prime: np.ndarray  # hidden x (M*K)
    b_prime: np.ndarray      # M*K
    A: np.ndarray            # (M*K) x H

    def items(self):
        for name in PARAM_NAMES:
            yield name, getattr(self, name)

    def astype(self, dtype):
        return ModelParams(**{name: arr.astype(dtype) for name, arr in self.items()})

    def copy(self):
        return ModelParams(**{name: arr.copy() for name, arr in self.items()})

    @staticmethod
    def shapes(cfg):
        """Shape of each parameter group under a scheme, in PARAM_NAMES order."""
        hid = cfg.hidden
        mk = cfg.M * cfg.K
        return {
            "theta": (cfg.H, hid),
            "b": (hid,),
            "theta_prime": (hid, mk),
            "b_prime": (mk,),
            "A": (mk, cfg.H),
        }

    def validate(self, cfg):
        expect = self.shapes(cfg)
        for name, arr in self.items():
            if arr.shape != expect[name]:
                raise ConfigError(
                    f"parameter {name} has shape {arr.shape}, expected {expect[name]}"
                )


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
    """Adam moment buffers, per-group scratch and hyperparameters. Single-writer."""

    m: dict
    v: dict
    work: dict
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def new_adam_state(params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Zeroed moments and one scratch array per group, in the parameter dtype."""
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
        work={name: np.empty_like(arr) for name, arr in params.items()},
        t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
    )


def init_params(cfg, rng, dtype=np.float32):
    """Uniform Glorot init for weights, zeros for biases.

    Scale s = sqrt(6 / (fan_in + fan_out)) per matrix; the codebook matrix A
    uses fan (M*K, H). Draw order is theta, theta_prime, A, which is part of
    the determinism contract for a given seed.
    """
    hid = cfg.hidden
    mk = cfg.M * cfg.K
    s1 = np.sqrt(6.0 / (cfg.H + hid))
    theta = rng.uniform(-s1, s1, size=(cfg.H, hid)).astype(dtype)
    s2 = np.sqrt(6.0 / (hid + mk))
    theta_prime = rng.uniform(-s2, s2, size=(hid, mk)).astype(dtype)
    s_a = np.sqrt(6.0 / (mk + cfg.H))
    a = rng.uniform(-s_a, s_a, size=(mk, cfg.H)).astype(dtype)
    return ModelParams(
        theta=theta,
        b=np.zeros(hid, dtype=dtype),
        theta_prime=theta_prime,
        b_prime=np.zeros(mk, dtype=dtype),
        A=a,
    )


def softmax(x, axis=-1):
    """Max-subtracted softmax along the given axis."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _require_finite(arr, stage):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in forward stage '{stage}'")


def encode(params, x, cfg):
    """Encoder: hidden layer h (B x hidden) and codeword scores alpha (B x M x K).

    alpha is floored at ALPHA_FLOOR. Training's forward pass and code export
    both score words here, so export's argmax sees what training optimised.
    """
    h = np.tanh(matmul(x, params.theta) + params.b)
    _require_finite(h, "hidden")
    raw = matmul(h, params.theta_prime) + params.b_prime
    alpha = np.maximum(softplus(raw), raw.dtype.type(ALPHA_FLOOR))
    alpha = alpha.reshape(x.shape[0], cfg.M, cfg.K)
    _require_finite(alpha, "alpha")
    return h, alpha


def forward(params, batch, noise, cfg, hard=False):
    """Run the autoencoder on a batch, returning all intermediate stages.

    noise is a B x M x K matrix of Gumbel samples, or None for the
    deterministic mode used by validation and export. With hard=True the
    soft assignment is replaced by the exact one-hot at the argmax (ties
    toward the smallest index), which is the reconstruction the discrete
    codes produce after export.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != cfg.H:
        raise ConfigError(f"batch shape {batch.shape} does not match H={cfg.H}")
    params.validate(cfg)
    bsz = batch.shape[0]
    if noise is not None:
        noise = np.asarray(noise)
        if noise.shape != (bsz, cfg.M, cfg.K):
            raise ConfigError(
                f"noise shape {noise.shape}, expected {(bsz, cfg.M, cfg.K)}"
            )

    h, alpha = encode(params, batch, cfg)
    logits = np.log(alpha)
    if noise is not None:
        logits = logits + noise
    logits = logits / cfg.tau
    if hard:
        idx = logits.argmax(axis=2)
        d = np.zeros_like(logits)
        np.put_along_axis(d, idx[:, :, None], 1.0, axis=2)
    else:
        d = softmax(logits, axis=2)
    _require_finite(d, "assignment")

    recon = matmul(d.reshape(bsz, cfg.M * cfg.K), params.A)
    _require_finite(recon, "reconstruction")

    resid = recon - batch
    loss = float(np.sum(resid.astype(np.float64) ** 2) / bsz)
    if not np.isfinite(loss):
        raise NumericError("non-finite values in forward stage 'loss'")
    return ForwardTrace(h=h, alpha=alpha, d=d, recon=recon, loss=loss)


def backward(params, batch, cfg, trace):
    """Analytic gradients of the batch loss for all five parameter groups.

    The softmax Jacobian contracts to d * (g - sum(g * d)) per K-slice; the
    chain through log(softplus(raw)) simplifies to (1 - exp(-alpha)) / alpha
    since sigmoid(raw) = 1 - exp(-softplus(raw)). Where the alpha floor is
    active the gradient is defined as zero.
    """
    batch = np.asarray(batch)
    bsz = batch.shape[0]
    mk = cfg.M * cfg.K
    d_flat = trace.d.reshape(bsz, mk)
    alpha_flat = trace.alpha.reshape(bsz, mk)

    d_recon = ((2.0 / bsz) * (trace.recon - batch)).astype(batch.dtype)
    g_a = matmul(d_flat.T, d_recon)

    d_d = matmul(d_recon, params.A.T).reshape(bsz, cfg.M, cfg.K)
    inner = (d_d * trace.d).sum(axis=2, keepdims=True)
    d_logits = trace.d * (d_d - inner)
    d_log_alpha = (d_logits / cfg.tau).reshape(bsz, mk)

    factor = 1.0 - np.exp(-alpha_flat)
    factor[alpha_flat <= ALPHA_FLOOR] = 0.0
    d_raw = (d_log_alpha * factor / alpha_flat).astype(batch.dtype)

    g_theta_prime = matmul(trace.h.T, d_raw)
    g_b_prime = d_raw.sum(axis=0, dtype=np.float64).astype(batch.dtype)

    d_h = matmul(d_raw, params.theta_prime.T)
    d_pre = (d_h * (1.0 - trace.h ** 2)).astype(batch.dtype)
    g_theta = matmul(batch.T, d_pre)
    g_b = d_pre.sum(axis=0, dtype=np.float64).astype(batch.dtype)

    return {
        "theta": g_theta,
        "b": g_b,
        "theta_prime": g_theta_prime,
        "b_prime": g_b_prime,
        "A": g_a,
    }


def adam_step(params, grads, state):
    """One Adam update with bias correction, in place.

    Moments, scratch and parameter arrays are updated in place in the
    parameter dtype; the arrays bound to params stay the same objects. The
    bias corrections fold into two Python floats per step, so they do not
    widen the float32 loops. eps sits outside the square root:

        p -= lr / (1 - beta1^t) * m / (sqrt(v) / sqrt(1 - beta2^t) + eps)
    """
    state.t += 1
    t = state.t
    b1, b2 = state.beta1, state.beta2
    step = state.lr / (1.0 - b1 ** t)
    v_scale = 1.0 / math.sqrt(1.0 - b2 ** t)
    for name, p in params.items():
        g, m, v, work = grads[name], state.m[name], state.v[name], state.work[name]
        m *= b1
        np.multiply(g, 1.0 - b1, out=work)
        m += work
        v *= b2
        np.multiply(g, g, out=work)
        work *= 1.0 - b2
        v += work
        np.sqrt(v, out=work)
        work *= v_scale
        work += state.eps
        np.divide(m, work, out=work)
        work *= step
        p -= work
