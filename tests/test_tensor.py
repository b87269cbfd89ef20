import math

import numpy as np
import pytest

from codecomp import model, tensor
from codecomp.errors import ConfigError


def matmul_oracle(a, b):
    """Naive triple loop, float64 accumulation ascending over the inner dim.

    Returns float64 whatever the input dtype: for float32 inputs every
    product is exact in float64, so this is the reference product.
    """
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestMatmul:
    """model.py's GEMMs: numpy's matmul, in the operands' own dtype."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        out = model.matmul(np.eye(3, dtype=np.float32), x)
        assert np.array_equal(out, x)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[0.0], [1.0]], dtype=np.float32)
        assert np.array_equal(model.matmul(a, b), np.array([[2.0], [4.0]], dtype=np.float32))

    def test_within_rounding_bound_of_triple_loop_oracle(self):
        # The contract: the product keeps the input dtype, and each entry is
        # within inner * eps(dtype) * (|a| @ |b|) of the oracle (Higham,
        # Accuracy and Stability of Numerical Algorithms, 3.5).
        rng = np.random.default_rng(42)
        for dtype in (np.float32, np.float64):
            for rows, inner, cols in [(5, 7, 3), (64, 32, 16), (17, 129, 11), (8, 300, 12)]:
                a = rng.standard_normal((rows, inner)).astype(dtype)
                b = rng.standard_normal((inner, cols)).astype(dtype)
                out = model.matmul(a, b)
                assert out.dtype == dtype
                bound = inner * np.finfo(dtype).eps * matmul_oracle(np.abs(a), np.abs(b))
                err = np.abs(out.astype(np.float64) - matmul_oracle(a, b))
                assert np.all(err <= bound), float((err / bound).max())

    def test_float64_passthrough(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 2))
        assert model.matmul(a, b).dtype == np.float64


class TestElementwise:
    def test_softplus_zero_is_log_two(self):
        out = tensor.softplus(np.array([0.0], dtype=np.float32))
        assert out[0] == pytest.approx(0.6931472, abs=1e-7)
        assert tensor.softplus(np.float32(0.0)) == out[0]

    def test_softplus_large_linear(self):
        # log(1 + e^40) = 40 + log(1 + e^-40); the correction is ~4e-18.
        out = tensor.softplus(np.array([40.0], dtype=np.float32))
        assert abs(float(out[0]) - 40.0) < 1e-6

    def test_softplus_guard_is_exact_passthrough(self):
        x = np.array([31.0, 100.0, 5000.0], dtype=np.float32)
        assert np.array_equal(tensor.softplus(x), x)


class FixedDraws:
    """Stand-in generator whose random(shape, dtype) returns the given uniform draws."""

    def __init__(self, *u):
        self.u = u

    def random(self, shape, dtype=np.float64):
        return np.array(self.u, dtype=dtype).reshape(shape)


class TestGumbel:
    def test_fixed_point_at_inverse_e(self):
        # u = 1/e gives -log(-log(u)) = -log(1) = 0.
        g = tensor.sample_gumbel(FixedDraws(1.0 / math.e), (1,))
        assert g[0] == pytest.approx(0.0, abs=1e-7)

    def test_value_at_half(self):
        g = tensor.sample_gumbel(FixedDraws(0.5), (1,))
        assert g[0] == pytest.approx(0.3665129205816643, rel=1e-7)

    def test_finite_on_entire_unit_interval(self):
        # The float32 generator draws from [0, 1 - 2^-24].
        g = tensor.sample_gumbel(FixedDraws(0.0, 1.0 - 2.0 ** -24), (2,))
        assert np.all(np.isfinite(g))

    def test_sample_mean_near_euler_mascheroni(self):
        rng = tensor.new_rng(100)
        samples = tensor.sample_gumbel(rng, (1000, 1000))
        assert abs(float(samples.mean()) - 0.5772156649) < 0.01

    def test_sample_dtype_and_shape(self):
        samples = tensor.sample_gumbel(tensor.new_rng(0), (3, 2, 5))
        assert samples.shape == (3, 2, 5)
        assert samples.dtype == np.float32


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = tensor.new_rng(7).random(10_000)
        b = tensor.new_rng(7).random(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = tensor.new_rng(7).random(100)
        b = tensor.new_rng(8).random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tensor.new_rng(seed)

    def test_numpy_integer_seed(self):
        assert tensor.new_rng(np.int64(7)).random() == tensor.new_rng(7).random()
