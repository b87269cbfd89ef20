import math
import re

import numpy as np
import pytest

from codecomp import model, tensor
from codecomp.errors import ConfigError, NumericError
from codecomp.model import SchemeConfig


def scalar_forward_oracle(params, batch, noise, cfg):
    """Straight-line scalar reimplementation of the forward pass.

    Pure Python floats throughout; no shared code with the array version.
    """
    m_books, k_words = cfg.M, cfg.K
    hid = m_books * k_words // 2
    total = 0.0
    for w in range(len(batch)):
        x = [float(v) for v in batch[w]]
        h = []
        for j in range(hid):
            acc = float(params.b[j])
            for t in range(cfg.H):
                acc += x[t] * float(params.theta[t, j])
            h.append(math.tanh(acc))
        d = []
        for i in range(m_books):
            logits = []
            for k in range(k_words):
                col = i * k_words + k
                raw = float(params.b_prime[col])
                for j in range(hid):
                    raw += h[j] * float(params.theta_prime[j, col])
                alpha = math.log1p(math.exp(raw)) if raw <= 30 else raw
                alpha = max(alpha, model.ALPHA_FLOOR)
                g = float(noise[w, i, k]) if noise is not None else 0.0
                logits.append(math.log(alpha) + g)
            peak = max(logits)
            exps = [math.exp(v - peak) for v in logits]
            z = sum(exps)
            d.append([e / z for e in exps])
        for t in range(cfg.H):
            recon = 0.0
            for i in range(m_books):
                for k in range(k_words):
                    recon += d[i][k] * float(params.A[i * k_words + k, t])
            total += (recon - x[t]) ** 2
    return total / len(batch)


def softmax(x):
    """Max-subtracted softmax along the last axis: the reference form of
    forward's assignment, which at temperature 1 equals softmax(log alpha + G)."""
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def scalar_adam_oracle(value, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam on a single scalar parameter across several steps."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        value -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return value


class TestSchemeConfig:
    def test_rejects_non_power_of_two_k(self):
        with pytest.raises(ConfigError):
            SchemeConfig(M=4, K=6, H=8)

    def test_rejects_k_below_two(self):
        with pytest.raises(ConfigError):
            SchemeConfig(M=4, K=1, H=8)

    def test_hidden_width(self):
        assert SchemeConfig(M=4, K=8, H=16).hidden == 16
        assert SchemeConfig(M=8, K=64, H=300).hidden == 256

    def test_bits_per_word(self):
        assert SchemeConfig(M=32, K=16, H=300).bits_per_word == 128


class TestForward:
    def test_uniform_assignment_when_encoder_head_is_zero(self):
        cfg = SchemeConfig(M=3, K=4, H=6)
        rng = tensor.new_rng(0)
        params = model.init_params(cfg, rng)
        params.theta_prime[...] = 0
        params.b_prime[...] = 0
        x = rng.standard_normal((5, 6)).astype(np.float32)
        trace = model.forward(params, x, None, cfg)
        assert np.array_equal(trace.d, np.full((5, 3, 4), 0.25, dtype=np.float32))

    def test_zero_codebook_gives_squared_norm_loss(self):
        cfg = SchemeConfig(M=2, K=4, H=5)
        rng = tensor.new_rng(1)
        params = model.init_params(cfg, rng)
        params.A[...] = 0
        x = rng.standard_normal((7, 5)).astype(np.float32)
        trace = model.forward(params, x, None, cfg)
        assert np.array_equal(trace.recon, np.zeros((7, 5), dtype=np.float32))
        expected = float(np.sum(x.astype(np.float64) ** 2) / 7)
        assert trace.loss == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_oracle(self):
        cfg = SchemeConfig(M=2, K=4, H=4)
        rng = tensor.new_rng(7)
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        noise = tensor.sample_gumbel(rng, (2, 2, 4))
        trace = model.forward(params, x, noise, cfg)
        want = scalar_forward_oracle(params, x, noise, cfg)
        assert trace.loss == pytest.approx(want, rel=1e-5)
        # The float64 shadow should agree with the scalar oracle much tighter.
        trace64 = model.forward(
            model.ModelParams(params.scheme, params.flat.astype(np.float64)),
            x.astype(np.float64),
            noise.astype(np.float64), cfg,
        )
        assert trace64.loss == pytest.approx(want, rel=1e-12)

    def test_simplex_property(self):
        rng = tensor.new_rng(3)
        for _ in range(10):
            m_books = int(rng.integers(1, 5))
            k_words = int(2 ** rng.integers(1, 5))
            if (m_books * k_words) % 2:
                k_words *= 2
            dim = int(rng.integers(2, 9))
            cfg = SchemeConfig(M=m_books, K=k_words, H=dim)
            params = model.init_params(cfg, rng)
            x = rng.standard_normal((4, dim)).astype(np.float32)
            noise = tensor.sample_gumbel(rng, (4, m_books, k_words))
            trace = model.forward(params, x, noise, cfg)
            sums = trace.d.sum(axis=2)
            assert np.all(np.abs(sums - 1.0) < 1e-5)
            assert np.all(trace.d > 0)
            assert np.all(trace.d < 1)

    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
    def test_assignment_is_softmax_of_log_alpha_plus_noise(self, noisy):
        # At temperature 1, softmax(log alpha + G) = alpha e^G / sum_k alpha e^G.
        cfg = SchemeConfig(M=3, K=8, H=5)
        rng = tensor.new_rng(11)
        init = model.init_params(cfg, rng)
        params = model.ModelParams(cfg, init.flat.astype(np.float64))
        params.b_prime[...] = 3 * rng.standard_normal(cfg.M * cfg.K)
        x = rng.standard_normal((6, cfg.H))
        noise = tensor.sample_gumbel(rng, (6, cfg.M, cfg.K)).astype(np.float64)
        trace = model.forward(params, x, noise if noisy else None, cfg)
        want = softmax(np.log(trace.alpha) + (noise if noisy else 0.0))
        np.testing.assert_allclose(trace.d, want, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("noise_value", [2.0, 0.0, None],
                             ids=["product", "row-sum", "no-noise"])
    def test_overflowing_assignment_is_named(self, noise_value):
        # alpha = 1e38 is finite in float32; alpha * e^2 overflows, and with
        # e^0 = 1 or no noise only the sum over K = 4 codewords does.
        cfg = SchemeConfig(M=2, K=4, H=5)
        rng = tensor.new_rng(0)
        params = model.init_params(cfg, rng)
        params.b_prime[...] = 1e38
        x = rng.standard_normal((3, cfg.H)).astype(np.float32)
        noise = None
        if noise_value is not None:
            noise = np.full((3, cfg.M, cfg.K), noise_value, dtype=np.float32)
        with pytest.raises(NumericError, match="'assignment'"):
            model.forward(params, x, noise, cfg)

    def test_batch_shape_mismatch(self):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        with pytest.raises(ConfigError):
            model.forward(params, np.zeros((3, 4), dtype=np.float32), None, cfg)

    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    def test_empty_batch_is_a_config_error(self, hard):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        empty = np.zeros((0, 5), dtype=np.float32)
        with pytest.raises(ConfigError, match="empty batch"):
            model.forward(params, empty, None, cfg, hard=hard)

    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    @pytest.mark.parametrize("M, K, H", [(4, 2, 3), (2, 8, 3), (1, 4, 3), (2, 4, 5)],
                             ids=["swapped", "K", "M", "H"])
    def test_scheme_other_than_params_is_rejected(self, M, K, H, hard):
        # M=2, K=4 and M=4, K=2 give every group the same shape, so only
        # the params' own scheme tells them apart.
        params = model.init_params(SchemeConfig(M=2, K=4, H=3), tensor.new_rng(0))
        cfg = SchemeConfig(M=M, K=K, H=H)
        x = np.ones((2, H), dtype=np.float32)
        noise = np.zeros((2, M, K), dtype=np.float32)
        with pytest.raises(ConfigError, match=r"parameters are for .*M=2, K=4, H=3"):
            model.forward(params, x, noise, cfg, hard=hard)

    def test_non_finite_batch_raises_named_stage(self):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        bad = np.full((2, 5), np.nan, dtype=np.float32)
        with pytest.raises(NumericError, match="hidden"):
            model.forward(params, bad, None, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    @pytest.mark.parametrize("poison, stage", [
        ("theta_prime", "alpha"),
        ("noise", "assignment"),
        ("A", "reconstruction"),
    ])
    def test_non_finite_stage_is_named(self, poison, stage, hard):
        # Hard mode's argmax turns a non-finite alpha into a finite one-hot,
        # so only the alpha check can see it there; hard mode takes no noise.
        cfg = SchemeConfig(M=2, K=4, H=5)
        rng = tensor.new_rng(0)
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        noise = tensor.sample_gumbel(rng, (3, 2, 4))
        if poison == "theta_prime":
            params.theta_prime[0, 0] = np.inf
        elif poison == "noise":
            noise[1, 0, 2] = np.nan
        else:
            params.A[3, 1] = np.nan
        if hard and poison == "noise":
            with pytest.raises(ConfigError, match="hard forward takes no noise"):
                model.forward(params, x, noise, cfg, hard=True)
            return
        with pytest.raises(NumericError, match=f"'{stage}'"):
            model.forward(params, x, None if hard else noise, cfg, hard=hard)

    def test_hard_mode_assignments_are_exact_one_hots(self):
        cfg = SchemeConfig(M=3, K=8, H=6)
        rng = tensor.new_rng(5)
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((9, 6)).astype(np.float32)
        trace = model.forward(params, x, None, cfg, hard=True)
        assert np.all((trace.d == 0.0) | (trace.d == 1.0))
        assert np.array_equal(trace.d.sum(axis=2), np.ones((9, 3), dtype=np.float32))

    def test_loss_non_negative_and_zero_only_at_exact_fit(self):
        cfg = SchemeConfig(M=1, K=2, H=3)
        rng = tensor.new_rng(6)
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        trace = model.forward(params, x, None, cfg)
        assert trace.loss >= 0


class TestEncode:
    @pytest.mark.parametrize("shape", [(3, 4), (5,)], ids=["width", "1-D"])
    def test_batch_not_b_by_h_is_a_config_error(self, shape):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        message = re.escape(f"batch shape {shape} does not match H=5")
        with pytest.raises(ConfigError, match=message):
            model.encode(params, np.zeros(shape, dtype=np.float32))


class TestModelParams:
    def test_groups_are_views_of_one_buffer(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        params = model.init_params(cfg, tensor.new_rng(0))
        offset = 0
        for name in model.ModelParams.shapes(cfg):
            arr = getattr(params, name)
            assert arr.base is params.flat, name
            assert np.array_equal(arr.reshape(-1), params.flat[offset:offset + arr.size])
            offset += arr.size
        assert offset == params.flat.size == model.ModelParams.size(cfg)
        params.A[0, 0] = 7.0
        assert params.flat[offset - params.A.size] == 7.0

    def test_copy_is_independent(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        params = model.init_params(cfg, tensor.new_rng(0))
        dup = params.copy()
        dup.theta[...] = 1.0
        dup.flat[-1] = 2.0
        assert not np.shares_memory(dup.flat, params.flat)
        assert not np.any(params.theta == 1.0)
        assert params.flat[-1] != 2.0
        assert dup.theta.base is dup.flat

    @pytest.mark.parametrize(
        "name", [*model.ModelParams.shapes(SchemeConfig(M=2, K=4, H=3)), "flat"])
    def test_groups_cannot_be_rebound(self, name):
        cfg = SchemeConfig(M=2, K=4, H=3)
        params = model.init_params(cfg, tensor.new_rng(0))
        with pytest.raises(AttributeError):
            setattr(params, name, np.zeros_like(getattr(params, name)))

    def test_buffer_of_wrong_length_is_rejected(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        with pytest.raises(ConfigError, match="buffer"):
            model.ModelParams(cfg, np.zeros(model.ModelParams.size(cfg) + 1))


class TestBackward:
    def test_zero_point_has_zero_gradients(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        params = model.init_params(cfg, tensor.new_rng(0))
        params.flat[...] = 0
        x = np.zeros((2, 3), dtype=np.float32)
        trace = model.forward(params, x, None, cfg)
        assert trace.loss == 0.0
        grads = model.backward(params, x, trace, model.ModelParams(cfg))
        assert np.array_equal(grads.flat, np.zeros_like(grads.flat))

    def test_duplicating_batch_rows_leaves_gradients_unchanged(self):
        cfg = SchemeConfig(M=3, K=4, H=6)
        rng = tensor.new_rng(4)
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        noise = tensor.sample_gumbel(rng, (3, 3, 4))
        trace = model.forward(params, x, noise, cfg)
        grads = model.backward(params, x, trace, model.ModelParams(cfg))
        x2 = np.vstack([x, x])
        noise2 = np.vstack([noise, noise])
        trace2 = model.forward(params, x2, noise2, cfg)
        grads2 = model.backward(params, x2, trace2, model.ModelParams(cfg))
        for name in model.ModelParams.shapes(cfg):
            assert np.allclose(getattr(grads, name), getattr(grads2, name),
                               rtol=1e-5, atol=1e-8), name


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        params = model.init_params(cfg, tensor.new_rng(0))
        before = params.copy()
        state = model.new_adam_state(params, lr=0.1)
        model.adam_step(params, model.ModelParams(cfg), state)
        assert state.t == 1
        assert np.array_equal(params.flat, before.flat)

    def test_first_step_magnitude(self):
        # Constant gradient 1: m_hat = v_hat = 1, so the first step is
        # -lr / (1 + eps) regardless of the gradient's scale.
        cfg = SchemeConfig(M=1, K=2, H=1)
        params = model.init_params(cfg, tensor.new_rng(0))
        params.b[...] = 0
        state = model.new_adam_state(params, lr=0.1)
        grads = model.ModelParams(cfg)
        grads.b[...] = 1
        model.adam_step(params, grads, state)
        assert float(params.b[0]) == pytest.approx(-0.0999999, abs=1e-6)

    def test_two_steps_match_scalar_oracle(self):
        cfg = SchemeConfig(M=1, K=2, H=1)
        params = model.init_params(cfg, tensor.new_rng(0))
        params.b[...] = 0.5
        state = model.new_adam_state(params, lr=0.05)
        grad_values = [0.3, -0.7]
        for g in grad_values:
            grads = model.ModelParams(cfg)
            grads.b[...] = g
            model.adam_step(params, grads, state)
        want = scalar_adam_oracle(0.5, grad_values, lr=0.05)
        assert float(params.b[0]) == pytest.approx(want, abs=1e-7)

    def test_updates_callers_arrays_in_place(self):
        cfg = SchemeConfig(M=2, K=4, H=3)
        rng = tensor.new_rng(0)
        params = model.init_params(cfg, rng)
        before = params.copy()
        arrays = {name: getattr(params, name) for name in model.ModelParams.shapes(cfg)}
        state = model.new_adam_state(params, lr=0.1)
        buffers = (params.flat, state.m, state.v, state.work)
        grads = model.ModelParams(cfg)
        for _ in range(3):
            grads.flat[...] = rng.standard_normal(grads.flat.shape)
            model.adam_step(params, grads, state)
        for name in model.ModelParams.shapes(cfg):
            arr = getattr(params, name)
            assert arr is arrays[name], name
            assert not np.array_equal(arr, getattr(before, name)), name
        for saved, live in zip(buffers, (params.flat, state.m, state.v, state.work)):
            assert live is saved

    def test_scratch_is_one_block(self):
        small = model.init_params(SchemeConfig(M=2, K=4, H=3), tensor.new_rng(0))
        assert model.new_adam_state(small, lr=0.1).work.size == small.flat.size
        paper = model.init_params(SchemeConfig(M=16, K=32, H=300), tensor.new_rng(0))
        state = model.new_adam_state(paper, lr=0.1)
        assert paper.flat.size > model.ADAM_BLOCK
        assert state.work.size == model.ADAM_BLOCK
        assert state.m.size == state.v.size == paper.flat.size

    def test_float32_tracks_float64_shadow(self):
        # Tolerance fixed from the dtype: each float32 step rounds a
        # parameter with |p| < 4 by at most half a float32 spacing at 4.
        # The update's own rounding (a few float32 eps on a step of at most
        # a few lr) is far below that.
        steps, lr = 200, 1e-2
        tol = steps * float(np.spacing(np.float32(4.0)))
        cfg = SchemeConfig(M=2, K=4, H=6)
        rng = tensor.new_rng(3)
        p32 = model.init_params(cfg, rng)
        p64 = model.ModelParams(cfg, p32.flat.astype(np.float64))
        s32 = model.new_adam_state(p32, lr=lr)
        s64 = model.new_adam_state(p64, lr=lr)
        for _ in range(steps):
            g64 = model.ModelParams(cfg, rng.standard_normal(p64.flat.shape))
            g32 = model.ModelParams(cfg, g64.flat.astype(np.float32))
            model.adam_step(p64, g64, s64)
            model.adam_step(p32, g32, s32)
        for name in model.ModelParams.shapes(cfg):
            arr, want = getattr(p32, name), getattr(p64, name)
            assert np.all(np.abs(want) < 4), name
            assert arr.dtype == np.float32, name
            np.testing.assert_allclose(arr, want, rtol=0, atol=tol, err_msg=name)

    def test_float64_params_stay_float64(self):
        cfg = SchemeConfig(M=1, K=2, H=1)
        params = model.init_params(cfg, tensor.new_rng(0), dtype=np.float64)
        params.b[...] = 0.5
        state = model.new_adam_state(params, lr=0.05)
        grad_values = [0.3, -0.7]
        for g in grad_values:
            grads = model.ModelParams(cfg, dtype=np.float64)
            grads.b[...] = g
            model.adam_step(params, grads, state)
        for buf in (params.flat, state.m, state.v, state.work):
            assert buf.dtype == np.float64
        # Float64 arithmetic matches the oracle far below float32 precision.
        want = scalar_adam_oracle(0.5, grad_values, lr=0.05)
        assert float(params.b[0]) == pytest.approx(want, abs=1e-14)


class TestInit:
    def test_deterministic_for_seed(self):
        cfg = SchemeConfig(M=4, K=8, H=10)
        a = model.init_params(cfg, tensor.new_rng(11))
        b = model.init_params(cfg, tensor.new_rng(11))
        assert np.array_equal(a.flat, b.flat)

    def test_biases_are_zero(self):
        cfg = SchemeConfig(M=4, K=8, H=10)
        params = model.init_params(cfg, tensor.new_rng(0))
        assert np.array_equal(params.b, np.zeros_like(params.b))
        assert np.array_equal(params.b_prime, np.zeros_like(params.b_prime))

    def test_theta_stddev_matches_uniform_moment(self):
        # Uniform(-s, s) has stddev s / sqrt(3).
        cfg = SchemeConfig(M=16, K=32, H=300)
        params = model.init_params(cfg, tensor.new_rng(2))
        s = math.sqrt(6.0 / (300 + cfg.hidden))
        want = s / math.sqrt(3)
        assert abs(float(params.theta.std()) - want) < 0.1 * want


class TestTemperature:
    def test_distance_to_argmax_one_hot_shrinks_with_tau(self):
        rng = tensor.new_rng(123)
        for _ in range(20):
            logits = rng.standard_normal(8) * 2 + rng.gumbel(size=8)
            onehot = np.zeros(8)
            onehot[logits.argmax()] = 1.0
            dists = [
                float(np.abs(softmax(logits / tau) - onehot).max())
                for tau in (1.0, 0.1, 0.01)
            ]
            assert dists[0] >= dists[1] >= dists[2]
