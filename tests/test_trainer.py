import hashlib
import math

import numpy as np
import pytest

from codecomp import container, model, tensor, trainer
from codecomp.embeddings import EmbeddingMatrix
from codecomp.errors import ConfigError, DataError, NumericError
from codecomp.model import SchemeConfig
from codecomp.synthetic import synthetic_embeddings
from codecomp.trainer import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    split_validation,
    train,
)


def small_embeddings(vocab_size=60, dim=8, seed=9):
    rng = tensor.new_rng(seed)
    matrix = rng.standard_normal((vocab_size, dim)).astype(np.float32)
    vocab = [f"w{i}" for i in range(vocab_size)]
    return EmbeddingMatrix(matrix=matrix, vocab=vocab)


def small_config(dim=8, **kwargs):
    scheme = SchemeConfig(M=2, K=4, H=dim)
    defaults = dict(batch_size=16, lr=1e-3, iterations=200, seed=5)
    defaults.update(kwargs)
    return TrainConfig(scheme=scheme, **defaults)


class TestSplit:
    def test_five_percent_of_thousand(self):
        emb = small_embeddings(vocab_size=1000)
        tc = small_config()
        train_idx, val_idx = split_validation(emb, tc, tensor.new_rng(0))
        assert len(val_idx) == 50
        assert len(train_idx) == 950
        assert len(np.intersect1d(train_idx, val_idx)) == 0
        merged = np.sort(np.concatenate([train_idx, val_idx]))
        assert np.array_equal(merged, np.arange(1000))

    def test_sorted_output(self):
        emb = small_embeddings(vocab_size=200)
        train_idx, val_idx = split_validation(emb, small_config(), tensor.new_rng(3))
        assert np.array_equal(train_idx, np.sort(train_idx))
        assert np.array_equal(val_idx, np.sort(val_idx))

    def test_cap_at_three_thousand(self):
        emb = EmbeddingMatrix(
            matrix=np.zeros((100_000, 2), dtype=np.float32),
            vocab=[f"w{i}" for i in range(100_000)],
        )
        _, val_idx = split_validation(emb, small_config(), tensor.new_rng(0))
        assert len(val_idx) == 3000

    def test_floor_at_ten(self):
        emb = small_embeddings(vocab_size=100)
        _, val_idx = split_validation(emb, small_config(), tensor.new_rng(0))
        assert len(val_idx) == 10

    def test_same_seed_same_split(self):
        emb = small_embeddings(vocab_size=500)
        tc = small_config()
        a = split_validation(emb, tc, tensor.new_rng(77))
        b = split_validation(emb, tc, tensor.new_rng(77))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_tiny_vocab_rejected(self):
        emb = small_embeddings(vocab_size=19)
        with pytest.raises(ConfigError):
            split_validation(emb, small_config(), tensor.new_rng(0))


class TestTrainConfig:
    def test_rejects_negative_iterations(self):
        with pytest.raises(ConfigError):
            small_config(iterations=-1)

    def test_zero_iterations_allowed(self):
        tc = small_config(iterations=0)
        assert tc.iterations == 0

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_lr(self, lr):
        with pytest.raises(ConfigError):
            small_config(lr=lr)


class TestTrain:
    def test_zero_iterations_returns_initial_params(self):
        emb = small_embeddings()
        tc = small_config(iterations=0)
        params, report = train(emb, tc)
        # Replay the draw order by hand: split first, then init.
        rng = tensor.new_rng(tc.seed)
        _, val_idx = split_validation(emb, tc, rng)
        expected = model.init_params(tc.scheme, rng)
        assert np.array_equal(params.flat, expected.flat)
        loss = model.forward(expected, emb.matrix[val_idx], None, tc.scheme).loss
        assert report.val_loss_history == [(0, loss)]
        assert isinstance(report.best_val_loss, float)
        assert report.best_val_loss == loss
        assert report.best_iteration == 0
        assert report.iterations_run == 0

    def test_validation_cadence(self):
        # The start, every VALIDATE_EVERY iterations, and the end.
        emb = small_embeddings()
        for iterations, validated in [(300, [0, 300]), (2500, [0, 1000, 2000, 2500])]:
            _, report = train(emb, small_config(iterations=iterations))
            assert [it for it, _ in report.val_loss_history] == validated
            assert report.iterations_run == iterations

    def test_best_is_minimum_of_history(self):
        emb = small_embeddings()
        tc = small_config(iterations=3000)
        params, report = train(emb, tc)
        losses = [loss for _, loss in report.val_loss_history]
        assert report.best_val_loss == min(losses)
        best_it = report.best_iteration
        assert (best_it, report.best_val_loss) in report.val_loss_history

    def test_returned_params_reproduce_best_val_loss(self):
        emb = small_embeddings()
        tc = small_config(iterations=2000)
        params, report = train(emb, tc)
        rng = tensor.new_rng(tc.seed)
        _, val_idx = split_validation(emb, tc, rng)
        loss = model.forward(params, emb.matrix[val_idx], None, tc.scheme).loss
        assert loss == report.best_val_loss

    def test_best_params_survive_later_steps(self):
        # Adam updates the live parameters in place; the kept best must be
        # a copy that later steps do not reach.
        emb = small_embeddings()
        tc = small_config(lr=1e-2, iterations=3000)
        params, report = train(emb, tc)
        assert report.best_iteration < report.iterations_run
        rng = tensor.new_rng(tc.seed)
        _, val_idx = split_validation(emb, tc, rng)
        loss = model.forward(params, emb.matrix[val_idx], None, tc.scheme).loss
        assert loss == report.best_val_loss

    def test_bit_exact_determinism(self):
        emb = small_embeddings()
        tc = small_config(seed=21)
        p1, r1 = train(emb, tc)
        p2, r2 = train(emb, tc)
        assert np.array_equal(p1.flat, p2.flat)
        assert r1.val_loss_history == r2.val_loss_history

    def test_seed_changes_trajectory(self):
        emb = small_embeddings()
        p1, _ = train(emb, small_config(seed=1))
        p2, _ = train(emb, small_config(seed=2))
        assert not np.array_equal(p1.theta, p2.theta)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="-1"):
            train(small_embeddings(), small_config(seed=-1))

    def test_training_reduces_validation_loss(self):
        emb, _, _ = synthetic_embeddings(M=2, K=4, H=8, vocab_size=300,
                                         noise_std=0.05, seed=3)
        tc = TrainConfig(scheme=SchemeConfig(M=2, K=4, H=8), batch_size=32,
                         lr=1e-2, iterations=2000, seed=4)
        _, report = train(emb, tc)
        # Iteration 0 scores the initial parameters.
        assert report.val_loss_history[0][0] == 0
        assert report.best_val_loss < 0.5 * report.val_loss_history[0][1]

    def test_dimension_mismatch(self):
        emb = small_embeddings(dim=8)
        tc = small_config(dim=9)
        with pytest.raises(ConfigError):
            train(emb, tc)

    def test_non_finite_word_is_named_before_training(self):
        emb = small_embeddings()
        emb.matrix[7, 3] = np.nan
        emb.matrix[12, 0] = np.inf
        with pytest.raises(DataError, match=r"'w7' \(row 7\)"):
            train(emb, small_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_carries_last_good_params(self):
        emb = small_embeddings()
        tc = small_config(lr=1e38)
        with pytest.raises(NumericError) as exc_info:
            train(emb, tc)
        err = exc_info.value
        assert err.exit_code == 4
        assert err.params is not None
        assert np.all(np.isfinite(err.params.flat))
        assert err.report is not None
        assert err.report.iterations_run >= 1
        # Only the initial parameters were validated before the blow-up.
        assert err.report.best_iteration == 0
        assert math.isfinite(err.report.best_val_loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_assignment_carries_last_good_params(self, monkeypatch):
        # A b_prime near float32's top overflows alpha * e^G in the next
        # training step, after the validation at iteration 1000.
        real_step = trainer.adam_step

        def huge_bias_step(params, grads, state):
            real_step(params, grads, state)
            if state.t == 1500:
                params.b_prime[...] = 1e38

        monkeypatch.setattr(trainer, "adam_step", huge_bias_step)
        with pytest.raises(NumericError, match="'assignment'") as exc_info:
            train(small_embeddings(), small_config(iterations=3000))
        err = exc_info.value
        assert err.report.iterations_run == 1501
        assert err.report.best_iteration in (0, 1000)
        assert np.all(np.isfinite(err.params.flat))
        assert np.all(err.params.b_prime < 1e38)

    def test_diverged_validation_carries_last_good_params(self, monkeypatch):
        # Poison the parameters in the step of iteration 2000, so the
        # validation forward of that iteration is the first to see them.
        real_step = trainer.adam_step

        def poisoned_step(params, grads, state):
            real_step(params, grads, state)
            if state.t == 2000:
                params.A[...] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poisoned_step)
        emb = small_embeddings()
        tc = small_config(iterations=3000)
        with pytest.raises(NumericError) as exc_info:
            train(emb, tc)
        err = exc_info.value
        assert err.report.iterations_run == 2000
        assert err.report.best_iteration == 1000
        rng = tensor.new_rng(tc.seed)
        _, val_idx = split_validation(emb, tc, rng)
        loss = model.forward(err.params, emb.matrix[val_idx], None, tc.scheme).loss
        assert loss == err.report.best_val_loss


# SHA-256 of the checkpoint `train` returns, pinning every bit of the
# training step. Like the exported-code digests of tests/test_formats.py,
# these depend on the float32 GEMMs (sgemm) of the numpy/BLAS build and are
# only meaningful on a build that rounds like the one that pinned them
# (numpy 2.4.6 with scipy-openblas 0.3.31).
TRAINED_GOLDEN = {
    (4, 8, 16, 200): "384b1631a000cd68afa145c0862273af79462995b37e2edb1c20cf641d94afd4",
    (16, 32, 300, 20): "7af3f81eb3eea4c4c80bace4fd20cbded55d32bcdc41d3b19065bc3561f656fc",
}


@pytest.mark.parametrize("shape", TRAINED_GOLDEN, ids=["M4K8H16", "M16K32H300"])
def test_trained_checkpoint_digest(tmp_path, shape):
    m_books, k_words, dim, iterations = shape
    emb, _, _ = synthetic_embeddings(M=m_books, K=k_words, H=dim, vocab_size=600,
                                     noise_std=0.1, seed=6)
    cfg = SchemeConfig(M=m_books, K=k_words, H=dim)
    tc = TrainConfig(scheme=cfg, lr=1e-3, iterations=iterations, seed=7)
    params, report = train(emb, tc)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, report.best_iteration)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAINED_GOLDEN[shape]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = SchemeConfig(M=3, K=8, H=7)
        params = model.init_params(cfg, tensor.new_rng(8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, iteration=4321)
        loaded, cfg2, iteration = load_checkpoint(path)
        assert (cfg2.M, cfg2.K, cfg2.H) == (3, 8, 7)
        assert iteration == 4321
        assert np.array_equal(params.flat, loaded.flat)

    def test_header_layout(self, tmp_path):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, iteration=0)
        raw = path.read_bytes()
        assert raw[:4] == b"DCLM"
        assert raw[4] == 1
        assert np.frombuffer(raw[5:17], dtype="<u4").tolist() == [2, 4, 5]
        # theta 5x4, b 4, theta_prime 4x8, b_prime 8, A 8x5
        n_floats = 20 + 4 + 32 + 8 + 40
        assert len(raw) == 17 + 4 * n_floats + 8

    @pytest.mark.parametrize("dims, offset, message", [
        ((0, 4, 5), 5, "M must be >= 1, got 0"),
        ((2, 3, 5), 9, "K must be a power of 2 and >= 2, got 3"),
        ((2, 4, 0), 13, "H must be >= 1, got 0"),
    ], ids=["M0", "K3", "H0"])
    def test_invalid_scheme_in_header_names_offset(self, tmp_path, dims, offset, message):
        path = tmp_path / "model.ckpt"
        path.write_bytes(container.header(b"DCLM", *dims) + bytes(64))
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: header at offset {offset}: {message}"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, iteration=0)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_names_offset(self, tmp_path):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, iteration=0)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="offset"):
            load_checkpoint(path)

    def test_missing_iteration_counter(self, tmp_path):
        cfg = SchemeConfig(M=2, K=4, H=5)
        params = model.init_params(cfg, tensor.new_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, iteration=0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match="truncated payload.*offset"):
            load_checkpoint(path)
