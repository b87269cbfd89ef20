"""End-to-end acceptance checks, one test per numbered criterion.

The expensive fixtures (full training runs) are module-scoped and shared
between criteria. The whole module takes about 10 minutes on a 2-vCPU Xeon
VM with float32 GEMMs: 5 to 6 for criterion 09's three 200K-iteration runs
and about 4 for criterion 05's nine 20K-iteration runs.
Every threshold here is pinned; a failing assertion prints the measured
value next to the target.
"""

import time

import numpy as np
import pytest

from codecomp import model, tensor
from codecomp.analysis import balance_table, pq_baseline, size_report
from codecomp.cli import main
from codecomp.codec import CodeMatrix, export_codes, pack_codes, reconstruct_all, unpack_codes
from codecomp.embeddings import write_text_embeddings
from codecomp.model import SchemeConfig
from codecomp.synthetic import synthetic_embeddings
from codecomp.trainer import TrainConfig, train

RECOVERY_SCHEME = SchemeConfig(M=4, K=8, H=16)


def train_20k(emb, scheme, seed):
    tc = TrainConfig(scheme=scheme, batch_size=128, lr=1e-4, iterations=20_000,
                     validate_every=1000, seed=seed)
    return train(emb, tc)


def hard_reconstruction_loss(params, emb, scheme):
    """Full-vocabulary squared error of the exported discrete codes."""
    codes, books = export_codes(params, emb, scheme)
    recon = reconstruct_all(codes, books, vocab=emb.vocab)
    diff = recon.matrix.astype(np.float64) - emb.matrix.astype(np.float64)
    return float((diff ** 2).sum(axis=1).mean()), codes


@pytest.fixture(scope="module")
def recovery_data():
    emb, _, _ = synthetic_embeddings(M=4, K=8, H=16, vocab_size=1000,
                                     noise_std=0.01, seed=1234)
    return emb


@pytest.fixture(scope="module")
def recovery_run(recovery_data):
    return train_20k(recovery_data, RECOVERY_SCHEME, seed=42)


# Criterion 09 trains on the paper's schedule (Adam, lr 1e-4, batch 128,
# 200K iterations), which is what the TrainConfig defaults encode. At 20K
# iterations the soft validation loss is still falling steeply and the
# exported codes lose to PQ in every seed; the comparison is only meaningful
# for a converged run. Each run takes a few minutes single-threaded.
@pytest.fixture(scope="module")
def recovery_runs_3seeds(recovery_data):
    return {seed: train(recovery_data, TrainConfig(scheme=RECOVERY_SCHEME, seed=seed))
            for seed in (1, 2, 3)}


@pytest.fixture(scope="module")
def trend_data():
    emb, _, _ = synthetic_embeddings(M=16, K=16, H=50, vocab_size=5000,
                                     noise_std=0.1, seed=77)
    return emb


@pytest.fixture(scope="module")
def trend_runs(trend_data):
    runs = {}
    for seed in (1, 2, 3):
        for m_books, k_words in ((8, 8), (8, 16), (16, 8)):
            scheme = SchemeConfig(M=m_books, K=k_words, H=50)
            params, report = train_20k(trend_data, scheme, seed)
            runs[(m_books, k_words, seed)] = (params, report.best_val_loss)
    return runs


def test_criterion_01_gradients_match_finite_differences():
    t_start = time.perf_counter()
    cfg = SchemeConfig(M=3, K=4, H=6)
    rng = tensor.new_rng(2024)
    init = model.init_params(cfg, rng)
    params = model.ModelParams(init.scheme, init.flat.astype(np.float64))
    batch = rng.standard_normal((3, 6))
    noise = tensor.gumbel_from_uniform(rng.random((3, 3, 4)))

    trace = model.forward(params, batch, noise, cfg)
    grads = model.backward(params, batch, cfg, trace,
                           model.ModelParams(cfg, dtype=np.float64))

    step = 1e-3
    failures = []
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = getattr(grads, name).reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + step
            up = model.forward(params, batch, noise, cfg).loss
            flat[idx] = saved - step
            down = model.forward(params, batch, noise, cfg).loss
            flat[idx] = saved
            fd = (up - down) / (2 * step)
            err = abs(gflat[idx] - fd)
            tol = max(1e-4 * max(abs(gflat[idx]), abs(fd)), 1e-6)
            worst = max(worst, err / tol)
            if err >= tol:
                failures.append((name, idx, gflat[idx], fd))
    elapsed = time.perf_counter() - t_start
    assert not failures, f"{len(failures)} entries disagree, first: {failures[0]}"
    assert elapsed < 5.0, f"gradient check took {elapsed:.2f}s, budget is 5s"


@pytest.mark.slow
def test_criterion_02_synthetic_recovery(recovery_data, recovery_run):
    params, report = recovery_run
    assert report.wall_time < 300, (
        f"20K iterations took {report.wall_time:.0f}s, budget is 300s"
    )
    target = 10 * 16 * 0.01 ** 2
    hard, _ = hard_reconstruction_loss(params, recovery_data, RECOVERY_SCHEME)
    assert report.best_val_loss <= target, (
        f"best validation loss {report.best_val_loss:.6f} at iteration "
        f"{report.best_iteration} exceeds the recovery target {target} "
        f"(hard loss of the exported codes {hard:.6f})"
    )


def test_criterion_03_storage_formulas():
    expected_bits = {(8, 64): 48, (16, 32): 80, (32, 16): 128, (64, 8): 192}
    for (m_books, k_words), bits in expected_bits.items():
        rep = size_report(SchemeConfig(M=m_books, K=k_words, H=300), 75102)
        assert rep.code_bits_per_word == bits, (
            f"({m_books},{k_words}) reports {rep.code_bits_per_word} bits, "
            f"expected {bits}"
        )
        assert rep.num_vectors == 512
        # A binary code over the same 512 basis vectors needs 256 bits.
        assert rep.binary_equivalent_bits == 256
    rep = size_report(SchemeConfig(M=32, K=16, H=300), 75102)
    assert rep.code_bits_per_word == 128
    assert rep.binary_equivalent_bits == 2 * rep.code_bits_per_word


def test_criterion_04_pack_unpack_bijection():
    rng = tensor.new_rng(99)
    schemes = [(1, 2), (8, 8), (16, 32), (32, 16), (64, 8)]
    per_scheme = 10_000 // len(schemes)
    for m_books, k_words in schemes:
        for _ in range(per_scheme):
            vocab_size = int(rng.integers(0, 40))
            values = rng.integers(0, k_words, size=(vocab_size, m_books))
            codes = CodeMatrix(m_books, k_words, values)
            again, _ = unpack_codes(pack_codes(codes))
            assert again == codes, (m_books, k_words, values.tolist())


@pytest.mark.slow
def test_criterion_05_capacity_trend(trend_runs):
    votes = 0
    rows = []
    for seed in (1, 2, 3):
        l88 = trend_runs[(8, 8, seed)][1]
        l816 = trend_runs[(8, 16, seed)][1]
        l168 = trend_runs[(16, 8, seed)][1]
        margin_k = (l88 - l816) / l88
        margin_m = (l88 - l168) / l88
        ok = margin_k > 0.02 and margin_m > 0.02
        votes += ok
        rows.append(
            f"seed {seed}: loss(8,8)={l88:.3f} loss(8,16)={l816:.3f} "
            f"loss(16,8)={l168:.3f} margins {margin_k:.3f}/{margin_m:.3f} "
            f"{'ok' if ok else 'FAIL'}"
        )
    assert votes >= 2, "capacity trend held in %d/3 seeds:\n%s" % (votes, "\n".join(rows))


@pytest.mark.slow
def test_criterion_06_no_dead_codewords(trend_data, trend_runs):
    scheme = SchemeConfig(M=8, K=8, H=50)
    votes = 0
    rows = []
    for seed in (1, 2, 3):
        params = trend_runs[(8, 8, seed)][0]
        codes, _ = export_codes(params, trend_data, scheme)
        table = balance_table(codes)
        dead = int((table.counts == 0).sum())
        votes += dead == 0
        rows.append(f"seed {seed}: {dead} dead codewords, min count {table.min_count}")
    assert votes >= 2, "dead-codeword check held in %d/3 seeds:\n%s" % (
        votes, "\n".join(rows))


def test_criterion_07_temperature_limit():
    rng = tensor.new_rng(7)
    for trial in range(100):
        logits = rng.standard_normal(8) * 2.0
        noise = tensor.gumbel_from_uniform(rng.random(8))
        combined = logits + noise
        onehot = np.zeros(8)
        onehot[combined.argmax()] = 1.0
        dists = [
            float(np.abs(model.softmax(combined / tau) - onehot).max())
            for tau in (1.0, 0.1, 0.01)
        ]
        assert dists[0] >= dists[1] >= dists[2], (trial, dists)


@pytest.mark.slow
def test_criterion_08_hard_forward_matches_composition(recovery_data, recovery_run):
    params, _ = recovery_run
    trace = model.forward(params, recovery_data.matrix, None, RECOVERY_SCHEME,
                          hard=True)
    mse, _ = hard_reconstruction_loss(params, recovery_data, RECOVERY_SCHEME)
    rel = abs(mse - trace.loss) / max(abs(trace.loss), 1e-12)
    assert rel < 1e-4, (
        f"hard forward loss {trace.loss:.6f} vs composed reconstruction "
        f"{mse:.6f} (relative gap {rel:.2e})"
    )


@pytest.mark.slow
def test_criterion_09_learned_codes_beat_pq(recovery_data, recovery_runs_3seeds):
    _, _, pq_loss = pq_baseline(recovery_data, 4, 8, seed=0)
    wins = 0
    rows = []
    for seed, (params, _) in recovery_runs_3seeds.items():
        learned, _ = hard_reconstruction_loss(params, recovery_data, RECOVERY_SCHEME)
        won = learned <= pq_loss
        wins += won
        rows.append(f"seed {seed}: learned {learned:.4f} vs pq {pq_loss:.4f} "
                    f"{'ok' if won else 'FAIL'}")
    assert wins >= 2, "learned codes won in %d/3 seeds:\n%s" % (wins, "\n".join(rows))


@pytest.mark.slow
def test_criterion_10_cli_determinism(recovery_data, tmp_path):
    emb_path = tmp_path / "emb.txt"
    write_text_embeddings(recovery_data, emb_path)

    checkpoints = []
    for tag in ("one", "two"):
        out = tmp_path / f"model-{tag}.ckpt"
        code = main([
            "train", "--emb", str(emb_path), "--M", "4", "--K", "8",
            "--iters", "1000", "--seed", "11", "--out", str(out), "--quiet",
            "--format", "kv",
        ])
        assert code == 0
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1], "checkpoint bytes differ between runs"

    exports = []
    for tag in ("one", "two"):
        codes_path = tmp_path / f"codes-{tag}.bin"
        books_path = tmp_path / f"books-{tag}.bin"
        code = main([
            "export", "--checkpoint", str(tmp_path / "model-one.ckpt"),
            "--emb", str(emb_path), "--codes", str(codes_path),
            "--books", str(books_path), "--quiet",
        ])
        assert code == 0
        exports.append((codes_path.read_bytes(), books_path.read_bytes()))
    assert exports[0][0] == exports[1][0], "code file bytes differ between runs"
    assert exports[0][1] == exports[1][1], "codebook bytes differ between runs"
