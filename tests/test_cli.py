import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codecomp
from codecomp import codec, container, model, tensor, trainer
from codecomp.cli import main
from codecomp.embeddings import (
    EmbeddingMatrix,
    read_binary_matrix,
    write_binary_matrix,
    write_text_embeddings,
)
from codecomp.model import SchemeConfig
from codecomp.synthetic import synthetic_embeddings


def kv(out):
    pairs = [line.split("\t") for line in out.strip().split("\n")]
    return {key: value for key, value in pairs}


@pytest.fixture
def emb_file(tmp_path):
    rng = tensor.new_rng(40)
    emb = EmbeddingMatrix(
        vocab=[f"w{i}" for i in range(60)],
        matrix=rng.standard_normal((60, 8)).astype(np.float32),
    )
    path = tmp_path / "emb.txt"
    write_text_embeddings(emb, path)
    return path


def run_train(emb_file, out, extra=()):
    return main([
        "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
        "--iters", "300", "--batch", "16", "--lr", "1e-3", "--seed", "5",
        "--out", str(out), "--format", "kv", "--quiet", *extra,
    ])


class TestParsing:
    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["size", "--K", "32", "--vocab", "100"]) == 2
        assert "--M" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out


class TestSize:
    def test_standard_scheme(self, capsys):
        assert main(["size", "--M", "16", "--K", "32", "--vocab", "75102",
                     "--format", "kv"]) == 0
        report = kv(capsys.readouterr().out)
        assert report["code_bits_per_word"] == "80"
        assert report["code_bytes_aligned"] == "751020"
        assert report["num_vectors"] == "512"
        assert report["binary_equivalent_bits"] == "256"

    def test_text_mode_carries_notes(self, capsys):
        assert main(["size", "--M", "32", "--K", "16", "--vocab", "1000"]) == 0
        out = capsys.readouterr().out
        assert "binary coding" in out
        assert "10^6" in out

    def test_invalid_scheme_exits_2(self, capsys):
        assert main(["size", "--M", "4", "--K", "3", "--vocab", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_smoke_writes_loadable_checkpoint(self, emb_file, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert run_train(emb_file, out) == 0
        report = kv(capsys.readouterr().out)
        assert float(report["best_val_loss"]) > 0
        assert report["iterations_run"] == "300"
        params, cfg, _ = trainer.load_checkpoint(out)
        assert (cfg.M, cfg.K, cfg.H) == (2, 4, 8)
        assert np.all(np.isfinite(params.flat))

    def test_same_seed_gives_identical_checkpoint_bytes(self, emb_file, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run_train(emb_file, a) == 0
        assert run_train(emb_file, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Paper shape M16 K32 H300, so the GEMMs are large enough for BLAS
        # to split; the thread count is fixed at process start, hence the
        # subprocesses.
        emb, _, _ = synthetic_embeddings(M=4, K=8, H=300, vocab_size=600,
                                         noise_std=0.1, seed=6)
        write_binary_matrix(emb, tmp_path / "emb.bin")
        src = str(Path(codecomp.__file__).parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run(
                [sys.executable, "-m", "codecomp", "train", "--emb", str(tmp_path / "emb.bin"),
                 "--M", "16", "--K", "32", "--iters", "40", "--seed", "3", "--quiet",
                 "--out", str(tmp_path / f"threads{threads}.ckpt")],
                env=env, check=True, timeout=300,
            )
        assert (tmp_path / "threads1.ckpt").read_bytes() == (tmp_path / "threads2.ckpt").read_bytes()

    def test_input_file_is_not_mutated(self, emb_file, tmp_path):
        before = emb_file.read_bytes()
        assert run_train(emb_file, tmp_path / "m.ckpt") == 0
        assert emb_file.read_bytes() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_exits_4_and_keeps_checkpoint(self, emb_file, tmp_path,
                                                        capsys):
        out = tmp_path / "model.ckpt"
        code = main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--iters", "300", "--batch", "16", "--lr", "1e38", "--seed", "5",
            "--out", str(out), "--quiet",
        ])
        assert code == 4
        assert "error:" in capsys.readouterr().err
        params, _, _ = trainer.load_checkpoint(out)
        assert np.all(np.isfinite(params.flat))

    def test_zero_iterations_reports_the_initial_validation(self, emb_file, tmp_path,
                                                             capsys):
        out = tmp_path / "model.ckpt"
        assert run_train(emb_file, out, extra=("--iters", "0")) == 0
        report = kv(capsys.readouterr().out)
        assert float(report["best_val_loss"]) > 0
        assert report["final_val_loss"] == report["best_val_loss"]
        assert report["best_iteration"] == "0"
        assert trainer.load_checkpoint(out)[2] == 0

    def test_nan_lr_exits_2(self, emb_file, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        code = main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--iters", "300", "--lr", "nan", "--out", str(out), "--quiet",
        ])
        assert code == 2
        assert "lr" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_run_keeps_best_iteration(self, emb_file, tmp_path,
                                                monkeypatch):
        # Poison the parameters after step 1500: validation at 1000 was the
        # last good one, and the kept checkpoint must say so.
        real_step = trainer.adam_step

        def poisoned_step(params, grads, state):
            real_step(params, grads, state)
            if state.t == 1500:
                params.A[...] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poisoned_step)
        out = tmp_path / "model.ckpt"
        code = main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--iters", "2000", "--batch", "16", "--lr", "1e-3", "--seed", "5",
            "--out", str(out), "--quiet",
        ])
        assert code == 4
        _, _, iteration = trainer.load_checkpoint(out)
        assert iteration == 1000

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2_before_training(self, emb_file, tmp_path, capsys,
                                                    monkeypatch, where):
        def no_training(emb, tc):
            raise AssertionError("trainer.train ran before --out was checked")

        monkeypatch.setattr(trainer, "train", no_training)
        out = tmp_path / "no-such-dir" / "m.ckpt" if where == "missing-dir" else tmp_path
        code = main(["train", "--emb", str(emb_file), "--M", "2", "--K", "4",
                     "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out) in err

    def test_failed_run_keeps_existing_out_bytes(self, tmp_path):
        path, out = tmp_path / "emb.txt", tmp_path / "model.ckpt"
        path.write_text("a 1.0 2.0\nb 0.5 nan\nc 3.0 1.0\nd 0.5 0.5\n")
        out.write_bytes(b"an earlier checkpoint")
        assert main(["train", "--emb", str(path), "--M", "1", "--K", "2",
                     "--iters", "10", "--out", str(out), "--quiet"]) == 3
        assert out.read_bytes() == b"an earlier checkpoint"

    def test_bad_scheme_exits_2(self, emb_file, tmp_path):
        code = main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "3",
            "--iters", "100", "--out", str(tmp_path / "m.ckpt"), "--quiet",
        ])
        assert code == 2


class TestExportReconstruct:
    @pytest.fixture
    def trained(self, emb_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        assert run_train(emb_file, ckpt) == 0
        return ckpt

    def test_export_then_reconstruct_roundtrip(self, emb_file, trained, tmp_path,
                                               capsys):
        codes_path = tmp_path / "codes.bin"
        books_path = tmp_path / "books.bin"
        assert main([
            "export", "--checkpoint", str(trained), "--emb", str(emb_file),
            "--codes", str(codes_path), "--books", str(books_path),
            "--format", "kv", "--quiet",
        ]) == 0
        report = kv(capsys.readouterr().out)
        assert report["words"] == "60"
        assert report["bits_per_word"] == "4"

        # The file must agree with an in-process export from the checkpoint.
        from codecomp.cli import _read_embeddings
        params, cfg, _ = trainer.load_checkpoint(trained)
        want, _ = codec.export_codes(params, _read_embeddings(emb_file))
        got, vocab = codec.read_code_file(codes_path)
        assert (got.M, got.K) == (want.M, want.K)
        assert np.array_equal(got.codes, want.codes)
        assert vocab[:2] == ["w0", "w1"]

        out_path = tmp_path / "recon.txt"
        assert main([
            "reconstruct", "--codes", str(codes_path), "--books", str(books_path),
            "--out", str(out_path), "--ref", str(emb_file),
            "--format", "kv", "--quiet",
        ]) == 0
        report = kv(capsys.readouterr().out)
        assert float(report["mse"]) >= 0
        assert out_path.exists()

    def test_export_is_deterministic(self, emb_file, trained, tmp_path):
        paths = []
        for tag in ("one", "two"):
            codes_path = tmp_path / f"codes-{tag}.bin"
            books_path = tmp_path / f"books-{tag}.bin"
            assert main([
                "export", "--checkpoint", str(trained), "--emb", str(emb_file),
                "--codes", str(codes_path), "--books", str(books_path), "--quiet",
            ]) == 0
            paths.append((codes_path, books_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_reconstruct_binary_output(self, emb_file, trained, tmp_path):
        codes_path = tmp_path / "codes.bin"
        books_path = tmp_path / "books.bin"
        main(["export", "--checkpoint", str(trained), "--emb", str(emb_file),
              "--codes", str(codes_path), "--books", str(books_path), "--quiet"])
        out_path = tmp_path / "recon.bin"
        assert main([
            "reconstruct", "--codes", str(codes_path), "--books", str(books_path),
            "--out", str(out_path), "--out-format", "binary", "--quiet",
        ]) == 0
        emb = read_binary_matrix(out_path)
        assert emb.matrix.shape == (60, 8)

    def test_checkpoint_dimension_mismatch_exits_2(self, trained, tmp_path):
        other = tmp_path / "other.txt"
        write_text_embeddings(EmbeddingMatrix(
            vocab=["a", "b"], matrix=np.zeros((2, 5), dtype=np.float32)), other)
        code = main([
            "export", "--checkpoint", str(trained), "--emb", str(other),
            "--codes", str(tmp_path / "c.bin"), "--books", str(tmp_path / "b.bin"),
            "--quiet",
        ])
        assert code == 2

    def test_mismatched_codes_and_books_exit_3(self, emb_file, trained, tmp_path):
        codes_path = tmp_path / "codes.bin"
        books_path = tmp_path / "books.bin"
        main(["export", "--checkpoint", str(trained), "--emb", str(emb_file),
              "--codes", str(codes_path), "--books", str(books_path), "--quiet"])
        rng = tensor.new_rng(0)
        other_books = codec.Codebooks(
            3, 4, 8, rng.standard_normal((12, 8)).astype(np.float32))
        codec.write_codebook_file(books_path, other_books)
        code = main([
            "reconstruct", "--codes", str(codes_path), "--books", str(books_path),
            "--out", str(tmp_path / "r.txt"), "--quiet",
        ])
        assert code == 3

    @pytest.mark.parametrize("command", ["reconstruct", "balance"])
    def test_zero_m_code_file_exits_3(self, tmp_path, capsys, command):
        codes_path, books_path = tmp_path / "codes.bin", tmp_path / "books.bin"
        codes_path.write_bytes(b"DCC1" + struct.pack("<BIII", 1, 0, 4, 2)
                               + container.vocab_bytes(["a", "b"]))
        books_path.write_bytes(b"DCB1" + struct.pack("<BIII", 1, 0, 4, 2))
        out = tmp_path / "r.txt"
        argv = {"reconstruct": ["--books", str(books_path), "--out", str(out)],
                "balance": []}[command]
        assert main([command, "--codes", str(codes_path), "--quiet", *argv]) == 3
        err = capsys.readouterr().err
        assert "offset 5: M must be >= 1, got 0" in err
        assert not out.exists()

    def test_corrupt_code_file_exits_3(self, tmp_path):
        bad = tmp_path / "codes.bin"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code = main([
            "reconstruct", "--codes", str(bad), "--books", str(bad),
            "--out", str(tmp_path / "r.txt"), "--quiet",
        ])
        assert code == 3


class TestInvalidUtf8:
    """A vocabulary that is not UTF-8 is bad data: exit 3 with a message."""

    def test_code_file_vocabulary_exits_3(self, tmp_path, capsys):
        path = tmp_path / "codes.bin"
        codec.write_code_file(path, codec.CodeMatrix(2, 4, np.array([[1, 2]])), ["a"])
        path.write_bytes(path.read_bytes()[:-1] + b"\xff")
        assert main(["balance", "--codes", str(path), "--quiet"]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_binary_embedding_vocabulary_exits_3(self, tmp_path, capsys):
        path = tmp_path / "emb.bin"
        write_binary_matrix(EmbeddingMatrix(vocab=["a"], matrix=np.ones((1, 2))), path)
        path.write_bytes(path.read_bytes()[:-1] + b"\xff")
        assert main(["stats", "--emb", str(path), "--recon", str(path), "--quiet"]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_text_embeddings_exit_3(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1.0 2.0\n\xff 3.0 4.0\n")
        assert main(["stats", "--emb", str(path), "--recon", str(path), "--quiet"]) == 3
        assert "UTF-8" in capsys.readouterr().err


class TestAnalysisCommands:
    @pytest.fixture
    def code_file(self, tmp_path):
        # Component 0 never uses codewords 2 and 3; component 1 uses all four.
        values = np.array([[0, 0], [0, 1], [1, 2], [1, 3], [0, 0], [0, 0]])
        codes = codec.CodeMatrix(2, 4, values)
        path = tmp_path / "codes.bin"
        codec.write_code_file(path, codes, ["a", "b", "c", "d", "e", "f"])
        return path

    def test_balance_kv(self, code_file, capsys):
        assert main(["balance", "--codes", str(code_file), "--format", "kv",
                     "--quiet"]) == 0
        report = kv(capsys.readouterr().out)
        assert report["min_count"] == "0"
        assert report["max_count"] == "4"
        assert report["dead_codewords"] == "2"

    def test_balance_csv(self, code_file, capsys):
        assert main(["balance", "--codes", str(code_file), "--format", "csv",
                     "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["4,2,0,0", "3,1,1,1"]

    def test_shared_text_output(self, code_file, capsys):
        assert main(["shared", "--codes", str(code_file), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1 shared codes")
        assert "[0-0] x3: a e f" in out

    def test_shared_kv_output(self, code_file, capsys):
        assert main(["shared", "--codes", str(code_file), "--format", "kv",
                     "--quiet"]) == 0
        report = kv(capsys.readouterr().out)
        assert report["group_count"] == "1"
        assert report["group.0.code"] == "0-0"
        assert report["group.0.words"] == "a e f"

    def test_stats_from_codes_and_books(self, emb_file, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        run_train(emb_file, ckpt)
        codes_path, books_path = tmp_path / "c.bin", tmp_path / "b.bin"
        main(["export", "--checkpoint", str(ckpt), "--emb", str(emb_file),
              "--codes", str(codes_path), "--books", str(books_path), "--quiet"])
        capsys.readouterr()  # drop the setup commands' reports
        assert main([
            "stats", "--emb", str(emb_file), "--codes", str(codes_path),
            "--books", str(books_path), "--format", "kv", "--quiet",
        ]) == 0
        report = kv(capsys.readouterr().out)
        assert report["vocab_size"] == "60"
        assert float(report["mse"]) > 0

    def test_stats_needs_a_source_exits_2(self, emb_file):
        assert main(["stats", "--emb", str(emb_file), "--quiet"]) == 2

    def test_nn_overlap_self_is_one(self, emb_file, capsys):
        assert main([
            "nn-overlap", "--emb", str(emb_file), "--recon", str(emb_file),
            "--k", "5", "--sample", "20", "--format", "kv", "--quiet",
        ]) == 0
        report = kv(capsys.readouterr().out)
        assert report["overlap"] == "1.0"

    def test_pq_reports_loss_and_writes_files(self, emb_file, tmp_path, capsys):
        codes_path = tmp_path / "pq-codes.bin"
        assert main([
            "pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--codes", str(codes_path), "--format", "kv", "--quiet",
        ]) == 0
        report = kv(capsys.readouterr().out)
        assert float(report["loss"]) > 0
        codes, vocab = codec.read_code_file(codes_path)
        assert codes.vocab_size == 60
        assert len(vocab) == 60

    def test_pq_on_non_finite_input_exits_3_naming_the_word(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb 0.5 nan\nc 3.0 1.0\nd 0.5 0.5\n")
        assert main(["pq", "--emb", str(path), "--M", "1", "--K", "2",
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "'b' (row 1)" in err
        assert "non-finite" in err
        assert "codebooks" not in err

    @pytest.mark.parametrize("argv", [
        ["train", "--M", "1", "--K", "2", "--iters", "10", "--out", "{out}"],
        ["stats", "--recon", "{emb}"],
        ["nn-overlap", "--recon", "{emb}", "--k", "1", "--sample", "2"],
        ["export", "--checkpoint", "{ckpt}", "--codes", "{out}", "--books", "{out}"],
    ], ids=["train", "stats", "nn-overlap", "export"])
    def test_non_finite_input_exits_3_naming_the_word(self, tmp_path, capsys, argv):
        path, out = tmp_path / "emb.txt", tmp_path / "out.ckpt"
        path.write_text("a 1.0 2.0\nb 0.5 nan\nc 3.0 1.0\nd 0.5 0.5\n")
        ckpt = tmp_path / "model.ckpt"
        cfg = SchemeConfig(M=1, K=2, H=2)
        trainer.save_checkpoint(ckpt, model.init_params(cfg, tensor.new_rng(0)), 0)
        argv = [a.format(emb=path, out=out, ckpt=ckpt) for a in argv]
        assert main([argv[0], "--emb", str(path), "--quiet", *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert "'b' (row 1)" in captured.err
        assert "non-finite" in captured.err
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["train", "--M", "2", "--K", "4", "--iters", "10", "--out", "{out}", "--limit", "0"],
     "--limit"),
    (["train", "--M", "2", "--K", "4", "--iters", "10", "--out", "{out}", "--limit", "-3"],
     "--limit"),
    (["pq", "--M", "2", "--K", "4", "--codes", "{out}", "--limit", "0"], "--limit"),
    (["pq", "--M", "2", "--K", "4", "--codes", "{out}", "--iters", "-1"], "--iters"),
    (["pq", "--M", "2", "--K", "4", "--codes", "{out}", "--threads", "0"], "--threads"),
    (["nn-overlap", "--recon", "{emb}", "--sample", "0"], "--sample"),
    (["nn-overlap", "--recon", "{emb}", "--threads", "-2"], "--threads"),
    (["train", "--M", "2", "--K", "4", "--iters", "-3", "--out", "{out}"], "--iters"),
    (["train", "--M", "2", "--K", "4", "--iters", "10", "--out", "{out}", "--seed", "-1"],
     "--seed"),
    (["pq", "--M", "2", "--K", "4", "--codes", "{out}", "--seed", "-1"], "--seed"),
    (["nn-overlap", "--recon", "{emb}", "--seed", "-1"], "--seed"),
    (["train", "--M", "2", "--K", "4", "--iters", "10", "--out", "{out}", "--batch", "0"],
     "--batch"),
    (["nn-overlap", "--recon", "{emb}", "--k", "0"], "--k"),
    (["size", "--M", "2", "--K", "4", "--vocab", "-1"], "--vocab"),
], ids=["train-limit-0", "train-limit-neg", "pq-limit-0", "pq-iters-neg", "pq-threads-0",
        "nn-overlap-sample-0", "nn-overlap-threads-neg", "train-iters-neg",
        "train-seed-neg", "pq-seed-neg", "nn-overlap-seed-neg",
        "train-batch-0", "nn-overlap-k-0", "size-vocab-neg"])
def test_bad_count_exits_2_naming_the_flag(emb_file, tmp_path, capsys, argv, flag):
    out = tmp_path / "out.bin"
    argv = [a.format(emb=emb_file, out=out) for a in argv]
    # size reads no embeddings, so it takes no --emb.
    emb = [] if argv[0] == "size" else ["--emb", str(emb_file)]
    assert main([argv[0], *emb, "--quiet", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["balance", "--codes", "{missing}"],
    ["export", "--checkpoint", "{missing}", "--emb", "{emb}", "--codes", "{out}",
     "--books", "{out}"],
    ["reconstruct", "--codes", "{missing}", "--books", "{missing}", "--out", "{out}"],
    ["train", "--emb", "{emb}", "--M", "2", "--K", "4", "--iters", "1",
     "--out", "{missing}"],
], ids=["balance", "export", "reconstruct", "train-out"])
def test_missing_path_exits_2_naming_it(emb_file, tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir" / "file.bin"
    out = tmp_path / "out.bin"
    argv = [a.format(emb=emb_file, out=out, missing=missing) for a in argv]
    assert main([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["size", "--M", "2", "--K", "4", "--vocab", "10"],
    ["shared", "--codes", "{emb}"],
    ["stats", "--emb", "{emb}", "--recon", "{emb}"],
], ids=["size", "shared", "stats"])
def test_csv_format_is_for_balance_only(emb_file, capsys, argv):
    argv = [a.format(emb=emb_file) for a in argv]
    assert main([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'csv'" in captured.err
    assert captured.out == ""


def test_non_integer_count_exits_2_as_invalid_int(emb_file, capsys):
    assert main(["pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
                 "--iters", "abc", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "--iters" in err
    assert "invalid int value: 'abc'" in err


class TestEnvironment:
    def test_env_seed_applies_when_flag_absent(self, emb_file, capsys, monkeypatch):
        monkeypatch.setenv("CODECOMP_SEED", "7")
        assert main(["pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
                     "--format", "kv", "--quiet"]) == 0
        assert kv(capsys.readouterr().out)["seed"] == "7"

    def test_flag_beats_env(self, emb_file, capsys, monkeypatch):
        monkeypatch.setenv("CODECOMP_SEED", "7")
        assert main(["pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
                     "--seed", "3", "--format", "kv", "--quiet"]) == 0
        assert kv(capsys.readouterr().out)["seed"] == "3"

    def test_bad_env_value_exits_2(self, emb_file, monkeypatch, capsys):
        monkeypatch.setenv("CODECOMP_THREADS", "many")
        assert main(["pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
                     "--quiet"]) == 2
        assert "CODECOMP_THREADS" in capsys.readouterr().err

    def test_env_seed_below_zero_exits_2(self, emb_file, monkeypatch, capsys):
        monkeypatch.setenv("CODECOMP_SEED", "-1")
        assert main(["pq", "--emb", str(emb_file), "--M", "2", "--K", "4",
                     "--quiet"]) == 2
        assert "CODECOMP_SEED" in capsys.readouterr().err

    def test_env_threads_below_one_exits_2(self, emb_file, monkeypatch, capsys):
        monkeypatch.setenv("CODECOMP_THREADS", "0")
        assert main(["nn-overlap", "--emb", str(emb_file), "--recon", str(emb_file),
                     "--quiet"]) == 2
        assert "CODECOMP_THREADS" in capsys.readouterr().err


class TestLogging:
    def test_progress_goes_to_stderr_not_stdout(self, emb_file, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--iters", "200", "--batch", "16", "--seed", "1",
            "--out", str(out), "--format", "kv",
        ]) == 0
        captured = capsys.readouterr()
        assert "validation loss" in captured.err
        assert "validation loss" not in captured.out

    def test_quiet_suppresses_progress(self, emb_file, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert main([
            "train", "--emb", str(emb_file), "--M", "2", "--K", "4",
            "--iters", "200", "--batch", "16", "--seed", "1",
            "--out", str(out), "--format", "kv", "--quiet",
        ]) == 0
        assert "validation loss" not in capsys.readouterr().err
