"""Drive codecomp end to end through its CLI, in process, and measure it.

One run = the fixture, one untimed warm-up pipeline iteration, then
pipeline iterations (with set-up samples between them) until the run's
seconds are used up, then the quality stages and the output checks.
End-to-end metrics come from untraced runs; a traced run alternates traced
and untraced iterations, so it yields the per-module numbers, the tracing
overhead, and a digest comparison showing the wrappers change no output.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import fixtures
import tracing
from workloads import stage_argv

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_SCRIPT = BENCH_DIR / "fixtures.py"
SETUP_REPEATS = 11
# Output files of one pipeline iteration; they are deleted before each one
# so a failed stage cannot leave a stale file for the next stage to read.
OUTPUTS = {"ckpt": "model.ckpt", "codes": "codes.bin", "books": "books.bin",
           "recon": "recon", "pq_codes": "pq.codes", "pq_books": "pq.books"}



class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, bad fixture)."""


def load_spec(root):
    """The checkout's BENCHMARK.json metrics: name -> {"unit", "better"}, for
    the end-to-end group and the per-layer group."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        return {group: {m["name"]: {"unit": m["unit"], "better": m["better"]}
                        for m in spec[group]}
                for group in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metrics of {root / 'BENCHMARK.json'}: "
                         f"{exc}") from exc


def source_digest(src):
    """sha256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    """The CPU's model name; BLAS picks its kernels by it at run time."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_program(src):
    """Import codecomp from the checkout's src/ and nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import codecomp
    import codecomp.cli

    if not Path(codecomp.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"codecomp imported from {codecomp.__file__}, not {src}")
    return codecomp


def probe_setup(src):
    """Seconds from starting a fresh interpreter until `import codecomp`
    returns."""
    probe = "import sys, codecomp; print(codecomp.__file__, flush=True)"
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                          env=env, cwd=src.parent, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or not line or not Path(line).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"import codecomp failed in a fresh interpreter (exit {rc})")
    return elapsed


def ensure_fixture(w, seed, cache_dir):
    """Path and metadata of the workload's input, generated in a separate
    process on first use and cached by (workload, seed, shape)."""
    tag = (f"{w.name}-seed{seed}-M{w.M}-K{w.K}-H{w.H}-V{w.vocab}-noise{w.noise}"
           f"-{w.fmt}")
    fixture_dir = cache_dir / tag
    meta_path = fixture_dir / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if fixtures.sha256_file(fixture_dir / meta["file"]) == meta["sha256"]:
            return fixture_dir / meta["file"], meta
        meta_path.unlink()
    cmd = [sys.executable, str(FIXTURE_SCRIPT), "--out", str(fixture_dir),
           "--seed", str(seed), "--M", str(w.M), "--K", str(w.K), "--H", str(w.H),
           "--vocab", str(w.vocab), "--noise", repr(w.noise), "--format", w.fmt]
    try:
        subprocess.run(cmd, check=True, timeout=170)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"fixture generation failed: {exc}") from exc
    meta = json.loads(meta_path.read_text())
    if fixtures.sha256_file(fixture_dir / meta["file"]) != meta["sha256"]:
        raise BenchError(f"fixture {fixture_dir} does not match its recorded sha256")
    return fixture_dir / meta["file"], meta


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            pairs[key] = value
    return pairs


class Tally:
    """Operations and checks attempted and failed; feeds error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check(self, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # a check that crashes is a failed check
            return self.record(
                False, f"check {fn.__name__}: {type(exc).__name__}: {exc}")
        return self.record(True, fn.__name__)


def call_cli(cc, argv, tracer, tally):
    """Run one CLI command in process, in a `cli.<command>` span when a
    tracer is given; returns (seconds, parsed kv report)."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), span:
            rc = cc.cli.main(argv + ["--quiet", "--format", "kv"])
    except Exception:  # the harness must finish the run and report the failure
        traceback.print_exc()
        rc = "exception"
    elapsed = time.perf_counter() - start
    tally.record(rc == 0, f"{' '.join(argv)}: exit {rc}")
    return elapsed, parse_kv(out.getvalue())


def run_stages(cc, w, stages, files, seed, tracer, tally):
    reports, times = {}, {}
    with tracer.patched(cc) if tracer else contextlib.nullcontext():
        for stage in stages:
            argv = stage_argv(stage, w, files, seed)
            times[stage], reports[argv[0]] = call_cli(cc, argv, tracer, tally)
    return reports, times


def digests(files):
    return {key: fixtures.sha256_file(files[key]) for key in OUTPUTS
            if os.path.exists(files[key])}


def run_iteration(cc, w, files, seed, traced, tally):
    for key in OUTPUTS:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(files[key])
    tracer = tracing.Tracer(tracing.PATCHES if traced else tracing.TRAIN_CLOCK)
    reports, times = run_stages(cc, w, w.timed, files, seed, tracer, tally)
    return {"traced": traced, "wall_s": sum(times.values()), "stage_s": times,
            "train_s": tracer.seconds("trainer.train"), "reports": reports,
            "digests": digests(files), "spans": tracer.spans if traced else None}


def measure(cc, w, files, seed, seconds, trace, tally, src):
    """Warm-up, then iterations while the next one is expected to fit in
    `seconds`. A traced run alternates traced and untraced iterations; an
    untraced one takes a set-up sample after each of its first iterations,
    so the samples spread over the run like the iterations do."""
    warm = run_iteration(cc, w, files, seed, False, tally)
    records, setup = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 0
        records.append(run_iteration(cc, w, files, seed, traced, tally))
        if not trace and len(setup) < SETUP_REPEATS:
            setup.append(probe_setup(src))
        elapsed = time.perf_counter() - start
        expected = statistics.median(r["wall_s"] for r in records)
        have_both = not trace or len(records) >= 2
        if have_both and elapsed + expected > seconds:
            break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(src))
    for i, rec in enumerate(records):
        tally.record(rec["digests"] == warm["digests"],
                     f"iteration {i + 1} output digests differ from the warm-up's")
    return warm, records, setup


def check_digest_store(store_dir, key, found, tally):
    """Outputs of the same source, input and build match across processes.
    Only a run without failures records its digests for later runs."""
    path = store_dir / f"{key}.json"
    if path.exists():
        tally.record(json.loads(path.read_text()) == found,
                     f"output digests differ from an earlier run ({path.name})")
    elif not tally.failures:
        store_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(found, sort_keys=True))
        tmp.replace(path)


def timing_summary(records):
    """Per stage and for the whole iteration: sample count, mean, median,
    and the highest percentile with at least ten samples beyond it."""
    series = {"wall_s": [r["wall_s"] for r in records],
              "trainer.train": [r["train_s"] for r in records]}
    for r in records:
        for stage, seconds in r["stage_s"].items():
            series.setdefault(stage, []).append(seconds)
    summary = {}
    for name, values in series.items():
        tail_pct, tail = tracing.tail(values)
        summary[name] = {"n": len(values), "mean": statistics.fmean(values),
                         "median": statistics.median(values),
                         f"p{tail_pct:g}": tail}
    return summary


def end_to_end(w, setup, records, reports, tally, peak_rss_mb, norms):
    """End-to-end metrics; one that cannot be computed counts as a failure.

    Times are means over the measured iterations, so the rates are total
    work over total time (see README.md for why not the median). Losses are
    divided by the mean squared row norm of the rows they are measured on
    (norms["all"], norms["val"]()), so they do not scale with the seed's
    random codebooks.
    """
    def mean(fn):
        return statistics.fmean(fn(r) for r in records)

    formulas = {
        "setup_s": lambda: statistics.fmean(setup),
        "wall_s": lambda: mean(lambda r: r["wall_s"]),
        "peak_rss_mb": lambda: peak_rss_mb,
        "train_steps_per_s": lambda: w.iters / mean(lambda r: r["train_s"]),
        "soft_val_loss": lambda: (float(reports["train"]["best_val_loss"])
                                  / norms["val"]()),
        "hard_loss": lambda: float(reports["stats"]["mse"]) / norms["all"],
        "decode_words_per_s": lambda: w.vocab / mean(
            lambda r: r["stage_s"]["reconstruct"]),
        "pq_loss": lambda: float(reports["pq"]["loss"]) / norms["all"],
        "nn_overlap": lambda: float(reports["nn-overlap"]["overlap"]),
    }
    metrics = {}
    for name, formula in formulas.items():
        try:
            value = float(formula())
        except Exception as exc:  # a missing report or a changed API
            tally.record(False, f"metric {name}: {type(exc).__name__}: {exc}")
            continue
        if math.isfinite(value):
            metrics[name] = value
        else:
            tally.record(False, f"metric {name} is {value}")
    metrics["success_rate"] = 1.0 - len(tally.failures) / tally.attempted
    return metrics


def per_layer(cc, files, records, warm, tally):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_iter = [tracing.layer_metrics(r["spans"]) for r in traced]
    out = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
    try:
        out["codec.code_usage"] = checks.code_usage(cc, files)
    except Exception as exc:  # a missing or bad code file is a failure
        tally.record(False, f"codec.code_usage: {type(exc).__name__}: {exc}")
        out["codec.code_usage"] = 0.0
    plain = statistics.fmean(r["wall_s"] for r in untraced)
    overhead = statistics.fmean(r["wall_s"] for r in traced) - plain
    out["trace.overhead_s"] = overhead
    out["trace.overhead_pct"] = 100.0 * overhead / plain
    out["trace.spans"] = statistics.median(len(r["spans"]) for r in traced)
    out["trace.digests_match"] = float(all(r["digests"] == warm["digests"]
                                           for r in traced))
    out["bench.error_rate"] = len(tally.failures) / tally.attempted
    return out


def environment(w, seed, root, src, meta, repeats):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "codecomp_threads": os.environ.get("CODECOMP_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "workload": w.name,
        "shape": w.shape,
        "seed": seed,
        "repeats": repeats,
        "fixture": meta,
    }


def run_workload(w, seed, seconds, trace, root, out_dir):
    """One benchmark run. Returns the result line, the full report and the
    traced iterations (whose spans write_report saves)."""
    src = root / "src"
    if not (src / "codecomp" / "__init__.py").is_file():
        raise BenchError(f"no program at {src / 'codecomp'}")
    spec = load_spec(root)["per_layer" if trace else "end_to_end"]
    emb_path, meta = ensure_fixture(w, seed, out_dir / "fixtures")
    cc = import_program(src)

    work = out_dir / "work" / f"{w.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    files = {key: str(work / name) for key, name in OUTPUTS.items()}
    files["emb"] = str(emb_path)
    files["copy_codes"] = str(work / "copy.codes")
    files["copy_books"] = str(work / "copy.books")

    tally = Tally()
    warm, records, setup = measure(cc, w, files, seed, seconds, trace, tally, src)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = records[-1]
    reports = dict(last["reports"])
    quality, _ = run_stages(cc, w, w.quality, files, seed, None, tally)
    reports.update(quality)
    # The checks' reference input comes from the benchmark's own generator
    # (the same bytes the fixture file holds), not from the program's readers.
    emb = cc.EmbeddingMatrix(*fixtures.generate(w.M, w.K, w.H, w.vocab, w.noise,
                                                 seed=seed))
    sq_norms = (emb.matrix.astype(np.float64) ** 2).sum(axis=1)
    norms = {"all": sq_norms.mean(),
             "val": lambda: sq_norms[checks.validation_rows(cc, w, emb, seed)].mean()}
    for check in checks.CHECKS:
        tally.check(check, cc, w, files, reports, emb, seed)
    found = digests(files)
    # Everything that decides the output bytes: source, input, shape, numpy,
    # and the BLAS build, thread count and CPU (BLAS picks kernels by CPU).
    env = environment(w, seed, root, src, meta, len(records))
    key = hashlib.sha256(json.dumps(
        [env[k] for k in ("src_sha256", "numpy", "blas", "machine", "cpu",
                          "workload", "seed", "shape")] + [meta["sha256"]],
        sort_keys=True).encode()).hexdigest()
    check_digest_store(out_dir / "digests", key[:32], found, tally)

    if trace:
        metrics = per_layer(cc, files, records, warm, tally)
    else:
        metrics = end_to_end(w, setup, records, reports, tally, peak_rss_mb, norms)
    unknown = sorted(set(metrics) - set(spec))
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {', '.join(unknown)}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": spec[name]["unit"]}
                    for name, value in metrics.items()},
    }
    report = {
        "environment": env,
        "result": result,
        "failures": tally.failures,
        "setup_s": setup or None,
        "timing": timing_summary([r for r in records if not r["traced"]]),
        "iterations": [{k: r[k] for k in ("traced", "wall_s", "stage_s", "train_s")}
                       for r in [warm] + records],
        "output_sha256": found,
        "mean_sq_norm": float(norms["all"]),
        "reports": reports,
    }
    return result, report, [r for r in records if r["traced"]]


def write_report(out_dir, w, seed, trace, report, traced_records):
    """The full report as JSON; in a traced run also every span as TSV."""
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    if traced_records:
        spans_path = results / f"{stem}.spans.tsv"
        with open(spans_path, "w") as fh:
            fh.write("iteration\tname\tstart_ns\tend_ns\tspan_id\tparent_id"
                     "\tself_ns\terror\n")
            for i, rec in enumerate(traced_records):
                for name, start, end, span_id, parent, own, error, _ in rec["spans"]:
                    fh.write(f"{i}\t{name}\t{start}\t{end}\t{span_id}\t{parent}"
                             f"\t{own}\t{int(error)}\n")
        report["spans_file"] = spans_path.name
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
