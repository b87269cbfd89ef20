"""Spans around calls into codecomp's modules, taken from outside the program.

The tracer replaces the module attributes that callers look up at call time
(``codecomp.trainer.forward``, ``codecomp.model.matmul``, ...) with wrappers
that record a span per call, and puts the originals back on exit. Nothing in
``src/`` changes. Spans stay in memory; the harness writes them out when the
run ends.

A span is (name, start_ns, end_ns, span_id, parent_id, self_ns, error, extra).
Self time is the span's duration minus the time its child spans cover. The
program is traced single-threaded (the CLI's default ``--threads 1``), so
child spans never overlap and their durations simply add up.
"""

import os
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name). The attribute is the one the caller looks
# up: the trainer imports forward/backward/adam_step/sample_gumbel by name,
# model and codec import matmul by name, and the CLI calls the embeddings,
# codec, trainer and analysis functions through their modules. An attribute
# a later refactor removes is skipped rather than failing the run.
PATCHES = (
    ("embeddings", "read_text_embeddings", "embeddings.read_text"),
    ("embeddings", "write_text_embeddings", "embeddings.write_text"),
    ("embeddings", "read_binary_matrix", "embeddings.read_binary"),
    ("embeddings", "write_binary_matrix", "embeddings.write_binary"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("trainer", "forward", "model.forward"),
    ("trainer", "backward", "model.backward"),
    ("trainer", "adam_step", "model.adam_step"),
    ("trainer", "sample_gumbel", "tensor.sample_gumbel"),
    ("model", "matmul", "tensor.matmul"),
    ("codec", "matmul", "tensor.matmul"),
    ("codec", "export_codes", "codec.export_codes"),
    ("codec", "reconstruct_all", "codec.reconstruct_all"),
    ("codec", "write_code_file", "codec.write_code_file"),
    ("codec", "read_code_file", "codec.read_code_file"),
    ("codec", "write_codebook_file", "codec.write_codebook_file"),
    ("codec", "read_codebook_file", "codec.read_codebook_file"),
    ("analysis", "pq_baseline", "analysis.pq_baseline"),
    ("analysis", "neighbor_overlap", "analysis.neighbor_overlap"),
    ("analysis", "reconstruction_report", "analysis.reconstruction_report"),
)

# The one wrapper an untraced iteration carries: train_steps_per_s is timed
# from the trainer's own call, so reading the input and writing the
# checkpoint around it in the `train` command are not in it.
TRAIN_CLOCK = (("trainer", "train", "trainer.train"),)

MODULES = ("cli", "embeddings", "codec", "trainer", "model", "tensor", "analysis")

CLI_COMMANDS = ("train", "export", "reconstruct", "stats", "nn-overlap", "pq")


def _matmul_extra(args, out):
    """Computed work of one matmul: (flop, bytes) from the operand shapes."""
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[1]
    nbytes = a.size * a.itemsize + b.size * b.itemsize + out.size * out.itemsize
    return (2 * m * k * n, nbytes)


def _forward_name(args, kwargs):
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    return "model.forward.val" if noise is None else "model.forward.train"


# Extra data recorded per span, computed after the span's end time is taken.
_EXTRA = {
    "tensor.matmul": _matmul_extra,
    "embeddings.read_text": lambda args, out: os.path.getsize(args[0]),
    "embeddings.write_text": lambda args, out: os.path.getsize(args[1]),
    "model.forward.val": lambda args, out: out.loss,
    "codec.export_codes": lambda args, out: out[0].vocab_size,
}


def _extra(name, args, out):
    """The span's extra datum, or None; never raises into the traced call."""
    fn = _EXTRA.get(name)
    if fn is None:
        return None
    try:
        return fn(args, out)
    except Exception:  # a changed signature loses the datum, not the run
        return None


class Tracer:
    """Collects spans for one process. Single-threaded by design."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans = []
        self._stack = []  # [span_id, child_ns] of open spans
        self._next_id = 1

    def _open(self):
        self._stack.append([self._next_id, 0])
        self._next_id += 1

    def _close(self, name, start, end, error, extra):
        span_id, child_ns = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append(
            (name, start, end, span_id, parent, end - start - child_ns, error, extra)
        )

    @contextmanager
    def span(self, name):
        self._open()
        start = time.perf_counter_ns()
        error = True
        try:
            yield
            error = False
        finally:
            self._close(name, start, time.perf_counter_ns(), error, None)

    def seconds(self, name):
        """Total duration of the spans called `name`, in seconds."""
        return sum(end - start for n, start, end, *_ in self.spans if n == name) / 1e9

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = _forward_name(args, kwargs) if name == "model.forward" else name
            tracer._open()
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span_name, start, time.perf_counter_ns(), True, None)
                raise
            end = time.perf_counter_ns()
            tracer._close(span_name, start, end, False, _extra(span_name, args, out))
            return out

        return traced

    @contextmanager
    def patched(self, package):
        """Install the wrappers on the package's modules; restore on exit."""
        saved = []
        try:
            for mod_name, attr, span_name in self.patches:
                module = getattr(package, mod_name, None)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def tail(samples):
    """(percentile, value): the highest of p99.9/p99/p95/p90/p75/p50 with at
    least ten samples beyond it; p50 when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return 50.0, ordered[n // 2] if ordered else 0.0


def layer_metrics(spans):
    """Per-module numbers for one traced pipeline iteration.

    Times are totals in seconds over the iteration. Matmul flop and bytes
    are computed from operand shapes, not counted by hardware.
    """
    total = {}
    self_ns = {}
    calls = {}
    errors = dict.fromkeys(MODULES, 0)
    for name, start, end, _, _, own, error, _ in spans:
        total[name] = total.get(name, 0) + (end - start)
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        if error:
            errors[name.split(".", 1)[0]] += 1

    def s(name):
        return total.get(name, 0) / 1e9

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    def extras(name):
        return [sp[7] for sp in spans if sp[0] == name and sp[7] is not None]

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    flop = sum(e[0] for e in extras("tensor.matmul"))
    nbytes = sum(e[1] for e in extras("tensor.matmul"))
    out["tensor.matmul.calls"] = calls.get("tensor.matmul", 0)
    out["tensor.matmul.s"] = s("tensor.matmul")
    out["tensor.matmul.gflop"] = flop / 1e9
    out["tensor.matmul.mb"] = nbytes / 1e6
    out["tensor.matmul.gflop_per_s"] = rate(flop / 1e9, s("tensor.matmul"))
    out["tensor.sample_gumbel.s"] = s("tensor.sample_gumbel")

    forward = ("model.forward.train", "model.forward.val")
    out["model.forward.train.s"] = s("model.forward.train")
    out["model.forward.val.s"] = s("model.forward.val")
    out["model.forward.self_s"] = sum(self_s(n) for n in forward)
    out["model.backward.s"] = s("model.backward")
    out["model.backward.self_s"] = self_s("model.backward")
    out["model.adam_step.s"] = s("model.adam_step")
    steps = _step_times_ms(spans)
    tail_pct, tail_ms = tail(steps) if steps else (50.0, 0.0)
    out["model.step.ms_p50"] = statistics.median(steps) if steps else 0.0
    out["model.step.ms_tail"] = tail_ms
    out["model.step.tail_pct"] = tail_pct

    val_losses = extras("model.forward.val")
    improved, best = 0, float("inf")
    for loss in val_losses:
        if loss < best:
            improved, best = improved + 1, loss
    out["trainer.train.s"] = s("trainer.train")
    out["trainer.train.self_s"] = self_s("trainer.train")
    out["trainer.steps"] = calls.get("model.adam_step", 0)
    out["trainer.val_improved_ratio"] = rate(improved, len(val_losses))
    out["trainer.save_checkpoint.s"] = s("trainer.save_checkpoint")
    out["trainer.load_checkpoint.s"] = s("trainer.load_checkpoint")

    read_mb = sum(extras("embeddings.read_text")) / 1e6
    write_mb = sum(extras("embeddings.write_text")) / 1e6
    out["embeddings.read_text.s"] = s("embeddings.read_text")
    out["embeddings.read_text.calls"] = calls.get("embeddings.read_text", 0)
    out["embeddings.read_text.mb_per_s"] = rate(read_mb, s("embeddings.read_text"))
    out["embeddings.write_text.s"] = s("embeddings.write_text")
    out["embeddings.write_text.mb_per_s"] = rate(write_mb, s("embeddings.write_text"))
    out["embeddings.read_binary.s"] = s("embeddings.read_binary")
    out["embeddings.write_binary.s"] = s("embeddings.write_binary")

    exported = sum(extras("codec.export_codes"))
    out["codec.export_codes.s"] = s("codec.export_codes")
    out["codec.export_codes.words_per_s"] = rate(exported, s("codec.export_codes"))
    for fn in ("reconstruct_all", "write_code_file", "read_code_file",
               "write_codebook_file", "read_codebook_file"):
        out[f"codec.{fn}.s"] = s(f"codec.{fn}")

    for fn in ("pq_baseline", "neighbor_overlap", "reconstruction_report"):
        out[f"analysis.{fn}.s"] = s(f"analysis.{fn}")

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = s(f"cli.{command}")
        out[f"cli.{command}.self_s"] = self_s(f"cli.{command}")

    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    return out


def _step_times_ms(spans):
    """Model time per training step: start of the training forward to the end
    of the Adam update that follows it."""
    times = []
    start = None
    for name, t0, t1, *_ in sorted(spans, key=lambda sp: sp[1]):
        if name == "model.forward.train":
            start = t0
        elif name == "model.adam_step" and start is not None:
            times.append((t1 - start) / 1e6)
            start = None
    return times

