"""Span tracing from outside the program.

A Tracer records spans (name, start, end, parent) in memory. Probes
replace public functions of kdtrain, as they are bound in the namespace
of the module that calls them, with wrappers that open a span around
each call; ``Tracer.installed`` puts every original object back when it
exits. Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct
child spans. Calls are single-threaded and nested, so children never
overlap one another.
"""

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Spans that set the caller label of the spans opened inside them.
_CONTEXTS = {"training.eval": "eval", "distill.export_soft_targets": "export"}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans) -> dict[str, SpanStats]:
    """Aggregate (name, start, end, parent_index) spans by name.

    ``parent_index`` is the position of the enclosing span in ``spans``,
    or -1 for a root span.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, SpanStats())
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - covered[i]
    return stats


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def caller(self, default: str = "train") -> str:
        """Label of the nearest enclosing context span."""
        for index in reversed(self._stack):
            label = _CONTEXTS.get(self.spans[index][0])
            if label is not None:
                return label
        return default

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []
        self.counters = {}

    def stats(self) -> dict[str, SpanStats]:
        return self_times([tuple(s) for s in self.spans])

    @contextmanager
    def installed(self, probes):
        """Replace each probe's target while the block runs; restore the
        originals afterwards, also on error."""
        saved = []
        try:
            for probe in probes:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
                saved.append((module, probe.attr, original))
                setattr(module, probe.attr, probe.wrap(self, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


@dataclass(frozen=True)
class Probe:
    """One function binding to wrap: ``module.attr`` becomes a traced
    call named ``name``. ``{caller}`` in the name is filled with the
    label of the enclosing context span. ``on_call(tracer, result,
    args, kwargs, name)`` records counters after each call (after each
    item for a generator)."""

    module: str
    attr: str
    name: str
    on_call: object = None
    generator: bool = False

    def wrap(self, tracer: Tracer, fn):
        name, on_call = self.name, self.on_call
        by_caller = "{caller}" in name

        if self.generator:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(index)
                    if on_call is not None:
                        on_call(tracer, item, args, kwargs, name)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name.format(caller=tracer.caller()) if by_caller else name
            index = tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            if on_call is not None:
                on_call(tracer, result, args, kwargs, label)
            return result

        return traced


# ---------------------------------------------------------------------------
# Counters recorded beside the spans


def _count_batch(tracer, batch, args, kwargs, label):
    tracer.count("training.iter_batches.batches")
    tracer.count("training.iter_batches.real_frames", int(batch.mask.sum()))
    tracer.count("training.iter_batches.slots", batch.mask.size)


def _count_eval(tracer, result, args, kwargs, label):
    params, dataset = args[0], args[1]
    if hasattr(params, "layers"):  # recurrent model: eval pads groups of utterances
        tracer.count("training.eval.real_frames", dataset.total_frames)


def _count_lstm_forward(tracer, result, args, kwargs, label):
    s, f = args[1].shape[:2]
    tracer.count(f"{label}.frames", s * f)
    if label == "lstm.forward.eval":
        tracer.count("training.eval.slots", s * f)


def _count_lstm_backward(tracer, result, args, kwargs, label):
    cache = args[1]
    tracer.count("lstm.backward.frames", cache.batch * cache.frames)


def _count_read(tracer, result, args, kwargs, label):
    tracer.count("formats.read.bytes", os.path.getsize(args[0]))


def _count_write(tracer, result, args, kwargs, label):
    tracer.count("formats.write.bytes", os.path.getsize(args[0]))


PROBES = (
    Probe("kdtrain.cli", "run_training", "training.run_training"),
    Probe("kdtrain.cli", "frame_accuracy", "training.frame_accuracy"),
    Probe("kdtrain.training", "frame_accuracy", "training.frame_accuracy"),
    Probe("kdtrain.training", "eval_logits", "training.eval", _count_eval),
    Probe("kdtrain.cli", "gradient_variance_report", "training.gradient_variance_report"),
    Probe("kdtrain.training", "iter_batches", "training.iter_batches", _count_batch, True),
    Probe("kdtrain.training", "sgd_momentum_step", "training.sgd_momentum_step"),
    Probe("kdtrain.training", "lstm_forward_batch", "lstm.forward.{caller}", _count_lstm_forward),
    Probe("kdtrain.training", "lstm_backward_batch", "lstm.backward", _count_lstm_backward),
    Probe("kdtrain.training", "ff_forward", "feedforward.ff_forward.{caller}"),
    Probe("kdtrain.distill", "ff_forward", "feedforward.ff_forward.export"),
    Probe("kdtrain.training", "ff_backward", "feedforward.ff_backward"),
    Probe("kdtrain.feedforward", "sigmoid", "feedforward.sigmoid"),
    Probe("kdtrain.lstm", "sigmoid", "feedforward.sigmoid"),
    Probe("kdtrain.training", "frame_objective", "distill.frame_objective"),
    Probe("kdtrain.cli", "export_soft_targets", "distill.export_soft_targets"),
    Probe("kdtrain.cli", "generate_synth", "datasets.generate_synth"),
    Probe("kdtrain.cli", "validate_soft_targets", "datasets.validate_soft_targets"),
    Probe("kdtrain.cli", "read_dataset", "formats.read", _count_read),
    Probe("kdtrain.cli", "read_soft_targets", "formats.read", _count_read),
    Probe("kdtrain.cli", "read_checkpoint", "formats.read", _count_read),
    Probe("kdtrain.cli", "read_run_record", "formats.read", _count_read),
    Probe("kdtrain.cli", "write_dataset", "formats.write", _count_write),
    Probe("kdtrain.cli", "write_soft_targets", "formats.write", _count_write),
    Probe("kdtrain.cli", "write_checkpoint", "formats.write", _count_write),
    Probe("kdtrain.cli", "write_run_record", "formats.write", _count_write),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics from the spans of ``passes`` traced passes.

    Times and counts are per pass, ``cli.cell.s`` is per train-student
    call, ``*.us_per_frame`` is self time per computed (S x F) frame.
    The harness opens one ``cli.<subcommand>`` span around each CLI call.
    """
    st = tracer.stats()
    c = tracer.counters

    def self_s(name):
        return st[name].self_s / passes if name in st else 0.0

    def total_s(name):
        return st[name].total_s / passes if name in st else 0.0

    def calls(name):
        return st[name].calls / passes if name in st else 0.0

    def us_per_frame(name):
        return _ratio(1e6 * st[name].self_s, c.get(f"{name}.frames", 0)) if name in st else 0.0

    cli_self = sum(v.self_s for k, v in st.items() if k.startswith("cli.")) / passes
    cell = st.get("cli.train-student")
    return {
        "training.iter_batches.self_s": (self_s("training.iter_batches"), "s"),
        "training.iter_batches.batches": (
            c.get("training.iter_batches.batches", 0) / passes, "count"),
        "training.iter_batches.useful_frame_ratio": (
            _ratio(c.get("training.iter_batches.real_frames", 0),
                   c.get("training.iter_batches.slots", 0)),
            "ratio",
        ),
        "training.sgd_momentum_step.self_s": (self_s("training.sgd_momentum_step"), "s"),
        "training.sgd_momentum_step.calls": (calls("training.sgd_momentum_step"), "count"),
        "training.run_training.self_s": (self_s("training.run_training"), "s"),
        "training.frame_accuracy.s": (total_s("training.frame_accuracy"), "s"),
        "training.eval.useful_frame_ratio": (
            _ratio(c.get("training.eval.real_frames", 0), c.get("training.eval.slots", 0)),
            "ratio",
        ),
        "training.gradient_variance_report.s": (total_s("training.gradient_variance_report"), "s"),
        "lstm.forward.train.self_s": (self_s("lstm.forward.train"), "s"),
        "lstm.forward.train.us_per_frame": (us_per_frame("lstm.forward.train"), "us/frame"),
        "lstm.forward.eval.self_s": (self_s("lstm.forward.eval"), "s"),
        "lstm.forward.eval.us_per_frame": (us_per_frame("lstm.forward.eval"), "us/frame"),
        "lstm.backward.self_s": (self_s("lstm.backward"), "s"),
        "lstm.backward.us_per_frame": (us_per_frame("lstm.backward"), "us/frame"),
        "lstm.forward.calls": (calls("lstm.forward.train") + calls("lstm.forward.eval"), "count"),
        "lstm.backward.calls": (calls("lstm.backward"), "count"),
        "feedforward.ff_forward.train.self_s": (self_s("feedforward.ff_forward.train"), "s"),
        "feedforward.ff_forward.eval.self_s": (self_s("feedforward.ff_forward.eval"), "s"),
        "feedforward.ff_forward.export.self_s": (self_s("feedforward.ff_forward.export"), "s"),
        "feedforward.ff_backward.self_s": (self_s("feedforward.ff_backward"), "s"),
        "feedforward.sigmoid.self_s": (self_s("feedforward.sigmoid"), "s"),
        "feedforward.sigmoid.calls": (calls("feedforward.sigmoid"), "count"),
        "distill.frame_objective.self_s": (self_s("distill.frame_objective"), "s"),
        "distill.frame_objective.calls": (calls("distill.frame_objective"), "count"),
        "distill.export_soft_targets.self_s": (self_s("distill.export_soft_targets"), "s"),
        "datasets.validate_soft_targets.s": (total_s("datasets.validate_soft_targets"), "s"),
        "formats.read.s": (total_s("formats.read"), "s"),
        "formats.read.calls": (calls("formats.read"), "count"),
        "formats.read.bytes": (c.get("formats.read.bytes", 0) / passes, "B"),
        "formats.write.s": (total_s("formats.write"), "s"),
        "formats.write.calls": (calls("formats.write"), "count"),
        "formats.write.bytes": (c.get("formats.write.bytes", 0) / passes, "B"),
        "cli.cell.s": (cell.total_s / cell.calls if cell else 0.0, "s"),
        "cli.self_s": (cli_self, "s"),
    }
