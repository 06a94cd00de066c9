"""Span tracer that times the program's layers from outside.

The program is not edited. ``instrument`` replaces public functions and
methods of the ``lifelong_tta`` modules with wrappers that record a span per
call, and puts the originals back when the block ends. A function that a
caller imported by name (``engine.backward``, ``swag.backward``,
``engine.stream_batches``, ...) is wrapped in the caller's namespace, because
that is the name the caller looks up.

A span is ``[name, start, end, parent, phase]``. Spans stay in memory and are
written out by the caller when the run ends. Every wrapper returns the
wrapped function's result unchanged, so a traced run writes the same bytes
as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, PHASE = range(5)
PROBE = "bench.probe"  # span of a speed-probe reading (speed.py)
_DONE = object()  # end of a wrapped iterator


class Tracer:
    """In-memory spans and counters of one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.step_methods: list[str] = []  # engine method of each step span, in order
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[(self.phase, key)] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(args, result)`` runs
        once the span is closed, to update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_iterator(self, name: str, fn):
        """``fn`` returns an iterator; each ``next`` on it becomes a span, so
        the span covers the time the consumer waits for the next item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                index = self.open(name)
                try:
                    item = next(items, _DONE)
                finally:
                    self.close(index)
                if item is _DONE:
                    return
                self.count(name)
                yield item

        return wrapper

    def step_times(self, phase: str) -> dict[str, list[tuple[float, float]]]:
        """(start, end) of the step spans of ``phase``, by engine method."""
        steps = [s for s in self.spans if s[NAME] == "engine.step"]
        by_method: dict[str, list[tuple[float, float]]] = {}
        for span, method in zip(steps, self.step_methods, strict=True):
            if span[PHASE] == phase:
                by_method.setdefault(method, []).append((span[START], span[END]))
        return by_method

    def totals(self, phase: str) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count and time (outermost calls only, so a
        span nested in one of the same name is not counted twice, and less
        the speed probe's readings inside it); per layer: self time, a
        span's duration minus its children's."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        probe_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
            if span[NAME] == PROBE:
                parent = span[PARENT]
                while parent >= 0:
                    probe_time[parent] += span[END] - span[START]
                    parent = self.spans[parent][PARENT]
        for i, span in enumerate(self.spans):
            if span[PHASE] != phase:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] += 1
            if not self._inside_same_name(i):
                inclusive[name] += duration - probe_time[i]
            self_time[name.split(".", 1)[0]] += duration - child_time[i]
        return calls, inclusive, self_time

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][NAME]
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path: Path) -> None:
        """One JSON object per span, with its index as the span id."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "run": phase}
                handle.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, probe, lt, layers: bool):
    """Wrap the program's calls for the duration of the block.

    ``lt`` is the ``lifelong_tta`` package. Step calls are always timed,
    since the step latency is an end-to-end metric, and the speed ``probe``
    takes a reading after an adaptation or SGD step, outside every other
    span; ``layers`` adds a span at every other layer boundary.
    """
    # the probe hooks go on last, so they sit outside the layer spans
    patches = (_layer_hooks(tracer, lt) if layers else []) + _step_hooks(tracer, probe, lt)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _step_hooks(tracer: Tracer, probe, lt) -> list:
    def after_step(args, report):
        tracer.step_methods.append(args[-1].method)  # the PetalConfig is the last argument
        tracer.count("engine.restored", report.restored)
        probe.maybe()

    def step(fn):
        return tracer.wrap("engine.step", fn, after_step)

    def sgd_step(fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe.maybe()
            return result

        return probed

    return [
        (lt.engine, "adapt_step", step),
        (lt.engine, "baseline_step", step),
        (lt.swag, "backward", sgd_step),
        (probe, "read", lambda fn: tracer.wrap(PROBE, fn)),
    ]


def _layer_hooks(tracer: Tracer, lt) -> list:
    cli, engine, model, swag, metrics = lt.cli, lt.engine, lt.model, lt.swag, lt.metrics
    mlp, autodiff = model.MlpClassifier, lt.autodiff

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    def counter(key, amount=lambda args, result: 1):
        return lambda args, result: tracer.count(key, amount(args, result))

    def output_bytes(args, run_dirs):
        for run_dir in run_dirs:
            for leaf in ("report.json", "steps.csv"):
                tracer.count("cli.output_bytes", (Path(run_dir) / leaf).stat().st_size)

    def after_backward(args, grads):
        tracer.count("autodiff.tape_nodes", len(args[1]))

    def pseudo_label(fn):
        # the gate opened on this call if it drew any augmentation
        def gated(*args, **kwargs):
            before = tracer.counts[(tracer.phase, "engine.augment")]
            result = fn(*args, **kwargs)
            if tracer.counts[(tracer.phase, "engine.augment")] != before:
                tracer.count("engine.gate_open")
            return result

        return tracer.wrap("engine.pseudo_label", functools.wraps(fn)(gated))

    def count_tensors(init):
        @functools.wraps(init)
        def counted(self, values):
            tracer.count("autodiff.tensor")
            init(self, values)

        return counted

    def sgd_step(args, grads):
        after_backward(args, grads)
        tracer.count("swag.sgd_steps")

    written = counter("checkpoint.bytes", lambda args, result: Path(args[0]).stat().st_size)
    loss = span("engine.loss")
    score = span("metrics.score")
    return [
        (cli, "cmd_adapt", span("cli.adapt", output_bytes)),
        (cli, "cmd_train_source", span("cli.train_source")),
        (cli, "train_source", span("swag.train_source")),
        (cli, "run_lifelong", span("engine.run")),
        (cli, "evaluate_model", span("engine.evaluate")),
        (cli, "make_source_dataset", span("streams.dataset")),
        (cli, "build_schedule", span("streams.dataset")),
        (engine, "stream_batches", lambda fn: tracer.wrap_iterator("streams.wait", fn)),
        (model, "write_checkpoint", span("checkpoint.write", written)),
        (swag, "write_checkpoint", span("checkpoint.write", written)),
        (model, "read_checkpoint", span("checkpoint.read")),
        (swag, "read_checkpoint", span("checkpoint.read")),
        (engine, "teacher_pseudo_label", pseudo_label),
        (engine, "augment", span("engine.augment", counter("engine.augment"))),
        (engine, "soft_cross_entropy", loss),
        (engine, "softmax_entropy_mean", loss),
        (engine, "gaussian_log_density", loss),
        (engine, "weighted_sum", loss),
        (engine, "adam_delta", span("engine.adam")),
        (engine, "ema_update", span("engine.ema")),
        (engine, "fim_diag", span("engine.fim_mask")),
        (engine, "fim_mask", span("engine.fim_mask")),
        (engine, "restore", span("engine.restore")),
        (engine, "backward", span("autodiff.backward", after_backward)),
        (swag, "backward", span("autodiff.backward", sgd_step)),
        (engine, "per_sample_scores", score),
        (metrics.MetricAccumulator, "update", score),
        (metrics.MetricAccumulator, "segment_summary", score),
        (metrics.MetricAccumulator, "overall", score),
        (mlp, "forward", span("model.forward", counter(
            "model.forward_rows", lambda args, logits: logits.shape[0]))),
        (mlp, "taped_forward", span("model.taped_forward")),
        (mlp, "flatten", span("model.flatten_load", counter("model.flatten"))),
        (mlp, "load", span("model.flatten_load", counter("model.load"))),
        (autodiff.Tensor, "__init__", count_tensors),
    ]
