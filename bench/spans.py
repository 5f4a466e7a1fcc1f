"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (-1 at top level).  Spans are recorded
at layer boundaries by wrapping the public ``milrank`` names in the module
namespaces where the program looks them up, plus explicit ``span`` blocks
around the calls the benchmark itself makes.  The program's code is not
changed: wrappers are installed for the duration of a ``with`` block and
the original attributes are restored afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute looked up by the program, span name).  One function can
# be looked up from several namespaces (optim calls ``pair_loss`` directly
# and loss calls it again inside ``pair_loss_grad``); both count under the
# function's own name.
WRAPPED = (
    ("milrank.optim", "sample_pair_indices", "optim.sample_pair_indices"),
    ("milrank.optim", "dropout_masks", "network.dropout_masks"),
    ("milrank.optim", "forward_with_masks", "network.forward_with_masks"),
    ("milrank.optim", "pair_loss", "loss.pair_loss"),
    ("milrank.loss", "pair_loss", "loss.pair_loss"),
    ("milrank.optim", "pair_loss_grad", "loss.pair_loss_grad"),
    ("milrank.optim", "weight_decay_term", "loss.weight_decay_term"),
    ("milrank.optim", "weight_decay_grads", "loss.weight_decay_grads"),
    ("milrank.optim", "backward", "network.backward"),
    ("milrank.optim", "adagrad_step", "optim.adagrad_step"),
    ("milrank.loss", "check_score_vector", "validation.check_score_vector"),
    ("milrank.metrics", "check_score_vector", "validation.check_score_vector"),
    ("milrank.metrics", "load_features", "features.load_features"),
    ("milrank.metrics", "make_bag", "features.make_bag"),
    ("milrank.metrics", "forward", "network.forward"),
    ("milrank.metrics", "expand_scores", "metrics.expand_scores"),
    ("milrank.metrics", "roc_auc", "metrics.roc_auc"),
)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED``; names a module lacks are noted as absent."""
        saved = []
        try:
            for module_name, attr, span_name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    if f"{module_name}.{attr}" not in self.absent:
                        self.absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "absent": self.absent}, out)


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: same calls, nothing recorded."""

    spans: list[list] = []
    absent: list[str] = []

    def span(self, name: str):
        return nullcontext()

    def wrap(self, fn, name: str):
        return fn

    def installed(self):
        return nullcontext(self)


NULL_TRACER = NullTracer()


def _child_time(spans: list[list]) -> list[float]:
    """Summed duration of each span's direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def summarize(spans: list[list], root: str) -> dict[str, dict[str, float]]:
    """Per-name call count, total seconds and self seconds of spans under ``root``.

    Only spans whose top-level ancestor is named ``root`` are counted, and
    names that never ran read as zero.  Self time is a span's duration minus
    the durations of its direct children; children of one span never overlap
    because the run is single-threaded.
    """
    child_time = _child_time(spans)
    top = [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        top[i] = i if parent < 0 else top[parent]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        if spans[top[i]][0] != root:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return out


def self_time_violations(spans: list[list]) -> list[str]:
    """Spans whose self time is negative or exceeds their parent's duration."""
    child_time = _child_time(spans)
    bad = []
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child_time[i]
        limit = (spans[parent][2] - spans[parent][1]) if parent >= 0 else end - start
        if end < start or own < -1e-9 or own > limit + 1e-9:
            bad.append(f"{i}:{name}")
    return bad
