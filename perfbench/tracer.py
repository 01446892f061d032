"""In-memory span tracer that instruments semtagger from outside the package.

``Tracer.installed()`` wraps every public function defined in the six layer
modules (``crf``, ``encoder``, ``optim``, ``trainer``, ``data``, ``model``)
and rebinds the wrapper under every name a call can go through: the name in
the defining module (``crf.nll_loss`` looks up ``log_partition`` there) and
any name bound by ``from ... import`` in another ``semtagger`` module
(``trainer`` and ``model`` call the CRF and encoder that way). The original
functions are restored on exit, so nothing inside ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index]``. Spans stay in memory
until the benchmark writes them out. ``Tracer.op`` opens a benchmark-level
span (``bench.<kind>``) around one measured operation; layer metrics are
aggregated per such operation.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("crf", "encoder", "optim", "trainer", "data", "model")

# Public calls that process one sentence (tag) or a list of sentences
# (evaluate), or one training pass whose non-evaluate work is the update.
# A CRF or encoder call is attributed to its nearest enclosing context.
CONTEXTS = {
    "trainer.train_epoch": "update",
    "trainer.evaluate": "evaluate",
    "model.tag_tokens": "tag",
    "model.tag_vectors": "tag",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    @contextmanager
    def op(self, kind: str):
        """Span around one measured benchmark operation."""
        span = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def installed(self):
        """Route every call into the layer modules through span wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"semtagger.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semtagger" and not mod_name.startswith("semtagger."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


class OpStats:
    """Per-name totals for the spans under one benchmark operation."""

    def __init__(self, kind: str, wall_s: float):
        self.kind = kind
        self.wall_s = wall_s
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_by_context: dict[str, Counter] = defaultdict(Counter)
        self.self_samples: dict[str, list[float]] = defaultdict(list)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)


def analyse(spans: list[list]) -> list[OpStats]:
    """Fold spans into one OpStats per ``bench.*`` span, in run order.

    Self time is a span's duration minus the time its direct children cover;
    calls run on one thread, so children never overlap.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    ops: list[OpStats] = []
    op_of = [-1] * n
    context_of: list[str | None] = [None] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if name.startswith("bench."):
            op_of[i] = len(ops)
            ops.append(OpStats(name[len("bench."):], (end - start) / 1e9))
            continue
        if parent < 0:
            continue
        op_of[i] = op_of[parent]
        context_of[i] = CONTEXTS.get(spans[parent][0], context_of[parent])
        if op_of[i] < 0:
            continue
        stats = ops[op_of[i]]
        self_s = (end - start - child_ns[i]) / 1e9
        stats.inclusive_s[name] += (end - start) / 1e9
        stats.self_s[name] += self_s
        stats.self_samples[name].append(self_s)
        stats.calls[name] += 1
        if context_of[i] is not None:
            stats.calls_by_context[context_of[i]][name] += 1
    return ops
