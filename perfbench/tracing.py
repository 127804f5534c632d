"""Spans around calls into pooltest's layers, recorded from outside the package.

The tracer replaces module attributes with timing wrappers for the duration of
a ``with`` block and restores them afterwards.  Patching the attribute (not the
function object) matters: ``pooltest.sim`` binds ``decode_mask`` by name, so
only ``pooltest.sim.decode_mask`` sees every decode the simulator makes.

Spans are kept in memory as ``[name, start, end, parent, job, cpu]`` lists.
Each thread has its own parent stack.  A span opened on a thread with an
empty stack (a thread-pool worker) takes the main thread's innermost open
span as its parent, so the decodes a pool worker runs are children of the
``monte_carlo_error`` call that started the pool.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  The decode span is named per decoder.
TRACED = (
    ("sim", "decode_mask", None),
    ("sim", "monte_carlo_error", "sim.monte_carlo_error"),
    ("sim", "exact_average_error", "sim.exact_average_error"),
    ("sim", "verify_theorem", "sim.verify_theorem"),
    ("disguise", "exact_disguise_prob", "disguise.exact_disguise_prob"),
    ("disguise", "disguise_bound", "disguise.disguise_bound"),
    ("disguise", "co_items", "disguise.co_items"),
    ("disguise", "mean_log_bound", "disguise.mean_log_bound"),
    ("bounds", "l_star", "bounds.l_star"),
    ("bounds", "epsilon_bound", "bounds.epsilon_bound"),
    ("design", "load_design", "design.load_design"),
    ("design", "parse_design", "design.parse_design"),
    ("design", "gen_bernoulli", "design.gen_bernoulli"),
    ("design", "gen_doubly_regular", "design.gen_doubly_regular"),
    ("cli", "run", "cli.run"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self, package) -> None:
        self._package = package
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self.job = -1
        self.trials = 0
        self.sets_enumerated = 0
        self.disguise_items: list[tuple[object, int]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, name: str | None, fn):
        tracer = self
        timed_cpu = name == "sim.monte_carlo_error"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or "decode." + _arg(args, kwargs, 2, "decoder").value
            stack = tracer._stack()
            cpu0 = time.process_time() if timed_cpu else 0.0
            span = [span_name, time.perf_counter(), 0.0, tracer._parent(stack), tracer.job, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if timed_cpu:
                    span[5] = time.process_time() - cpu0
                stack.pop()
            tracer._count(span_name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "sim.monte_carlo_error":
            self.trials += result.trials
        elif name == "sim.exact_average_error":
            self.sets_enumerated += 1 << _arg(args, kwargs, 0, "design").n
        elif name == "disguise.exact_disguise_prob":
            self.disguise_items.append((_arg(args, kwargs, 0, "design"), _arg(args, kwargs, 1, "i")))

    def __enter__(self) -> Tracer:
        for module_name, attr, name in TRACED:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanSummary:
    """Per-name call counts, inclusive and self time, and wall coverage."""

    def __init__(self, spans: list[list]) -> None:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cpu_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            name, start, end = span[0], span[1], span[2]
            clipped = [(max(s, start), min(e, end)) for s, e in children.get(id(span), ())]
            covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered
            self.cpu_s[name] += span[5]
            self.durations[name].append(end - start)
            self._intervals[name].append((start, end))

    def coverage_s(self, name: str) -> float:
        """Wall time during which at least one span of this name was open."""
        return _union_length(self._intervals.get(name, []))
