"""In-memory spans recorded by the benchmark, from outside the program.

A span is ``(id, parent, op, name, t0_ns, t1_ns)`` on the
``time.perf_counter_ns`` timeline.  Spans nest through a per-thread stack;
a span opened on a thread with an empty stack hangs off the *root* of the
op it names (the serving loop thread steps jobs whose root span was opened
by the generator thread).  A layer's self time is its span's duration
minus what its children cover; the layer of a span is the first dotted
component of its name, and the root span's self time is what the
benchmark could not attribute to any layer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

ROOT_NAME = "op"


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no parent (a root)
    op: int
    name: str
    t0: int
    t1: int

    @property
    def duration(self) -> int:
        return self.t1 - self.t0


class _OpenSpan:
    """Context manager for one span; allocation-light on purpose."""

    __slots__ = ("recorder", "name", "op", "id", "parent", "t0")

    def __init__(self, recorder: "SpanRecorder", name: str, op: int) -> None:
        self.recorder = recorder
        self.name = name
        self.op = op

    def __enter__(self) -> "_OpenSpan":
        recorder = self.recorder
        stack = recorder._stack()
        if stack:
            top = stack[-1]
            self.parent = top.id
            if self.op < 0:
                self.op = top.op
        else:
            self.parent = recorder.roots.get(self.op, 0)
        self.id = next(recorder._ids)
        stack.append(self)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        t1 = time.perf_counter_ns()
        recorder = self.recorder
        recorder._stack().pop()
        recorder.spans.append(
            Span(self.id, self.parent, self.op, self.name, self.t0, t1)
        )
        return False


class SpanRecorder:
    """Collects spans in memory; written out after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.roots: dict[int, int] = {}  # op id -> root span id
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int = -1) -> _OpenSpan:
        """Open a span; ``op`` is inherited from the enclosing span when
        omitted, and required when the calling thread has none open."""
        return _OpenSpan(self, name, op)

    def root(self, op: int) -> _OpenSpan:
        """The root span of one op, opened around the whole operation."""
        return _OpenSpan(self, ROOT_NAME, op)

    def reserve_root(self, op: int) -> int:
        """Allocate the root span id of an op whose interval is only known
        afterwards (open loop: due time to completion); close it with
        :meth:`add`."""
        span_id = next(self._ids)
        self.roots[op] = span_id
        return span_id

    def add(self, name: str, op: int, t0: int, t1: int, *, span_id: int = 0,
            parent: int = 0) -> int:
        """Record a span whose endpoints were measured elsewhere."""
        span_id = span_id or next(self._ids)
        self.spans.append(Span(span_id, parent, op, name, int(t0), int(t1)))
        return span_id

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def layer_of(name: str) -> str:
    return "bench" if name == ROOT_NAME else name.split(".", 1)[0]


class Budget(NamedTuple):
    """Self times of one recorder's spans, summed over its ops."""

    ops: int
    wall_ns: int  # sum of root durations
    self_ns: dict  # span name -> summed self time
    total_ns: dict  # span name -> summed duration, children included
    calls: dict  # span name -> span count
    worst_residual: float  # max over ops of |sum(self) - root| / root

    def self_ms_per_op(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / max(self.ops, 1) * 1e-6

    def total_ms_per_op(self, name: str) -> float:
        return self.total_ns.get(name, 0) / max(self.ops, 1) * 1e-6

    def mean_ms_per_call(self, name: str) -> float:
        return self.total_ns.get(name, 0) / max(self.calls.get(name, 0), 1) * 1e-6

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.ops, 1)

    @property
    def unattributed_share(self) -> float:
        return self.self_ns.get(ROOT_NAME, 0) / self.wall_ns if self.wall_ns else 0.0

    def by_layer(self) -> dict:
        layers: dict = defaultdict(int)
        for name, ns in self.self_ns.items():
            layers[layer_of(name)] += ns
        return dict(layers)


def check_nesting(spans: list[Span]) -> list[str]:
    """Structural problems: unknown parents, children escaping their
    parent's interval, negative durations.  Empty when the tree is sound."""
    by_id = {span.id: span for span in spans}
    problems = []
    for span in spans:
        if span.t1 < span.t0:
            problems.append(f"span {span.id} {span.name} ends before it starts")
        if span.parent:
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"span {span.id} {span.name} has unknown parent")
            elif span.t0 < parent.t0 or span.t1 > parent.t1:
                problems.append(
                    f"span {span.id} {span.name} escapes parent {parent.name}"
                )
    return problems


def budget(spans: list[Span]) -> Budget:
    """Self time per span name.  Children of one parent never overlap (one
    thread runs an op's work at a time), so self = duration - sum(children)."""
    child_ns: dict = defaultdict(int)
    for span in spans:
        if span.parent:
            child_ns[span.parent] += span.duration
    self_ns: dict = defaultdict(int)
    total_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    per_op_self: dict = defaultdict(int)
    roots: dict = {}
    for span in spans:
        own = span.duration - child_ns.get(span.id, 0)
        self_ns[span.name] += own
        total_ns[span.name] += span.duration
        calls[span.name] += 1
        per_op_self[span.op] += own
        if span.name == ROOT_NAME:
            roots[span.op] = span.duration
    worst = 0.0
    for op, wall in roots.items():
        if wall > 0:
            worst = max(worst, abs(per_op_self[op] - wall) / wall)
    return Budget(
        ops=len(roots),
        wall_ns=sum(roots.values()),
        self_ns=dict(self_ns),
        total_ns=dict(total_ns),
        calls=dict(calls),
        worst_residual=worst,
    )
