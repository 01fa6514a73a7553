"""In-memory span tracer that wraps the program's public calls from outside.

The benchmark never edits ``src/``: a :class:`Tracer` replaces public methods
and module functions with timing wrappers for the length of a traced run and
puts the originals back afterwards.  Two kinds of wrapper exist:

* **Spans** wrap coarse calls (a simulator run, a capacity search, a tuner
  pass, a window re-simulation).  Each records ``(id, parent, name, start,
  end, op)`` in memory; :meth:`Tracer.write` dumps them when the run ends.
* **Hot counters** wrap calls made once per simulated query or event (a
  balancer decision, one ``next()`` on a synthesised trace, one parsed
  line).  Recording a span object per call would dominate the run, so these
  only accumulate ``(calls, seconds)``; they are always leaves.

Self time is a span's duration minus the time its child spans and hot calls
cover.  Every second of a root span is therefore charged to exactly one
layer, and the per-layer self times sum to the root spans' wall time; the
benchmark's own code (layer :data:`UNATTRIBUTED`) holds the remainder.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Layer that collects the self time of the benchmark's own frames.
UNATTRIBUTED = "unattributed"


class _Frame:
    __slots__ = ("span_id", "name", "layer", "start", "child")

    def __init__(self, span_id: int, name: str, layer: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Collects spans, hot-call counters and per-layer self time."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: List[Tuple[int, int, str, float, float, str]] = []
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.op = ""
        self.root_wall = 0.0
        self._hot: Dict[str, List[Any]] = {}
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans

    def enter(self, name: str, layer: str) -> _Frame:
        frame = _Frame(self._next_id, name, layer, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self.layer_self[frame.layer] += duration - frame.child
        parent = self._stack[-1].span_id if self._stack else 0
        if self._stack:
            self._stack[-1].child += duration
        else:
            self.root_wall += duration
        self.spans.append((frame.span_id, parent, frame.name, frame.start, end, self.op))
        return duration

    def depth(self, layer: str) -> int:
        """Open frames of ``layer`` (1 inside the outermost such frame)."""
        return sum(1 for frame in self._stack if frame.layer == layer)

    @contextmanager
    def span(self, name: str, layer: str = UNATTRIBUTED) -> Iterator[None]:
        frame = self.enter(name, layer)
        try:
            yield
        finally:
            self.exit(frame)

    # ------------------------------------------------------------------ #
    # Wrappers

    def traced(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        on_result: Optional[Callable[[tuple, dict, Any, float], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``on_result(args, kwargs, result,
        seconds)`` runs after the span closes, so its cost is charged to the
        caller."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
            if on_result is not None:
                on_result(args, kwargs, result, duration)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def hot(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` wrapped in a leaf counter: calls and seconds, no span rows."""
        acc = self._hot.setdefault(name, [layer, 0, 0.0])
        stack = self._stack
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[1] += 1
                acc[2] += elapsed
                stack[-1].child += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def hot_iter(self, iterable: Iterable[Any], name: str, layer: str) -> Iterator[Any]:
        """Yield from ``iterable``, timing each ``next()`` as a hot call."""
        acc = self._hot.setdefault(name, [layer, 0, 0.0])
        stack = self._stack
        clock = self.clock
        advance = iter(iterable).__next__
        while True:
            start = clock()
            try:
                item = advance()
            except StopIteration:
                elapsed = clock() - start
                acc[2] += elapsed
                stack[-1].child += elapsed
                return
            elapsed = clock() - start
            acc[1] += 1
            acc[2] += elapsed
            stack[-1].child += elapsed
            yield item

    def patch(self, owner: Any, attr: str, wrapper: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until :meth:`restore`."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        wrapped = wrapper(original)
        self._patches.append((owner, attr, original, wrapped))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original, _wrapped = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block untraced: the originals are back until it ends."""
        for owner, attr, original, _wrapped in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _original, wrapped in self._patches:
                setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------ #
    # Results

    def hot_calls(self, name: str) -> int:
        return int(self._hot[name][1]) if name in self._hot else 0

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span self time plus hot-call time."""
        totals: Dict[str, float] = defaultdict(float, self.layer_self)
        for layer, _calls, seconds in self._hot.values():
            totals[layer] += seconds
        return dict(totals)

    def write(self, path: Path, header: Dict[str, Any]) -> None:
        """Dump the header, every span, then the hot-call totals (JSON lines)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for span_id, parent, name, start, end, op in self.spans:
                row = {"id": span_id, "parent": parent, "name": name,
                       "start": start, "end": end, "op": op}
                handle.write(json.dumps(row) + "\n")
            for name, (layer, calls, seconds) in sorted(self._hot.items()):
                row = {"hot": name, "layer": layer, "calls": calls, "seconds": seconds}
                handle.write(json.dumps(row) + "\n")

