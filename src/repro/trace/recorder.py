"""The process-wide :class:`Tracer`: bounded-ring span/event recording.

Design constraints (in priority order):

1. **Disabled ⇒ near-zero overhead.**  Instrumentation sites in the hot
   layers guard every call with ``if TRACER.enabled:`` — a single
   attribute load and branch.  The tracer is a process-wide singleton
   (:data:`TRACER`) that is *reconfigured in place*, never replaced, so
   hook sites may bind it once at import time and the guard stays valid
   for the life of the process.
2. **O(1) append, hard memory bound.**  Records land in a
   ``collections.deque(maxlen=capacity)`` ring: appending is O(1) and the
   oldest records fall off first, so an always-on tracer can never grow
   without bound (mirroring the kernel's trace ring buffers).
3. **Nestable spans with self-time.**  Spans track an explicit stack;
   each frame accumulates its children's durations so the recorded span
   carries both total and *self* time, which is what the flamegraph-style
   summary and the profiler aggregate.

Typical use::

    from repro.trace import TRACER, start_tracing, stop_tracing

    start_tracing()            # or Host(topology, trace=True)
    ... run the simulation ...
    stop_tracing()
    print(TRACER.summary())    # or export.write_chrome_trace(TRACER, path)
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set

from .spans import (
    KIND_COUNTER,
    KIND_INSTANT,
    KIND_SPAN,
    CounterRecord,
    InstantRecord,
    SpanRecord,
)


@dataclass(frozen=True)
class TraceConfig:
    """Tracer configuration.

    Attributes:
        capacity: Ring-buffer size in records; the oldest records are
            evicted first once full.
        categories: When given, only these categories are recorded
            (spans in filtered-out categories still nest correctly —
            their time is attributed to the enclosing recorded span).
    """

    capacity: int = 262_144
    categories: Optional[Set[str]] = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")


class _SpanContext:
    """Context manager wrapping ``Tracer.begin``/``Tracer.end``.

    A fresh tiny object per ``with tracer.span(...)`` block; the engine's
    per-event hot path calls ``begin``/``end`` directly instead.
    """

    __slots__ = ("_tracer", "_category", "_name", "_args")

    def __init__(self, tracer: "Tracer", category: str, name: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self._category = category
        self._name = name
        self._args = args

    def __enter__(self) -> "Tracer":
        self._tracer.begin(self._category, self._name, self._args)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end()


class _NullSpanContext:
    """Shared no-op context returned by ``span()`` while disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Nestable span / instant-event / counter-track recorder.

    All methods are cheap no-ops while ``enabled`` is ``False``; hot-path
    callers should still guard with ``if tracer.enabled:`` to skip
    argument construction entirely.
    """

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.enabled: bool = False
        self._config = config or TraceConfig()
        self._clock = time.perf_counter
        self._t0 = 0.0
        self._buffer: Deque[tuple] = deque(maxlen=self._config.capacity)
        # Span stack frames: [category, name, args, start, child_time, skip]
        self._stack: List[list] = []
        self.dropped_records = 0  # evictions forced by the ring bound
        self._recorded = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        """The active configuration."""
        return self._config

    def configure(self, config: Optional[TraceConfig] = None) -> None:
        """Replace the configuration and clear recorded state."""
        self._config = config or TraceConfig()
        self.clear()

    def enable(self) -> None:
        """Start recording (idempotent); the ring keeps prior records."""
        if not self.enabled:
            if self._recorded == 0:
                self._t0 = self._clock()
            self.enabled = True

    def disable(self) -> None:
        """Stop recording; open spans are abandoned unrecorded."""
        self.enabled = False
        self._stack.clear()

    def clear(self) -> None:
        """Drop every recorded event and reset the clock origin."""
        self._buffer = deque(maxlen=self._config.capacity)
        self._stack.clear()
        self.dropped_records = 0
        self._recorded = 0
        self._t0 = self._clock()

    # -- recording -----------------------------------------------------------

    def begin(self, category: str, name: str,
              args: Optional[Dict[str, Any]] = None) -> None:
        """Open a span; must be balanced by exactly one :meth:`end`."""
        if not self.enabled:
            return
        cats = self._config.categories
        skip = cats is not None and category not in cats
        self._stack.append(
            [category, name, args, self._clock() - self._t0, 0.0, skip]
        )

    def end(self) -> None:
        """Close the innermost open span and record it."""
        if not self.enabled or not self._stack:
            return
        category, name, args, start, child_time, skip = self._stack.pop()
        duration = (self._clock() - self._t0) - start
        if self._stack:
            self._stack[-1][4] += duration
        if skip:
            return
        self._append(
            (KIND_SPAN, category, name, start, duration,
             duration - child_time, len(self._stack), args)
        )

    def span(self, category: str, name: str,
             args: Optional[Dict[str, Any]] = None):
        """``with``-style span (see :meth:`begin` / :meth:`end`)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, category, name, args)

    def annotate(self, **kwargs: Any) -> None:
        """Merge *kwargs* into the innermost open span's args.

        Lets a hook site record outcomes it only knows at the end of the
        work (e.g. how many components the solver actually re-solved).
        """
        if not self.enabled or not self._stack:
            return
        frame = self._stack[-1]
        if frame[2] is None:
            frame[2] = dict(kwargs)
        else:
            frame[2].update(kwargs)

    def instant(self, category: str, name: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event."""
        if not self.enabled:
            return
        cats = self._config.categories
        if cats is not None and category not in cats:
            return
        self._append(
            (KIND_INSTANT, category, name, self._clock() - self._t0, args)
        )

    def counter(self, category: str, track: str, value: float) -> None:
        """Record one sample on counter track *track*."""
        if not self.enabled:
            return
        cats = self._config.categories
        if cats is not None and category not in cats:
            return
        self._append(
            (KIND_COUNTER, category, track, self._clock() - self._t0,
             value)
        )

    def _append(self, record: tuple) -> None:
        if len(self._buffer) == self._config.capacity:
            self.dropped_records += 1
        self._buffer.append(record)
        self._recorded += 1

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def records_recorded(self) -> int:
        """Total records ever appended (including evicted ones)."""
        return self._recorded

    def spans(self) -> List[SpanRecord]:
        """All retained spans, materialized, in completion order."""
        return [
            SpanRecord(category=r[1], name=r[2], start=r[3], duration=r[4],
                       self_time=r[5], depth=r[6], args=r[7])
            for r in self._buffer if r[0] == KIND_SPAN
        ]

    def instants(self) -> List[InstantRecord]:
        """All retained instant events, materialized."""
        return [
            InstantRecord(category=r[1], name=r[2], time=r[3], args=r[4])
            for r in self._buffer if r[0] == KIND_INSTANT
        ]

    def counters(self) -> List[CounterRecord]:
        """All retained counter samples, materialized."""
        return [
            CounterRecord(category=r[1], track=r[2], time=r[3], value=r[4])
            for r in self._buffer if r[0] == KIND_COUNTER
        ]

    def categories(self) -> Set[str]:
        """Distinct categories present in the retained records."""
        return {r[1] for r in self._buffer}

    def summary(self, limit: int = 15) -> str:
        """Short human-readable per-(category, name) cost table."""
        from .profile import profile_spans, render_profile

        return render_profile(profile_spans(self.spans()), limit=limit)

    def __repr__(self) -> str:
        return (f"Tracer(enabled={self.enabled}, records={len(self)}, "
                f"capacity={self._config.capacity}, "
                f"dropped={self.dropped_records})")


#: The process-wide tracer.  Instrumentation sites bind this object once
#: at import time and guard on ``TRACER.enabled``; it is reconfigured in
#: place (never rebound) so those cached references stay live.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return TRACER


def start_tracing(config: Optional[TraceConfig] = None) -> Tracer:
    """Configure (when *config* is given) and enable the global tracer."""
    if config is not None:
        TRACER.configure(config)
    TRACER.enable()
    return TRACER


def stop_tracing() -> Tracer:
    """Disable the global tracer; recorded events stay readable."""
    TRACER.disable()
    return TRACER


class tracing:
    """Context manager: trace a block against the global tracer.

    ::

        with tracing() as tracer:
            host.run_until(1.0)
        tracer.summary()
    """

    def __init__(self, config: Optional[TraceConfig] = None,
                 clear: bool = True) -> None:
        self._config = config
        self._clear = clear

    def __enter__(self) -> Tracer:
        if self._config is not None:
            TRACER.configure(self._config)
        elif self._clear:
            TRACER.clear()
        TRACER.enable()
        return TRACER

    def __exit__(self, exc_type, exc, tb) -> None:
        TRACER.disable()
