"""Span-based tracing with a near-zero-overhead disabled path.

A :class:`Tracer` hands out context-manager *spans*::

    with tracer.span("phase2_settle", destination=d):
        ...

When the tracer is disabled (the default), :meth:`Tracer.span` returns a
shared no-op singleton — the whole cost is one attribute check, one call
and an empty ``with`` block, so instrumentation can stay in hot paths
permanently (``benchmarks/test_obs_overhead.py`` asserts the bound).
When enabled, each span records wall-clock start/duration via
``time.perf_counter`` and lands in an in-memory buffer that exports as a
`chrome://tracing`_-compatible JSON document (load it in ``about:tracing``
or https://ui.perfetto.dev).

Cross-process spans: the ``compute_many`` process pool ships the parent's
trace *epoch* to each worker (``perf_counter`` reads ``CLOCK_MONOTONIC``,
which is system-wide on Linux), workers buffer spans exactly like the
parent, and the parent merges the drained buffers back — every event
carries its recording process id, so worker lanes show up as separate
``pid`` rows in the trace viewer.

.. _chrome://tracing: https://www.chromium.org/developers/how-tos/trace-event-profiling-tool/
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional


class NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        """Attribute updates are dropped (there is nothing to attach to)."""


NULL_SPAN = NullSpan()


class Span:
    """One live span; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span (e.g. result sizes)."""
        self.args.update(attrs)

    def __exit__(self, *exc: object) -> bool:
        self._tracer._record(
            self.name, self._start, time.perf_counter() - self._start,
            self.args,
        )
        return False


class Tracer:
    """A buffer of completed spans, disabled unless explicitly enabled."""

    def __init__(self) -> None:
        self._enabled = False
        self._epoch = 0.0
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def epoch(self) -> float:
        """``perf_counter`` origin of the trace (shipped to pool workers)."""
        return self._epoch

    def enable(self, epoch: Optional[float] = None) -> None:
        """Start recording; ``epoch`` aligns workers with the parent."""
        self._epoch = time.perf_counter() if epoch is None else epoch
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def span(self, name: str, **args: object):
        """A context-manager span (no-op singleton while disabled)."""
        if not self._enabled:
            return NULL_SPAN
        return Span(self, name, args)

    def record(self, name: str, start: float, **args: object) -> None:
        """Record a span that began at ``start`` (a ``perf_counter``
        reading) and ends now — for a caller that times the interval
        anyway; a no-op while disabled."""
        if self._enabled:
            self._record(name, start, time.perf_counter() - start, args)

    def _record(
        self, name: str, start: float, duration: float, args: Dict[str, Any]
    ) -> None:
        event = {
            "name": name,
            "ph": "X",
            "cat": "repro",
            "ts": (start - self._epoch) * 1e6,
            "dur": duration * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 2**31,
        }
        if args:
            event["args"] = {k: _jsonable(v) for k, v in args.items()}
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    # buffers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The recorded events (copies are cheap dict refs; do not mutate)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all buffered events (workers ship these back)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def merge(self, events: Iterable[Dict[str, Any]]) -> None:
        """Append events drained from another tracer (e.g. a pool worker)."""
        with self._lock:
            self._events.extend(events)

    def clear(self) -> None:
        self.drain()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The buffered spans as a chrome://tracing JSON object."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the chrome trace to ``path``; returns the event count."""
        trace = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(trace, handle)
        return len(trace["traceEvents"])


def _jsonable(value: object) -> object:
    """A span argument or log field as JSON: scalars as they are,
    collections as lists, anything else as its repr."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)
