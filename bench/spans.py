"""In-memory span recorder for the traced run.

Spans are recorded from *outside* the program: ``bench/server.py`` wraps
the public callables at each layer boundary with :meth:`Recorder.sync`
/ :meth:`Recorder.coro`.  A span is the tuple

    (id, name, layer, start_ns, end_ns, parent_id, request)

with times from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so
they compare directly with the load generator's timestamps in the
runner process).  ``parent_id`` follows the call stack through a
context variable, which asyncio copies into each task; ``request`` is
the JSON-lines ``id`` of the request being served.

An executor thread does not inherit the event loop's context, so the
three entry points the service calls on its worker threads
(``compute_many``, ``establish``, ``mutate``) find their requests
through :attr:`Recorder.waiting`: the event-loop side registers
``key -> [request ids]`` before it hands off, the thread side looks its
own arguments up.  Such a span lists every request that waits on it.
"""

from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from time import perf_counter_ns
from typing import Callable, Dict, Hashable, Iterable, List, Optional

_CURRENT: ContextVar[int] = ContextVar("bench_span", default=0)
_REQUEST: ContextVar[object] = ContextVar("bench_request", default=None)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.waiting: Dict[Hashable, List[object]] = {}
        self._ids = itertools.count(1)

    # -- request identity -------------------------------------------------
    @staticmethod
    def set_request(request: object) -> None:
        _REQUEST.set(request)

    def _enter(self, serves: Optional[Iterable[Hashable]]):
        request_token = None
        if serves is not None and _REQUEST.get() is None:
            request_token = _REQUEST.set(
                [r for key in serves for r in self.waiting.get(key, ())]
            )
        span_id = next(self._ids)
        parent = _CURRENT.get()
        return span_id, parent, _CURRENT.set(span_id), request_token

    def _exit(self, name, layer, span_id, parent, token, request_token, start):
        end = perf_counter_ns()
        self.spans.append(
            (span_id, name, layer, start, end, parent, _REQUEST.get())
        )
        _CURRENT.reset(token)
        if request_token is not None:
            _REQUEST.reset(request_token)

    # -- wrappers -----------------------------------------------------------
    def sync(
        self, fn: Callable, name: str, layer: str,
        key: Optional[Callable[..., Iterable[Hashable]]] = None,
    ) -> Callable:
        """Wrap a plain callable.  ``key(*args)`` names the
        :attr:`waiting` entries a thread-side entry point serves."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._enter(key(*args, **kwargs) if key else None)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, layer, *state, start)

        return traced

    def coro(
        self, fn: Callable, name: str, layer: str,
        key: Optional[Callable[..., Hashable]] = None,
    ) -> Callable:
        """Wrap a coroutine function.  ``key(*args)`` registers the
        current request as waiting on a thread-side span."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            waits_on = key(*args, **kwargs) if key else None
            request = _REQUEST.get()
            if waits_on is not None:
                self.waiting.setdefault(waits_on, []).append(request)
            state = self._enter(None)
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._exit(name, layer, *state, start)
                if waits_on is not None:
                    waiters = self.waiting.get(waits_on)
                    if waiters is not None:
                        waiters.remove(request)
                        if not waiters:
                            self.waiting.pop(waits_on, None)

        return traced

    def decode(self, loads: Callable, name: str, layer: str) -> Callable:
        """Wrap the request decoder: the request id is only known once
        the line is parsed, and every later span of the task inherits it."""

        @functools.wraps(loads)
        def traced(raw, *args, **kwargs):
            state = self._enter(None)
            start = perf_counter_ns()
            try:
                request = loads(raw, *args, **kwargs)
                if isinstance(request, dict):
                    _REQUEST.set(request.get("id"))
                return request
            finally:
                self._exit(name, layer, *state, start)

        return traced
