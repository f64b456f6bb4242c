"""Deterministic discrete-event scheduler (the ``repro.events`` core).

The round-based convergence simulator activates every AS once per fair
round — a synchronous approximation the paper's §7 analysis merely
tolerates.  Real interdomain dynamics are *asynchronous*: advertisements
cross links with propagation delays, MRAI timers rate-limit
re-advertisement, and MIRO negotiations race BGP re-convergence.  This
module supplies the substrate those dynamics run on:

* an :class:`Event` is a timestamped occurrence of a named *kind* with an
  opaque payload;
* an :class:`EventScheduler` keeps a heap of pending events ordered by
  ``(time, seq)`` — ``seq`` is a monotonically increasing schedule
  counter, so two events at the same simulated instant dispatch in the
  order they were scheduled, making every run a deterministic function
  of its inputs (no wall-clock, no iteration-order dependence);
* callbacks are registered per kind (:meth:`EventScheduler.register`,
  the ``register_event_callback`` pattern of asynchronous-simulation
  frameworks) and invoked with the event as the clock advances;
* :meth:`EventScheduler.sim_span` measures *simulated-clock* intervals
  the way :mod:`repro.obs.tracing` measures wall-clock ones.

The scheduler is instrumented through :mod:`repro.obs`: a queue-depth
gauge, per-kind scheduled/dispatched counters, and simulated-time
histograms (realized event latency and end-of-run horizon), so a churn
run's event mix is a live metrics query.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import EventError
from ..obs import DEFAULT_SIM_TIME_BUCKETS, get_logger, get_registry

_LOG = get_logger("events")
_SCHEDULED_TOTAL = get_registry().counter(
    "repro_events_scheduled_total",
    "Events scheduled, by kind",
    labels=("kind",),
)
_DISPATCHED_TOTAL = get_registry().counter(
    "repro_events_dispatched_total",
    "Events dispatched, by kind",
    labels=("kind",),
)
_QUEUE_DEPTH = get_registry().gauge(
    "repro_events_queue_depth",
    "Pending events in the discrete-event scheduler heap",
)
_EVENT_LATENCY_SIM = get_registry().histogram(
    "repro_events_latency_sim_seconds",
    "Simulated time between scheduling and dispatching an event "
    "(the realized delay distribution)",
    buckets=DEFAULT_SIM_TIME_BUCKETS,
    labels=("kind",),
)
_RUN_HORIZON_SIM = get_registry().histogram(
    "repro_events_run_horizon_sim_seconds",
    "Simulated clock reached by each scheduler run() call",
    buckets=DEFAULT_SIM_TIME_BUCKETS,
)
_SPAN_SIM_SECONDS = get_registry().histogram(
    "repro_events_span_sim_seconds",
    "Simulated-clock duration of named sim spans",
    buckets=DEFAULT_SIM_TIME_BUCKETS,
    labels=("span",),
)


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped occurrence inside a scheduler run.

    ``seq`` is the global schedule counter that breaks same-time ties;
    ``scheduled_at`` is the simulated clock when the event was created
    (``time - scheduled_at`` is the realized delay).
    """

    time: float
    seq: int
    kind: str
    payload: Any = None
    scheduled_at: float = 0.0

    @property
    def latency(self) -> float:
        """Simulated delay between scheduling and firing."""
        return self.time - self.scheduled_at


class EventScheduler:
    """A deterministic heap of timestamped events with kind callbacks.

    The simulated clock (:attr:`now`) only moves when events dispatch,
    and only forward.  Scheduling into the past raises
    :class:`~repro.errors.EventError`; scheduling *at* the current
    instant is legal (the event dispatches after everything already
    pending at that instant, by its larger ``seq``).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, Any, float]] = []
        self._seq = 0
        self._now = 0.0
        self._callbacks: Dict[str, Callable[[Event], None]] = {}
        self._dispatched = 0

    # ------------------------------------------------------------------
    # clock and queue state
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The simulated clock (time of the last dispatched event)."""
        return self._now

    @property
    def pending(self) -> int:
        """Events currently in the heap."""
        return len(self._heap)

    @property
    def dispatched(self) -> int:
        """Events dispatched over this scheduler's lifetime."""
        return self._dispatched

    # ------------------------------------------------------------------
    # registration and scheduling
    # ------------------------------------------------------------------
    def register(self, kind: str, callback: Callable[[Event], None]) -> None:
        """Bind ``callback`` to every future event of ``kind``.

        One callback per kind: re-registering a kind replaces the old
        callback (the driver owns its event vocabulary).
        """
        self._callbacks[kind] = callback

    def schedule(self, time: float, kind: str, payload: Any = None) -> Event:
        """Enqueue an event at absolute simulated ``time``."""
        if time < self._now:
            raise EventError(
                f"cannot schedule {kind!r} at t={time}: the simulated "
                f"clock is already at t={self._now}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (time, seq, kind, payload, self._now))
        _SCHEDULED_TOTAL.labels(kind=kind).inc()
        _QUEUE_DEPTH.set(len(self._heap))
        return Event(time, seq, kind, payload, scheduled_at=self._now)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Dispatch the single next event; None when the heap is empty."""
        if not self._heap:
            return None
        time, seq, kind, payload, scheduled_at = heapq.heappop(self._heap)
        self._now = time
        self._dispatched += 1
        _QUEUE_DEPTH.set(len(self._heap))
        _DISPATCHED_TOTAL.labels(kind=kind).inc()
        _EVENT_LATENCY_SIM.labels(kind=kind).observe(time - scheduled_at)
        callback = self._callbacks.get(kind)
        if callback is None:
            raise EventError(f"no callback registered for event kind {kind!r}")
        event = Event(time, seq, kind, payload, scheduled_at=scheduled_at)
        callback(event)
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch events until the heap drains or a budget trips.

        ``until`` stops *before* dispatching any event strictly later
        than the horizon (the event stays pending, so a later ``run``
        can resume).  ``max_events`` bounds dispatches in this call.
        Returns the number of events dispatched.
        """
        count = 0
        while self._heap:
            if max_events is not None and count >= max_events:
                break
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            count += 1
        _RUN_HORIZON_SIM.observe(self._now)
        if self._heap:
            _LOG.debug("event_run_paused", dispatched=count,
                       pending=len(self._heap), now=self._now)
        return count

    # ------------------------------------------------------------------
    # simulated-clock spans
    # ------------------------------------------------------------------
    @contextmanager
    def sim_span(self, name: str):
        """Record the simulated-clock duration of a block.

        The wall-clock analogue is :meth:`repro.obs.tracing.Tracer.span`;
        this one measures how much *simulated* time elapsed between
        entering and leaving the block (e.g. one churn scenario's span
        from first injection to quiescence).
        """
        start = self._now
        try:
            yield
        finally:
            _SPAN_SIM_SECONDS.labels(span=name).observe(self._now - start)
