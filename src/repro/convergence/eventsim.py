"""Event-driven execution of the MIRO convergence model.

This module puts :class:`~repro.convergence.simulator.MiroConvergenceSystem`
on the :mod:`repro.events` scheduler.  Activations stop being entries in
a fair-round for-loop and become *events*: an AS re-runs route selection
because a neighbour's advertisement arrived (after the link's
propagation delay), because a MIRO responder's offer changed (after a
negotiation handshake delay), or because its own MRAI timer finally
allows a pending re-advertisement.

Two regimes share one entry point (:func:`run_on_events`):

**Synchronous regime.**  When the
:class:`~repro.events.timers.DelayModel` is synchronous (zero delays and
jitter, one uniform MRAI) nothing can separate any two ASes' event
timestamps: every advertisement lands at the instant it is sent and all
pending activations collapse onto one tick.  The event schedule is then
*exactly* the classic fair round — wave ``k`` activates every AS at
``t = k * mrai`` — so the run is handed to the simulator's own
fair-round loop (the one behind :meth:`run`) and only stamped with that
clock; nothing goes through the heap.

**Asynchronous regime.**  With any non-zero delay, jitter, per-link or
per-AS override — or with injected topology churn — activations are
arrival-driven.  A changed AS notifies its graph neighbours after the
per-link delay, the requesters of MIRO demands it responds to after the
negotiation delay, and itself (its own selection feeds its own tunnel
via-paths) after its MRAI.  Activation requests coalesce to at most one
pending event per AS (advertisement events carry no routes — an
activation reads the live global state, so one activation at the
earliest pending instant covers every later arrival of the same wave);
the per-AS :class:`~repro.events.timers.MraiTimer` rate-limits firing.
The run is quiescent when the heap drains; an activation budget
(``max_rounds`` worth of fair rounds) and an optional raw ``max_events``
cap guard divergent gadgets, which never quiesce.

:func:`run_churn` extends the asynchronous regime with timestamped
:class:`~repro.topology.delta.TopologyDelta` injections through the
existing :meth:`~MiroConvergenceSystem.apply_event` transactional path —
the substrate for the flap-storm / rolling-deployment / negotiation-race
scenarios of :mod:`repro.experiments.churn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..events.engine import Event, EventScheduler
from ..events.timers import SYNCHRONOUS, DelayModel, MraiTimer
from ..obs import get_logger, get_registry
from ..topology.delta import AppliedDelta, TimedDelta
from .model import Selection
from .simulator import (
    _ACTIVATIONS_TOTAL,
    ConvergenceResult,
    MiroConvergenceSystem,
)

_LOG = get_logger("convergence.events")
_INJECTIONS_TOTAL = get_registry().counter(
    "repro_convergence_churn_injections_total",
    "Topology deltas injected into event-driven convergence runs",
)

#: Event kinds of the convergence driver's vocabulary.
KIND_ACTIVATE = "activate"    # one AS activation
KIND_DELTA = "delta"          # churn: apply one topology delta


@dataclass(frozen=True, slots=True)
class ChurnResult:
    """Outcome of one churn run (:func:`run_churn`).

    ``recovery_times`` maps injection index → simulated seconds from
    that injection until the system next went quiescent (the heap
    drained); injections whose turbulence overlapped the next injection
    share the later quiescence instant, as in real overlapping outages.
    """

    converged: bool
    sim_time: float
    activations: int
    dispatched: int
    injections: int
    final_state: Dict[Tuple[int, int], Optional[Selection]]
    applied: Tuple[AppliedDelta, ...]
    recovery_times: Tuple[Tuple[int, float], ...]

    @property
    def max_recovery(self) -> float:
        return max((t for _, t in self.recovery_times), default=0.0)


class _EventRun:
    """One arrival-driven convergence execution (driver state)."""

    def __init__(
        self,
        system: MiroConvergenceSystem,
        delays: DelayModel,
        max_rounds: int,
        rng: Optional[Random],
        max_events: Optional[int],
    ) -> None:
        self.system = system
        self.delays = delays
        self.rng = rng
        self.scheduler = EventScheduler()
        self.activations = 0
        #: fair-round-equivalent activation budget
        self.budget = max_rounds * max(1, len(system.graph.ases))
        self.max_events = max_events
        #: per-AS MRAI timers, armed when the run first hears of the AS
        #: (churn can bring in ASes the system did not start with)
        self.timers: Dict[int, MraiTimer] = {}
        self.pending: Dict[int, float] = {}
        # watchers[responder] = requesters whose tunnel offers it feeds
        self.watchers: Dict[int, List[int]] = {}
        for demand in system.demands:
            requesters = self.watchers.setdefault(demand.responder, [])
            if demand.requester not in requesters:
                requesters.append(demand.requester)
        for requesters in self.watchers.values():
            requesters.sort()
        self.scheduler.register(KIND_ACTIVATE, self._on_activate)

    def request_activation(self, asn: int, arrival: float) -> None:
        """Ask for ``asn`` to re-run selection once news lands at ``arrival``.

        Coalesces onto an existing pending activation when that one is
        no later (it will see this arrival's state anyway — activations
        read live global state; events only carry timing).  A pending
        activation *later* than the new arrival is superseded: the old
        heap entry goes stale and is skipped at dispatch.
        """
        timer = self.timers.get(asn)
        if timer is None:
            timer = self.timers[asn] = MraiTimer(self.delays.mrai_for(asn))
        at = timer.earliest(arrival)
        pending = self.pending.get(asn)
        if pending is not None and pending <= at:
            return
        self.pending[asn] = at
        self.scheduler.schedule(at, KIND_ACTIVATE, asn)

    def _on_activate(self, event: Event) -> None:
        asn = event.payload
        if self.pending.get(asn) != event.time:
            return  # superseded by an earlier activation request
        del self.pending[asn]
        timer = self.timers[asn]
        earliest = timer.earliest(event.time)
        if earliest > event.time:  # MRAI moved while this event waited
            self.request_activation(asn, earliest)
            return
        timer.fire(event.time)
        self.activations += 1
        _ACTIVATIONS_TOTAL.inc()
        if self.system.activate(asn):
            self._notify_change(asn, event.time)

    def _notify_change(self, asn: int, now: float) -> None:
        """Propagate one AS's state change to everything that reads it."""
        graph = self.system.graph
        for neighbor in sorted(graph.neighbors(asn)):
            delay = self.delays.link_delay_for(asn, neighbor, self.rng)
            self.request_activation(neighbor, now + delay)
        # MIRO requesters see the responder's new offers only after a
        # re-negotiation (§3.3 handshake)
        for requester in self.watchers.get(asn, ()):
            self.request_activation(
                requester, now + self.delays.negotiation_delay
            )
        # the AS's own tunnels ride on its own routes: revisit after MRAI
        self.request_activation(asn, now)

    def seed_initial_activations(self) -> None:
        for asn in self.system.graph.ases:
            self.request_activation(asn, self.delays.initial_offset(self.rng))

    def drain(
        self, after_step: Optional[Callable[[Event], None]] = None
    ) -> bool:
        """Dispatch until quiescent or a budget trips; True if drained."""
        while self.scheduler.pending:
            if self.activations >= self.budget:
                return False
            if (
                self.max_events is not None
                and self.scheduler.dispatched >= self.max_events
            ):
                return False
            event = self.scheduler.step()
            if after_step is not None:
                after_step(event)
        return True

    def run_asynchronous(self) -> ConvergenceResult:
        self.seed_initial_activations()
        quiescent = self.drain()
        ases = max(1, len(self.system.graph.ases))
        rounds = max(1, math.ceil(self.activations / ases))
        return ConvergenceResult(
            quiescent, rounds, False, dict(self.system.effective),
            sim_time=self.scheduler.now, activations=self.activations,
        )


def run_on_events(
    system: MiroConvergenceSystem,
    delays: Optional[DelayModel] = None,
    max_rounds: int = 200,
    rng: Optional[Random] = None,
    max_events: Optional[int] = None,
) -> ConvergenceResult:
    """Execute one convergence run under ``delays``.

    Called through :meth:`MiroConvergenceSystem.run_events` (which owns
    the tracing span and outcome metrics).  Chooses the synchronous
    regime exactly when the delay model cannot separate any two event
    timestamps (see module docstring); a fair round then counts as one
    event against ``max_events``.
    """
    delays = delays if delays is not None else SYNCHRONOUS
    if delays.is_synchronous:
        budget = (
            max_rounds if max_events is None else min(max_rounds, max_events)
        )
        result = system._run_rounds(budget, rng, None)
        return replace(
            result, sim_time=max(0, result.rounds - 1) * delays.mrai
        )
    run = _EventRun(system, delays, max_rounds, rng, max_events)
    with run.scheduler.sim_span("convergence"):
        return run.run_asynchronous()


def run_churn(
    system: MiroConvergenceSystem,
    injections: Sequence[TimedDelta],
    delays: Optional[DelayModel] = None,
    max_rounds: int = 200,
    rng: Optional[Random] = None,
    max_events: Optional[int] = None,
    settle_first: bool = True,
) -> ChurnResult:
    """Drive a timestamped churn scenario through the event engine.

    The system first converges undisturbed (``settle_first``); then each
    :class:`~repro.topology.delta.TimedDelta` fires at its timestamp via
    :meth:`~MiroConvergenceSystem.apply_event` — selections crossing a
    failed link are withdrawn transactionally — and the ASes the delta
    touched are activated, kicking off re-convergence while later
    injections are still pending.  Always runs the asynchronous regime
    (churn separates event timestamps even under zero delays).
    """
    delays = delays if delays is not None else SYNCHRONOUS
    ordered = sorted(injections, key=lambda timed: timed.time)
    run = _EventRun(system, delays, max_rounds, rng, max_events)
    applied: List[AppliedDelta] = []
    quiesced_after: Dict[int, float] = {}
    in_flight: List[int] = []

    def on_delta(event: Event) -> None:
        index, delta = event.payload
        before = {
            layer_key
            for layer in (system.bgp, system.effective)
            for layer_key, selection in layer.items()
            if selection is not None
        }
        record = system.apply_event(delta)
        applied.append(record)
        _INJECTIONS_TOTAL.inc()
        in_flight.append(index)
        dirty = set()
        for layer in (system.bgp, system.effective):
            for layer_key, selection in layer.items():
                if selection is None and layer_key in before:
                    dirty.add(layer_key[0])
        for a, b in record.changed_links:
            for endpoint in (a, b):
                if endpoint in system.graph:
                    dirty.add(endpoint)
        _LOG.debug("churn_injection", index=index, time=event.time,
                   dirty=len(dirty))
        for asn in sorted(dirty):
            run.request_activation(asn, event.time)

    def after_step(event: Event) -> None:
        if in_flight and not run.pending:
            # no activation is pending anywhere (the heap may still hold
            # future injections or superseded stale events): every
            # in-flight injection has been absorbed
            for index in in_flight:
                quiesced_after[index] = event.time - ordered[index].time
            in_flight.clear()

    run.scheduler.register(KIND_DELTA, on_delta)
    with run.scheduler.sim_span("churn"):
        if settle_first:
            run.seed_initial_activations()
        for index, timed in enumerate(ordered):
            run.scheduler.schedule(timed.time, KIND_DELTA, (index, timed.delta))
        quiescent = run.drain(after_step)
    recovery = tuple(sorted(quiesced_after.items()))
    return ChurnResult(
        converged=quiescent,
        sim_time=run.scheduler.now,
        activations=run.activations,
        dispatched=run.scheduler.dispatched,
        injections=len(ordered),
        final_state=dict(system.effective),
        applied=tuple(applied),
        recovery_times=recovery,
    )
