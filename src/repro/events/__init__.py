"""``repro.events`` — deterministic discrete-event simulation substrate.

A seeded heap of timestamped events with a stable ``(time, seq)``
tie-break, kind-based callback registration, and simulated-clock spans
(:mod:`repro.events.engine`), plus the timing policy the event-driven
convergence simulator runs on — MRAI timers, per-link propagation
delays, jittered activations (:mod:`repro.events.timers`).

The convergence package drives this engine
(:meth:`repro.convergence.MiroConvergenceSystem.run_events`); the churn
experiments (:mod:`repro.experiments.churn`) inject timestamped
:class:`~repro.topology.delta.TopologyDelta` sequences through it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": ("Event", "EventScheduler"),
    "timers": ("MraiTimer", "DelayModel", "SYNCHRONOUS"),
})
