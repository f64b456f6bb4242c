"""``repro.obs`` — the unified instrumentation layer.

Three zero-dependency pillars, threaded through every layer of the stack:

* **metrics** (:mod:`repro.obs.metrics`) — a registry of counters, gauges
  and histograms with labels.  Always on: incrementing a counter costs a
  float add, so routing phases, cache events, negotiation messages and
  tunnel lifecycles are counted unconditionally and the paper's overhead
  tables (Table 5.3 state, §5 message counts) are live queries instead of
  post-hoc dict assembly.
* **tracing** (:mod:`repro.obs.tracing`) — span-based wall-clock tracing,
  disabled by default (a no-op singleton span), exporting a
  chrome://tracing JSON document when enabled (``repro ... --trace FILE``).
* **logging** (:mod:`repro.obs.log`) — structured ``event key=value``
  logging under the ``repro`` namespace (``repro ... --log-level info``,
  JSON lines with ``--log-json``).

Two derived planes ride those pillars:

* **bench** (:mod:`repro.obs.bench`) — the unified benchmark trajectory:
  one canonical record schema, one ``BENCH_<sha>.json`` per commit, and
  the ``repro bench compare`` regression gate over designated hot-path
  metrics;
* **profile** (:mod:`repro.obs.profile`) — deterministic per-phase
  attribution over the tracer's span buffer: self-vs-cumulative rollups
  and the collapsed-stack flamegraph export behind ``--flamegraph``.

The package loads metrics and tracing (the singletons below need them);
every other name binds on first use, so a process that never benchmarks
or profiles never imports those planes.

The module-level :func:`get_registry` / :func:`get_tracer` singletons are
the process-wide default plane that instrumented modules bind to at import
time.  :func:`reset` zeroes it between tests without invalidating those
module-level handles.

Process-pool propagation: :func:`worker_state` captures what a
``compute_many`` worker needs (trace enablement + epoch),
:func:`configure_worker` applies it inside the worker, and each finished
job ships :func:`drain_worker` output back for :func:`absorb_worker` to
merge into the parent registry and tracer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .._lazy import lazy_exports
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bench": (
        "BenchRecord", "BenchReporter", "CompareReport", "detect_git_sha",
        "load_trajectory",
    ),
    "profile": (
        "PhaseStat", "collapsed_stacks", "render_rollup", "rollup",
        "write_collapsed",
    ),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
        "DEFAULT_TIME_BUCKETS", "DEFAULT_SIZE_BUCKETS", "DEFAULT_BYTE_BUCKETS",
        "DEFAULT_SIM_TIME_BUCKETS",
    ),
    "tracing": ("Tracer", "Span", "NullSpan", "NULL_SPAN"),
    "log": (
        "StructLogger", "StructuredFormatter", "configure_logging",
        "get_logger",
    ),
}, own=(
    "get_registry", "get_tracer", "reset", "worker_state", "configure_worker",
    "drain_worker", "absorb_worker",
))

#: The process-wide instrumentation plane.  These objects are never
#: replaced (module-level instrument handles point into them); use
#: :func:`reset` to zero them.
_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until ``enable()`` is called)."""
    return _TRACER


def reset() -> None:
    """Zero all global metrics and drop all spans (test isolation)."""
    _REGISTRY.reset()
    _TRACER.disable()
    _TRACER.clear()


# ----------------------------------------------------------------------
# process-pool propagation
# ----------------------------------------------------------------------
def worker_state() -> Tuple[bool, float]:
    """What a pool worker must inherit: (trace enabled, trace epoch)."""
    return (_TRACER.enabled, _TRACER.epoch)


def configure_worker(state: Tuple[bool, float]) -> None:
    """Apply :func:`worker_state` inside a freshly spawned pool worker."""
    enabled, epoch = state
    _REGISTRY.reset()
    _TRACER.clear()
    if enabled:
        _TRACER.enable(epoch=epoch)
    else:
        _TRACER.disable()


def drain_worker() -> Dict[str, Any]:
    """Snapshot-and-reset this process's plane (shipped back per job)."""
    snapshot = _REGISTRY.snapshot()
    _REGISTRY.reset()
    return {"metrics": snapshot, "spans": _TRACER.drain()}


def absorb_worker(payload: Optional[Dict[str, Any]]) -> None:
    """Merge one :func:`drain_worker` payload into the parent plane."""
    if not payload:
        return
    metrics: Dict[str, Any] = payload.get("metrics") or {}
    spans: List[Dict[str, Any]] = payload.get("spans") or []
    if metrics:
        _REGISTRY.merge(metrics)
    if spans:
        _TRACER.merge(spans)
