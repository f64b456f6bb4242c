"""Shared simulation session: cached, parallel, concurrency-safe routing.

Every evaluation in the paper (Tables 5.2/5.3, Figs. 5.2–5.7) rests on
thousands of per-destination stable-state route computations, and the
serving plane (:mod:`repro.service`) adds a second demanding caller:
concurrent route/tunnel queries.  This package is the layer both stand
on, split along its concerns:

* :mod:`repro.session.cache` — cache keys, the registry counters every
  session event moves, and the version-keyed LRU
  :class:`RouteTableCache` with its derivation-parent index; un-pinned
  trees only (pinned tables stay with their caller).
* :mod:`repro.session.pool` — the persistent, version-keyed process
  pool: shared-memory snapshot publication, packed route-tree transport,
  destination-range sharding.
* :mod:`repro.session.core` — :class:`SessionCore`, the one session
  class (:data:`SimulationSession` names it too): single lock, one
  single-flight fill path shared by ``compute`` and ``compute_many``,
  and the writer gate (:meth:`SessionCore.mutate`).

Only the public names are re-exported here; instruments, worker entry
points and the pool's infrastructure (``ProcessPoolExecutor``,
``shared_memory_available``) live in — and are patched on — the
submodule that uses them.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core": (
        "AUTO_PARALLEL_THRESHOLD", "SessionCore", "SimulationSession",
        "ensure_session",
    ),
    "pool": ("POOL_SHARD_FACTOR",),
    "cache": ("RouteTableCache",),
})
