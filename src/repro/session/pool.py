"""Process-pool plumbing: workers, the shared-memory transport, and
the persistent pool.

Jobs carry a *spec* — ``(version, descriptor, ship_bytes)`` — instead of
snapshot bytes: the descriptor is an O(1)
:class:`~repro.topology.snapshot.SharedSnapshotDescriptor` and the worker
attaches the published segment zero-copy, once per graph version.  The
attach cost (bytes, seconds) is observed *in the worker* and rides back
to the parent in the drained metrics/spans payload every job result
carries, so the ship-cost histograms count one observation per worker
that actually paid, not one per fan-out.  Workers never see the mutable
graph.  Where shared memory is unavailable there is no pool: the
session settles serially.

:class:`_FanoutPool` is internally locked: the serving plane's
single-flight leaders publish and submit from several threads at once,
and republish/teardown must not race a concurrent ensure.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..bgp import kernels
from ..bgp.routing import RouteTree
from ..errors import SessionError, UnknownASError
from ..obs import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_logger,
    get_registry,
)
from ..topology.snapshot import (
    SharedSnapshot,
    SharedSnapshotDescriptor,
    TopologySnapshot,
    shared_memory_available,
)

_LOG = get_logger("session")

_POOL_SHIP_BYTES = get_registry().histogram(
    "repro_session_pool_ship_bytes",
    "Snapshot payload bytes actually shipped per pool-worker attach "
    "(the shared-memory descriptor)",
    buckets=DEFAULT_BYTE_BUCKETS,
)
_POOL_SHIP_SECONDS = get_registry().histogram(
    "repro_session_pool_ship_seconds",
    "Wall-clock seconds publishing the snapshot payload per graph version",
)
_POOL_ATTACH_SECONDS = get_registry().histogram(
    "repro_session_pool_attach_seconds",
    "Worker-side seconds attaching and reconstructing the shipped snapshot",
)
_POOL_ATTACHES = get_registry().counter(
    "repro_session_pool_attaches_total",
    "Pool-worker snapshot attaches, by transport mode",
    labels=("mode",),
)
_POOL_SHARD_SIZE = get_registry().histogram(
    "repro_session_pool_shard_destinations",
    "Destinations per sharded pool job",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_SHARED_SNAPSHOT_BYTES = get_registry().histogram(
    "repro_session_shared_snapshot_bytes",
    "Shared-memory segment bytes published per graph version",
    buckets=DEFAULT_BYTE_BUCKETS,
)

#: Default shard jobs submitted per worker per fan-out.  Several shards
#: per worker is what makes the executor's shared call queue behave as a
#: work-stealing scheduler: a worker that drains a cheap shard pulls the
#: next one instead of idling behind a straggler.
POOL_SHARD_FACTOR = 4


#: Job spec: (graph version, shared-segment descriptor, ship bytes).
PoolSpec = Tuple[int, SharedSnapshotDescriptor, int]

# Per-worker-process state.  Under the default fork start method these
# globals are inherited from the parent, so the initializer resets them.
_WORKER_SNAPSHOTS: Dict[int, TopologySnapshot] = {}
_WORKER_SHARED: Dict[int, SharedSnapshot] = {}
_WORKER_OBS: Optional[Tuple[bool, float]] = None


def _pool_init(obs_state: Tuple[bool, float]) -> None:
    """Worker bootstrap: reset inherited state, adopt the parent's obs.

    Nothing topology-sized ships here; workers attach lazily from the
    per-job descriptor.
    """
    global _WORKER_OBS
    _WORKER_SNAPSHOTS.clear()
    _WORKER_SHARED.clear()
    _WORKER_OBS = obs_state
    obs.configure_worker(obs_state)


def _worker_configure_obs(obs_state: Tuple[bool, float]) -> None:
    """Adopt a changed parent observability state (tracer toggled/reset)."""
    global _WORKER_OBS
    if obs_state != _WORKER_OBS:
        obs.configure_worker(obs_state)
        _WORKER_OBS = obs_state


def _worker_snapshot(spec: PoolSpec) -> TopologySnapshot:
    """The worker's snapshot for ``spec``'s graph version, attached once.

    The version-keyed cache is what makes ship cost O(1) per graph
    version: the first job naming a version pays the attach (and records
    it — bytes, seconds — in the worker's metrics, which drain back to
    the parent); every later job on the same version finds the snapshot,
    and its lazy accessor caches, already warm.  Older versions are
    evicted on advance, releasing their shared mappings.
    """
    version, descriptor, ship_bytes = spec
    snapshot = _WORKER_SNAPSHOTS.get(version)
    if snapshot is not None:
        return snapshot
    start = time.perf_counter()
    with obs.get_tracer().span("pool_attach", version=version, mode="shm"):
        shared = SharedSnapshot.attach(descriptor)
    for old in list(_WORKER_SNAPSHOTS):
        del _WORKER_SNAPSHOTS[old]
        _WORKER_SHARED.pop(old).close()
    _WORKER_SNAPSHOTS[version] = shared.snapshot
    _WORKER_SHARED[version] = shared
    _POOL_ATTACH_SECONDS.observe(time.perf_counter() - start)
    _POOL_ATTACHES.labels(mode="shm").inc()
    _POOL_SHIP_BYTES.observe(ship_bytes)
    return shared.snapshot


# A shard's settled trees travel back to the parent as one int64
# buffer: per table ``peer_from, provider_from, len(order)``, then
# ``order``, then ``parent`` (one entry per snapshot node).  One bytes
# object pickles as a memcpy, so result-return cost does not scale with
# Python object overhead, and the parent rebuilds each
# :class:`~repro.bgp.routing.RouteTree` as two array copies over the
# snapshot it published — no ``Route`` exists on either side until
# something reads the table as a dict.
def _encode_shard(
    destinations: Tuple[int, ...], swept: Dict[int, RouteTree]
) -> bytes:
    """Pack settled trees for the wire; inverse of :func:`_decode_shard`."""
    buf = array("q")
    for destination in destinations:
        tree = swept[destination]
        buf.extend((tree.peer_from, tree.provider_from, len(tree.order)))
        buf.extend(tree.order)
        buf.extend(tree.parent)
    return buf.tobytes()


def _decode_shard(snapshot: TopologySnapshot, blob: bytes) -> List[RouteTree]:
    """The shard's trees, rebuilt on the snapshot it settled."""
    words = memoryview(blob).cast("q")
    n = snapshot.n
    trees = []
    at = 0
    while at < len(words):
        peer_from, provider_from, routed = words[at:at + 3]
        at += 3
        parent_at = at + routed
        trees.append(RouteTree(
            snapshot.asns, snapshot.index,
            array("q", words[at:parent_at].tobytes()),
            array("q", words[parent_at:parent_at + n].tobytes()),
            peer_from, provider_from,
        ))
        at = parent_at + n
    return trees


def _pool_settle_shard(
    job: Tuple[PoolSpec, Tuple[bool, float], str, Tuple[int, ...]],
) -> Tuple[Tuple[int, ...], Optional[bytes], Dict[str, object]]:
    """Settle one shard — a contiguous destination range — in a worker.

    The whole shard goes through one :func:`repro.bgp.kernels.settle_many`
    call, so the batched kernel amortizes its wave setup across the range
    exactly as it would in the parent's serial path (same call, same
    tables, byte for byte).  A kernel unavailable here falls back to
    scalar, as it would in the parent.
    """
    spec, obs_state, kernel, destinations = job
    _worker_configure_obs(obs_state)
    try:
        snapshot = _worker_snapshot(spec)
        swept = kernels.settle_many(snapshot, destinations, kernel=kernel)
        packed: Optional[bytes] = _encode_shard(destinations, swept)
    except UnknownASError:
        # a destination the parent will reject anyway: hand the shard
        # back for the parent's serial path, which raises the error
        packed = None
    # ship only the packed trees back; the parent rebuilds them on its
    # own snapshot and graph (no graph on this side at all)
    return destinations, packed, obs.drain_worker()


class _FanoutPool:
    """The session's persistent, version-keyed worker pool.

    Owns one :class:`~concurrent.futures.ProcessPoolExecutor` that
    survives across :meth:`SimulationSession.compute_many` calls — the
    per-call spawn/teardown churn of the old design is gone — plus the
    currently published :class:`SharedSnapshot` segment.  :meth:`ensure`
    republishes only when the graph version moves: the snapshot is
    copied into a fresh segment, the previous segment is released
    (attached workers keep their mappings until they advance), and jobs
    carry the O(1) descriptor; the executor itself is reused untouched.

    A broken executor (killed worker) is detected and rebuilt on the
    next ensure, so one fault does not wedge the session.  All lifecycle
    transitions run under the pool's own lock so concurrent single-flight
    leaders cannot race a republish against a teardown; the lock is
    never held while waiting on job results.
    """

    def __init__(
        self, max_workers: Optional[int] = None, shards: Optional[int] = None
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SessionError(f"max_workers must be >= 1, got {max_workers}")
        if shards is not None and shards < 1:
            raise SessionError(f"shards must be >= 1, got {shards}")
        self.max_workers = max_workers
        self.shards = shards
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shared: Optional[SharedSnapshot] = None
        # set last on publication and dropped with the executor or the
        # segment, so a spec always names a live one of each
        self._spec: Optional[PoolSpec] = None

    @property
    def workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    @property
    def shared_memory(self) -> bool:
        """Whether the one transport to the workers exists here."""
        return shared_memory_available()

    @property
    def mode(self) -> Optional[str]:
        """Transport of the current publication: shm, or None."""
        return "shm" if self._spec is not None else None

    @property
    def version(self) -> Optional[int]:
        return self._spec[0] if self._spec is not None else None

    @property
    def alive(self) -> bool:
        return self._executor is not None and not getattr(
            self._executor, "_broken", False
        )

    @property
    def shared_bytes(self) -> Optional[int]:
        return self._shared.nbytes if self._shared is not None else None

    @property
    def ship_bytes(self) -> Optional[int]:
        return self._spec[2] if self._spec is not None else None

    def executor(self) -> Optional[ProcessPoolExecutor]:
        return self._executor

    def ensure(
        self, snapshot: TopologySnapshot
    ) -> Tuple[ProcessPoolExecutor, PoolSpec]:
        """Publish ``snapshot`` (if its version is new) and return the
        live executor plus the job spec workers attach from.

        Raises when shared memory is unavailable, the segment cannot be
        published or the executor cannot start — the caller settles
        serially instead.
        """
        with self._lock:
            if self._executor is not None and not self.alive:
                _LOG.warning("pool_broken_rebuild")
                self._shutdown_executor()
            if self._spec is not None and self._spec[0] == snapshot.version:
                return self._executor, self._spec
            if not shared_memory_available():
                raise SessionError(
                    "shared memory is unavailable; no transport can reach "
                    "pool workers"
                )
            start = time.perf_counter()
            shared = SharedSnapshot.publish(snapshot)
            self._release_shared()
            self._shared = shared
            descriptor = shared.descriptor()
            _SHARED_SNAPSHOT_BYTES.observe(shared.nbytes)
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_init,
                    initargs=(obs.worker_state(),),
                )
            self._spec = (
                snapshot.version, descriptor, len(pickle.dumps(descriptor))
            )
            _POOL_SHIP_SECONDS.observe(time.perf_counter() - start)
            return self._executor, self._spec

    def shard(self, misses: List[int]) -> List[Tuple[int, ...]]:
        """Split ``misses`` into contiguous destination ranges.

        Range count is the explicit ``shards`` override, else
        :data:`POOL_SHARD_FACTOR` per worker, never more than the miss
        count — each range becomes one work-queue job.
        """
        count = self.shards or self.workers * POOL_SHARD_FACTOR
        count = max(1, min(count, len(misses)))
        size, extra = divmod(len(misses), count)
        out: List[Tuple[int, ...]] = []
        lo = 0
        for i in range(count):
            hi = lo + size + (1 if i < extra else 0)
            out.append(tuple(misses[lo:hi]))
            lo = hi
        return out

    def _shutdown_executor(self, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
        self._spec = None

    def _release_shared(self) -> None:
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        self._spec = None

    def close(self, wait: bool = False) -> None:
        """Shut the executor down and release the published segment.

        The pool is reusable afterwards — the next :meth:`ensure`
        republishes and respawns — so closing between workloads only
        costs the warm state.
        """
        with self._lock:
            self._shutdown_executor(wait=wait)
            self._release_shared()
