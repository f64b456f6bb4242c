"""The fan-out pool: the dispatch rule, the shared-memory transport,
the workers and the persistent executor, in one module.

A session asks :meth:`FanoutPool.fan_out` for the trees of a miss list
and gets back ``{destination: RouteTree}`` for whatever the pool
settled — nothing at all when the rule says serial or no job came back
— and sweeps the rest itself.  Everything behind that call lives here.

Jobs carry a *spec* — ``(version, descriptor, ship_bytes)`` — instead of
snapshot bytes: the parent publishes the snapshot's three core arrays
into one POSIX shared-memory segment (:class:`SharedSnapshot`), the
descriptor naming it is a few dozen bytes, and each worker attaches the
segment once per graph version, copying the arrays out and closing its
mapping at once.  The attach cost (bytes, seconds) is observed *in the
worker* and rides back to the parent in the drained metrics/spans
payload every job result carries, so the ship-cost histograms count one
observation per worker that actually paid, not one per fan-out.
Workers never see the mutable graph.  Where shared memory is
unavailable there is no pool: the session settles serially.

:class:`FanoutPool` is internally locked: the serving plane's
single-flight leaders publish and submit from several threads at once,
and republish/teardown must not race a concurrent ensure.
:mod:`multiprocessing` is imported at the first probe, publication or
pool start, never with this module.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import weakref
from array import array
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..bgp import kernels
from ..bgp.routing import RouteTree
from ..errors import ReproError, SessionError, UnknownASError
from ..obs import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_logger,
    get_registry,
)
from ..topology.snapshot import ARRAY_TYPECODE, TopologySnapshot

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
    "Pool-worker snapshot attaches",
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
_SHARED_SEGMENTS = get_registry().counter(
    "repro_topology_shared_segments_total",
    "Shared-memory snapshot segment lifecycle events",
    labels=("event",),
)

#: ``parallel="auto"`` only spins up a pool for at least this many misses.
AUTO_PARALLEL_THRESHOLD = 16

#: Shard jobs submitted per worker per fan-out.  Several shards per
#: worker is what makes the executor's shared call queue behave as a
#: work-stealing scheduler: a worker that drains a cheap shard pulls the
#: next one instead of idling behind a straggler.
POOL_SHARD_FACTOR = 4


# ----------------------------------------------------------------------
# the transport: the parent *publishes* a snapshot's three core arrays
# into one POSIX shared-memory segment; each worker *attaches* by a
# descriptor of a few dozen bytes, copies the arrays out and closes its
# mapping at once — per-fan-out ship cost is O(1) in the topology size
# instead of O(snapshot × workers), and per graph version each worker
# copies once.
# ----------------------------------------------------------------------

#: Every field is stored in the snapshot's own typecode.
_SHM_ITEMSIZE = array(ARRAY_TYPECODE).itemsize

_SHM_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory is usable in this process (memoized).

    Probes by creating and immediately destroying a minimal segment —
    sandboxed environments can lack a usable ``/dev/shm`` even when
    :mod:`multiprocessing.shared_memory` imports fine.  On a False
    verdict there is no pool: fan-outs settle serially.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=_SHM_ITEMSIZE)
            probe.close()
            probe.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


@dataclass(frozen=True, slots=True)
class SharedSnapshotDescriptor:
    """The picklable handle a pool job ships instead of snapshot bytes.

    A few dozen bytes regardless of topology size: the segment name, the
    graph version the segment holds, and the three array lengths needed
    to split it — which is the whole point of the shared-memory fan-out.
    """

    name: str
    version: int
    lengths: Tuple[int, int, int]


class SharedSnapshot:
    """A :class:`TopologySnapshot`'s core arrays, placed in shared memory.

    :meth:`publish` copies the snapshot's three core arrays — ``asns``,
    ``cls_off``, ``cls_adj`` — in :data:`ARRAY_TYPECODE` into one
    :mod:`multiprocessing.shared_memory` segment and returns the owner's
    handle.  :meth:`attach` is the consumer side: it opens the segment
    named by a :class:`SharedSnapshotDescriptor`, copies the arrays out,
    closes its mapping and returns a snapshot built from the copies, so
    no consumer ever holds the segment open.

    :meth:`close` closes the owner's mapping and unlinks the segment
    (idempotent).  A :mod:`weakref` finalizer performs the same release
    at garbage collection, so an abandoned handle cannot leak the
    segment past process exit.
    """

    __slots__ = ("shm", "version", "lengths", "_finalizer", "__weakref__")

    def __init__(
        self, shm, version: int, lengths: Tuple[int, int, int]
    ) -> None:
        self.shm = shm
        self.version = version
        self.lengths = lengths
        self._finalizer = weakref.finalize(self, _release_segment, shm)

    @classmethod
    def publish(cls, snapshot: TopologySnapshot) -> "SharedSnapshot":
        """Copy ``snapshot``'s core arrays into a fresh shared segment."""
        from multiprocessing import shared_memory

        fields = (snapshot.asns, snapshot.cls_off, snapshot.cls_adj)
        lengths = tuple(len(field) for field in fields)
        total = max(sum(lengths) * _SHM_ITEMSIZE, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            offset = 0
            for field in fields:
                payload = array(ARRAY_TYPECODE, field).tobytes()
                shm.buf[offset:offset + len(payload)] = payload
                offset += len(payload)
        except Exception:
            _release_segment(shm)
            raise
        _SHARED_SEGMENTS.labels(event="publish").inc()
        return cls(shm, snapshot.version, lengths)

    @staticmethod
    def attach(descriptor: SharedSnapshotDescriptor) -> TopologySnapshot:
        """The snapshot published under ``descriptor``, copied out.

        The mapping is closed before this returns: the snapshot turns
        every array into tuples at construction, so nothing would read a
        view into it.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.name)
        words = array(ARRAY_TYPECODE)
        try:
            words.frombytes(shm.buf[:sum(descriptor.lengths) * _SHM_ITEMSIZE])
        finally:
            shm.close()
        _SHARED_SEGMENTS.labels(event="attach").inc()
        asns, offsets, _ = descriptor.lengths
        return TopologySnapshot(
            descriptor.version, tuple(words[:asns]),
            words[asns:asns + offsets], words[asns + offsets:],
        )

    def descriptor(self) -> SharedSnapshotDescriptor:
        return SharedSnapshotDescriptor(
            self.shm.name, self.version, self.lengths
        )

    @property
    def nbytes(self) -> int:
        """Size of the shared segment (the published copy, not the ship)."""
        return self.shm.size

    def close(self) -> None:
        """Close the mapping and unlink the segment; idempotent.

        Consumers never keep a mapping, so once the name is gone the
        segment is gone.
        """
        if self._finalizer.alive:
            self._finalizer()
            _SHARED_SEGMENTS.labels(event="unlink").inc()


def _release_segment(shm) -> None:
    """Close and unlink an owner's segment; a name already gone is fine."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------

#: Job spec: (graph version, shared-segment descriptor, ship bytes).
PoolSpec = Tuple[int, SharedSnapshotDescriptor, int]

# Per-worker-process state.  Under the default fork start method these
# globals are inherited from the parent, so the initializer resets them.
_WORKER_SNAPSHOTS: Dict[int, TopologySnapshot] = {}
_WORKER_OBS: Optional[Tuple[bool, float]] = None


def _pool_init(obs_state: Tuple[bool, float]) -> None:
    """Worker bootstrap: reset inherited state, adopt the parent's obs.

    Nothing topology-sized ships here; workers attach lazily from the
    per-job descriptor.
    """
    global _WORKER_OBS
    _WORKER_SNAPSHOTS.clear()
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
    the parent); every later job on the same version finds the snapshot
    already built.  Older versions are evicted on advance.
    """
    version, descriptor, ship_bytes = spec
    snapshot = _WORKER_SNAPSHOTS.get(version)
    if snapshot is not None:
        return snapshot
    start = time.perf_counter()
    with obs.get_tracer().span("pool_attach", version=version):
        snapshot = SharedSnapshot.attach(descriptor)
    _WORKER_SNAPSHOTS.clear()
    _WORKER_SNAPSHOTS[version] = snapshot
    _POOL_ATTACH_SECONDS.observe(time.perf_counter() - start)
    _POOL_ATTACHES.inc()
    _POOL_SHIP_BYTES.observe(ship_bytes)
    return snapshot


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


def ProcessPoolExecutor(**kwargs) -> Executor:
    """Start the pool's :class:`concurrent.futures.ProcessPoolExecutor`.

    Imported at the first pool start, not with this module: it brings
    :mod:`multiprocessing` along, which a serial session never uses.
    Tests replace this name to inject faults.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(**kwargs)


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------
class FanoutPool:
    """A session's dispatch rule and persistent, version-keyed workers.

    ``parallel`` is the rule :meth:`fan_out` applies to a miss list:

    * ``"auto"`` — use the workers when shared memory is available, the
      machine has more than one core, and at least
      :data:`AUTO_PARALLEL_THRESHOLD` destinations miss;
    * ``True`` — use them whenever more than one destination misses
      (still serial when shared memory is unavailable or the pool
      cannot start);
    * ``False`` — never.

    Owns one :class:`~concurrent.futures.ProcessPoolExecutor` that
    survives across fan-outs, plus the currently published
    :class:`SharedSnapshot` segment.  :meth:`ensure` republishes only
    when the graph version moves: the snapshot is copied into a fresh
    segment, the previous segment is closed and unlinked (workers hold
    no mapping of it: they copied it out), and jobs carry the O(1)
    descriptor; the executor itself is reused untouched.

    A broken executor (killed worker) is detected and rebuilt on the
    next ensure, so one fault does not wedge the session.  All lifecycle
    transitions run under the pool's own lock so concurrent single-flight
    leaders cannot race a republish against a teardown; the lock is
    never held while waiting on job results.
    """

    def __init__(
        self,
        parallel: Union[bool, str] = "auto",
        max_workers: Optional[int] = None,
    ) -> None:
        if parallel not in (True, False, "auto"):
            raise SessionError(
                f"parallel must be True, False, or 'auto', got {parallel!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise SessionError(f"max_workers must be >= 1, got {max_workers}")
        self.parallel = parallel
        self.max_workers = max_workers
        self._lock = threading.RLock()
        self._executor: Optional[Executor] = None
        self._shared: Optional[SharedSnapshot] = None
        # set last on publication and dropped with the executor or the
        # segment, so a spec always names a live one of each
        self._spec: Optional[PoolSpec] = None

    @property
    def workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

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

    def executor(self) -> Optional[Executor]:
        return self._executor

    def info(self) -> Dict[str, object]:
        """JSON-ready view of the pool, for ``repro stats``."""
        return {
            "parallel": self.parallel
            if isinstance(self.parallel, str) else bool(self.parallel),
            "max_workers": self.workers,
            "shard_factor": POOL_SHARD_FACTOR,
            "shared_memory": shared_memory_available(),
            "published_version": self.version,
            "shared_bytes": self.shared_bytes,
            "ship_bytes": self.ship_bytes,
            "alive": self.alive,
        }

    def _wanted(self, n_misses: int) -> bool:
        """The dispatch rule.  A lone miss (every ``compute``) settles in
        process: there is nothing to fan out."""
        if self.parallel is False or n_misses < 2:
            return False
        if self.parallel == "auto" and (
            (os.cpu_count() or 1) < 2 or n_misses < AUTO_PARALLEL_THRESHOLD
        ):
            return False
        return shared_memory_available()

    def fan_out(
        self, snapshot: TopologySnapshot, misses: List[int]
    ) -> Dict[int, RouteTree]:
        """The trees of ``misses`` the workers settled on ``snapshot``.

        Empty when the rule says serial or no job succeeded; the caller
        settles whatever is missing.  Misses are sharded into contiguous
        destination ranges — several per worker, pulled from the
        executor's shared call queue, so an idle worker steals the next
        range instead of waiting out a straggler.  A job that fails on
        pool infrastructure (spawn refused, broken worker, pickling
        quirk) is simply left out, while every *successful* job's
        drained metrics/spans payload is absorbed exactly once — a
        failed job ships no payload, so nothing is lost with it and
        nothing is double-counted when its tables are recomputed in the
        parent.  Library errors propagate unchanged.
        """
        trees: Dict[int, RouteTree] = {}
        if not self._wanted(len(misses)):
            return trees
        try:
            executor, spec = self.ensure(snapshot)
        except Exception:
            return trees
        # workers settle on the parent's active kernel
        kernel = kernels.resolve()
        obs_state = obs.worker_state()
        futures = []
        try:
            for shard in self.shard(misses):
                _POOL_SHARD_SIZE.observe(len(shard))
                futures.append((shard, executor.submit(
                    _pool_settle_shard, (spec, obs_state, kernel, shard),
                )))
        except Exception:
            pass  # the shards that went out still count
        for shard, future in futures:
            try:
                dests, packed, payload = future.result()
            except ReproError:
                raise
            except Exception:
                _LOG.warning(
                    "pool_job_failed", destinations=len(shard),
                    first=shard[0],
                )
                continue
            obs.absorb_worker(payload)
            if packed is not None:
                # None: the worker could not settle this shard in index
                # space; the caller's serial sweep picks it up
                trees.update(zip(dests, _decode_shard(snapshot, packed)))
        return trees

    def ensure(
        self, snapshot: TopologySnapshot
    ) -> Tuple[Executor, PoolSpec]:
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
        """Split ``misses`` into contiguous destination ranges:
        :data:`POOL_SHARD_FACTOR` per worker, never more than the miss
        count — each range becomes one work-queue job."""
        count = max(1, min(self.workers * POOL_SHARD_FACTOR, len(misses)))
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
