"""SessionCore: the concurrency-safe route-computation engine.

The session stack's state machine: one class serves the single-threaded
callers (CLI, experiment samplers, traffic models, the forwarder, the
oracle) and the serving plane, which drives it from many threads
(asyncio executor workers, the event loop, background churn) at once.
:data:`SimulationSession` is another name for it.

Lock discipline — the rules :mod:`tools.check_locks` enforces by AST:

* **One lock.**  A single :class:`threading.Condition` guards the LRU
  cache, the derivation index, the event tally, and the in-flight
  fill registry.  There is no lock ordering problem because there is
  nothing to order (the fan-out pool's internal lock is leaf-level:
  nothing is acquired while holding it).
* **Nothing slow under it.**  Settling (``recompute_routes`` /
  ``kernels.settle_many``), the affected-set
  walk of a derivation (``affected_ases``), deriving the
  topology snapshot a settle runs on (``graph.snapshot()``), expanding
  a settled tree into its route dict (``RouteTree.materialize``), pool
  publication (``pool.ensure``) and job submission
  (``executor.submit``) all run with the lock *released*.  Under the
  lock the core only classifies lookups, moves OrderedDict entries, and
  bumps counters — microsecond work, which is what lets a serving event
  loop take the fast hit path thousands of times per second without
  convoying.
* **Single-flight fills.**  A miss registers a :class:`_Flight` keyed
  on the full :data:`~repro.session.cache.CacheKey`; concurrent misses
  on the same key block on the flight instead of settling the same
  destination N times.  Leaders always resolve their own flights
  *before* waiting on anyone else's, so cross-thread fill graphs cannot
  deadlock.  ``repro_session_cache_events_total{event="fill"}`` moves
  once per table a leader actually settled — the serving plane's
  coalescing proof — and ``event="coalesced"`` once per lookup that
  waited instead.
* **Writers drain fills.**  :meth:`mutate` applies a topology change
  only once no fill is in flight (``_fills_active`` is the condition
  variable's predicate), so settling never observes a half-applied
  delta and the version embedded in a flight key cannot go stale
  mid-fill.  Before releasing the lock it prunes the cache and
  re-stamps the trees a link failure left intact: per cached tree one
  probe per failed link (``cut_tree_edges``), never ``affected_ases``,
  whose walk of a cut tree is O(n).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .. import obs
from ..bgp import kernels
from ..bgp.routing import RoutingTable, affected_ases, recompute_routes
from ..errors import ReproError, SessionError
from ..obs import get_logger, get_tracer
from ..topology.graph import ASGraph
from ..topology.snapshot import TopologySnapshot
from .cache import COUNTERS, CacheKey, RouteTableCache
from .pool import (
    _POOL_SHARD_SIZE,
    POOL_SHARD_FACTOR,
    _decode_shard,
    _FanoutPool,
    _pool_settle_shard,
)

_TRACER = get_tracer()
_LOG = get_logger("session")

#: ``parallel="auto"`` only spins up a pool for at least this many misses.
AUTO_PARALLEL_THRESHOLD = 16


class _Flight:
    """One in-flight cache fill: followers block on it, the leader
    publishes the settled table (or the settling error) through it."""

    __slots__ = ("event", "table", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.table: Optional[RoutingTable] = None
        self.error: Optional[BaseException] = None


#: A captured derivation seed: (ancestor table, changed-link set).
_Parent = Optional[Tuple[RoutingTable, FrozenSet[Tuple[int, int]]]]


class SessionCore:
    """Thread-safe cached route computation over one :class:`ASGraph`.

    One session threads through a whole evaluation run (CLI command,
    figure regeneration, forwarder bring-up, a serving daemon) so every
    layer draws from the same cache and the same telemetry counters.
    It owns the LRU table cache, the per-session event tally, and the
    persistent fan-out pool; every public method is safe to call from
    any thread.  See the module docstring for the lock discipline.

    ``parallel`` picks the :meth:`compute_many` dispatch policy:

    * ``"auto"`` (default) — use the worker pool when shared memory is
      available, the machine has more than one core, and at least
      :data:`AUTO_PARALLEL_THRESHOLD` destinations miss the cache;
    * ``True`` — try the pool whenever more than one destination misses
      (still settles serially when shared memory is unavailable or the
      pool cannot start);
    * ``False`` — always compute serially.

    The pool itself is *persistent*: workers spawn on the first pooled
    fan-out and are reused by every later one, with the snapshot
    republished only when the graph version moves.  ``shards``
    overrides how many destination ranges a miss list is split into.
    Sessions are context managers; :meth:`close` (or ``with``) shuts
    the workers down deterministically, and garbage collection of an
    unclosed session does the same.
    """

    def __init__(
        self,
        graph: ASGraph,
        max_cached_tables: int = 1024,
        parallel: Union[bool, str] = "auto",
        max_workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> None:
        if parallel not in (True, False, "auto"):
            raise SessionError(
                f"parallel must be True, False, or 'auto', got {parallel!r}"
            )
        self._graph = graph
        self._cache = RouteTableCache(maxsize=max_cached_tables)
        # this session's count of every COUNTERS event, plus three facts
        # with no counter twin; guarded by the lock, read through stats
        self._tally: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._tally.update(affected=0, compute_seconds=0.0,
                           last_fanout_seconds=0.0)
        self._parallel = parallel
        self._pool = _FanoutPool(max_workers=max_workers, shards=shards)
        self._seen_version = graph.version
        self._lock = threading.Condition(threading.Lock())
        self._flights: Dict[CacheKey, _Flight] = {}
        self._fills_active = 0
        self._finalizer = weakref.finalize(self, self._pool.close)

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def stats(self) -> Dict[str, float]:
        """Routing-cost telemetry: a fresh, JSON-ready snapshot of the
        session's tally.  Cumulative over the session's lifetime; a
        *fan-out* is one :meth:`compute_many` call, and the durations are
        ``time.perf_counter()`` deltas."""
        with self._lock:
            tally = self._tally
            hits, misses, derived = tally["hit"], tally["miss"], tally["derive"]
            return {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "tables_computed": tally["fill"] - derived,
                "tables_derived": derived,
                "mean_affected_size":
                    tally["affected"] / derived if derived else 0.0,
                "auto_pruned": tally["prune"],
                "fanouts": tally["serial"] + tally["parallel"],
                "parallel_fanouts": tally["parallel"],
                "coalesced": tally["coalesced"],
                "last_fanout_seconds": tally["last_fanout_seconds"],
                "total_compute_seconds": tally["compute_seconds"],
                "peak_cached_tables": self._cache.peak_size,
                "evictions": tally["evict"],
            }

    @property
    def tables_cached(self) -> int:
        return len(self._cache)

    def pool_info(self) -> Dict[str, object]:
        """JSON-ready view of the fan-out pool, for ``repro stats``."""
        pool = self._pool
        return {
            "parallel": self._parallel
            if isinstance(self._parallel, str) else bool(self._parallel),
            "max_workers": pool.workers,
            "shards": pool.shards,
            "shard_factor": POOL_SHARD_FACTOR,
            "shared_memory": pool.shared_memory,
            "mode": pool.mode,
            "published_version": pool.version,
            "shared_bytes": pool.shared_bytes,
            "ship_bytes": pool.ship_bytes,
            "alive": pool.alive,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Shut down the persistent worker pool and release shared memory.

        Idempotent, callable with fills in flight (a cancelled pool job
        just falls back to the serial path), and the session stays
        usable — a later pooled fan-out respawns workers.  ``wait``
        blocks until worker processes have exited, which is what "no
        children survive" tests and clean interpreter shutdown want.
        """
        self._pool.close(wait=wait)

    def __enter__(self) -> "SessionCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # mutation gate
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[[ASGraph], object]) -> object:
        """Apply ``fn(graph)`` once no cache fill is in flight.

        The single-writer gate of the serving plane: settling threads
        hold ``_fills_active`` non-zero for the duration of a fill, so a
        topology change (churn delta, link failure injection) waits for
        the in-flight tables to land and no fill ever spans a version
        boundary.  Runs ``fn`` under the session lock — keep it to graph
        mutation (delta apply/revert), never settling.  Then the cache
        is pruned and, after a pure link failure over an unchanged AS
        set, re-stamped (:meth:`RouteTableCache.restamp`): only the
        destinations whose tree a failed link cut miss afterwards.
        """
        with self._lock:
            while self._fills_active:
                self._lock.wait()
            graph = self._graph
            version, size = graph.version, len(graph)
            result = fn(graph)
            self._auto_prune_locked()
            changed = graph.changed_links_since(version)
            if changed and len(graph) == size and not any(
                graph.has_link(a, b) for a, b in changed
            ):
                self._count_locked(
                    "restamp",
                    self._cache.restamp(version, graph.version, changed))
            return result

    # ------------------------------------------------------------------
    # lock-held helpers (fast, never settle)
    # ------------------------------------------------------------------
    def _count_locked(self, event: str, n: int = 1) -> None:
        """Count ``n`` of ``event`` in this session's tally and in the
        registry: the one call each event site makes."""
        self._tally[event] += n
        COUNTERS[event].inc(n)

    def _put_locked(self, key: CacheKey, table: RoutingTable) -> None:
        self._count_locked("evict", self._cache.put(key, table))

    def _auto_prune_locked(self) -> None:
        """Reclaim superseded cache entries once per version advance.

        Runs lazily at the next lookup after the graph's version moved,
        keeping only the nearest derivation parent per destination (see
        :meth:`RouteTableCache.prune_superseded`).  A revert that
        restores an earlier version also counts as an advance — entries
        for the abandoned branch are then the stale ones.
        """
        if self._graph.version == self._seen_version:
            return
        self._seen_version = self._graph.version
        pruned = self._cache.prune_superseded(self._graph)
        if pruned:
            self._count_locked("prune", pruned)
            _LOG.debug("cache_auto_prune", pruned=pruned,
                       version=self._graph.version)

    def _hit_locked(self, key: CacheKey) -> Optional[RoutingTable]:
        """The cached table for ``key``, counted as a hit, or None."""
        cached = self._cache.get(key)
        if cached is not None:
            self._count_locked("hit")
        return cached

    def _resolve_flights_locked(
        self,
        flights: List[Tuple[CacheKey, _Flight]],
        tables: Optional[Dict[CacheKey, RoutingTable]],
        error: Optional[BaseException],
    ) -> None:
        """Publish results (or the error) to followers and drop the
        flights; wakes any writer waiting in :meth:`mutate`."""
        for key, flight in flights:
            self._flights.pop(key, None)
            if tables is not None:
                flight.table = tables.get(key)
            flight.error = error
            flight.event.set()
        self._fills_active -= 1
        self._lock.notify_all()

    # ------------------------------------------------------------------
    # single-table interface
    # ------------------------------------------------------------------
    def compute(self, destination: int) -> RoutingTable:
        """Cached, single-flight equivalent of
        :func:`~repro.bgp.routing.compute_routes` (un-pinned: a pinned
        what-if table is ``compute_routes``' alone, never cached).

        A hit is a dict read under the lock; a miss is the fill
        :meth:`compute_many` runs, for one destination — derived from
        the nearest cached pre-mutation table whenever possible, and
        shared with concurrent misses on the same key.
        """
        table = self.peek(destination)
        if table is None:
            table = self._fill([destination])[0][destination]
        return table

    def peek(self, destination: int) -> Optional[RoutingTable]:
        """Cached table for the current graph version, or None.

        Never settles and never blocks on another thread's fill — the
        serving plane's event-loop fast path: a hit is a dict read under
        the lock, a miss returns immediately so the caller can queue the
        destination for batched admission instead of stalling the loop.
        A hit counts toward :attr:`stats`; a miss does not (the batch
        fill that follows will record it).
        """
        with self._lock:
            self._auto_prune_locked()
            return self._hit_locked((self._graph.version, destination))

    def holds(self, destination: int, table: RoutingTable) -> bool:
        """Whether ``table`` is the cached one for ``destination`` at the
        current graph version — a staleness check, not a lookup: it
        counts nothing and leaves the LRU order alone."""
        with self._lock:
            return self._cache.holds(
                (self._graph.version, destination), table
            )

    def adopt(self, table: RoutingTable) -> None:
        """Insert an externally computed table for the current graph state.

        Lets callers that already hold a :class:`RoutingTable` (e.g. the
        data-plane forwarder's constructor arguments) seed the cache
        instead of recomputing.  Rejects tables built on a different
        graph, and dict-backed ones (pinned or reference): the cache holds
        settled trees only.
        """
        if table.graph is not self._graph:
            raise SessionError(
                "cannot adopt a routing table computed on a different graph"
            )
        if table._tree is None:
            raise SessionError("cannot adopt a dict-backed routing table")
        with self._lock:
            self._put_locked((self._graph.version, table.destination), table)

    # ------------------------------------------------------------------
    # fan-out interface
    # ------------------------------------------------------------------
    def compute_many(self, destinations: Iterable[int]) -> Dict[int, RoutingTable]:
        """Routing tables for many destinations, cache-first.

        Returns ``{destination: table}`` in the order destinations were
        given (duplicates collapsed), regardless of which worker
        finished first.  Destinations another thread is already filling
        are joined, not recomputed; the rest become this call's own
        single batch fill, dispatched per the session's ``parallel``.
        """
        ordered = list(dict.fromkeys(destinations))
        start = time.perf_counter()
        tables, used_pool = self._fill(ordered)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._count_locked("parallel" if used_pool else "serial")
            self._tally["last_fanout_seconds"] = elapsed
        return {destination: tables[destination] for destination in ordered}

    def _fill(self, ordered: List[int]) -> Tuple[Dict[int, RoutingTable], bool]:
        """The one lookup-and-fill path; returns ``(tables, used_pool)``.

        Classifies ``ordered`` (distinct destinations) under the lock
        into hits, flights to join and this call's own misses; settles
        the misses as one batch with the lock released; publishes them;
        then waits on the joined flights.
        """
        with _TRACER.span("compute_many", destinations=len(ordered)) as span:
            tables: Dict[int, RoutingTable] = {}
            followers: List[Tuple[int, _Flight]] = []
            leaders: List[int] = []
            flights: List[Tuple[CacheKey, _Flight]] = []
            parents: Dict[int, _Parent] = {}
            with self._lock:
                self._auto_prune_locked()
                version = self._graph.version
                for destination in ordered:
                    key = (version, destination)
                    cached = self._hit_locked(key)
                    if cached is not None:
                        tables[destination] = cached
                        continue
                    flight = self._flights.get(key)
                    if flight is not None:
                        self._count_locked("coalesced")
                        followers.append((destination, flight))
                        continue
                    self._count_locked("miss")
                    flight = _Flight()
                    self._flights[key] = flight
                    flights.append((key, flight))
                    leaders.append(destination)
                    parents[destination] = self._cache.derivation_parent(
                        destination
                    )
                if leaders:
                    # a writer waits on this in mutate(), so the graph —
                    # and the snapshot _fill_batch derives from it with
                    # the lock released — stays at the version the keys
                    # embed until the flights resolve
                    self._fills_active += 1
            span.set(misses=len(leaders), coalesced=len(followers))

            used_pool = False
            if leaders:
                start = time.perf_counter()
                try:
                    filled, derived, used_pool = self._fill_batch(
                        leaders, parents
                    )
                except BaseException as exc:
                    with self._lock:
                        self._resolve_flights_locked(flights, None, exc)
                    raise
                elapsed = time.perf_counter() - start
                with self._lock:
                    keyed: Dict[CacheKey, RoutingTable] = {}
                    for destination in leaders:
                        key = (version, destination)
                        table = filled[destination]
                        keyed[key] = table
                        self._put_locked(key, table)
                        tables[destination] = table
                    # a derived table is a fill too: computed = fill - derive
                    self._count_locked("fill", len(leaders))
                    self._count_locked("derive", len(derived))
                    self._tally["affected"] += sum(derived)
                    self._tally["compute_seconds"] += elapsed
                    self._resolve_flights_locked(flights, keyed, None)
            span.set(pool=used_pool)

            # only after resolving our own flights do we wait on other
            # threads' fills — the ordering that makes deadlock impossible
            for destination, flight in followers:
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                tables[destination] = flight.table
        return tables, used_pool

    def _fill_batch(
        self,
        leaders: List[int],
        parents: Dict[int, _Parent],
    ) -> Tuple[Dict[int, RoutingTable], List[int], bool]:
        """Settle every leader destination, lock released throughout.

        Returns ``(tables, derived_affected_counts, used_pool)``: one
        affected-set size per derived table; every other leader was
        settled from scratch.
        """
        filled: Dict[int, RoutingTable] = {}
        # derive what we can from pre-mutation tables (a pure failure
        # bounds the affected region; a derivation is still a miss, only
        # a cheaper one); only the remainder is worth fanning out
        derived: List[int] = []
        remaining: List[int] = []
        for destination in leaders:
            parent, affected = parents.get(destination), None
            if parent is not None:
                old, changed = parent
                affected = affected_ases(self._graph, old, changed)
            if affected is None:
                remaining.append(destination)
                continue
            filled[destination] = recompute_routes(
                self._graph, old, changed, affected=affected)
            derived.append(len(affected))

        used_pool = False
        if remaining:
            snapshot = self._graph.snapshot()
            if self._use_pool(len(remaining)):
                used_pool = self._fanout_pool(snapshot, remaining, filled)
            rest = [d for d in remaining if d not in filled]
            if rest:
                # Whatever the pool did not hand back settles on the
                # active kernel in one sweep (the batched wave kernel
                # amortizes its per-wave cost over the whole of it).
                swept = kernels.settle_many(snapshot, rest)
                for destination in rest:
                    filled[destination] = RoutingTable(
                        self._graph, destination, swept[destination]
                    )
        return filled, derived, used_pool

    # ------------------------------------------------------------------
    # pool dispatch (lock released)
    # ------------------------------------------------------------------
    def _use_pool(self, n_misses: int) -> bool:
        """A lone miss (every :meth:`compute`) settles in process: there
        is nothing to fan out."""
        policy = self._parallel
        if policy is False or n_misses < 2:
            return False
        if policy == "auto" and (
            (os.cpu_count() or 1) < 2 or n_misses < AUTO_PARALLEL_THRESHOLD
        ):
            return False
        return self._pool.shared_memory

    def _fanout_pool(
        self,
        snapshot: TopologySnapshot,
        misses: List[int],
        tables: Dict[int, RoutingTable],
    ) -> bool:
        """Dispatch ``misses`` across the persistent pool; True if any ran.

        Misses are sharded into contiguous destination ranges — several
        per worker, pulled from the executor's shared call queue, so an
        idle worker steals the next range instead of waiting out a
        straggler.  A job that fails on pool infrastructure (spawn
        refused, broken worker, pickling quirk) is simply left out of
        ``tables`` and the caller recomputes its destinations serially,
        while every *successful* job's drained metrics/spans payload is
        absorbed exactly once — a failed job ships no payload, so
        nothing is lost with it and nothing is double-counted when its
        tables are recomputed in the parent.  Library errors propagate
        unchanged.  Returns False only when no job completed (the
        fan-out was effectively serial).
        """
        try:
            executor, spec = self._pool.ensure(snapshot)
        except Exception:
            return False
        # workers settle on the parent's active kernel
        kernel = kernels.resolve()
        obs_state = obs.worker_state()
        futures: List[Tuple[Tuple[int, ...], object]] = []
        try:
            for shard in self._pool.shard(misses):
                _POOL_SHARD_SIZE.observe(len(shard))
                futures.append((
                    shard,
                    executor.submit(
                        _pool_settle_shard,
                        (spec, obs_state, kernel, shard),
                    ),
                ))
        except Exception:
            if not futures:
                return False
        succeeded = 0
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
            if packed is None:
                # the worker could not settle this shard in index
                # space; the caller's serial sweep picks it up
                continue
            for dest, tree in zip(dests, _decode_shard(snapshot, packed)):
                tables[dest] = RoutingTable(self._graph, dest, tree)
            succeeded += 1
        return succeeded > 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionCore(graph={self._graph!r}, "
            f"cached={len(self._cache)}, version={self._graph.version})"
        )


#: The name every single-threaded caller has always held a session by.
SimulationSession = SessionCore


def ensure_session(
    graph: ASGraph, session: Optional[SessionCore] = None
) -> SessionCore:
    """Return ``session`` (validated against ``graph``) or a fresh one.

    The helper every layer uses to accept an optional shared session
    while staying usable stand-alone: callers that thread a session
    through get cross-layer caching; callers that do not get a private
    session with identical semantics.
    """
    if session is None:
        return SessionCore(graph)
    if session.graph is not graph:
        raise SessionError(
            "session is bound to a different graph than the one passed in"
        )
    return session
