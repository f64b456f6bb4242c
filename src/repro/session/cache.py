"""Cache keys, telemetry, and the LRU route-table memo.

This module is the state side of the session package: the
``(graph.version, destination)`` cache key, the
:class:`SessionStats` counters every telemetry surface reads, and the
:class:`RouteTableCache` LRU with its derivation-parent index.  None of
it takes locks — :class:`repro.session.core.SessionCore` owns the one
lock and calls in here only while holding it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bgp.routing import RoutingTable, cut_tree_edges
from ..errors import SessionError
from ..obs import get_logger, get_registry
from ..topology.graph import ASGraph

_LOG = get_logger("session")

# ----------------------------------------------------------------------
# instrumentation (repro.obs): cache events land in the process-wide
# registry (aggregated across sessions); SessionStats stays the
# per-session view the existing telemetry APIs read.
# ----------------------------------------------------------------------
_CACHE_EVENTS = get_registry().counter(
    "repro_session_cache_events_total",
    "Route-table cache events "
    "(hit/miss/fill/coalesced/derive/evict/prune/restamp)",
    labels=("event",),
)
_EV_HIT = _CACHE_EVENTS.labels(event="hit")
_EV_MISS = _CACHE_EVENTS.labels(event="miss")
_EV_DERIVE = _CACHE_EVENTS.labels(event="derive")
_EV_EVICT = _CACHE_EVENTS.labels(event="evict")
_EV_PRUNE = _CACHE_EVENTS.labels(event="prune")
#: One ``restamp`` per table a flap left intact and the cache aliased at
#: the new graph version (in :meth:`SessionCore.mutate`, never per lookup).
_EV_RESTAMP = _CACHE_EVENTS.labels(event="restamp")
#: One ``fill`` per table actually settled/derived by a single-flight
#: leader — the serving plane's coalescing proof: N concurrent misses on
#: one destination must move this by exactly 1.
_EV_FILL = _CACHE_EVENTS.labels(event="fill")
#: One ``coalesced`` per lookup that waited on another thread's
#: in-flight fill instead of settling the same destination again.
_EV_COALESCED = _CACHE_EVENTS.labels(event="coalesced")
_CACHED_TABLES = get_registry().gauge(
    "repro_session_cached_tables",
    "Routing tables currently held by session caches",
)

#: Full cache key: (graph version, destination).  The cache holds
#: un-pinned tables only; pinned what-if tables live with their caller.
CacheKey = Tuple[int, int]


@dataclass
class SessionStats:
    """Routing-cost telemetry for one :class:`SimulationSession`.

    All counters are cumulative over the session's lifetime; a *fan-out* is
    one :meth:`SimulationSession.compute_many` call.
    """

    hits: int = 0
    misses: int = 0
    tables_computed: int = 0
    tables_derived: int = 0
    affected_ases_total: int = 0
    auto_pruned: int = 0
    fanouts: int = 0
    parallel_fanouts: int = 0
    coalesced: int = 0
    last_fanout_seconds: float = 0.0
    total_compute_seconds: float = 0.0
    peak_cached_tables: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def mean_affected_size(self) -> float:
        """Mean affected-set size across derived tables (0.0 when none)."""
        if not self.tables_derived:
            return 0.0
        return self.affected_ases_total / self.tables_derived

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot (counters plus the derived hit rate).

        The single serialization path: ``--stats`` rendering, the JSON
        exporter (:func:`repro.experiments.export_results`), and
        the ``repro stats`` snapshot all read this dict.  All duration
        fields are ``time.perf_counter()`` deltas (monotonic seconds).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "tables_computed": self.tables_computed,
            "tables_derived": self.tables_derived,
            "mean_affected_size": self.mean_affected_size,
            "auto_pruned": self.auto_pruned,
            "fanouts": self.fanouts,
            "parallel_fanouts": self.parallel_fanouts,
            "coalesced": self.coalesced,
            "last_fanout_seconds": self.last_fanout_seconds,
            "total_compute_seconds": self.total_compute_seconds,
            "peak_cached_tables": self.peak_cached_tables,
            "evictions": self.evictions,
        }

    def render(self) -> str:
        """Human-readable multi-line summary for reports and ``--stats``."""
        d = self.to_dict()
        return "\n".join([
            "routing-cost telemetry:",
            f"  cache hits / misses:   {d['hits']} / {d['misses']}"
            f"  ({d['hit_rate']:.1%} hit rate)",
            f"  tables computed:       {d['tables_computed']}",
            f"  tables derived:        {d['tables_derived']}"
            f" (mean affected set {d['mean_affected_size']:.1f} ASes)",
            f"  fan-outs:              {d['fanouts']}"
            f" ({d['parallel_fanouts']} parallel)",
            f"  compute wall-clock:    {d['total_compute_seconds']:.3f} s"
            f" (last fan-out {d['last_fanout_seconds']:.3f} s)",
            f"  peak cached tables:    {d['peak_cached_tables']}"
            f" ({d['evictions']} evicted, {d['auto_pruned']} auto-pruned)",
        ])


class RouteTableCache:
    """LRU-bounded memo of routing tables keyed on :data:`CacheKey`.

    Keys embed the owning graph's mutation counter, so entries computed
    against a stale topology are never served again after a mutation — they
    simply age out of the LRU order.  Not internally locked: the owning
    :class:`~repro.session.core.SessionCore` serializes access.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise SessionError(f"cache needs room for at least 1 table, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[CacheKey, RoutingTable]" = OrderedDict()
        # destination -> (changed links, key): prune_superseded's seeds
        self._seeds: Dict[int, Tuple[FrozenSet[Tuple[int, int]], CacheKey]] = {}
        self.peak_size = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _resized(self) -> None:
        """Every size change lands here, so the gauge cannot go stale."""
        _CACHED_TABLES.set(len(self._entries))

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[RoutingTable]:
        table = self._entries.get(key)
        if table is not None:
            self._entries.move_to_end(key)
        return table

    def put(self, key: CacheKey, table: RoutingTable) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = table
        # the peak is the pre-eviction size: a put that overflows the LRU
        # bound momentarily holds maxsize+1 tables, and that pressure is
        # exactly what the telemetry must report (an always-full cache
        # capped at maxsize would otherwise be indistinguishable from a
        # comfortably sized one)
        self.peak_size = max(self.peak_size, len(self._entries))
        while len(self._entries) > self.maxsize:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            _EV_EVICT.inc()
            _LOG.debug("cache_evict", destination=evicted_key[1],
                       version=evicted_key[0])
        self._resized()

    def prune_stale(self, current_version: int) -> int:
        """Drop entries for graph versions other than ``current_version``."""
        stale = [k for k in self._entries if k[0] != current_version]
        for key in stale:
            del self._entries[key]
        self._seeds = {}
        self._resized()
        return len(stale)

    def prune_superseded(self, graph: ASGraph) -> int:
        """Drop stale entries, keeping usable derivation parents.

        Unlike :meth:`prune_stale` this keeps, per destination, the one
        stale entry closest to the current graph state (fewest changed
        links on the version chain) — the entry
        :meth:`derivation_parent` would pick, so an incremental
        recomputation after the mutation still has its seed.  Entries for
        versions that are not ancestors of the current one are dropped
        outright.

        A destination that already has a current-version table
        needs no seed at all — lookups hit that table and nothing is
        derived — so its stale entries are dropped too, instead of one
        of them surviving as dead, never-useful work.  The seeds kept
        are what :meth:`derivation_parent` answers until the next prune.
        """
        current = graph.version
        covered = {
            destination for version, destination in self._entries
            if version == current
        }
        nearest: Dict[int, Tuple[FrozenSet[Tuple[int, int]], CacheKey]] = {}
        stale: List[CacheKey] = []
        for key in self._entries:
            version, destination = key
            if version == current:
                continue
            changed = graph.changed_links_since(version)
            if changed is None or destination in covered:
                stale.append(key)
                continue
            kept = nearest.get(destination)
            if kept is None or len(changed) < len(kept[0]):
                if kept is not None:
                    stale.append(kept[1])
                nearest[destination] = (changed, key)
            else:
                stale.append(key)
        for key in stale:
            del self._entries[key]
        self._seeds = nearest
        self._resized()
        return len(stale)

    def derivation_parent(
        self, destination: int
    ) -> Optional[Tuple[RoutingTable, FrozenSet[Tuple[int, int]]]]:
        """The seed :meth:`prune_superseded` kept for ``destination``
        (the owner prunes whenever the version moves) with its
        changed-link set, or None when none was kept or it was evicted.
        """
        seed = self._seeds.get(destination)
        if seed is None:
            return None
        changed, key = seed
        table = self._entries.get(key)
        return None if table is None else (table, changed)

    def restamp(
        self, old: int, new: int, changed: FrozenSet[Tuple[int, int]]
    ) -> int:
        """After a pure failure of ``changed`` (AS set unchanged), alias
        at version ``new`` every tree cached at ``old`` that no
        failed link cuts — still the stable state — and return how many.

        Same table object, so what is kept beside it (the service's
        encoded body) serves ``new`` too; the ``old`` key stays for a
        revert.  Aliases only take free slots: never an eviction.
        """
        room = self.maxsize - len(self._entries)
        aliases: List[Tuple[CacheKey, RoutingTable]] = []
        for (version, destination), table in self._entries.items():
            if len(aliases) == room:
                break
            if (version == old and (new, destination) not in self._entries
                    and cut_tree_edges(table, changed) == set()):
                aliases.append(((new, destination), table))
        self._entries.update(aliases)
        self.peak_size = max(self.peak_size, len(self._entries))
        self._resized()
        return len(aliases)

    def clear(self) -> None:
        self._entries.clear()
        self._seeds = {}
        self._resized()
