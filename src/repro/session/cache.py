"""Cache keys, the counted session events, and the LRU route-table memo.

This module is the state side of the session package: the
``(graph.version, destination)`` cache key, :data:`COUNTERS` (the
registry child behind every event a session counts), and the
:class:`RouteTableCache` LRU with its derivation-parent index.  None of
it takes locks — :class:`repro.session.core.SessionCore` owns the one
lock and calls in here only while holding it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bgp.routing import RoutingTable, cut_tree_edges
from ..errors import SessionError
from ..obs import Counter, get_logger, get_registry
from ..topology.graph import ASGraph

_LOG = get_logger("session")

# ----------------------------------------------------------------------
# instrumentation (repro.obs): the registry aggregates across sessions;
# each session keeps its own tally under the same keys (SessionCore)
# ----------------------------------------------------------------------
_CACHE_EVENTS = get_registry().counter(
    "repro_session_cache_events_total",
    "Route-table cache events "
    "(hit/miss/fill/coalesced/derive/evict/prune/restamp)",
    labels=("event",),
)
_FANOUTS_TOTAL = get_registry().counter(
    "repro_session_fanouts_total",
    "compute_many fan-outs, by dispatch mode",
    labels=("mode",),
)
#: Every event a session counts, keyed by its registry label value, with
#: the pre-bound child it moves.  ``fill`` moves once per table a
#: single-flight leader settled or derived (N concurrent misses on one
#: destination move it by 1); ``coalesced`` once per lookup that waited
#: on another thread's fill instead; ``restamp`` once per table a flap
#: left intact and :meth:`SessionCore.mutate` aliased at the new graph
#: version, never per lookup; ``serial`` / ``parallel`` once per
#: :meth:`SessionCore.compute_many`, by how it dispatched.
COUNTERS: Dict[str, Counter] = {
    **{event: _CACHE_EVENTS.labels(event=event) for event in (
        "hit", "miss", "fill", "coalesced", "derive", "evict", "prune",
        "restamp")},
    **{mode: _FANOUTS_TOTAL.labels(mode=mode)
       for mode in ("serial", "parallel")},
}
_CACHED_TABLES = get_registry().gauge(
    "repro_session_cached_tables",
    "Routing tables currently held by session caches",
)

#: Full cache key: (graph version, destination).  The cache holds
#: un-pinned tables only; pinned what-if tables live with their caller.
CacheKey = Tuple[int, int]


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

    def holds(self, key: CacheKey, table: RoutingTable) -> bool:
        """Whether ``key`` caches ``table`` (no LRU touch)."""
        return self._entries.get(key) is table

    def put(self, key: CacheKey, table: RoutingTable) -> int:
        """Insert ``key`` and return how many LRU entries it evicted."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = table
        # the peak is the pre-eviction size: a put that overflows the LRU
        # bound momentarily holds maxsize+1 tables, and that pressure is
        # exactly what the telemetry must report (an always-full cache
        # capped at maxsize would otherwise be indistinguishable from a
        # comfortably sized one)
        self.peak_size = max(self.peak_size, len(self._entries))
        evicted = max(len(self._entries) - self.maxsize, 0)
        for _ in range(evicted):
            (version, destination), _table = self._entries.popitem(last=False)
            _LOG.debug("cache_evict", destination=destination, version=version)
        self._resized()
        return evicted

    def prune_superseded(self, graph: ASGraph) -> int:
        """Drop stale entries, keeping usable derivation parents.

        Keeps, per destination, the one stale entry closest to the
        current graph state (fewest changed links on the version chain)
        — the entry :meth:`derivation_parent` would pick, so an incremental
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
