"""Stable-state BGP route computation under Gao–Rexford policies.

For one destination AS, :func:`compute_routes` computes the route each AS
selects in the unique stable state of the policy-routing system (the state
the Ch. 7 proofs converge to), using the classic three-phase propagation:

* **Phase 1** — customer routes climb the customer→provider hierarchy
  (sibling links are transparent);
* **Phase 2** — ASes with customer routes advertise them across peering
  links;
* **Phase 3** — every routed AS advertises its best route down to its
  customers, chaining through further provider→customer links.

Within a phase, routes are explored shortest-first with a deterministic
lexicographic tie-break, which stands in for the lower steps of the BGP
decision process (Table 2.1) and guarantees tree consistency: the path an
AS adopts is always an extension of the next hop's own selected path.

The optional ``pinned`` argument of :func:`compute_routes` fixes selected
routes at given ASes and lets everyone else re-select — the
*independent_selection* model of §5.4.

Two implementations of the same settling semantics live here:

* :func:`compute_routes_snapshot` — the production kernel.  It settles
  *parent pointers in wave order* in **index space** on a frozen
  :class:`~repro.topology.snapshot.TopologySnapshot` — each of the three
  phases one depth level at a time (:func:`_settle_waves`: a level's
  offerers walked in descending index over their per-node neighbour
  tuples, one dict comprehension per level), no heap and no path
  tuples — and returns a :class:`RouteTree`: by tree consistency one
  destination's stable state *is* a parent-pointer tree, so a path is a
  walk up it and the ``{asn: Route}`` dict is built only for readers
  that want every route.  :func:`recompute_routes` re-derives a table
  after link failures by restarting the *same* sweeps from the parent
  table's tree with the affected subtrees cleared, so a derived table is
  the same columnar object as a settled one.  :func:`compute_routes` is
  the graph-level front door; it settles a pinned request itself, by the
  heap walk :func:`_settle_pinned` (a pinned holder's path is arbitrary,
  so the result is not a tree).
* :func:`compute_routes_reference` — the legacy dict walk over the
  mutable :class:`~repro.topology.graph.ASGraph`, kept as the
  independent oracle the kernel is held byte-equal to
  (:mod:`repro.verify.oracle`).  It shares no settling code with
  anything it judges: :func:`_run_phase` has no other caller.

Table forms: a tree for every un-pinned table, settled or re-derived; a
dict for pinned and reference tables only, which no kernel or cache holds.

The heap walks order entries by ``(length, path)``; every entry is a
distinct such pair, so the pop order — and with it the selected table —
is independent of seeding and neighbour-iteration order.  Snapshot
indices are assigned in ascending ASN order, so index-path comparisons
decide ties exactly like ASN-path comparisons, and the wave sweeps
reproduce the same pop order without the heap (every settled path starts
with its holder, so equal-length candidates for one AS compare as their
parents' indices — :mod:`repro.bgp.kernels.batched`, "Why waves are
exact").  All three agree byte for byte, values and insertion order,
which the differential oracle enforces under seeded fault campaigns.
"""

from __future__ import annotations

import gc
import heapq
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import RoutingError, UnknownASError
from ..obs import DEFAULT_SIZE_BUCKETS, get_registry, get_tracer
from ..topology.graph import ASGraph
from ..topology.snapshot import PHASE_CLASSES, TopologySnapshot
from .policy import exportable_route, make_route
from .route import Route, RouteClass

# ----------------------------------------------------------------------
# instrumentation (repro.obs): per-phase timings feed the registry
# unconditionally (a few perf_counter reads per table); spans only record
# when the process-wide tracer is enabled (repro ... --trace FILE).
# ----------------------------------------------------------------------
_TRACER = get_tracer()
_REGISTRY = get_registry()
_TABLES_TOTAL = _REGISTRY.counter(
    "repro_routing_tables_total",
    "Stable-state routing tables settled, by computation mode",
    labels=("mode",),
)
_PHASE_SECONDS = _REGISTRY.histogram(
    "repro_routing_phase_seconds",
    "Wall-clock seconds per settling phase (the three-phase propagation)",
    labels=("phase", "mode"),
)
_MATERIALIZED_TOTAL = _REGISTRY.counter(
    "repro_routing_tables_materialized_total",
    "Route trees expanded into their {asn: Route} dict (once per table)",
)
_FALLBACKS_TOTAL = _REGISTRY.counter(
    "repro_routing_incremental_fallbacks_total",
    "Incremental recomputations that fell back to a full computation",
    labels=("reason",),
)
_AFFECTED_SIZE = _REGISTRY.histogram(
    "repro_routing_affected_ases",
    "Affected-region size per incremental recomputation",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_FRONTIER_SIZE = _REGISTRY.histogram(
    "repro_routing_frontier_size",
    "Frontier (settled-boundary) size seeding incremental recomputation",
    buckets=DEFAULT_SIZE_BUCKETS,
)

_PHASE_NAMES = ("phase1_climb", "phase2_peer", "phase3_descend")
_PHASE_FULL = tuple(
    _PHASE_SECONDS.labels(phase=p, mode="full") for p in _PHASE_NAMES
)
_PHASE_INCREMENTAL = tuple(
    _PHASE_SECONDS.labels(phase=p, mode="incremental") for p in _PHASE_NAMES
)
_PHASE_REFERENCE = tuple(
    _PHASE_SECONDS.labels(phase=p, mode="reference") for p in _PHASE_NAMES
)

#: Route-class codes the snapshot kernel settles with — the
#: :class:`RouteClass` *values*, so class comparisons are int compares.
_ORIGIN = RouteClass.ORIGIN.value  # 4
_CUSTOMER = RouteClass.CUSTOMER.value  # 3
_PEER = RouteClass.PEER.value  # 2
_PROVIDER = RouteClass.PROVIDER.value  # 1
_CODE_TO_CLASS = (
    None,
    RouteClass.PROVIDER,
    RouteClass.PEER,
    RouteClass.CUSTOMER,
    RouteClass.ORIGIN,
)


@contextmanager
def _phase_span(index: int, timers, destination: int):
    """Time one settling phase into its histogram (and a span if tracing)."""
    with _TRACER.span(_PHASE_NAMES[index], destination=destination):
        start = time.perf_counter()
        try:
            yield
        finally:
            timers[index].observe(time.perf_counter() - start)


#: Serializes first materializations.  One lock for every tree: the build
#: is pure Python (it holds the interpreter lock anyway) and a per-tree
#: lock would be most of a tree's memory.
_MATERIALIZE_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RouteTree(Mapping[int, Route]):
    """One destination's un-pinned stable state, as a parent-pointer tree.

    Tree consistency makes the table a tree rooted at the destination:
    ``parent[i]`` is the snapshot index of node ``i``'s next hop (``-1``
    for no route; the destination points at itself), ``order`` lists the
    routed nodes in adoption order, destination first, and the route
    class is a constant per settling phase — ``order[1:peer_from]``
    adopted CUSTOMER routes, ``order[peer_from:provider_from]`` PEER, the
    rest PROVIDER.  ``asns`` / ``index`` are the settling snapshot's
    translation maps, by reference (those two only, not the snapshot).

    Reads two ways: :meth:`path` walks parents in O(hops) and builds
    nothing else; the :class:`~typing.Mapping` view is the ``{asn:
    Route}`` dict every kernel used to return — same values, same
    insertion order — built by :meth:`materialize` on first use.
    """

    asns: Tuple[int, ...]
    index: Dict[int, int]
    order: Sequence[int]
    parent: Sequence[int]
    peer_from: int
    provider_from: int
    _routes: Optional[Dict[int, Route]] = field(default=None, init=False)

    def path(self, asn: int) -> Optional[Tuple[int, ...]]:
        """``asn``'s selected AS path, or None when it has no route —
        which includes an AS the snapshot did not contain."""
        i = self.index.get(asn)
        if i is None:
            return None
        parent = self.parent
        hop = parent[i]
        if hop < 0:
            return None
        asns = self.asns
        path = [asn]
        while hop != i:
            i = hop
            path.append(asns[i])
            hop = parent[i]
        return tuple(path)

    def materialize(self) -> Dict[int, Route]:
        """The ``{asn: Route}`` dict, built once however many threads ask."""
        routes = self._routes
        if routes is None:
            with _MATERIALIZE_LOCK:
                routes = self._routes
                if routes is None:
                    routes = self._expand()
                    # published only once complete: a racing reader sees
                    # None (and waits on the lock) or the whole dict
                    object.__setattr__(self, "_routes", routes)
                    _MATERIALIZED_TOTAL.inc()
        return routes

    def _expand(self) -> Dict[int, Route]:
        """O(routed ASes): one path tuple (the parent's, extended) and
        one ``Route`` per node, in adoption order.  The walk never
        revisits a node, so the trusted constructor is safe."""
        asns, order, parent = self.asns, self.order, self.parent
        destination = asns[order[0]]
        paths: List[Optional[Tuple[int, ...]]] = [None] * len(asns)
        paths[order[0]] = (destination,)
        routes = {destination: Route((destination,), RouteClass.ORIGIN)}
        new = Route.__new__
        set_field = object.__setattr__
        # The burst allocates two objects per routed AS, and every
        # generational collection it triggers scans them — and, as they
        # age, every table built before — for cycles they cannot form
        # (tuples of ints, frozen two-field Routes): half the build time
        # at 1k ASes, more at 10k.  Pause the collector for the burst
        # (the caller holds the materialize lock, so pauses do not
        # overlap) and restore the caller's state.
        collecting = gc.isenabled()
        gc.disable()
        try:
            lo = 1
            for route_class, hi in (
                (RouteClass.CUSTOMER, self.peer_from),
                (RouteClass.PEER, self.provider_from),
                (RouteClass.PROVIDER, len(order)),
            ):
                for i in order[lo:hi]:
                    asn = asns[i]
                    path = paths[i] = (asn,) + paths[parent[i]]
                    route = new(Route)
                    set_field(route, "path", path)
                    set_field(route, "route_class", route_class)
                    routes[asn] = route
                lo = hi
        finally:
            if collecting:
                gc.enable()
        return routes

    def __getitem__(self, asn: int) -> Route:
        return self.materialize()[asn]

    def __iter__(self) -> Iterator[int]:
        return iter(self.materialize())

    def __len__(self) -> int:
        return len(self.order)


class RoutingTable:
    """Stable BGP outcome for one destination AS.

    ``best(asn)`` is the route the AS selected (None if unreachable);
    ``candidates(asn)`` is the full set of routes the AS *learned* — one per
    neighbour that exports its best route to it.  The candidate set is what
    a MIRO responding AS can offer in a negotiation (§3.4).

    ``best`` is the selected-route dict or the :class:`RouteTree` an
    un-pinned settle produces.  On a tree, :meth:`default_path` and
    :meth:`reachable` answer from the parent pointers and build nothing;
    every other read expands the tree into its dict once and keeps it.
    """

    #: :meth:`candidates` memo — (graph version enumerated at, asn ->
    #: routes) — an instance attribute from the first call on: a table
    #: nobody negotiates over carries nothing for it.
    _learned: Optional[Tuple[int, Dict[int, List[Route]]]] = None

    def __init__(
        self,
        graph: ASGraph,
        destination: int,
        best: Union[Dict[int, Route], RouteTree],
    ) -> None:
        self._graph = graph
        self._destination = destination
        if isinstance(best, RouteTree):
            self._tree: Optional[RouteTree] = best
            self._routes: Optional[Dict[int, Route]] = None
        else:
            self._tree = None
            self._routes = best

    @property
    def _best(self) -> Dict[int, Route]:
        routes = self._routes
        if routes is None:
            # the tree hands every caller the same dict, so a racing
            # second assignment stores the same object
            routes = self._routes = self._tree.materialize()
        return routes

    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def destination(self) -> int:
        return self._destination

    def best(self, asn: int) -> Optional[Route]:
        """The route ``asn`` selected, or None if the destination is unreachable."""
        if asn not in self._graph:
            raise UnknownASError(asn)
        return self._best.get(asn)

    def default_path(self, source: int) -> Optional[Tuple[int, ...]]:
        """The default BGP AS path from ``source`` to the destination.

        None for an AS without a route — including one the graph gained
        after this table's version, which a tree's index does not know.
        """
        if source not in self._graph:
            raise UnknownASError(source)
        routes = self._routes
        if routes is None:
            return self._tree.path(source)
        route = routes.get(source)
        return route.path if route is not None else None

    def reachable(self, asn: int) -> bool:
        return self.default_path(asn) is not None

    def routed_ases(self) -> List[int]:
        """All ASes that selected a route, ascending."""
        return sorted(self._best)

    def candidates(self, asn: int) -> List[Route]:
        """All routes ``asn`` learns from its neighbours in the stable state.

        One route per neighbour whose export policy permits the
        advertisement and whose best path does not already contain ``asn``.
        The AS's own selected route is among them.

        Enumerated once per AS and graph version and kept with the
        table — the live runtime asks a transit AS for the same set on
        every negotiation.  The set is read off the live graph, so what
        is kept is dropped when :attr:`ASGraph.version` is not the one it
        was enumerated at (a table held across a mutation answers
        against the changed graph, and against the restored one after a
        revert).  Every call returns a fresh list.
        """
        graph = self._graph
        if asn not in graph:
            raise UnknownASError(asn)
        version = graph.version
        memo = self._learned
        if memo is None or memo[0] != version:
            memo = self._learned = (version, {})
        learned = memo[1].get(asn)
        if learned is not None:
            return list(learned)
        learned = []
        if asn == self._destination:
            learned.append(self._best[asn])
        else:
            # through the memoized snapshot: ASGraph.neighbors' order
            for neighbor in graph.snapshot().neighbors_asn(asn):
                route = self._best.get(neighbor)
                if route is None:
                    continue
                candidate = exportable_route(graph, route, asn)
                if candidate is not None:
                    learned.append(candidate)
        if graph.version == version:  # else enumerated across a mutation
            memo[1][asn] = learned
        return list(learned)

    def items(self) -> Iterator[Tuple[int, Route]]:
        return iter(self._best.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingTable(dest={self._destination}, "
            f"routed={len(self._tree or self._routes)}/{len(self._graph)})"
        )


def _validate_pinned(
    destination: int, pinned: Dict[int, Route]
) -> None:
    """Shared pinned-route validation for every computation entry point."""
    for asn, route in pinned.items():
        if route.holder != asn:
            raise RoutingError(
                f"pinned route {route} is not held by AS {asn}"
            )
        if route.destination != destination:
            raise RoutingError(
                f"pinned route {route} does not target AS {destination}"
            )
    if destination in pinned:
        raise RoutingError("cannot pin a route at the destination itself")


def compute_routes(
    graph: ASGraph,
    destination: int,
    pinned: Optional[Dict[int, Route]] = None,
) -> RoutingTable:
    """Compute the stable Gao–Rexford routing state for ``destination``.

    ``pinned`` maps AS numbers to routes those ASes are forced to select
    (they advertise the pinned route and never re-select); every other AS
    selects normally.  Pinned routes must be held by the given AS and
    target ``destination``.

    This is the graph-level front door of the kernels: it settles an
    un-pinned request on ``graph.snapshot()`` through
    :func:`repro.bgp.kernels.settle_many` (``REPRO_KERNEL`` or the scalar
    default), a pinned one by :func:`_settle_pinned`, and wraps the
    result — byte-identical to the legacy walk, which survives as
    :func:`compute_routes_reference` for the differential oracle.
    """
    if destination not in graph:
        raise UnknownASError(destination)
    pinned = dict(pinned or {})
    snapshot = graph.snapshot()
    # Late import: repro.bgp.kernels initializes after this module (its
    # scalar kernel is the settling implementation defined here).
    from . import kernels

    try:
        if pinned:
            best = _settle_pinned(snapshot, destination, pinned)
        else:
            best = kernels.settle_many(snapshot, [destination])[destination]
    except UnknownASError:
        # A pinned path references an AS outside the current topology —
        # representable in the legacy walk (pinned routes pass through
        # untranslated) but not in index space.  Rare enough that the
        # dict walk's answer is the cheap correct fallback.
        return compute_routes_reference(graph, destination, pinned)
    return RoutingTable(graph, destination, best)


def _resolve_link_class(off: list, adj: list, idx_path: Tuple[int, ...]) -> int:
    """Sibling-resolved class code of an index path, from actual links.

    The index-space mirror of :func:`repro.bgp.policy.classify_path`: the
    first non-sibling link from the holder end decides, an all-sibling
    (or single-AS) path counts as a customer route.  Only consulted for
    *seeded* routes (pinned and the origin), whose stored class is not
    necessarily the link-derived one the settling propagation must use.
    """
    for a, b in zip(idx_path, idx_path[1:]):
        base = 4 * a
        if b in adj[off[base]: off[base + 1]]:
            return _CUSTOMER  # learned from a customer
        if b in adj[off[base + 1]: off[base + 2]]:
            return _PROVIDER  # learned from a provider
        if b in adj[off[base + 2]: off[base + 3]]:
            return _PEER  # learned from a peer
        # sibling link: transparent, classify on the next one
    return _CUSTOMER


#: Class code a route takes crossing a link of snapshot class ``c`` (the
#: learner is the holder's customer / provider / peer); 0: a sibling
#: link, which hands on the holder's own class.
_LINK_CLASS = (_PROVIDER, _CUSTOMER, _PEER, 0)


def _settle_waves(
    snapshot: TopologySnapshot,
    destination: int,
    parent: List[int],
    depth: List[int],
    holders: List[int],
    border: Sequence[Sequence[int]] = ((), (), ()),
    timers=_PHASE_FULL,
) -> List[Tuple[int, int]]:
    """Settle every unrouted node of ``parent``, one depth level at a time.

    The one settling loop.  A full settle passes ``parent`` with only
    the destination routed and ``holders == [dest]``;
    :func:`recompute_routes` passes a settled tree's parents with a
    region cleared (``-1``) and the kept holders that border the region
    (with their ``depth``): the origin in ``holders`` if it is one, the
    others in ``border[phase]`` by the phase that routed them.
    ``parent`` and ``depth`` are settled in place and adopters appended
    to ``holders`` in adoption order; returns each phase's ``(start,
    stop)`` slice of ``holders`` — after a full settle ``holders`` is
    the tree's ``order`` and the stops are its phase bounds.

    A path of ``wave`` hops is offered only by a node at depth ``wave -
    1``: a holder of an earlier phase — kept or adopted in this call —
    across the phase's seed links, a kept holder of this phase across
    its expansion links (which a full run crossed when it adopted), or
    the previous wave's adopters across the expansion links.  So the
    phase settles one depth level at a time: the level's offerers are
    walked in descending index, one dict comprehension maps each
    still-unrouted neighbour to its offerer — the smallest index writes
    last — and the targets adopt in ascending index order, the heap
    walk's pop order exactly.  Offerers read their neighbours from
    ``snapshot.phase_nbrs``, one tuple per node and phase, pre-sliced.
    """
    spans = []
    for phase, (seed, expand) in enumerate(snapshot.phase_nbrs):
        with _phase_span(phase, timers, destination):
            # Each node offers across its seed links if it held a route
            # before this phase, else across its expansion links.  The
            # view is copied only for a holder whose two differ (equal
            # sets share one tuple): a copy touches every node's tuple.
            nbrs = expand
            for i in holders:
                if seed[i] is not expand[i]:
                    if nbrs is expand:
                        nbrs = list(expand)
                    nbrs[i] = seed[i]
            levels: Dict[int, List[int]] = {}
            for group in (holders, border[phase]):
                for i in group:
                    if nbrs[i]:
                        levels.setdefault(depth[i], []).append(i)
            holders += border[phase]
            first = len(holders)
            adopters: List[int] = []
            wave = min(levels, default=0) + 1
            while levels or adopters:
                offerers = levels.pop(wave - 1, None)
                if offerers:
                    offerers += adopters
                    offerers.sort(reverse=True)
                else:
                    offerers = reversed(adopters)
                bucket = {
                    nb: i
                    for i in offerers
                    for nb in nbrs[i]
                    if parent[nb] < 0
                }
                adopters = sorted(bucket)
                for v in adopters:
                    parent[v] = bucket[v]
                    depth[v] = wave
                holders += adopters
                wave += 1
        spans.append((first, len(holders)))
    return spans


def compute_routes_snapshot(
    snapshot: TopologySnapshot, destination: int
) -> RouteTree:
    """Settle the stable state for ``destination`` on a frozen snapshot.

    The ``scalar`` kernel: :func:`_settle_waves` from the destination
    alone, in index space.  Self-contained on purpose: pool workers call
    this with nothing but the shipped snapshot.  Output is byte-identical
    to :func:`compute_routes_reference` — the oracle's enforced invariant.
    """
    dest = snapshot.index_of(destination)
    n = snapshot.n
    parent = [-1] * n
    parent[dest] = dest
    order = [dest]
    with _TRACER.span("compute_routes", destination=destination):
        (_, peer_from), (_, provider_from), _ = _settle_waves(
            snapshot, destination, parent, [0] * n, order
        )
    _TABLES_TOTAL.labels(mode="full").inc()
    return RouteTree(
        snapshot.asns, snapshot.index, order, parent, peer_from, provider_from
    )


def _settle_pinned(
    snapshot: TopologySnapshot, destination: int, pinned: Dict[int, Route]
) -> Dict[int, Route]:
    """The heap walk :func:`compute_routes` runs for a pinned request.

    Flat per-class adjacency slices, int-tuple paths, heap entries of
    ``(length, path, class)``, translated to an ASN-keyed best-route dict
    at the end; a route's class comes from the link crossed
    (:data:`_LINK_CLASS`), never from re-walking its path.  Raises
    :class:`UnknownASError` when a pinned path leaves the snapshot.
    """
    dest = snapshot.index_of(destination)
    _validate_pinned(destination, pinned)
    n = snapshot.n
    off, adj = snapshot.class_lists()
    # Per-node settling state, indexed by snapshot index: the selected
    # index path, its reported class, and its *propagation* class (what a
    # sibling inherits — link-derived, which for a pinned route may
    # differ from the class the pin reports).
    best_path: List[Optional[Tuple[int, ...]]] = [None] * n
    best_cls = [0] * n
    prop_cls = [0] * n
    order: List[int] = []  # adoption order, for output-dict fidelity

    for asn, route in pinned.items():
        idx_path = snapshot.path_to_indices(route.path)
        holder = idx_path[0]
        best_path[holder] = idx_path
        best_cls[holder] = route.route_class.value
        prop_cls[holder] = _resolve_link_class(off, adj, idx_path)
    best_path[dest] = (dest,)
    best_cls[dest] = _ORIGIN
    prop_cls[dest] = _CUSTOMER  # what the origin's siblings inherit

    heap: List[Tuple[int, Tuple[int, ...], int]] = []
    push = heapq.heappush
    pop = heapq.heappop

    def spread(holder: int, path: Tuple[int, ...], classes) -> None:
        """Offer ``path`` to ``holder``'s unsettled neighbours across the
        links of ``classes`` (the loop check matters: a pinned path is
        arbitrary)."""
        base = 4 * holder
        hops = len(path)
        for c in classes:
            cls = _LINK_CLASS[c] or prop_cls[holder]
            for nb in adj[off[base + c]: off[base + c + 1]]:
                if best_path[nb] is None and nb not in path:
                    push(heap, (hops, (nb,) + path, cls))

    with _TRACER.span("compute_routes", destination=destination,
                      pinned=len(pinned)):
        # The same three phases as the wave sweeps: every route settled
        # so far seeds across the phase's seed links — customer-class
        # (or origin) routes only until the descent, which exports
        # everything — and each adoption spreads across its expansion
        # links.  The first entry popped for an unsettled AS is its
        # selected route.
        for phase, (seed, expand) in enumerate(PHASE_CLASSES):
            with _phase_span(phase, _PHASE_FULL, destination):
                floor = _CUSTOMER if phase < 2 else _PROVIDER
                for i in range(n):
                    if best_path[i] is not None and best_cls[i] >= floor:
                        spread(i, best_path[i], seed)
                while heap:
                    _, path, cls = pop(heap)
                    holder = path[0]
                    if best_path[holder] is not None:
                        continue  # already settled on another path
                    best_path[holder] = path
                    best_cls[holder] = prop_cls[holder] = cls
                    order.append(holder)
                    spread(holder, path, expand)

    # Translate back to ASN space, in the legacy walk's exact dict order:
    # pinned entries first (the very objects the caller pinned), then the
    # origin, then adoptions in settling order.  The kernel never extends
    # a path with an AS already on it, so the trusted constructor is safe.
    asn_at = snapshot.asns.__getitem__
    best: Dict[int, Route] = dict(pinned)
    best[destination] = Route((destination,), RouteClass.ORIGIN)
    new = Route.__new__
    set_field = object.__setattr__
    for i in order:
        route = new(Route)
        set_field(route, "path", tuple(map(asn_at, best_path[i])))
        set_field(route, "route_class", _CODE_TO_CLASS[best_cls[i]])
        best[asn_at(i)] = route
    _TABLES_TOTAL.labels(mode="full").inc()
    return best


def compute_routes_reference(
    graph: ASGraph,
    destination: int,
    pinned: Optional[Dict[int, Route]] = None,
) -> RoutingTable:
    """The legacy dict-walk settling — the oracle's independent reference.

    Semantically identical to :func:`compute_routes`, implemented the
    pre-snapshot way: Route objects throughout, ``classify_path`` on
    every adoption, mutable-graph accessors for expansion.  Slower, and
    kept that way on purpose — it shares no hot-path code with the
    kernel, so :mod:`repro.verify.oracle` can hold the two byte-equal
    without a common bug hiding in both.
    """
    if destination not in graph:
        raise UnknownASError(destination)
    pinned = dict(pinned or {})
    _validate_pinned(destination, pinned)

    best: Dict[int, Route] = dict(pinned)
    best[destination] = Route((destination,), RouteClass.ORIGIN)

    with _TRACER.span("compute_routes_reference", destination=destination,
                      pinned=len(pinned)):
        # ---- Phase 1: customer routes climb the hierarchy -------------
        with _phase_span(0, _PHASE_REFERENCE, destination):
            heap: List[Tuple[int, Tuple[int, ...]]] = []
            for asn, route in best.items():
                if route.route_class in (RouteClass.ORIGIN, RouteClass.CUSTOMER):
                    heapq.heappush(heap, (route.length, route.path))
            _run_phase(
                graph, best, heap,
                expand=lambda asn: graph.providers(asn) + graph.siblings(asn),
                fixed=set(best),
            )

        # ---- Phase 2: customer routes cross peering links -------------
        with _phase_span(1, _PHASE_REFERENCE, destination):
            heap = []
            for asn in list(best):
                route = best[asn]
                if route.route_class not in (
                    RouteClass.ORIGIN, RouteClass.CUSTOMER
                ):
                    continue
                for peer in graph.peers(asn):
                    if peer in best:
                        continue
                    if route.contains(peer):
                        continue
                    path = (peer,) + route.path
                    heapq.heappush(heap, (len(path) - 1, path))
            _run_phase(
                graph, best, heap,
                expand=lambda asn: graph.siblings(asn),
                fixed=set(best),
            )

        # ---- Phase 3: best routes flow down to customers ---------------
        with _phase_span(2, _PHASE_REFERENCE, destination):
            heap = []
            for asn in list(best):
                route = best[asn]
                for customer in graph.customers(asn):
                    if customer in best:
                        continue
                    if route.contains(customer):
                        continue
                    path = (customer,) + route.path
                    heapq.heappush(heap, (len(path) - 1, path))
            _run_phase(
                graph, best, heap,
                expand=lambda asn: graph.customers(asn) + graph.siblings(asn),
                fixed=set(best),
            )

    _TABLES_TOTAL.labels(mode="reference").inc()
    return RoutingTable(graph, destination, best)


def _run_phase(
    graph: ASGraph,
    best: Dict[int, Route],
    heap: List[Tuple[int, Tuple[int, ...]]],
    expand,
    fixed: Set[int],
) -> None:
    """Shortest-first relaxation for one propagation phase.

    Pops (length, path) entries; the first entry popped for an AS not in
    ``fixed`` becomes its selected route.  ``expand(asn)`` lists the
    neighbours the adopted route propagates to within this phase.
    """
    while heap:
        length, path = heapq.heappop(heap)
        holder = path[0]
        if holder in fixed:
            # Routed in an earlier phase (or pinned): it will not adopt
            # this route; only its own seeded best propagates from it.
            if best[holder].path != path:
                continue
        elif holder in best:
            continue  # already settled within this phase
        else:
            best[holder] = make_route(graph, path)
        route = best[holder]
        for neighbor in expand(holder):
            if neighbor in best:
                continue
            if route.contains(neighbor):
                continue
            heapq.heappush(heap, (length + 1, (neighbor,) + route.path))


def affected_ases(
    graph: ASGraph,
    table: RoutingTable,
    changed: Optional[Iterable[Tuple[int, int]]],
) -> Optional[Set[int]]:
    """ASes whose stable route an incremental recompute must re-settle.

    ``changed`` is the set of links that changed between the state
    ``table`` was computed for and the current state of ``graph``
    (endpoint order irrelevant) — typically
    :attr:`repro.topology.delta.AppliedDelta.changed_links` or
    :meth:`repro.topology.graph.ASGraph.changed_links_since`.

    For a pure **failure** delta (every changed link is absent from the
    current graph) the affected set is the ASes whose old stable route
    traversed a changed link: removing links only removes candidate
    paths, every unaffected AS's old route — and, by tree consistency,
    its next hop's whole chain — survives, and the deterministic
    shortest-first relaxation re-selects it.  On a tree-backed table
    that is the subtrees hanging off the changed links that are tree
    edges: with none cut the answer is ``set()`` after one probe per
    changed link (:func:`cut_tree_edges`), otherwise one pass over the
    tree's ``order`` (parents precede children) — nothing materializes.
    A dict-backed table (pinned, reference) is scanned path by path.  (A
    removed AS needs no case of its own: a path visits it only across
    one of its former, hence changed, links.)

    Returns ``None`` when incremental recomputation is *not* applicable
    and the caller must fall back to :func:`compute_routes`:

    * ``changed`` is ``None`` (the change window is unknown),
    * a changed link is currently present — an added or re-added link can
      improve routes of ASes far from it, so no cheap superset of the
      affected region exists, or
    * the destination itself left the graph.
    """
    if changed is None or table.destination not in graph:
        return None
    changed = list(changed)
    for a, b in changed:
        if graph.has_link(a, b):
            return None  # link addition (or re-addition): no local bound
    cut = cut_tree_edges(table, changed)
    if cut is None:
        hops = {(a, b) for a, b in changed} | {(b, a) for a, b in changed}
        return {
            asn for asn, route in table.items()
            if not hops.isdisjoint(zip(route.path, route.path[1:]))
        }
    if not cut:
        return cut
    tree = table._tree
    parent = tree.parent
    for i in tree.order:
        if parent[i] in cut:
            cut.add(i)
    asns = tree.asns
    return {asns[i] for i in cut}


def cut_tree_edges(
    table: RoutingTable, changed: Iterable[Tuple[int, int]]
) -> Optional[Set[int]]:
    """The tree's nodes (snapshot indices) whose edge to their parent is
    a ``changed`` link, one probe per link; None for a dict-backed table.
    Empty after a pure failure: the table is still the stable state."""
    tree = table._tree
    if tree is None:
        return None
    index, parent = tree.index, tree.parent
    cut: Set[int] = set()
    for a, b in changed:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            continue  # not a link of the tree's snapshot
        if parent[ia] == ib:
            cut.add(ia)
        elif parent[ib] == ia:
            cut.add(ib)
    return cut


def recompute_routes(
    graph: ASGraph,
    table: RoutingTable,
    changed: Optional[Iterable[Tuple[int, int]]],
    affected: Optional[Set[int]] = None,
) -> RoutingTable:
    """Incrementally update ``table`` after the given link changes.

    The wave kernel restarted: copies ``table``'s tree, clears the
    affected subtrees (see :func:`affected_ases`) and runs the three
    sweeps of :func:`_settle_waves` seeded by the kept holders that
    border the cleared region — the result is the tree a fresh full
    computation on the current graph settles, values and order, at a
    cost proportional to the affected region (plus a few flat passes
    over the columns) instead of the whole topology.  An event that cuts
    no tree edge hands back a table over ``table``'s own tree, and
    derives no snapshot.

    Falls back to :func:`compute_routes` — counted in
    ``repro_routing_incremental_fallbacks_total{reason}`` — when the
    affected set cannot be bounded (``unbounded``, see
    :func:`affected_ases`), ``table`` is dict-backed (``parent_not_tree``),
    the AS population changed since the tree was settled, so its indices
    no longer name the same ASes (``as_set_changed``), or a re-settled AS
    now exports a route one of its kept neighbours prefers
    (``boundary_improved``).

    ``changed`` may be an iterable of ``(a, b)`` link pairs or an
    :class:`repro.topology.delta.AppliedDelta`; ``affected`` may be
    passed pre-computed (by :func:`affected_ases` for the same
    arguments) to avoid deriving it twice.
    """
    destination = table.destination
    if destination not in graph:
        raise UnknownASError(destination)
    if changed is not None and hasattr(changed, "changed_links"):
        changed = changed.changed_links  # an AppliedDelta

    def settle_in_full(reason: str) -> RoutingTable:
        _FALLBACKS_TOTAL.labels(reason=reason).inc()
        return compute_routes(graph, destination)

    if affected is None:
        affected = affected_ases(graph, table, changed)
        if affected is None:
            return settle_in_full("unbounded")
    _AFFECTED_SIZE.observe(len(affected))
    tree = table._tree
    if tree is None:
        return settle_in_full("parent_not_tree")
    if affected:
        snapshot = graph.snapshot()
        if snapshot.asns != tree.asns:
            return settle_in_full("as_set_changed")
        with _TRACER.span("recompute_routes", destination=destination,
                          affected=len(affected)):
            tree = _resettle(snapshot, tree, destination, affected)
        if tree is None:
            return settle_in_full("boundary_improved")
    _TABLES_TOTAL.labels(mode="incremental").inc()
    return RoutingTable(graph, destination, tree)


def _resettle(
    snapshot: TopologySnapshot,
    old: RouteTree,
    destination: int,
    affected: Set[int],
) -> Optional[RouteTree]:
    """``old`` with the ``affected`` subtrees re-settled on ``snapshot``
    (same AS population, so same indices), or None when a re-settled AS
    now offers a kept neighbour a route it prefers to the one it kept.
    """
    n = snapshot.n
    off, adj = snapshot.class_lists()
    index = old.index
    dest = index[destination]
    region = {index[asn] for asn in affected}
    old_parent = old.parent
    parent = list(old_parent)
    touched: Set[int] = set()
    for i in region:
        parent[i] = -1
        touched.update(adj[off[4 * i]: off[4 * i + 4]])

    # From the old order, phase by phase: every node's depth, what stays
    # of each phase's slice, and of that the holders with a cleared
    # neighbour — the only kept nodes the region can hear from, or be
    # heard by.
    order = old.order
    bounds = (1, old.peer_from, old.provider_from, len(order))
    slices = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    depth = [0] * n
    for part in slices:
        for i in part:
            depth[i] = depth[old_parent[i]] + 1
    kept = [[i for i in part if i not in region] for part in slices]
    border = [[i for i in held if i in touched] for held in kept]
    holders = [dest] if dest in touched else []
    _FRONTIER_SIZE.observe(len(holders) + sum(map(len, border)))

    spans = _settle_waves(
        snapshot, destination, parent, depth, holders, border,
        _PHASE_INCREMENTAL,
    )
    phases = [holders[first:stop] for first, stop in spans]

    # A phase adopts in ascending (wave, index), so its slice of the new
    # order is the kept and the re-adopted nodes merged on that key: both
    # runs ascend already, and the second is short.
    def rank(i: int) -> int:
        return depth[i] * n + i

    order = [dest]
    bounds = []
    for held, adopted in zip(kept, phases):
        lo = 0
        for v in adopted:
            hi = bisect_left(held, rank(v), lo, key=rank)
            order += held[lo:hi]
            order.append(v)
            lo = hi
        order += held[lo:]
        bounds.append(len(order))
    tree = RouteTree(
        snapshot.asns, snapshot.index, order, parent, bounds[0], bounds[1]
    )

    # A failure can *improve* an AS's export: the selected route is not
    # the shortest available path, so losing a customer route may reveal
    # a shorter (if less preferred) one, whose export downstream then
    # beats routes the old table kept.  Kept ASes never re-selected, so
    # verify each is still locally stable against what its re-settled
    # neighbours now export to it; a violation means the affected bound
    # was not closed and only a full recomputation is safe.  (Whatever a
    # re-settled AS exports to an unrouted neighbour the sweeps already
    # delivered, so only border holders are at stake.)
    asns = tree.asns
    classes = (_CUSTOMER, _PEER, _PROVIDER)
    code = {i: cls for cls, edge in zip(classes, border) for i in edge}
    for cls, adopted in zip(classes, phases):
        # peers and providers learn customer routes only
        segs = (0, 1, 2, 3) if cls == _CUSTOMER else (0, 3)
        for a in adopted:
            path = None
            for seg in segs:
                offer = (_LINK_CLASS[seg] or cls, -depth[a] - 1)
                for nb in adj[off[4 * a + seg]: off[4 * a + seg + 1]]:
                    if nb not in code:
                        continue
                    current = (code[nb], -depth[nb])
                    if offer < current:
                        continue
                    if path is None:
                        path = tree.path(asns[a])
                    if asns[nb] in path:
                        continue  # the receiver's loop check
                    # a tie goes to the smaller path, as every tie does
                    if offer > current or path < tree.path(
                        asns[parent[nb]]
                    ):
                        return None
    return tree

