"""Stable-state BGP routing tables under Gao–Rexford policies.

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

This module is the table types and their front doors.  A
:class:`RouteTree` is one destination's un-pinned stable state, the
parent-pointer tree every kernel settles (:mod:`repro.bgp.kernels` holds
the settling loops); a :class:`RoutingTable` reads it in place and keeps
no route dict.  :func:`compute_routes_reference` is the legacy dict walk
the kernels are held byte-equal to (:mod:`repro.verify.oracle`); it
shares no settling code with anything it judges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)

from ..errors import RoutingError, UnknownASError
from ..obs import DEFAULT_SIZE_BUCKETS, get_registry, get_tracer
from ..topology.graph import ASGraph
from .policy import classify_path, exportable_route, make_route, may_export
from .route import Route, RouteClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernels.scalar import Descent

_TRACER = get_tracer()
_REGISTRY = get_registry()
#: Tables settled, by how: ``partial`` (the scalar kernel's fills, whose
#: descent is resolved on demand — the completions are the count of
#: ``repro_routing_phase_seconds{mode="partial",phase="phase3_descend"}``),
#: ``full`` (the batched kernel and the pinned walk, in
#: :mod:`repro.bgp.kernels`), ``incremental``, ``reference``.
TABLES_TOTAL = _REGISTRY.counter(
    "repro_routing_tables_total",
    "Stable-state routing tables settled, by computation mode",
    labels=("mode",),
)
_EXPANDED_TOTAL = _REGISTRY.counter(
    "repro_routing_tables_materialized_total",
    "Route trees expanded into every {asn: Route} pair (one per "
    "whole-table read)",
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
_TABLES_INCREMENTAL = TABLES_TOTAL.labels(mode="incremental")
_TABLES_REFERENCE = TABLES_TOTAL.labels(mode="reference")

#: A routed AS's class by the slice of :attr:`RouteTree.order` it sits
#: in — the destination, then the three settling phases: definition order.
_SLICE_CLASS = tuple(RouteClass)


#: ``parent`` entry of a node a pull found without a route; an
#: unresolved node of a partial tree reads ``-1``, as does any unrouted
#: node of a complete one.  Every reader reads a negative entry as None.
NO_ROUTE = -2


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RouteTree:
    """One destination's un-pinned stable state, as a parent-pointer tree.

    Tree consistency makes the table a tree rooted at the destination:
    ``parent[i]`` is the snapshot index of node ``i``'s next hop (``-1``
    for no route; the destination points at itself), ``order`` lists the
    routed nodes in adoption order, destination first, and the route
    class is a constant per settling phase — ``order[1:peer_from]``
    adopted CUSTOMER routes, ``order[peer_from:provider_from]`` PEER, the
    rest PROVIDER.  ``asns`` / ``index`` are the settling snapshot's
    translation maps, by reference.

    A tree is *complete* or *partial*.  The scalar kernel's fill settles
    the climb and the peer phase and hands the descent over as a
    :class:`~repro.bgp.kernels.scalar.Descent`, which holds the snapshot.
    Until the tree completes, a ``-1`` in ``parent`` is unresolved: the
    first per-AS read of one (:meth:`path`, :meth:`route`,
    :meth:`learned`) pulls the AS's provider closure into ``parent``,
    and the second — or any whole-tree read (``order``, :meth:`expand`,
    the slice column) — completes the tree: fresh ``order`` and
    ``parent`` columns swapped in, the descent (and its snapshot)
    dropped.  Both write values the complete tree holds, so a reader on
    another thread holding the old column still reads right.  The
    batched kernel, the pool and :func:`recompute_routes` build complete
    trees.

    Reads: :meth:`path` walks parents in O(hops) and builds nothing
    else; :meth:`route` adds the class of the slice the AS sits in;
    :meth:`expand` lists every route in one pass and keeps none.
    """

    asns: Tuple[int, ...]
    index: Dict[int, int]
    _order: Sequence[int]
    parent: Sequence[int]
    peer_from: int
    provider_from: int
    _descent: Optional["Descent"] = None
    #: node -> its slice of ``order`` (0 the destination, 1–3 the
    #: phases), one byte per node, built by the first per-AS read of a
    #: complete tree.
    _slices: Optional[bytes] = field(default=None, init=False)

    @property
    def order(self) -> Sequence[int]:
        """The routed nodes in adoption order — a whole-tree read."""
        if self._descent is not None:
            self.complete()
        return self._order

    def complete(self) -> None:
        """Settle the descent in full, once (a no-op on a complete tree).

        The new columns are published before the descent is dropped, so
        a reader that finds no descent reads them.
        """
        descent = self._descent
        if descent is None:
            return
        with descent.lock:
            if self._descent is None:
                return  # another thread completed it
            order, parent = descent.complete(self._order)
            object.__setattr__(self, "_order", order)
            object.__setattr__(self, "parent", parent)
            object.__setattr__(self, "_descent", None)

    def pull(self, nodes: Iterable[int]) -> Sequence[int]:
        """Resolve ``nodes`` (snapshot indices) by a pull that neither
        completes the tree nor counts as its first; returns the
        ``parent`` column they are resolved in."""
        descent = self._descent
        if descent is None:
            return self.parent
        descent.pull(nodes)
        return descent.parent

    def _resolved(self, nodes: Sequence[int]) -> Sequence[int]:
        """The ``parent`` column with ``nodes`` resolved: as it stands,
        by the tree's first pull, or by completing it.  A pull writes
        only the descent's own (partial) column, never a completed one."""
        descent = self._descent
        if descent is None:
            return self.parent
        parent = descent.parent
        if all(parent[i] != -1 for i in nodes):
            return parent
        if not descent.pulls:
            descent.pulls = 1
            descent.pull(nodes)
            return parent
        self.complete()
        return self.parent

    def path(self, asn: int) -> Optional[Tuple[int, ...]]:
        """``asn``'s selected AS path, or None when it has no route —
        which includes an AS the snapshot did not contain."""
        i = self.index.get(asn)
        if i is None:
            return None
        parent = self.parent
        hop = parent[i]
        if hop < 0:
            # unresolved, or no route: read again, resolved
            parent = self._resolved((i,))
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

    def _slice_column(self) -> bytes:
        """The slice column — a whole-tree read."""
        slices = self._slices
        if slices is None:
            # a racing first reader builds the same bytes; either is kept
            column = bytearray(len(self.asns))
            order = self.order
            bounds = (1, self.peer_from, self.provider_from, len(order))
            for k in (1, 2, 3):
                for i in order[bounds[k - 1]:bounds[k]]:
                    column[i] = k
            slices = bytes(column)
            object.__setattr__(self, "_slices", slices)
        return slices

    def _codes(self):
        """A routed node's slice code, by index: a partial tree's from
        its descent (the nodes routed before it, else 3)."""
        descent = self._descent
        if descent is None:
            return self._slice_column().__getitem__
        return descent.code

    def route(self, asn: int) -> Optional[Route]:
        """``asn``'s selected route, or None as for :meth:`path`: the
        walked path, classed by the slice of ``order`` the AS sits in."""
        path = self.path(asn)
        if path is None:
            return None
        code = self._codes()(self.index[asn])
        return Route._trusted(path, _SLICE_CLASS[code])

    def learned(self, graph: ASGraph, asn: int) -> List[Route]:
        """What :func:`~repro.bgp.policy.exportable_route` yields for
        ``asn`` from each routed neighbour of ``graph`` (in its order):
        the export rule is asked with the neighbour's class before its
        path is walked, and the walk, prefixed by ``asn``, stops at
        ``asn`` — the receiver's loop check.  The neighbours are
        resolved by one pull."""
        index, asns = self.index, self.asns
        code = self._codes()
        neighbors = [
            (neighbor, index.get(neighbor))
            for neighbor in graph.neighbors(asn)
        ]
        parent = self._resolved([i for _, i in neighbors if i is not None])
        learned = []
        for neighbor, i in neighbors:
            if i is None or parent[i] < 0 or not may_export(
                graph, neighbor, asn, _SLICE_CLASS[code(i)]
            ):
                continue
            path = [asn, neighbor]
            hop = parent[i]
            while hop != i:
                i = hop
                if asns[i] == asn:
                    break
                path.append(asns[i])
                hop = parent[i]
            else:
                path = tuple(path)
                learned.append(
                    Route._trusted(path, classify_path(graph, path))
                )
        return learned

    def expand(self) -> Iterator[Tuple[int, Route]]:
        """Every routed AS's ``(asn, Route)``, in adoption order.

        O(routed ASes): one path tuple (the parent's, extended) and one
        ``Route`` per node, yielded as built; nothing outlives the
        iteration.  The walk never revisits a node, so the trusted
        constructor is safe.  Counted in
        ``repro_routing_tables_materialized_total``.
        """
        _EXPANDED_TOTAL.inc()
        order = self.order  # completes the tree: read ``parent`` after
        asns, parent = self.asns, self.parent
        destination = asns[order[0]]
        paths: List[Optional[Tuple[int, ...]]] = [None] * len(asns)
        paths[order[0]] = (destination,)
        yield destination, Route((destination,), RouteClass.ORIGIN)
        bounds = (1, self.peer_from, self.provider_from, len(order))
        for k in (1, 2, 3):
            for i in order[bounds[k - 1]:bounds[k]]:
                asn = asns[i]
                path = paths[i] = (asn,) + paths[parent[i]]
                yield asn, Route._trusted(path, _SLICE_CLASS[k])


class RoutingTable:
    """Stable BGP outcome for one destination AS.

    ``best(asn)`` is the route the AS selected (None if unreachable);
    ``candidates(asn)`` is the full set of routes the AS *learned* — one per
    neighbour that exports its best route to it.  The candidate set is what
    a MIRO responding AS can offer in a negotiation (§3.4).

    ``best`` is the :class:`RouteTree` an un-pinned settle produces or,
    for pinned and reference tables, the selected-route dict.  Over a
    tree every read walks the parent pointers and builds only what it
    returns; :meth:`items` is the one whole-table expansion.
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
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def destination(self) -> int:
        return self._destination

    def best(self, asn: int) -> Optional[Route]:
        """The route ``asn`` selected, or None if the destination is unreachable."""
        if asn not in self._graph:
            raise UnknownASError(asn)
        tree = self._tree
        if tree is None:
            return self._routes.get(asn)
        return tree.route(asn)

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
        tree = self._tree
        if tree is None:
            return sorted(self._routes)
        return sorted(map(tree.asns.__getitem__, tree.order))

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
        if asn == self._destination:
            learned = [self.best(asn)]
        elif self._tree is not None:
            learned = self._tree.learned(graph, asn)
        else:
            learned = []
            for neighbor in graph.neighbors(asn):
                route = self._routes.get(neighbor)
                if route is None:
                    continue
                candidate = exportable_route(graph, route, asn)
                if candidate is not None:
                    learned.append(candidate)
        if graph.version == version:  # else enumerated across a mutation
            memo[1][asn] = learned
        return list(learned)

    def items(self) -> Iterator[Tuple[int, Route]]:
        """Every ``(asn, selected route)``, in adoption order — a tree
        expanded in one pass (:meth:`RouteTree.expand`), kept by nobody."""
        tree = self._tree
        if tree is None:
            return iter(self._routes.items())
        return tree.expand()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tree = self._tree
        routed = len(self._routes) if tree is None else len(tree.order)
        return (
            f"RoutingTable(dest={self._destination}, "
            f"routed={routed}/{len(self._graph)})"
        )


def _validate_pinned(
    graph: ASGraph, destination: int, pinned: Dict[int, Route]
) -> None:
    """Pinned-route validation for both pinned walks, before any
    settling: a pinned path through an AS ``graph`` lacks raises
    :class:`UnknownASError` naming that AS, one across two ASes that
    share no link a :class:`RoutingError` naming both."""
    for asn, route in pinned.items():
        for hop in route.path:
            if hop not in graph:
                raise UnknownASError(hop)
        if route.holder != asn:
            raise RoutingError(
                f"pinned route {route} is not held by AS {asn}"
            )
        if route.destination != destination:
            raise RoutingError(
                f"pinned route {route} does not target AS {destination}"
            )
        for a, b in zip(route.path, route.path[1:]):
            if not graph.has_link(a, b):
                raise RoutingError(
                    f"pinned route {route} crosses AS {a} - AS {b}, "
                    f"which is not a link"
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
    default), a pinned one by :func:`repro.bgp.kernels.scalar.settle_pinned`
    once :func:`_validate_pinned` passes, and wraps the result —
    byte-identical to the legacy walk, which survives as
    :func:`compute_routes_reference` for the differential oracle.
    """
    if destination not in graph:
        raise UnknownASError(destination)
    pinned = dict(pinned or {})
    # Late import: repro.bgp.kernels builds this module's table types.
    from .kernels import scalar, settle_many

    if pinned:
        _validate_pinned(graph, destination, pinned)
        best = scalar.settle_pinned(graph, destination, pinned)
    else:
        best = settle_many(graph.snapshot(), [destination])[destination]
    return RoutingTable(graph, destination, best)


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
    _validate_pinned(graph, destination, pinned)
    from .kernels.scalar import phase_span  # late, as in compute_routes

    best: Dict[int, Route] = dict(pinned)
    best[destination] = Route((destination,), RouteClass.ORIGIN)

    with _TRACER.span("compute_routes_reference", destination=destination,
                      pinned=len(pinned)):
        # ---- Phase 1: customer routes climb the hierarchy -------------
        with phase_span(0, "reference", destination):
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
        with phase_span(1, "reference", destination):
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
        with phase_span(2, "reference", destination):
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

    _TABLES_REFERENCE.inc()
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
    changed link (:func:`cut_tree_edges`), otherwise a walk down those
    subtrees over the current graph's links — nothing expands.
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
    # walk down from the cut nodes along current links: a child's tree
    # edge is one of its parent's links unless that link failed, and
    # then the child is in ``cut`` already
    tree = table._tree
    tree.complete()
    parent, asns, index = tree.parent, tree.asns, tree.index
    adj = graph._adj
    stack = list(cut)
    while stack:
        i = stack.pop()
        nbrs = adj.get(asns[i])
        if nbrs is None:
            continue  # the AS left the graph
        for asn in nbrs:
            j = index.get(asn)
            if j is not None and parent[j] == i and j not in cut:
                cut.add(j)
                stack.append(j)
    return {asns[i] for i in cut}


def cut_tree_edges(
    table: RoutingTable, changed: Iterable[Tuple[int, int]]
) -> Optional[Set[int]]:
    """The tree's nodes (snapshot indices) whose edge to their parent is
    a ``changed`` link, one probe per link; None for a dict-backed table.
    Empty after a pure failure: the table is still the stable state.

    A partial tree has the links' endpoints pulled first — never
    completed: :meth:`RouteTableCache.restamp
    <repro.session.cache.RouteTableCache.restamp>` calls this under the
    session lock.  Unpulled, an unresolved endpoint whose descent route
    crosses the link would read as uncut.
    """
    tree = table._tree
    if tree is None:
        return None
    index = tree.index
    links = [
        (ia, ib) for a, b in changed
        # a pair outside the tree's snapshot is not one of its links
        if (ia := index.get(a)) is not None
        and (ib := index.get(b)) is not None
    ]
    parent = tree.pull([i for link in links for i in link])
    cut: Set[int] = set()
    for ia, ib in links:
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
    sweeps of :func:`repro.bgp.kernels.scalar.settle_waves` seeded by the
    kept holders that border the cleared region — the result is the tree
    a fresh full computation on the current graph settles, values and
    order, at a cost proportional to the affected region and its
    neighbours (plus C-level copies of the tree's columns) instead of
    the whole topology: depths come from walking parent pointers, and
    the new order is the old one with the region's nodes bisected out
    and back in.  On the graph's snapshot, derived from the parent
    version's when the event was a link change
    (:meth:`~repro.topology.graph.ASGraph.snapshot`).  An event that
    cuts no tree edge hands back a table over ``table``'s own tree, and
    asks for no snapshot.

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

    tree = table._tree
    if tree is None:
        return settle_in_full("parent_not_tree")
    if affected is None:
        affected = affected_ases(graph, table, changed)
        if affected is None:
            return settle_in_full("unbounded")
    _AFFECTED_SIZE.observe(len(affected))
    if affected:
        snapshot = graph.snapshot()
        # a derived snapshot shares its parent's tuple: no compare
        if snapshot.asns is not tree.asns and snapshot.asns != tree.asns:
            return settle_in_full("as_set_changed")
        from .kernels.scalar import resettle  # late, as in compute_routes

        with _TRACER.span("recompute_routes", destination=destination,
                          affected=len(affected)):
            tree = resettle(snapshot, tree, destination, affected)
        if tree is None:
            return settle_in_full("boundary_improved")
    _TABLES_INCREMENTAL.inc()
    return RoutingTable(graph, destination, tree)
