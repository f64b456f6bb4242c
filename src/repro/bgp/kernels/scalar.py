"""The pure-Python settling loops, and the instruments every settle feeds.

All three run in index space on a frozen
:class:`~repro.topology.snapshot.TopologySnapshot`:
:func:`settle_waves`, the one wave loop, which
:func:`compute_routes_snapshot` (the ``scalar`` kernel) runs from the
destination alone and :func:`resettle` restarts from a settled tree with
the affected subtrees cleared; and :func:`settle_pinned`, the heap walk
of a pinned request, whose result is not a tree.

The heap walks order entries by ``(length, path)``, a distinct pair per
entry, so the selected table is independent of neighbour-iteration
order.  Snapshot indices ascend with the ASN, and every settled path
starts with its holder, so equal-length candidates for one AS compare as
their parents' indices: the wave sweeps reproduce the heap's pop order
(:mod:`repro.bgp.kernels.batched`, "Why waves are exact").  The oracle
holds every loop here byte-equal to
:func:`~repro.bgp.routing.compute_routes_reference`.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...obs import DEFAULT_SIZE_BUCKETS, get_registry, get_tracer
from ...topology.graph import ASGraph
from ...topology.snapshot import PHASE_CLASSES, TopologySnapshot
from ..policy import classify_path
from ..route import Route, RouteClass
from ..routing import TABLES_TOTAL, RouteTree

# Per-phase timings feed the registry unconditionally (a few perf_counter
# reads per table); spans record only when the tracer is enabled.
_TRACER = get_tracer()
_PHASE_SECONDS = get_registry().histogram(
    "repro_routing_phase_seconds",
    "Wall-clock seconds per settling phase (the three-phase propagation)",
    labels=("phase", "mode"),
)
_FRONTIER_SIZE = get_registry().histogram(
    "repro_routing_frontier_size",
    "Frontier (settled-boundary) size seeding incremental recomputation",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_TABLES_FULL = TABLES_TOTAL.labels(mode="full")

_PHASE_NAMES = ("phase1_climb", "phase2_peer", "phase3_descend")
#: mode -> one phase timer per phase: ``full`` (the scalar kernel and the
#: pinned walk), ``incremental`` (re-derivation), ``batched`` (the numpy
#: kernel) and ``reference`` (the legacy dict walk).
_PHASE_TIMERS = {
    mode: tuple(
        _PHASE_SECONDS.labels(phase=p, mode=mode) for p in _PHASE_NAMES
    )
    for mode in ("full", "incremental", "batched", "reference")
}


class phase_span:
    """Time one settling phase into its histogram (and a span if tracing).

    A slotted class, not a generator context manager: each settle opens
    three, and with tracing off (the tracer's no-op span) these few
    attribute reads are all the instrumentation a phase pays.
    """

    __slots__ = ("_span", "_timer", "_start")

    def __init__(self, phase: int, mode: str, destination: int) -> None:
        self._span = _TRACER.span(_PHASE_NAMES[phase], destination=destination)
        self._timer = _PHASE_TIMERS[mode][phase]

    def __enter__(self) -> None:
        self._span.__enter__()
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> bool:
        self._timer.observe(time.perf_counter() - self._start)
        return self._span.__exit__(*exc)


#: Route-class codes the loops settle with — the :class:`RouteClass`
#: *values*, so class comparisons are int compares.
_ORIGIN = RouteClass.ORIGIN.value  # 4
_CUSTOMER = RouteClass.CUSTOMER.value  # 3
_PEER = RouteClass.PEER.value  # 2
_PROVIDER = RouteClass.PROVIDER.value  # 1
_CODE_TO_CLASS = {route_class.value: route_class for route_class in RouteClass}

#: Class code a route takes crossing a link of snapshot class ``c`` (the
#: learner is the holder's customer / provider / peer); 0: a sibling
#: link, which hands on the holder's own class.
_LINK_CLASS = (_PROVIDER, _CUSTOMER, _PEER, 0)

#: :func:`resettle`'s order edits, ``(position, leaves, node)``, sorted
#: by position, entering before leaving.
_EDIT_KEY = itemgetter(0, 1)


def settle_waves(
    snapshot: TopologySnapshot,
    destination: int,
    parent: List[int],
    depth: List[int],
    holders: List[int],
    border: Sequence[Sequence[int]] = ((), (), ()),
    mode: str = "full",
) -> List[Tuple[int, int]]:
    """Settle every unrouted node of ``parent``, one depth level at a time.

    The one settling loop.  A full settle passes ``parent`` with only
    the destination routed and ``holders == [dest]``; :func:`resettle`
    passes a settled tree's parents with a region cleared (``-1``) and
    the kept holders that border the region (with their ``depth``): the
    origin in ``holders`` if it is one, the others in ``border[phase]``
    by the phase that routed them.  ``parent`` and ``depth`` are settled
    in place and adopters appended to ``holders`` in adoption order;
    returns each phase's ``(start, stop)`` slice of ``holders`` — after
    a full settle ``holders`` is the tree's ``order`` and the stops are
    its phase bounds.

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
        with phase_span(phase, mode, destination):
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

    The ``scalar`` kernel: :func:`settle_waves` from the destination
    alone, in index space.  Self-contained on purpose: pool workers call
    this with nothing but the shipped snapshot.  Output is byte-identical
    to :func:`~repro.bgp.routing.compute_routes_reference` — the
    oracle's enforced invariant.
    """
    dest = snapshot.index_of(destination)
    n = snapshot.n
    parent = [-1] * n
    parent[dest] = dest
    order = [dest]
    with _TRACER.span("compute_routes", destination=destination):
        (_, peer_from), (_, provider_from), _ = settle_waves(
            snapshot, destination, parent, [0] * n, order
        )
    _TABLES_FULL.inc()
    return RouteTree(
        snapshot.asns, snapshot.index, order, parent, peer_from, provider_from
    )


def settle_pinned(
    graph: ASGraph, destination: int, pinned: Dict[int, Route]
) -> Dict[int, Route]:
    """The heap walk :func:`~repro.bgp.routing.compute_routes` runs for a
    pinned request, on pins it has validated.

    Per-node class neighbour tuples of ``graph.snapshot()``, int-tuple
    paths, heap entries of ``(length, path, class)``, translated to an
    ASN-keyed best-route dict at the end; an adopted route's class comes
    from the link crossed (:data:`_LINK_CLASS`), never from re-walking
    its path.
    """
    snapshot = graph.snapshot()
    dest = snapshot.index_of(destination)
    n = snapshot.n
    class_nbrs = snapshot.class_nbrs
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
        prop_cls[holder] = classify_path(graph, route.path).value
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
        hops = len(path)
        for c in classes:
            cls = _LINK_CLASS[c] or prop_cls[holder]
            for nb in class_nbrs[c][holder]:
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
            with phase_span(phase, "full", destination):
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
    _TABLES_FULL.inc()
    return best


def resettle(
    snapshot: TopologySnapshot,
    old: RouteTree,
    destination: int,
    affected: Set[int],
) -> Optional[RouteTree]:
    """``old`` with the ``affected`` subtrees re-settled on ``snapshot``
    (same AS population, so same indices), or None when a re-settled AS
    now offers a kept neighbour a route it prefers to the one it kept.

    Costs the region, its neighbours and a few bisect probes, plus
    C-level copies of ``old``'s columns: no pass walks every node.
    """
    n = snapshot.n
    class_nbrs = snapshot.class_nbrs
    index = old.index
    dest = index[destination]
    region = {index[asn] for asn in affected}
    old_parent = old.parent
    parent = list(old_parent)
    touched: Set[int] = set()
    for i in region:
        parent[i] = -1
        for nbrs in class_nbrs:
            touched.update(nbrs[i])

    # A routed node's depth in ``old``, by walking its parent pointers
    # (memoized): a kept node keeps it, and a cleared node's old depth
    # finds it in the old order.
    known = {dest: 0}

    def old_depth(i: int) -> int:
        walked = []
        while i not in known:
            walked.append(i)
            i = old_parent[i]
        d = known[i]
        for j in reversed(walked):
            d += 1
            known[j] = d
        return d

    # The kept holders with a cleared neighbour — the only kept nodes
    # the region can hear from, or be heard by — by the phase that
    # routed them (``old``'s slice column: 0 is the destination or no
    # route).
    slices = old._slice_column()
    border: Tuple[List[int], List[int], List[int]] = ([], [], [])
    depth = [0] * n
    for i in touched:
        k = slices[i]
        if k and i not in region:
            border[k - 1].append(i)
            depth[i] = old_depth(i)
    holders = [dest] if dest in touched else []
    _FRONTIER_SIZE.observe(len(holders) + sum(map(len, border)))

    spans = settle_waves(
        snapshot, destination, parent, depth, holders, border, "incremental"
    )
    phases = [holders[first:stop] for first, stop in spans]

    # A phase's slice of an order ascends in (depth, index), so bisect
    # finds where each cleared node leaves the old slice and where each
    # re-adopted one enters it (probing old entries by their old depth),
    # and the runs between are copied whole.
    def rank(i: int) -> int:
        return old_depth(i) * n + i

    order = old.order
    bounds = (1, old.peer_from, old.provider_from, len(order))
    edits: Tuple[list, list, list] = ([], [], [])
    for i in region:
        k = slices[i]
        if k:
            at = bisect_left(order, rank(i), bounds[k - 1], bounds[k], key=rank)
            edits[k - 1].append((at, True, i))
    new_order = [dest]
    new_bounds = []
    for k, adopted in enumerate(phases):
        lo, hi = bounds[k], bounds[k + 1]
        edit = edits[k]
        for v in adopted:
            at = bisect_left(order, depth[v] * n + v, lo, hi, key=rank)
            edit.append((at, False, v))
        # an entry enters before the old one at its position leaves; two
        # that enter at one position keep their adoption order
        edit.sort(key=_EDIT_KEY)
        for at, leaves, v in edit:
            new_order += order[lo:at]
            if leaves:
                lo = at + 1
            else:
                new_order.append(v)
                lo = at
        new_order += order[lo:hi]
        new_bounds.append(len(new_order))
    tree = RouteTree(
        snapshot.asns, snapshot.index, new_order, parent,
        new_bounds[0], new_bounds[1],
    )
    # the new tree's slice column, patched from the old one's
    column = bytearray(slices)
    for i in region:
        column[i] = 0
    for k, adopted in enumerate(phases, 1):
        for v in adopted:
            column[v] = k
    object.__setattr__(tree, "_slices", bytes(column))

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
                for nb in class_nbrs[seg][a]:
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
