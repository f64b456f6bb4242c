"""Vectorized batched settling kernel over the CSR snapshot arrays.

The reference settling pops one heap entry at a time: ``(length, path,
class)``, adopt, push the neighbours.  The scalar kernel
(:func:`repro.bgp.routing.compute_routes_snapshot`) replays that pop
order as level-synchronous waves in pure Python, one destination at a
time; this backend settles whole **frontier waves** at
once as numpy operations over the snapshot's flat per-class adjacency
(:meth:`~repro.topology.snapshot.TopologySnapshot.class_arrays`), and —
because destinations are mutually independent — settles **many
destinations in one call** (:func:`settle_many`) on a composite
``destination-slot × node`` index space, so the per-wave numpy dispatch
cost amortizes over the whole sweep.  The output is the scalar kernel's
:class:`~repro.bgp.routing.RouteTree`, equal field for field — same
parents, same adoption order — which the differential oracle enforces
by enumerating this backend.

Why waves are exact, not an approximation
-----------------------------------------

Every path the heap walk settles starts with its holder's index, so
comparing two settled paths of equal length lexicographically *is*
comparing their holder indices.  A heap candidate for node ``v`` is
``(v,) + P(u)`` for some settled parent ``u``; two same-phase candidates
for ``v`` at the same length therefore compare as ``u`` vs ``u'`` — the
winner is simply the **minimum parent index**.  Since the heap orders by
``(length, path)``, all length-``L`` entries pop before any length-
``L+1`` entry, so the heap's pop order decomposes into level-synchronous
BFS waves: at wave ``L``, every not-yet-settled node with a candidate
adopts the one from its smallest-index parent, in ascending node order.
That per-wave "group by target, take min parent" is one vectorized
sort-and-first-occurrence per wave (inside :func:`_run_waves`), and the
ascending-target pop order falls out of the same sort — preserving the
adoption order the output dict's insertion order is defined by.

Every node on a candidate's tail is already settled, so the heap walk's
``nb not in path`` loop check is always true for an unsettled target,
and route classes collapse to per-phase constants (Phase 1 adopts
CUSTOMER, Phase 2 PEER, Phase 3 PROVIDER).  Pinned routes would break
both properties; like every kernel this one settles un-pinned tables
only (:func:`repro.bgp.routing.compute_routes` settles pinned ones).

The full decision order (class, then length, then parent) packs into one
integer — :func:`pack_candidate_key`, property-tested against
``Route.preference_key`` — but inside a single phase's wave the class and
length are constant, so the kernel's hot argmin only needs the cheaper
``target * n + parent`` composite.
"""

from __future__ import annotations

import importlib.util
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

from ...errors import KernelError
from ..route import RouteClass
from ..routing import (
    _PHASE_NAMES,
    _PHASE_SECONDS,
    _TABLES_TOTAL,
    _TRACER,
    RouteTree,
    _phase_span,
)
from . import KernelBackend, register

__all__ = [
    "BACKEND",
    "numpy_available",
    "pack_candidate_key",
    "settle_batched",
    "settle_many",
]

_PHASE_BATCHED = tuple(
    _PHASE_SECONDS.labels(phase=p, mode="batched") for p in _PHASE_NAMES
)
_TABLES_FULL = _TABLES_TOTAL.labels(mode="full")

#: Composite state entries (destination slots × nodes) per settling
#: chunk: bounds the working-set memory of a many-destination sweep
#: (~16 MB of int64 parent state) independently of topology size.
_CHUNK_ENTRIES = 1 << 21

# ----------------------------------------------------------------------
# packed integer sort key
# ----------------------------------------------------------------------

#: Bit layout of :func:`pack_candidate_key`: class above length above
#: parent index.  24 bits each for length and parent bound the kernel at
#: 16M ASes / 16M hops — three orders of magnitude past the 70k-AS target.
PACK_PARENT_BITS = 24
PACK_LENGTH_SHIFT = PACK_PARENT_BITS
PACK_CLASS_SHIFT = PACK_LENGTH_SHIFT + 24


def pack_candidate_key(
    route_class: int, length: int, parent_index: int
) -> int:
    """Pack one candidate's decision rank into a single integer.

    ``route_class`` is the :class:`RouteClass` *value* (ORIGIN=4 …
    PROVIDER=1, higher preferred), ``length`` the AS-path hop count,
    ``parent_index`` the snapshot index of the candidate's next hop.
    **Smaller key = more preferred**: the class is inverted into the top
    bits, the length sits above the parent index, so an ascending sort of
    packed keys is exactly the settling kernel's decision order — and,
    for candidates whose tails are settled paths, exactly the
    ``Route.preference_key`` order (higher class first, then shorter,
    then the lexicographically smallest path, which settled tails reduce
    to the smallest next-hop index).  The property test in
    ``tests/test_kernels.py`` holds the two orders identical over random
    route populations.
    """
    return (
        ((RouteClass.ORIGIN.value - route_class) << PACK_CLASS_SHIFT)
        | (length << PACK_LENGTH_SHIFT)
        | parent_index
    )


#: numpy, bound by :func:`_require_numpy` at the first batched settle:
#: the optional [accel] extra is never a hard dependency, and a process
#: on the default scalar kernel never pays for importing it.
_np = None


def numpy_available() -> bool:
    """Whether the [accel] extra (numpy) is importable — probed at resolve."""
    return importlib.util.find_spec("numpy") is not None


def _require_numpy() -> None:
    global _np
    if not numpy_available():
        raise KernelError(
            "the batched kernel requires numpy — install the [accel] "
            "extra or set REPRO_KERNEL=scalar"
        )
    if _np is None:
        import numpy

        _np = numpy


# ----------------------------------------------------------------------
# composite-space wave machinery
#
# A chunk of D destinations settles on composite ids c = slot * n + v
# (slot = destination slot, v = node index).  Candidates for different
# destinations can never collide — the slot is baked into the id — so
# one global wave loop advances every destination's BFS level at once.
# ----------------------------------------------------------------------

def _gather(off, adj, n: int, frontier_c, lo: int, hi: int):
    """One class segment's edges for a whole composite frontier.

    For each composite id ``c = slot*n + v`` in ``frontier_c``, node
    ``v``'s segment is ``adj[off[4v+lo] : off[4v+hi]]``.  Returns
    ``(parents_c, parents_v, targets_c)`` — each frontier id repeated
    once per edge, the parent node indices, and the targets re-based
    into the parent's slot — via the CSR gather trick: ``repeat`` builds
    the parent columns, and a ramp (``arange`` minus each row's
    exclusive running total, plus its segment start) builds the flat
    adjacency indices without any per-node loop.
    """
    v = frontier_c % n
    starts = off[4 * v + lo]
    counts = off[4 * v + hi] - starts
    total = int(counts.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty, empty
    parents_c = frontier_c.repeat(counts)
    parents_v = v.repeat(counts)
    ramp = (starts - (_np.cumsum(counts) - counts)).repeat(counts)
    targets_v = adj[_np.arange(total, dtype=_np.int64) + ramp]
    return parents_c, parents_v, parents_c - parents_v + targets_v


def _seed_edges(off, adj, n: int, settled, depth, lo: int, hi: int):
    """Cross-phase seed candidates from every settled holder.

    Gathers segment ``lo..hi`` of all settled composites, drops targets
    that are already settled, and schedules each candidate at its
    parent's depth + 1 — the length its entry would carry in the scalar
    heap.  Returns ``(targets_c, parents_v, waves)``.
    """
    holders = _np.flatnonzero(settled)
    parents_c, parents_v, targets_c = _gather(off, adj, n, holders, lo, hi)
    live = ~settled[targets_c]
    return (
        targets_c[live],
        parents_v[live],
        depth[parents_c[live]] + 1,
    )


def _run_waves(
    off,
    adj,
    n: int,
    settled,
    parent,
    depth,
    seeds,
    expand_segs: Tuple[Tuple[int, int], ...],
    frontier,
    wave: int,
) -> List:
    """Run one propagation phase as level-synchronous composite waves.

    ``seeds`` is ``(targets_c, parents_v, waves)`` from
    :func:`_seed_edges` (or None); ``expand_segs`` the class segments an
    in-phase adoption propagates through; ``frontier``/``wave`` the
    initial frontier (phase 1 starts from the origins at wave 1).
    Mirrors the scalar heap exactly: wave ``L`` combines the seeds
    scheduled at ``L`` with the expansions of wave ``L-1``'s adoptions,
    and each not-yet-settled target adopts from its minimum-index parent
    (the composite ``target*n + parent`` sort; first occurrence per
    target wins, ascending targets preserving the scalar pop order).
    Returns the adopted composite arrays in wave order.
    """
    if seeds is not None and seeds[0].size:
        seed_t, seed_pv, seed_w = seeds
        order = _np.argsort(seed_w, kind="stable")
        seed_t = seed_t[order]
        seed_pv = seed_pv[order]
        seed_w = seed_w[order]
        total_seeds = seed_w.size
    else:
        seed_t = seed_pv = seed_w = None
        total_seeds = 0
    adopted: List = []
    empty = _np.empty(0, dtype=_np.int64)
    ptr = 0
    while ptr < total_seeds or frontier.size:
        if frontier.size == 0:
            wave = int(seed_w[ptr])  # every slot idle: jump to next seed
        t_cols = []
        pv_cols = []
        if ptr < total_seeds:
            take = ptr + int(
                _np.searchsorted(seed_w[ptr:], wave, side="right")
            )
            if take > ptr:
                t_cols.append(seed_t[ptr:take])
                pv_cols.append(seed_pv[ptr:take])
                ptr = take
        if frontier.size:
            for lo, hi in expand_segs:
                _, pv, tc = _gather(off, adj, n, frontier, lo, hi)
                t_cols.append(tc)
                pv_cols.append(pv)
        key = _np.concatenate(t_cols) * n + _np.concatenate(pv_cols) \
            if t_cols else empty
        if key.size == 0:
            frontier = empty
            wave += 1
            continue
        key.sort()
        targets = key // n
        first = _np.empty(targets.size, dtype=bool)
        first[0] = True
        _np.not_equal(targets[1:], targets[:-1], out=first[1:])
        targets = targets[first]
        live = ~settled[targets]
        t_new = targets[live]
        if t_new.size:
            settled[t_new] = True
            parent[t_new] = (key[first] % n)[live]
            depth[t_new] = wave
            adopted.append(t_new)
        frontier = t_new
        wave += 1
    return adopted


def _settle_chunk(snapshot, dest_indices: Sequence[int]) -> List[RouteTree]:
    """Settle one chunk of destinations on the composite index space.

    Returns one :class:`RouteTree` per destination (in input order),
    each equal — parents, adoption order, phase bounds — to the scalar
    kernel's.
    """
    n = snapshot.n
    off, adj = snapshot.class_arrays()
    slots = len(dest_indices)
    dest_v = _np.asarray(dest_indices, dtype=_np.int64)
    dest_c = _np.arange(slots, dtype=_np.int64) * n + dest_v

    settled = _np.zeros(slots * n, dtype=bool)
    parent = _np.full(slots * n, -1, dtype=_np.int64)
    depth = _np.zeros(slots * n, dtype=_np.int64)
    settled[dest_c] = True
    parent[dest_c] = dest_v

    destination = int(dest_v[0]) if slots == 1 else -1
    # ---- Phase 1: customer routes climb the hierarchy -----------------
    # The origins are the only seeds; expansion crosses provider links
    # (segment 1) and sibling links (segment 3).
    with _phase_span(0, _PHASE_BATCHED, destination):
        phase1 = _run_waves(
            off, adj, n, settled, parent, depth,
            seeds=None, expand_segs=((1, 2), (3, 4)),
            frontier=dest_c, wave=1,
        )
    # ---- Phase 2: customer routes cross peering links -----------------
    # Seeds: every unsettled peer of a settled customer-route holder,
    # scheduled at its parent's depth + 1 (seed entries enter the scalar
    # heap at multiple lengths); in-phase expansion crosses siblings only.
    with _phase_span(1, _PHASE_BATCHED, destination):
        phase2 = _run_waves(
            off, adj, n, settled, parent, depth,
            seeds=_seed_edges(off, adj, n, settled, depth, 2, 3),
            expand_segs=((3, 4),),
            frontier=_np.empty(0, dtype=_np.int64), wave=0,
        )
    # ---- Phase 3: best routes flow down to customers -------------------
    # Seeds: every unsettled customer of any settled holder; in-phase
    # expansion chains through customer and sibling links.
    with _phase_span(2, _PHASE_BATCHED, destination):
        phase3 = _run_waves(
            off, adj, n, settled, parent, depth,
            seeds=_seed_edges(off, adj, n, settled, depth, 0, 1),
            expand_segs=((0, 1), (3, 4)),
            frontier=_np.empty(0, dtype=_np.int64), wave=0,
        )

    # ---- one tree per slot ---------------------------------------------
    # Each wave's adoption array is ascending composites — slot-major,
    # nodes ascending within a slot, the scalar adoption order — so a
    # stable sort by slot of the waves laid end to end (the destinations
    # first, as wave 0 of phase 1) is every slot's ``order``, and the
    # per-slot running phase counts are its class bounds.  The trees
    # take their columns as ``array("q")`` copies of the numpy buffers:
    # ``tolist`` would allocate an int object per node per table.
    waves = ([dest_c, *phase1], phase2, phase3)
    adopted = _np.concatenate([t_c for phase in waves for t_c in phase])
    slot_of = adopted // n
    phase_of = _np.repeat(
        _np.arange(3), [sum(t_c.size for t_c in phase) for phase in waves]
    )
    bounds = _np.bincount(
        slot_of * 3 + phase_of, minlength=3 * slots
    ).reshape(slots, 3).cumsum(axis=1)
    order = (adopted % n)[_np.argsort(slot_of, kind="stable")]
    stops = bounds[:, 2].cumsum().tolist()
    asns, index = snapshot.asns, snapshot.index
    _TABLES_FULL.inc(slots)
    return [
        RouteTree(
            asns, index,
            array("q", order[start:stop].tobytes()),
            array("q", column.tobytes()),
            peer_from, provider_from,
        )
        for start, stop, (peer_from, provider_from, _), column in zip(
            [0] + stops, stops, bounds.tolist(), parent.reshape(slots, n)
        )
    ]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def settle_batched(snapshot, destination: int) -> RouteTree:
    """Settle the stable state for ``destination`` in frontier waves.

    Equal to :func:`repro.bgp.routing.compute_routes_snapshot` (the same
    tree, hence the same values *and* dict insertion order).
    """
    _require_numpy()
    dest = snapshot.index_of(destination)
    with _TRACER.span("compute_routes_batched", destination=destination):
        return _settle_chunk(snapshot, (dest,))[0]


def settle_many(
    snapshot,
    destinations: Iterable[int],
) -> Dict[int, RouteTree]:
    """Settle many destinations in chunked composite waves.

    The sweep entry point (``compute_many``'s serial fan-out, the
    benchmarks): destinations share each wave's numpy dispatch cost, so
    the per-table overhead of the vectorized kernel amortizes to nearly
    nothing.  Returns ``{destination: tree}`` with duplicates computed
    once; each tree is equal to the scalar kernel's.
    """
    _require_numpy()
    unique: List[int] = []
    seen = set()
    for destination in destinations:
        if destination not in seen:
            seen.add(destination)
            unique.append(destination)
    indices = [snapshot.index_of(d) for d in unique]
    chunk = max(1, _CHUNK_ENTRIES // max(snapshot.n, 1))
    out: Dict[int, RouteTree] = {}
    with _TRACER.span("settle_many", destinations=len(unique)):
        for start in range(0, len(indices), chunk):
            part = indices[start:start + chunk]
            for destination, best in zip(
                unique[start:start + chunk],
                _settle_chunk(snapshot, part),
            ):
                out[destination] = best
    return out


BACKEND = register(
    KernelBackend(
        name="batched",
        settle=settle_batched,
        settle_many=settle_many,
        description=(
            "Vectorized frontier-wave settling over the CSR arrays, "
            "batching whole destination sweeps (numpy)"
        ),
        requires=("numpy",),
        available=numpy_available,
    )
)
