"""Vectorized batched settling kernel over the CSR snapshot arrays.

The reference settling pops one heap entry at a time: ``(length, path,
class)``, adopt, push the neighbours.  The scalar kernel
(:func:`repro.bgp.kernels.scalar.compute_routes_snapshot`) replays that pop
order as level-synchronous waves in pure Python, one destination at a
time; this kernel settles whole **frontier waves** at
once as numpy operations over the snapshot's per-phase adjacency — the
scalar loop's per-node neighbour tuples as flat arrays
(:meth:`~repro.topology.snapshot.TopologySnapshot.phase_arrays`).  And,
because destinations are mutually independent, it settles **many
destinations in one call** (:func:`settle_many`) on a composite
``destination-slot × node`` index space, so the per-wave numpy dispatch
cost amortizes over the whole sweep.  The output is the scalar kernel's
:class:`~repro.bgp.routing.RouteTree`, equal field for field — same
parents, same adoption order — which the differential oracle enforces
on every check (mode ``kernel:batched``).

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
adoption order a tree's ``order`` lists.

Every node on a candidate's tail is already settled, so the heap walk's
``nb not in path`` loop check is always true for an unsettled target,
and route classes collapse to per-phase constants (Phase 1 adopts
CUSTOMER, Phase 2 PEER, Phase 3 PROVIDER).  Pinned routes would break
both properties; like every kernel this one settles un-pinned tables
only (:func:`repro.bgp.routing.compute_routes` settles pinned ones).
Inside a single phase's wave the class and length are constant, so the
hot argmin is the ``target * n + parent`` composite alone.
"""

from __future__ import annotations

import importlib.util
from array import array
from typing import Dict, Iterable, List, Sequence

from ...errors import KernelError
from ..routing import TABLES_TOTAL, RouteTree
from .scalar import phase_span

__all__ = [
    "numpy_available",
    "settle_many",
]

_TABLES_FULL = TABLES_TOTAL.labels(mode="full")

#: Composite state entries (destination slots × nodes) per settling
#: chunk: bounds the working-set memory of a many-destination sweep
#: (~16 MB of int64 parent state) independently of topology size.
_CHUNK_ENTRIES = 1 << 21

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

def _gather(csr, n: int, frontier_c):
    """One phase's seed or expansion edges for a whole composite frontier.

    For each composite id ``c = slot*n + v`` in ``frontier_c``, node
    ``v``'s neighbours are ``adj[off[v] : off[v+1]]`` of ``csr = (off,
    adj)``.  Returns ``(keys, counts)``: one ``target_c * n + v`` key per
    edge (the target re-based into the parent's slot: ``slot*n*n + v``
    repeated per edge, plus ``target * n``) and each frontier id's edge
    count — via the CSR gather trick: ``repeat`` builds the per-edge
    columns, and a ramp (``arange`` minus each row's exclusive running
    total, plus its run start) builds the flat adjacency indices
    without any per-node loop.
    """
    off, adj = csr
    v = frontier_c % n
    starts = off[v]
    counts = off[v + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64), counts
    ramp = (starts - (_np.cumsum(counts) - counts)).repeat(counts)
    targets_v = adj[_np.arange(total, dtype=_np.int64) + ramp]
    keys = ((frontier_c - v) * n + v).repeat(counts)
    keys += targets_v * n
    return keys, counts


def _run_waves(n: int, settled, parent, depth, seed, expand) -> List:
    """Run one propagation phase as level-synchronous composite waves.

    Every settled composite offers across the phase's ``seed`` links,
    scheduled at its depth + 1 — the length its entry would carry in the
    scalar heap; each adoption offers across the ``expand`` links at the
    next wave.  Mirrors the scalar heap exactly: wave ``L`` combines the
    seeds scheduled at ``L`` with the expansions of wave ``L-1``'s
    adoptions, and each not-yet-settled target adopts from its
    minimum-index parent (the composite ``target*n + parent`` sort;
    first occurrence per target wins, ascending targets preserving the
    scalar pop order).  Returns the adopted composite arrays in wave
    order.
    """
    holders = _np.flatnonzero(settled)
    seed_k, counts = _gather(seed, n, holders)
    seed_w = (depth[holders] + 1).repeat(counts)
    order = _np.argsort(seed_w, kind="stable")
    seed_k = seed_k[order]
    seed_w = seed_w[order]
    adopted: List = []
    empty = _np.empty(0, dtype=_np.int64)
    frontier = empty
    wave = 0
    ptr = 0
    while ptr < seed_w.size or frontier.size:
        if frontier.size == 0:
            wave = int(seed_w[ptr])  # every slot idle: jump to next seed
        take = ptr + int(_np.searchsorted(seed_w[ptr:], wave, side="right"))
        key = seed_k[ptr:take]
        ptr = take
        if frontier.size:
            key = _np.concatenate((key, _gather(expand, n, frontier)[0]))
        if key.size == 0:
            frontier = empty
            wave += 1
            continue
        key.sort()
        targets = key // n
        first = _np.empty(targets.size, dtype=bool)
        first[0] = True
        _np.not_equal(targets[1:], targets[:-1], out=first[1:])
        key = key[first]
        targets = targets[first]
        live = ~settled[targets]
        t_new = targets[live]
        if t_new.size:
            settled[t_new] = True
            parent[t_new] = key[live] - t_new * n
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
    slots = len(dest_indices)
    dest_v = _np.asarray(dest_indices, dtype=_np.int64)
    dest_c = _np.arange(slots, dtype=_np.int64) * n + dest_v

    settled = _np.zeros(slots * n, dtype=bool)
    parent = _np.full(slots * n, -1, dtype=_np.int64)
    depth = _np.zeros(slots * n, dtype=_np.int64)
    settled[dest_c] = True
    parent[dest_c] = dest_v

    destination = int(dest_v[0]) if slots == 1 else -1
    # The three phases of the scalar loop, on the same per-node links
    # (TopologySnapshot.phase_nbrs): customer routes climb providers and
    # siblings from the origins, cross one peering link, then every
    # route descends to customers (chaining through siblings).
    waves = []
    for phase, (seed, expand) in enumerate(snapshot.phase_arrays()):
        with phase_span(phase, "batched", destination):
            waves.append(
                _run_waves(n, settled, parent, depth, seed, expand)
            )

    # ---- one tree per slot ---------------------------------------------
    # Each wave's adoption array is ascending composites — slot-major,
    # nodes ascending within a slot, the scalar adoption order — so a
    # stable sort by slot of the waves laid end to end (the destinations
    # first, as wave 0 of phase 1) is every slot's ``order``, and the
    # per-slot running phase counts are its class bounds.  The trees
    # take their columns as ``array("q")`` copies of the numpy buffers:
    # ``tolist`` would allocate an int object per node per table.
    waves[0].insert(0, dest_c)
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
# the sweep entry point
# ----------------------------------------------------------------------

def settle_many(
    snapshot,
    destinations: Iterable[int],
) -> Dict[int, RouteTree]:
    """Settle many destinations in chunked composite waves.

    The ``batched`` entry of :data:`repro.bgp.kernels.KERNELS`:
    destinations share each wave's numpy dispatch cost, so the per-table
    overhead of the vectorized kernel amortizes to nearly nothing.
    Returns ``{destination: tree}`` with duplicates computed once; each
    tree is equal to the scalar kernel's.
    """
    _require_numpy()
    unique = list(dict.fromkeys(destinations))
    indices = [snapshot.index_of(d) for d in unique]
    chunk = max(1, _CHUNK_ENTRIES // max(snapshot.n, 1))
    out: Dict[int, RouteTree] = {}
    for start in range(0, len(indices), chunk):
        part = indices[start:start + chunk]
        for destination, best in zip(
            unique[start:start + chunk], _settle_chunk(snapshot, part)
        ):
            out[destination] = best
    return out
