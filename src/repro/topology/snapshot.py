"""Frozen, int-indexed topology snapshots — the hot-path representation.

:class:`~repro.topology.graph.ASGraph` is the *builder* representation:
a dict-of-dicts adjacency that is cheap to mutate, journal, and revert.
Every hot path in the repo, however — the three-phase settling kernel,
its restart behind the failure sweeps, the ``compute_many``
process-pool fan-out — only ever *reads* the topology, and pays dict
hashing, fresh-list accessor allocations, and (for the pool) the pickling
of the whole mutable graph on every use.

:class:`TopologySnapshot` is the read-only counterpart: a frozen,
CSR-style view with dense ``asn ↔ index`` maps and per-node neighbour
tuples, built once per graph version by :meth:`ASGraph.snapshot`
(memoized on the version counter, so mutation invalidates it
automatically).  The snapshot is the unit of work the routing kernel
settles on, the payload the session publishes to pool workers (via
:class:`SharedSnapshot`, a shared-memory segment each worker copies out
once per graph version), and — being immutable and self-contained — the
natural shard a future multi-host backend can distribute.

Index assignment is *monotonic in the AS number* (``asns`` is sorted
ascending), so lexicographic comparison of index paths is equivalent to
lexicographic comparison of the corresponding ASN paths — the settling
kernel's deterministic tie-break survives the translation byte for byte.

One adjacency is kept: the edges grouped by relationship class.  Its
flat form, ``cls_off`` / ``cls_adj``, is what the snapshot is built
from, pickled as and published in — node ``i``'s customers are
``cls_adj[cls_off[4*i] : cls_off[4*i+1]]``, then providers, peers, and
siblings in the following three segments (insertion order within each
class, matching ``ASGraph.customers`` and friends).  Every reader uses
the per-node tuples built from it at construction instead:
``class_nbrs[c][i]`` is node ``i``'s neighbours of class ``c``, and
``phase_nbrs`` holds, for each of the settling kernel's three phases
(:data:`PHASE_CLASSES`), one tuple of node ``i``'s seed-link neighbours
and one of its expansion-link neighbours per node, joined from them.
Both are built in the process that builds the snapshot, and again in one
that unpickles or attaches it; they are never shipped.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..errors import UnknownASError
from ..obs import get_registry
from .relationships import Relationship

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ASGraph

_SNAPSHOT_BUILDS = get_registry().counter(
    "repro_topology_snapshot_builds_total",
    "Topology snapshots derived from mutable graphs",
)

#: Relationship-class segment order inside ``cls_adj`` (and the codes the
#: settling kernel switches on).
CLASS_CUSTOMER = 0
CLASS_PROVIDER = 1
CLASS_PEER = 2
CLASS_SIBLING = 3

#: Per settling phase — climb, cross one peering link, descend — the
#: relationship classes whose links every holder so far seeds across, and
#: those an adoption spreads through within the phase.
PHASE_CLASSES = (
    ((CLASS_PROVIDER, CLASS_SIBLING), (CLASS_PROVIDER, CLASS_SIBLING)),
    ((CLASS_PEER,), (CLASS_SIBLING,)),
    ((CLASS_CUSTOMER,), (CLASS_CUSTOMER, CLASS_SIBLING)),
)

_REL_TO_CLASS: Dict[Relationship, int] = {
    Relationship.CUSTOMER: CLASS_CUSTOMER,
    Relationship.PROVIDER: CLASS_PROVIDER,
    Relationship.PEER: CLASS_PEER,
    Relationship.SIBLING: CLASS_SIBLING,
}


class TopologySnapshot:
    """A frozen, int-indexed, CSR-style view of one :class:`ASGraph` state.

    Instances are immutable by contract: every field is written once by
    :meth:`build` and never mutated (``class_nbrs``, ``phase_nbrs`` and
    ``_np_phases`` are derived views, not state).  Do not modify the
    arrays.
    """

    __slots__ = (
        "version",
        "asns",
        "index",
        "cls_off",
        "cls_adj",
        # derived views (excluded from pickles)
        "class_nbrs",
        "phase_nbrs",
        "_np_phases",
    )

    def __init__(
        self,
        version: int,
        asns: Tuple[int, ...],
        cls_off: array,
        cls_adj: array,
    ) -> None:
        self.version = version
        self.asns = asns
        self.index = {asn: i for i, asn in enumerate(asns)}
        self.cls_off = cls_off
        self.cls_adj = cls_adj
        # Every reader's neighbour tuples, built here and not on a
        # settle's first call: the settle clock never pays for them and
        # no two threads race to.  One tuple per node and class (slices
        # of one list, so they share its int objects), joined per phase; a
        # join with an empty class is the other tuple itself, and the
        # climb's one view serves as both its seed and its expansion links.
        off = cls_off.tolist()
        get = cls_adj.tolist().__getitem__
        self.class_nbrs = tuple(
            tuple(map(tuple, map(get, map(slice, off[c::4], off[c + 1::4]))))
            for c in range(4)
        )
        views: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
        for classes in {classes for phase in PHASE_CLASSES for classes in phase}:
            first, *rest = classes
            view = self.class_nbrs[first]
            for c in rest:
                view = tuple(map(add, view, self.class_nbrs[c]))
            views[classes] = view
        self.phase_nbrs = tuple(
            (views[seed], views[expand]) for seed, expand in PHASE_CLASSES
        )
        self._np_phases = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: "ASGraph") -> "TopologySnapshot":
        """Derive a snapshot of ``graph``'s current state.

        Prefer :meth:`ASGraph.snapshot`, which memoizes the result on the
        graph's version counter; building directly always re-derives.
        """
        adj_map = graph._adj
        asns = tuple(sorted(adj_map))
        index = {asn: i for i, asn in enumerate(asns)}
        cls_off = array("l", [0])
        cls_adj = array("l")
        for asn in asns:
            groups: Tuple[list, list, list, list] = ([], [], [], [])
            for neighbor, rel in adj_map[asn].items():
                groups[_REL_TO_CLASS[rel]].append(index[neighbor])
            for group in groups:
                cls_adj.extend(group)
                cls_off.append(len(cls_adj))
        snapshot = cls(graph.version, asns, cls_off, cls_adj)
        _SNAPSHOT_BUILDS.inc()
        return snapshot

    # ------------------------------------------------------------------
    # identity / translation
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.asns)

    @property
    def num_directed_edges(self) -> int:
        return len(self.cls_adj)

    def __len__(self) -> int:
        return len(self.asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self.index

    def index_of(self, asn: int) -> int:
        """Dense index of ``asn`` (raises :class:`UnknownASError`)."""
        try:
            return self.index[asn]
        except KeyError:
            raise UnknownASError(asn) from None

    def path_to_indices(self, path: Iterable[int]) -> Tuple[int, ...]:
        """Translate an ASN path into index space (raises on unknown AS)."""
        index = self.index
        try:
            return tuple(index[asn] for asn in path)
        except KeyError as exc:
            raise UnknownASError(exc.args[0]) from None

    def phase_arrays(self):
        """``phase_nbrs`` as int64 numpy CSR pairs, shared per snapshot.

        ``phase_arrays()[phase] == ((seed_off, seed_adj), (expand_off,
        expand_adj))``, node ``v``'s seed neighbours being
        ``seed_adj[seed_off[v]:seed_off[v + 1]]``: the batched kernel's
        view of the per-node tuples the scalar loop reads, one contiguous
        run per node and phase.  int64 so frontier-wave index arithmetic
        (``target * n + parent`` composites) cannot overflow.  Only
        called by numpy-requiring backends, so the import is local — the
        snapshot itself stays dependency-free.
        """
        if self._np_phases is None:
            import numpy

            csr = {}

            def arrays(view):
                if id(view) not in csr:
                    off = numpy.zeros(len(view) + 1, dtype=numpy.int64)
                    numpy.cumsum(list(map(len, view)), out=off[1:])
                    adj = numpy.fromiter(
                        chain.from_iterable(view), dtype=numpy.int64,
                        count=int(off[-1]),
                    )
                    csr[id(view)] = (off, adj)
                return csr[id(view)]

            self._np_phases = tuple(
                (arrays(seed), arrays(expand))
                for seed, expand in self.phase_nbrs
            )
        return self._np_phases

    # ------------------------------------------------------------------
    # pickling: ship only the core arrays; the index map and the
    # neighbour tuples are derived state, rebuilt on the receiving side.
    # Every array (and the asns tuple) is packed into the smallest
    # sufficient unsigned typecode — a tuple of Python ints or an
    # 8-byte-per-entry array would pickle larger than the mutable graph's
    # memoized dict walk, defeating the pool-ship win.
    # ------------------------------------------------------------------
    @staticmethod
    def _pack(values) -> array:
        for code in ("H", "I"):
            try:
                return array(code, values)
            except OverflowError:
                continue
        return array("q", values)

    def __getstate__(self):
        pack = self._pack
        return (
            self.version, pack(self.asns),
            pack(self.cls_off), pack(self.cls_adj),
        )

    def __setstate__(self, state) -> None:
        version, asns, cls_off, cls_adj = state
        self.__init__(version, tuple(asns), cls_off, cls_adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySnapshot(n={len(self.asns)}, "
            f"directed_edges={len(self.cls_adj)}, version={self.version})"
        )


# ----------------------------------------------------------------------
# shared-memory publication: the transport behind the session's sharded
# pool fan-out.  The parent *publishes* the three core arrays into one
# POSIX shared-memory segment; each worker *attaches* by a descriptor of
# a few dozen bytes, copies the arrays out and closes its mapping at
# once — per-fan-out ship cost is O(1) in the topology size instead of
# O(snapshot × workers), and per graph version each worker copies once.
# ----------------------------------------------------------------------

#: Every field is stored as 8-byte signed ints ("q"): wide enough for any
#: AS number or index.
_SHM_ITEMCODE = "q"
_SHM_ITEMSIZE = 8

_SHARED_SEGMENTS = get_registry().counter(
    "repro_topology_shared_segments_total",
    "Shared-memory snapshot segment lifecycle events",
    labels=("event",),
)

_SHM_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory is usable in this process (memoized).

    Probes by creating and immediately destroying a minimal segment —
    sandboxed environments can lack a usable ``/dev/shm`` even when
    :mod:`multiprocessing.shared_memory` imports fine.  The session's
    pool publisher consults this before publishing; on a False verdict
    fan-outs settle serially.
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
    ``cls_off``, ``cls_adj`` — as int64 into one
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
                payload = array(_SHM_ITEMCODE, field).tobytes()
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
        words = array(_SHM_ITEMCODE)
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedSnapshot(name={self.shm.name!r}, "
            f"version={self.version}, nbytes={self.nbytes})"
        )


def _release_segment(shm) -> None:
    """Close and unlink an owner's segment; a name already gone is fine."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
