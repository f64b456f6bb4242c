"""Frozen, int-indexed topology snapshots — the hot-path representation.

:class:`~repro.topology.graph.ASGraph` is the *builder* representation:
a dict-of-dicts adjacency that is cheap to mutate, journal, and revert.
Every hot path in the repo, however — the three-phase settling kernel,
its restart behind the failure sweeps, the ``compute_many``
process-pool fan-out — only ever *reads* the topology, and pays dict
hashing, fresh-list accessor allocations, and (for the pool) the pickling
of the whole mutable graph on every use.

:class:`TopologySnapshot` is the read-only counterpart: a frozen,
CSR-style view with dense ``asn ↔ index`` maps and flat neighbour arrays,
built once per graph version by :meth:`ASGraph.snapshot` (memoized on the
version counter, so mutation invalidates it automatically).  The snapshot
is the unit of work the routing kernel settles on, the payload the
session ships to pool workers (via :class:`SharedSnapshot`, a
shared-memory segment workers attach zero-copy — or, where shared memory
is unavailable, a pickle that is still a fraction of the mutable graph's),
and — being immutable and self-contained — the natural shard a future
multi-host backend can distribute.

Index assignment is *monotonic in the AS number* (``asns`` is sorted
ascending), so lexicographic comparison of index paths is equivalent to
lexicographic comparison of the corresponding ASN paths — the settling
kernel's deterministic tie-break survives the translation byte for byte.

Two adjacency layouts are kept, both flat:

* ``nbr_off`` / ``nbr`` — neighbours of node ``i`` in the **builder's
  insertion order** (``nbr[nbr_off[i]:nbr_off[i+1]]``), mirroring
  ``ASGraph.neighbors`` exactly so candidate enumeration stays
  order-identical;
* ``cls_off`` / ``cls_adj`` — the same edges grouped by relationship
  class.  Node ``i``'s customers are
  ``cls_adj[cls_off[4*i] : cls_off[4*i+1]]``, then providers, peers, and
  siblings in the following three segments (insertion order within each
  class, matching ``ASGraph.customers`` and friends).

The settling kernel reads those segments pre-sliced: ``phase_nbrs``
holds, for each of its three phases (:data:`PHASE_CLASSES`), one tuple
of node ``i``'s seed-link neighbours and one of its expansion-link
neighbours per node.  They are built with the snapshot — in the process
that builds it, and again in one that unpickles or attaches it — and are
never shipped.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..errors import TopologyError, UnknownASError
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
    :meth:`build` and never mutated (``phase_nbrs`` and the underscore
    members are derived views, not state).  Do not modify the arrays.
    """

    __slots__ = (
        "version",
        "asns",
        "index",
        "nbr_off",
        "nbr",
        "cls_off",
        "cls_adj",
        # derived views (excluded from pickles)
        "phase_nbrs",
        "_nbr_asn",
        "_off_list",
        "_adj_list",
        "_np_phases",
    )

    def __init__(
        self,
        version: int,
        asns: Tuple[int, ...],
        nbr_off: array,
        nbr: array,
        cls_off: array,
        cls_adj: array,
    ) -> None:
        self.version = version
        self.asns = asns
        self.index = {asn: i for i, asn in enumerate(asns)}
        self.nbr_off = nbr_off
        self.nbr = nbr
        self.cls_off = cls_off
        self.cls_adj = cls_adj
        self._nbr_asn: Dict[int, Tuple[int, ...]] = {}
        off = self._off_list = cls_off.tolist()
        adj = self._adj_list = cls_adj.tolist()
        # Every phase's neighbour tuples, built here and not on a settle's
        # first call: the settle clock never pays for them and no two
        # threads race to.  One tuple per node and class (slices share
        # ``adj``'s int objects), joined per phase; a join with an empty
        # class is the other tuple itself, and the climb's one view
        # serves as both its seed and its expansion links.
        get = adj.__getitem__
        per_class = [
            tuple(map(tuple, map(get, map(slice, off[c::4], off[c + 1::4]))))
            for c in range(4)
        ]
        views: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
        for classes in {classes for phase in PHASE_CLASSES for classes in phase}:
            first, *rest = classes
            view = per_class[first]
            for c in rest:
                view = tuple(map(add, view, per_class[c]))
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
        nbr_off = array("l", [0])
        nbr = array("l")
        cls_off = array("l", [0])
        cls_adj = array("l")
        for asn in asns:
            groups: Tuple[list, list, list, list] = ([], [], [], [])
            for neighbor, rel in adj_map[asn].items():
                nbr.append(index[neighbor])
                groups[_REL_TO_CLASS[rel]].append(index[neighbor])
            nbr_off.append(len(nbr))
            for group in groups:
                cls_adj.extend(group)
                cls_off.append(len(cls_adj))
        snapshot = cls(graph.version, asns, nbr_off, nbr, cls_off, cls_adj)
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
        return len(self.nbr)

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

    def asn_of(self, idx: int) -> int:
        return self.asns[idx]

    def path_to_indices(self, path: Iterable[int]) -> Tuple[int, ...]:
        """Translate an ASN path into index space (raises on unknown AS)."""
        index = self.index
        try:
            return tuple(index[asn] for asn in path)
        except KeyError as exc:
            raise UnknownASError(exc.args[0]) from None

    def path_to_asns(self, idx_path: Iterable[int]) -> Tuple[int, ...]:
        """Translate an index path back into AS numbers."""
        asns = self.asns
        return tuple(asns[i] for i in idx_path)

    def class_lists(self) -> Tuple[list, list]:
        """``(cls_off, cls_adj)`` as plain lists, for the pinned walk and
        the re-derivation's region bookkeeping.

        Indexing a plain list is measurably faster than indexing an
        :mod:`array` in CPython's interpreter loop; the conversion is done
        once per snapshot, at construction, and shared by every run on it.
        """
        return self._off_list, self._adj_list

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

    def neighbors_asn(self, asn: int) -> Tuple[int, ...]:
        """All neighbours of ``asn``, in the builder's insertion order.

        Returns a cached tuple — unlike :meth:`ASGraph.neighbors`, no
        fresh list is allocated per call, which is what the settling and
        invariant hot loops need.  Callers must not rely on it being a
        list (and cannot mutate it).
        """
        i = self.index_of(asn)
        cache = self._nbr_asn
        cached = cache.get(i)
        if cached is None:
            asns = self.asns
            nbr = self.nbr
            lo, hi = self.nbr_off[i], self.nbr_off[i + 1]
            cached = cache[i] = tuple(asns[nbr[k]] for k in range(lo, hi))
        return cached

    # ------------------------------------------------------------------
    # pickling: ship only the core arrays; the index map and the lazy
    # accessor caches are derived state, rebuilt on the receiving side.
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
            pack(self.nbr_off), pack(self.nbr),
            pack(self.cls_off), pack(self.cls_adj),
        )

    def __setstate__(self, state) -> None:
        version, asns, nbr_off, nbr, cls_off, cls_adj = state
        self.__init__(version, tuple(asns), nbr_off, nbr, cls_off, cls_adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySnapshot(n={len(self.asns)}, "
            f"directed_edges={len(self.nbr)}, version={self.version})"
        )


# ----------------------------------------------------------------------
# shared-memory publication: the zero-copy transport behind the session's
# sharded pool fan-out.  The parent *publishes* the five core arrays into
# one POSIX shared-memory segment; workers *attach* by a descriptor of a
# few dozen bytes and rebuild a fully functional snapshot whose arrays
# are views into the mapped segment — per-fan-out ship cost becomes O(1)
# in the topology size instead of O(snapshot × workers).
# ----------------------------------------------------------------------

#: Every field is stored as 8-byte signed ints ("q"): wide enough for any
#: AS number or index, and exactly the int64 layout numpy views expect.
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
    graph version the segment holds, and the five array lengths needed to
    rebuild the views — which is the whole point of the shared-memory
    fan-out.
    """

    name: str
    version: int
    lengths: Tuple[int, int, int, int, int]


class SharedSnapshot:
    """A :class:`TopologySnapshot` placed in shared memory.

    The publisher side (:meth:`publish`) copies the snapshot's five core
    arrays — ``asns``, ``nbr_off``, ``nbr``, ``cls_off``, ``cls_adj`` —
    as int64 into one :mod:`multiprocessing.shared_memory` segment.  The
    consumer side (:meth:`attach`) opens the segment named by a
    :class:`SharedSnapshotDescriptor` and reconstructs a snapshot whose
    arrays are zero-copy views into the mapping: numpy ``int64`` views
    when numpy is importable, ``memoryview.cast`` views otherwise — both
    satisfy every array consumer.  Derived views (the per-phase neighbour
    tuples, the batched kernel's :meth:`TopologySnapshot.phase_arrays`)
    are not in the segment: the attaching side builds them.

    Lifecycle is refcounted: a handle starts with one reference,
    :meth:`addref` takes another, :meth:`close` releases one.  The last
    release drops the reconstructed snapshot, closes the mapping, and on
    the *owner* (publisher) side unlinks the segment.  A :mod:`weakref`
    finalizer performs the same release at garbage collection, so an
    abandoned handle cannot leak the segment past process exit.
    """

    __slots__ = (
        "shm", "version", "lengths", "owner",
        "_refs", "_snapshot", "_views", "_finalizer", "__weakref__",
    )

    def __init__(self, shm, version: int, lengths, owner: bool) -> None:
        self.shm = shm
        self.version = version
        self.lengths = tuple(lengths)
        self.owner = owner
        self._refs = 1
        self._snapshot: Optional[TopologySnapshot] = None
        self._views = None
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # ------------------------------------------------------------------
    # publication / attachment
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, snapshot: TopologySnapshot) -> "SharedSnapshot":
        """Copy ``snapshot``'s core arrays into a fresh shared segment."""
        from multiprocessing import shared_memory

        fields = (
            snapshot.asns, snapshot.nbr_off, snapshot.nbr,
            snapshot.cls_off, snapshot.cls_adj,
        )
        lengths = tuple(len(field) for field in fields)
        total = max(sum(lengths) * _SHM_ITEMSIZE, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            offset = 0
            for field in fields:
                if isinstance(field, array) and field.itemsize == _SHM_ITEMSIZE:
                    payload = field.tobytes()
                else:
                    payload = array(_SHM_ITEMCODE, field).tobytes()
                shm.buf[offset:offset + len(payload)] = payload
                offset += len(payload)
        except Exception:
            shm.close()
            shm.unlink()
            raise
        _SHARED_SEGMENTS.labels(event="publish").inc()
        return cls(shm, snapshot.version, lengths, owner=True)

    @classmethod
    def attach(cls, descriptor: SharedSnapshotDescriptor) -> "SharedSnapshot":
        """Open the segment named by ``descriptor`` (non-owning handle)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.name)
        _SHARED_SEGMENTS.labels(event="attach").inc()
        return cls(shm, descriptor.version, descriptor.lengths, owner=False)

    def descriptor(self) -> SharedSnapshotDescriptor:
        return SharedSnapshotDescriptor(
            self.shm.name, self.version, self.lengths
        )

    @property
    def nbytes(self) -> int:
        """Size of the shared segment (the published copy, not the ship)."""
        return self.shm.size

    # ------------------------------------------------------------------
    # zero-copy reconstruction
    # ------------------------------------------------------------------
    def _field_views(self):
        if self._views is None:
            if self._refs <= 0:
                raise TopologyError("shared snapshot is closed")
            try:
                import numpy

                def view(offset: int, length: int):
                    return numpy.frombuffer(
                        self.shm.buf, dtype=numpy.int64,
                        count=length, offset=offset * _SHM_ITEMSIZE,
                    )
            except ImportError:
                buf = self.shm.buf

                def view(offset: int, length: int):
                    lo = offset * _SHM_ITEMSIZE
                    hi = lo + length * _SHM_ITEMSIZE
                    return buf[lo:hi].cast(_SHM_ITEMCODE)

            views = []
            offset = 0
            for length in self.lengths:
                views.append(view(offset, length))
                offset += length
            self._views = tuple(views)
        return self._views

    @property
    def snapshot(self) -> TopologySnapshot:
        """The reconstructed snapshot (views built once per handle).

        ``asns`` and the ``asn → index`` map are materialized (tuple and
        dict semantics cannot be views), but the four adjacency arrays —
        the O(edges) bulk — index straight into the shared mapping.
        """
        if self._snapshot is None:
            asns_view, nbr_off, nbr, cls_off, cls_adj = self._field_views()
            self._snapshot = TopologySnapshot(
                self.version, tuple(asns_view.tolist()),
                nbr_off, nbr, cls_off, cls_adj,
            )
        return self._snapshot

    # ------------------------------------------------------------------
    # refcounted lifecycle
    # ------------------------------------------------------------------
    @property
    def refs(self) -> int:
        return self._refs

    @property
    def closed(self) -> bool:
        return self._refs <= 0

    def addref(self) -> "SharedSnapshot":
        """Take an additional reference on the open handle; returns it."""
        if self._refs <= 0:
            raise TopologyError("shared snapshot is closed")
        self._refs += 1
        return self

    def close(self) -> None:
        """Release one reference; the last one releases the segment.

        Idempotent once closed.  On the last release the reconstructed
        snapshot and its views are dropped first (so the mapping's buffer
        is no longer exported), the mapping is closed, and the owner side
        unlinks the segment name — attached consumers keep their mappings
        alive until they close, per POSIX unlink semantics.
        """
        if self._refs <= 0:
            return
        self._refs -= 1
        if self._refs:
            return
        self._snapshot = None
        self._views = None
        self._finalizer.detach()
        _release_segment(self.shm, self.owner)
        _SHARED_SEGMENTS.labels(
            event="unlink" if self.owner else "detach"
        ).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self.owner else "attached"
        return (
            f"SharedSnapshot({role}, name={self.shm.name!r}, "
            f"version={self.version}, nbytes={self.nbytes}, "
            f"refs={self._refs})"
        )


#: Mappings whose close found live zero-copy views: kept referenced so the
#: mapping object's own ``__del__`` (which would hit the same BufferError
#: as an unraisable exception) only runs once the views are gone — at
#: worst, interpreter shutdown.
_PINNED_MAPPINGS: list = []


def _release_segment(shm, owner: bool) -> None:
    """Close (and for the owner unlink) a segment, tolerating stragglers.

    A ``BufferError`` on close means zero-copy views into the mapping are
    still alive somewhere; the mapping then stays open until the views
    die (harmless), but the owner still unlinks the *name* so the segment
    cannot outlive its last mapping.
    """
    try:
        shm.close()
    except BufferError:
        _PINNED_MAPPINGS.append(shm)
    except Exception:
        pass
    if owner:
        try:
            shm.unlink()
        except Exception:
            pass
