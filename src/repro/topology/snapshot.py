"""Frozen, int-indexed topology snapshots — the hot-path representation.

:class:`~repro.topology.graph.ASGraph` is the *builder* representation:
a dict-of-dicts adjacency that is cheap to mutate, journal, and revert.
Every hot path in the repo, however — the three-phase settling kernel,
its restart behind the failure sweeps, the ``compute_many``
process-pool fan-out — only ever *reads* the topology, and would pay
dict hashing and fresh-list accessor allocations on every use.

:class:`TopologySnapshot` is the read-only counterpart: a frozen,
CSR-style view with dense ``asn ↔ index`` maps and per-node neighbour
tuples, made once per graph version by :meth:`ASGraph.snapshot`
(memoized on the version counter, so mutation invalidates it
automatically).  :meth:`TopologySnapshot.build` makes one from scratch
and stays the reference; after a link event :meth:`TopologySnapshot.derive`
makes the same snapshot from the parent version's, re-reading only the
two endpoints' rows and sharing everything else, so a flap costs what
it changed.  The snapshot is the unit of work the routing kernel
settles on; how it reaches pool workers is
:mod:`repro.session.pool`'s business, not this module's.

Index assignment is *monotonic in the AS number* (``asns`` is sorted
ascending), so lexicographic comparison of index paths is equivalent to
lexicographic comparison of the corresponding ASN paths — the settling
kernel's deterministic tie-break survives the translation byte for byte.

One adjacency is kept: the edges grouped by relationship class.  Its
flat form, ``cls_off`` / ``cls_adj`` (:data:`ARRAY_TYPECODE` arrays), is
what the snapshot is built from, pickled as and published in — node
``i``'s customers are ``cls_adj[cls_off[4*i] : cls_off[4*i+1]]``, then
providers, peers, and siblings in the following three segments
(insertion order within each class, matching ``ASGraph.customers`` and
friends).  Every reader uses
the per-node tuples built from it at construction instead:
``class_nbrs[c][i]`` is node ``i``'s neighbours of class ``c``, and
``phase_nbrs`` holds, for each of the settling kernel's three phases
(:data:`PHASE_CLASSES`), one tuple of node ``i``'s seed-link neighbours
and one of its expansion-link neighbours per node, joined from them.
Both are built by the constructor, so every copy of a snapshot builds
its own; they are never pickled.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import add
from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from ..errors import UnknownASError
from ..obs import get_registry
from .relationships import Relationship

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ASGraph

_SNAPSHOT_BUILDS = get_registry().counter(
    "repro_topology_snapshot_builds_total",
    "Topology snapshots made from mutable graphs, built or derived",
)
_SNAPSHOT_DERIVED = get_registry().counter(
    "repro_topology_snapshot_derived_total",
    "Topology snapshots derived from the parent version's by patching "
    "the rows a link event touched",
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

#: Typecode of every core array, however a snapshot was obtained: 8-byte
#: signed ints, wide enough for any AS number or index.
ARRAY_TYPECODE = "q"

_REL_TO_CLASS: Dict[Relationship, int] = {
    Relationship.CUSTOMER: CLASS_CUSTOMER,
    Relationship.PROVIDER: CLASS_PROVIDER,
    Relationship.PEER: CLASS_PEER,
    Relationship.SIBLING: CLASS_SIBLING,
}


class TopologySnapshot:
    """A frozen, int-indexed, CSR-style view of one :class:`ASGraph` state.

    Instances are immutable by contract: every field is written once by
    :meth:`build` or :meth:`derive` and never mutated (``class_nbrs``,
    ``phase_nbrs`` and ``_np_phases`` are derived views, not state).  Do
    not modify the arrays.
    """

    __slots__ = (
        "version",
        "asns",
        "index",
        "cls_off",
        "cls_adj",
        # derived views (never pickled)
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
        """A snapshot of ``graph``'s current state, made from scratch.

        Prefer :meth:`ASGraph.snapshot`, which memoizes the result on the
        graph's version counter; building directly always starts over.
        """
        adj_map = graph._adj
        asns = tuple(sorted(adj_map))
        index = {asn: i for i, asn in enumerate(asns)}
        cls_off = array(ARRAY_TYPECODE, [0])
        cls_adj = array(ARRAY_TYPECODE)
        for asn in asns:
            for group in _class_groups(adj_map[asn], index):
                cls_adj.extend(group)
                cls_off.append(len(cls_adj))
        snapshot = cls(graph.version, asns, cls_off, cls_adj)
        _SNAPSHOT_BUILDS.inc()
        return snapshot

    @classmethod
    def derive(
        cls, parent: "TopologySnapshot", graph: "ASGraph",
        touched: Iterable[int],
    ) -> "TopologySnapshot":
        """``parent`` with the rows of the ``touched`` ASes re-read from
        ``graph``: what :meth:`build` returns, at the cost of those rows.

        For a link event over an unchanged AS set, where every row but
        the ``touched`` ones is ``parent``'s (:meth:`ASGraph.snapshot`
        checks that).  ``asns``, ``index`` and every other node's tuples
        are ``parent``'s own objects; the rest is C-level copying — the
        array runs between the patched rows (the offsets after a row
        shift by its change in length), and one list copy per class
        column or joined view the patched rows change.  A touched row's
        tuples are made as :meth:`__init__` makes them (``tuple`` of a
        list, joined with ``+``), so ``seed[i] is expand[i]`` holds
        exactly where a fresh build has it.
        """
        index = parent.index
        adj_map = graph._adj
        rows = {
            index[asn]: tuple(map(tuple, _class_groups(adj_map[asn], index)))
            for asn in touched
        }
        off, adj = parent.cls_off, parent.cls_adj
        cls_off = array(ARRAY_TYPECODE, [0])
        cls_adj = array(ARRAY_TYPECODE)
        done = shift = 0  # rows copied so far; their change in length
        for i in sorted(rows):
            cls_off.extend(map(add, off[4 * done + 1:4 * i + 1], repeat(shift)))
            cls_adj.extend(adj[off[4 * done]:off[4 * i]])
            for group in rows[i]:
                cls_adj.extend(group)
                cls_off.append(len(cls_adj))
            shift = len(cls_adj) - off[4 * i + 4]
            done = i + 1
        cls_off.extend(map(add, off[4 * done + 1:], repeat(shift)))
        cls_adj.extend(adj[off[4 * done]:])

        class_nbrs = list(parent.class_nbrs)
        for c, column in enumerate(class_nbrs):
            if any(row[c] != column[i] for i, row in rows.items()):
                column = list(column)
                for i, row in rows.items():
                    column[i] = row[c]
                class_nbrs[c] = tuple(column)
        # each joined view: the parent's, or patched where a class it
        # joins changed
        views = {}
        for phase, phase_views in zip(PHASE_CLASSES, parent.phase_nbrs):
            views.update(zip(phase, phase_views))
        for classes, view in views.items():
            first, *rest = classes
            if not rest:
                view = class_nbrs[first]
            elif any(class_nbrs[c] is not parent.class_nbrs[c] for c in classes):
                view = list(view)
                for i in rows:
                    joined = class_nbrs[first][i]
                    for c in rest:
                        joined = joined + class_nbrs[c][i]
                    view[i] = joined
                view = tuple(view)
            views[classes] = view

        snapshot = cls.__new__(cls)
        snapshot.version = graph.version
        snapshot.asns = parent.asns
        snapshot.index = index
        snapshot.cls_off = cls_off
        snapshot.cls_adj = cls_adj
        snapshot.class_nbrs = tuple(class_nbrs)
        snapshot.phase_nbrs = tuple(
            (views[seed], views[expand]) for seed, expand in PHASE_CLASSES
        )
        snapshot._np_phases = None
        _SNAPSHOT_BUILDS.inc()
        _SNAPSHOT_DERIVED.inc()
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

    def __reduce__(self):
        # pickled as the arrays it is built from, each packed into the
        # smallest unsigned typecode that holds it; the index map and the
        # neighbour tuples are rebuilt on load
        return _unpickle, (
            self.version, _pack(self.asns),
            _pack(self.cls_off), _pack(self.cls_adj),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySnapshot(n={len(self.asns)}, "
            f"directed_edges={len(self.cls_adj)}, version={self.version})"
        )


def _pack(values) -> array:
    for code in ("H", "I"):
        try:
            return array(code, values)
        except OverflowError:
            continue
    return array(ARRAY_TYPECODE, values)


def _class_groups(row, index) -> Tuple[list, list, list, list]:
    """One adjacency row's neighbour indices by relationship class, in
    the row's order: the ``cls_adj`` segments of its node."""
    groups: Tuple[list, list, list, list] = ([], [], [], [])
    for neighbor, rel in row.items():
        groups[_REL_TO_CLASS[rel]].append(index[neighbor])
    return groups


def _unpickle(version, asns, cls_off, cls_adj) -> TopologySnapshot:
    return TopologySnapshot(
        version, tuple(asns),
        array(ARRAY_TYPECODE, cls_off), array(ARRAY_TYPECODE, cls_adj),
    )
