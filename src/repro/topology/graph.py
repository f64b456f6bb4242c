"""AS-level topology graph annotated with business relationships.

:class:`ASGraph` is the substrate every other subsystem builds on.  It stores
each inter-AS link once, with the relationship viewed from both endpoints,
and offers the queries the paper's policies need: customers / peers /
providers / siblings of an AS, stub and multi-homing tests, and the
customer→provider DAG used by the convergence proofs (Ch. 7).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import DuplicateLinkError, TopologyError, UnknownASError
from .relationships import LinkType, Relationship, link_type_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .snapshot import TopologySnapshot

#: A link identity, endpoint-order normalised (smaller AS number first).
LinkKey = Tuple[int, int]

#: Adjacency rows saved for a restore, by AS (None: the AS was absent).
SavedRows = Dict[int, Optional[Dict[int, Relationship]]]

#: How many version steps the changed-links journal remembers.  Cached
#: routing state older than this can no longer be incrementally updated
#: (consumers fall back to a full recompute), which bounds graph memory.
MAX_JOURNAL_STEPS = 1024


def link_key(a: int, b: int) -> LinkKey:
    """Canonical identity of the undirected link a—b."""
    return (a, b) if a <= b else (b, a)


class ASGraph:
    """An undirected multigraph-free AS topology with typed links.

    Links are added with :meth:`add_link` giving the relationship as seen
    from the first endpoint, e.g. ``add_link(1, 2, Relationship.CUSTOMER)``
    declares "AS 2 is a customer of AS 1" (equivalently, AS 1 is a provider
    of AS 2).
    """

    def __init__(self) -> None:
        # asn -> {neighbour_asn: relationship of neighbour as seen from asn}
        self._adj: Dict[int, Dict[int, Relationship]] = {}
        # current state id; cache layers key routing tables on it
        self._version: int = 0
        # high-water mark: every *new* state gets a never-before-used id,
        # so a reverted delta may restore an old id without collisions
        self._version_counter: int = 0
        # version -> (parent version, links changed in that step); bounded
        self._journal: "OrderedDict[int, Tuple[int, FrozenSet[LinkKey]]]" = (
            OrderedDict()
        )
        # memoized frozen view (see snapshot()): the current version's,
        # or an earlier one's until the next snapshot() replaces it
        self._snapshot: Optional["TopologySnapshot"] = None
        # the memo that snapshot() last replaced, which _restore puts back
        # when it restores that snapshot's version
        self._prior: Optional["TopologySnapshot"] = None

    @property
    def version(self) -> int:
        """State identifier for cache keying.

        Every mutation (:meth:`add_as` of a new AS, :meth:`add_link`,
        :meth:`remove_link`) moves the graph to a fresh, never-reused
        version; derived-graph constructors (:meth:`without_as`) return a
        strictly newer version; :meth:`copy` preserves it.  Cached routing
        state keyed on ``(graph, version)`` is therefore automatically
        invalidated by link failures and other mutations.

        The one way a version can *recur* is
        :meth:`repro.topology.delta.AppliedDelta.revert`, which puts back
        the rows the apply saved and with them the pre-apply version — by
        construction the same state, so cached tables for it become valid
        (and servable) again.
        """
        return self._version

    def _bump(self, changed: FrozenSet[LinkKey]) -> None:
        """Move to a fresh version, journalling which links changed.

        The memo stays: it is the parent version's snapshot (or an
        earlier one), and :meth:`snapshot` derives from it."""
        self._version_counter += 1
        parent = self._version
        self._version = self._version_counter
        self._journal[self._version] = (parent, changed)
        while len(self._journal) > MAX_JOURNAL_STEPS:
            self._journal.popitem(last=False)

    def _save_rows(self, asns: Iterable[int], saved: "SavedRows") -> None:
        """Copy into ``saved`` the row of each AS it does not hold yet
        (None for an AS not in the graph), for :meth:`_restore`."""
        for asn in asns:
            if asn not in saved:
                row = self._adj.get(asn)
                saved[asn] = None if row is None else dict(row)

    def _restore(self, saved: "SavedRows", version: int) -> None:
        """Put back the rows :meth:`_save_rows` saved, then adopt ``version``.

        Only :mod:`repro.topology.delta` calls this, with the rows it
        saved before changing them, so the adjacency is again the one
        ``version`` identified.  A row saved as None deletes its AS; the
        graph takes the saved rows over.  No version is minted and the
        counter keeps its high-water mark, so later mutations still mint
        fresh ids.  When the memo :meth:`snapshot` last replaced is
        ``version``'s, it becomes the memo again (the two swap), so a
        revert and a re-apply each restore a snapshot instead of making
        one.
        """
        for asn, row in saved.items():
            if row is None:
                self._adj.pop(asn, None)
            else:
                self._adj[asn] = row
        self._version = version
        prior = self._prior
        if prior is not None and prior.version == version:
            self._snapshot, self._prior = prior, self._snapshot

    def changed_links_since(self, old_version: int) -> Optional[FrozenSet[LinkKey]]:
        """Links changed between ``old_version`` and the current version.

        Returns the union of the per-step journal entries along the
        version chain from the current version back to ``old_version`` —
        the input an incremental route recomputation needs.  Returns
        ``None`` when the steps are unknown: ``old_version`` is not an
        ancestor of the current version (e.g. it was superseded by a
        revert) or the journal has been trimmed past it.  ``None`` means
        "assume everything changed".  Ids are minted in increasing
        order, parents first, so the walk stops once it passes below
        ``old_version``: an abandoned branch costs a step, not the journal.
        """
        if old_version == self._version:
            return frozenset()
        changed: Set[LinkKey] = set()
        version = self._version
        while version != old_version:
            step = self._journal.get(version) if version > old_version else None
            if step is None:
                return None
            version, step_changed = step
            changed.update(step_changed)
        return frozenset(changed)

    def snapshot(self) -> "TopologySnapshot":
        """The frozen, int-indexed view of the current graph state.

        Made at most once per :attr:`version` and memoized, so hot
        paths — the settling kernel, the session pool, candidate
        enumeration — can call this freely and share one immutable
        :class:`~repro.topology.snapshot.TopologySnapshot` until the
        topology actually changes.  When the memo is the parent
        version's and the step between was a link event (the AS set is
        unchanged), the new snapshot is derived from it, patching the
        two endpoints' rows
        (:meth:`~repro.topology.snapshot.TopologySnapshot.derive`);
        otherwise — an AS event, several steps, no memo — it is built
        from scratch.  :meth:`copy` shares the memo (the snapshot is
        immutable); a reverted delta gets the pre-apply memo back
        (:meth:`_restore`).
        """
        from .snapshot import TopologySnapshot

        snap = self._snapshot
        if snap is not None and snap.version == self._version:
            return snap
        step = self._journal.get(self._version) if snap is not None else None
        if (
            step is not None and step[0] == snap.version and step[1]
            and len(self._adj) == snap.n
        ):
            fresh = TopologySnapshot.derive(
                snap, self, {asn for link in step[1] for asn in link}
            )
        else:
            fresh = TopologySnapshot.build(self)
        self._prior, self._snapshot = snap, fresh
        return fresh

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> None:
        """Add an AS (idempotent)."""
        if not isinstance(asn, int) or asn < 0:
            raise TopologyError(f"AS number must be a non-negative int, got {asn!r}")
        if asn not in self._adj:
            self._adj[asn] = {}
            self._bump(frozenset())

    def add_link(self, a: int, b: int, b_is: Relationship) -> None:
        """Add the link a—b where ``b_is`` is what b is *to a*.

        Raises :class:`DuplicateLinkError` if the link already exists and
        :class:`TopologyError` on self-loops.
        """
        if a == b:
            raise TopologyError(f"self-loop on AS {a} is not allowed")
        self.add_as(a)
        self.add_as(b)
        if b in self._adj[a]:
            raise DuplicateLinkError(f"link {a}—{b} already exists")
        self._adj[a][b] = b_is
        self._adj[b][a] = b_is.inverse
        self._bump(frozenset((link_key(a, b),)))

    def add_customer_link(self, provider: int, customer: int) -> None:
        """Convenience: declare ``customer`` a customer of ``provider``."""
        self.add_link(provider, customer, Relationship.CUSTOMER)

    def add_peer_link(self, a: int, b: int) -> None:
        """Convenience: declare a—b a peering link."""
        self.add_link(a, b, Relationship.PEER)

    def add_sibling_link(self, a: int, b: int) -> None:
        """Convenience: declare a—b a sibling link."""
        self.add_link(a, b, Relationship.SIBLING)

    def remove_link(self, a: int, b: int) -> None:
        """Remove the link a—b (raises if absent)."""
        self._require(a)
        self._require(b)
        if b not in self._adj[a]:
            raise TopologyError(f"no link {a}—{b}")
        del self._adj[a][b]
        del self._adj[b][a]
        self._bump(frozenset((link_key(a, b),)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require(self, asn: int) -> None:
        if asn not in self._adj:
            raise UnknownASError(asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def ases(self) -> List[int]:
        """All AS numbers, ascending."""
        return sorted(self._adj)

    def iter_ases(self) -> Iterator[int]:
        return iter(self._adj)

    @property
    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def iter_links(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Yield each link once as ``(a, b, what_b_is_to_a)`` with a < b."""
        for a, nbrs in self._adj.items():
            for b, rel in nbrs.items():
                if a < b:
                    yield a, b, rel

    def neighbors(self, asn: int) -> List[int]:
        self._require(asn)
        return list(self._adj[asn])

    def degree(self, asn: int) -> int:
        self._require(asn)
        return len(self._adj[asn])

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """What ``neighbor`` is to ``asn`` (raises if not adjacent)."""
        try:
            return self._adj[asn][neighbor]
        except KeyError:
            self._require(asn)
            raise TopologyError(f"AS {neighbor} is not adjacent to AS {asn}") from None

    def has_link(self, a: int, b: int) -> bool:
        return a in self._adj and b in self._adj[a]

    def customers(self, asn: int) -> List[int]:
        return self._by_relationship(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> List[int]:
        return self._by_relationship(asn, Relationship.PROVIDER)

    def peers(self, asn: int) -> List[int]:
        return self._by_relationship(asn, Relationship.PEER)

    def siblings(self, asn: int) -> List[int]:
        return self._by_relationship(asn, Relationship.SIBLING)

    def _by_relationship(self, asn: int, rel: Relationship) -> List[int]:
        self._require(asn)
        return [n for n, r in self._adj[asn].items() if r is rel]

    def is_stub(self, asn: int) -> bool:
        """A stub (leaf) AS acts only as a customer in all its agreements.

        This is the "leaf node" definition used by Guideline C (§7.3.2).
        """
        self._require(asn)
        nbrs = self._adj[asn]
        return bool(nbrs) and all(
            r is Relationship.PROVIDER for r in nbrs.values()
        )

    def is_multihomed_stub(self, asn: int) -> bool:
        """Stub with at least two providers (the Fig. 5.6/5.7 population)."""
        return self.is_stub(asn) and len(self._adj[asn]) >= 2

    def stubs(self) -> List[int]:
        return [a for a in self._adj if self.is_stub(a)]

    def multihomed_stubs(self) -> List[int]:
        return [a for a in self._adj if self.is_multihomed_stub(a)]

    def link_counts(self) -> Dict[LinkType, int]:
        """Count links per class, the Table 5.1 columns."""
        counts = {t: 0 for t in LinkType}
        for _, _, rel in self.iter_links():
            counts[link_type_for(rel)] += 1
        return counts

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def provider_customer_dag_order(self) -> List[int]:
        """Topological order of the customer→provider DAG, providers last.

        Returns ASes in an order where every customer precedes all of its
        (transitive) providers — the Phase-1 activation order of the
        convergence proofs.  Sibling links are treated as same-level and
        ignored.  Raises :class:`TopologyError` if the customer–provider
        relation contains a cycle (the graph is then not hierarchical).
        """
        indegree = {a: 0 for a in self._adj}
        for a, b, rel in self.iter_links():
            # edge customer -> provider
            if rel is Relationship.CUSTOMER:  # b is customer of a
                indegree[a] += 1
            elif rel is Relationship.PROVIDER:  # b is provider of a
                indegree[b] += 1
        queue = deque(sorted(a for a, d in indegree.items() if d == 0))
        order: List[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nbr, rel in self._adj[node].items():
                if rel is Relationship.PROVIDER:  # node -> its provider
                    indegree[nbr] -= 1
                    if indegree[nbr] == 0:
                        queue.append(nbr)
        if len(order) != len(self._adj):
            raise TopologyError("customer-provider relation contains a cycle")
        return order

    def is_hierarchical(self) -> bool:
        """True iff the customer–provider relation is acyclic (§7.1.3)."""
        try:
            self.provider_customer_dag_order()
        except TopologyError:
            return False
        return True

    def connected_components(self) -> List[Set[int]]:
        """Connected components ignoring link types."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp: Set[int] = set()
            queue = deque([start])
            seen.add(start)
            while queue:
                node = queue.popleft()
                comp.add(node)
                for nbr in self._adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        return len(self._adj) == 0 or len(self.connected_components()) == 1

    def copy(self) -> "ASGraph":
        """Deep copy of the topology.

        The clone carries the original's :attr:`version`; the counters then
        diverge as either object mutates, so a session cache built against
        one never serves tables for a mutated state of the other.
        """
        clone = ASGraph()
        clone._adj = {a: dict(nbrs) for a, nbrs in self._adj.items()}
        clone._version = self._version
        clone._version_counter = self._version_counter
        clone._journal = OrderedDict(self._journal)
        # snapshots are immutable, so the clone can share the memo; each
        # object's next mutation drops only its own reference
        clone._snapshot = self._snapshot
        return clone

    def without_as(self, asn: int) -> "ASGraph":
        """A copy of the graph with ``asn`` and its links removed.

        Prefer :class:`repro.topology.delta.TopologyDelta` (``as_down``)
        for failure modelling — it mutates in place, records the changed
        links for incremental recomputation, and can be reverted; this
        constructor remains for callers that need an independent copy.
        """
        self._require(asn)
        clone = ASGraph()
        for a, nbrs in self._adj.items():
            if a == asn:
                continue
            clone._adj[a] = {b: r for b, r in nbrs.items() if b != asn}
        # a derived (mutated) topology: strictly newer than the source,
        # with the removed AS's links journalled as the changed step
        clone._version_counter = self._version_counter
        clone._journal = OrderedDict(self._journal)
        clone._version = self._version
        clone._bump(frozenset(link_key(asn, b) for b in self._adj[asn]))
        return clone

    # ------------------------------------------------------------------
    # path validity
    # ------------------------------------------------------------------
    def is_valley_free(self, path: Tuple[int, ...]) -> bool:
        """:func:`repro.bgp.policy.is_valley_free` on this graph, kept as
        a method because ``bench/check.py`` judges answers with it."""
        from ..bgp.policy import is_valley_free  # bgp sits above topology

        return is_valley_free(self, path)

    def path_exists(self, path: Iterable[int]) -> bool:
        """True iff consecutive ASes on ``path`` are adjacent."""
        nodes = list(path)
        if any(n not in self._adj for n in nodes):
            return False
        return all(self.has_link(a, b) for a, b in zip(nodes, nodes[1:]))

    def __getstate__(self):
        # the snapshot memos are derived state; shipping them would triple
        # the payload of any graph pickle (and one rebuilds in one pass)
        state = self.__dict__.copy()
        state["_snapshot"] = state["_prior"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ASGraph(n={len(self)}, links={self.num_links})"
