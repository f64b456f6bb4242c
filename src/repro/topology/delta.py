"""First-class topology mutations: deltas with apply/revert transactions.

MIRO's headline use case is routing *around* problems — a link or an AS on
the default path fails, neighbours negotiate alternates (§5.3), and Ch. 7
studies what happens next.  Modelling such an event used to mean ad-hoc
``graph.remove_link(...)`` calls (hard to undo) or whole-graph
``without_as`` clones (a full copy per event).  A :class:`TopologyDelta`
describes the event declaratively as a sequence of link/AS down/up
operations; :meth:`TopologyDelta.apply` executes it as a transaction on an
:class:`~repro.topology.graph.ASGraph` and returns an
:class:`AppliedDelta` that

* records exactly **which links changed** (the input incremental route
  recomputation needs, see :func:`repro.bgp.routing.recompute_routes`),
* remembers the relationships it destroyed, and
* can :meth:`~AppliedDelta.revert` the graph to the exact pre-apply state
  — including the pre-apply :attr:`~repro.topology.graph.ASGraph.version`,
  so session caches built before the event become valid again instead of
  being recomputed from scratch.

An AS going down is modelled as all of its links going down; the AS itself
stays in the graph (isolated, hence unreachable), which keeps the AS
population stable across an event/revert cycle and lets routing tables
before and after be compared AS by AS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import TopologyError
from .graph import ASGraph, LinkKey, link_key
from .relationships import Relationship


class DeltaOpKind(enum.Enum):
    """The four primitive topology events."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    AS_DOWN = "as-down"
    AS_UP = "as-up"


@dataclass(frozen=True, slots=True)
class DeltaOp:
    """One primitive operation inside a :class:`TopologyDelta`.

    ``a``/``b`` are the link endpoints for the link operations (``b`` is
    unused for the AS operations, where ``a`` is the AS).  ``links`` is
    the adjacency to restore for ``AS_UP``: ``(neighbour, what the
    neighbour is to the AS)`` pairs.  ``relationship`` is what ``b`` is to
    ``a`` for ``LINK_UP``.
    """

    kind: DeltaOpKind
    a: int
    b: Optional[int] = None
    relationship: Optional[Relationship] = None
    links: Tuple[Tuple[int, Relationship], ...] = ()
    #: only on inverse ops: this AS_DOWN also deletes the (delta-created)
    #: node so a revert restores the exact pre-apply AS population
    remove_node: bool = False


@dataclass(frozen=True, slots=True)
class TopologyDelta:
    """A declarative, reusable description of one topology event.

    Build with the factories (:meth:`link_down`, :meth:`as_down`, ...) or
    compose several operations with :meth:`compose`.  A delta holds no
    graph state — the same delta can be applied to many graphs (or to the
    same graph repeatedly, e.g. one failure probed per sweep iteration).
    """

    ops: Tuple[DeltaOp, ...]

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @classmethod
    def link_down(cls, a: int, b: int) -> "TopologyDelta":
        """The link a—b fails."""
        return cls((DeltaOp(DeltaOpKind.LINK_DOWN, a, b),))

    @classmethod
    def link_up(cls, a: int, b: int, b_is: Relationship) -> "TopologyDelta":
        """A new (or repaired) link a—b comes up; ``b_is`` is what b is to a."""
        return cls((DeltaOp(DeltaOpKind.LINK_UP, a, b, relationship=b_is),))

    @classmethod
    def as_down(cls, asn: int) -> "TopologyDelta":
        """AS ``asn`` fails: all of its links go down (the AS stays, isolated)."""
        return cls((DeltaOp(DeltaOpKind.AS_DOWN, asn),))

    @classmethod
    def as_up(
        cls, asn: int, links: Iterable[Tuple[int, Relationship]]
    ) -> "TopologyDelta":
        """AS ``asn`` comes (back) up with the given neighbour adjacency."""
        return cls((DeltaOp(DeltaOpKind.AS_UP, asn, links=tuple(links)),))

    @classmethod
    def link_restore(cls, graph: ASGraph, a: int, b: int) -> "TopologyDelta":
        """A ``link_up`` capturing the a—b relationship as it stands now.

        The churn scenarios build flap sequences up front — fail at
        ``t1``, repair at ``t2`` — before any failure has executed, so
        the repair delta must record the relationship while the link
        still exists.  Raises if a—b is not currently in ``graph``.
        """
        return cls.link_up(a, b, graph.relationship(a, b))

    @classmethod
    def compose(cls, *deltas: "TopologyDelta") -> "TopologyDelta":
        """One delta executing the given deltas' operations in order."""
        ops: List[DeltaOp] = []
        for delta in deltas:
            ops.extend(delta.ops)
        return cls(tuple(ops))

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, graph: ASGraph) -> "AppliedDelta":
        """Execute this delta on ``graph`` as a transaction.

        All operations are validated and executed in order; if any fails,
        the ones already executed are rolled back before the error
        propagates, leaving the graph (state *and* version) untouched.
        Returns the :class:`AppliedDelta` transaction record.
        """
        version_before = graph.version
        undo: List[DeltaOp] = []  # inverse ops, in application order
        changed: Set[LinkKey] = set()
        try:
            for op in self.ops:
                undo.append(self._execute(graph, op, changed))
        except TopologyError:
            _run_inverse(graph, undo)
            graph._restore_version(version_before)
            raise
        return AppliedDelta(
            delta=self,
            graph=graph,
            version_before=version_before,
            version_after=graph.version,
            changed_links=frozenset(changed),
            _undo=tuple(undo),
        )

    @staticmethod
    def _execute(graph: ASGraph, op: DeltaOp, changed: Set[LinkKey]) -> DeltaOp:
        """Execute one op; return its inverse for rollback/revert."""
        if op.kind is DeltaOpKind.LINK_DOWN:
            assert op.b is not None
            rel = graph.relationship(op.a, op.b)  # raises if absent
            graph.remove_link(op.a, op.b)
            changed.add(link_key(op.a, op.b))
            return DeltaOp(DeltaOpKind.LINK_UP, op.a, op.b, relationship=rel)
        if op.kind is DeltaOpKind.LINK_UP:
            assert op.b is not None and op.relationship is not None
            graph.add_link(op.a, op.b, op.relationship)
            changed.add(link_key(op.a, op.b))
            return DeltaOp(DeltaOpKind.LINK_DOWN, op.a, op.b)
        if op.kind is DeltaOpKind.AS_DOWN:
            if op.a not in graph:
                raise TopologyError(f"AS {op.a} is not in the topology")
            links = tuple(
                (nbr, graph.relationship(op.a, nbr))
                for nbr in sorted(graph.neighbors(op.a))
            )
            for nbr, _ in links:
                graph.remove_link(op.a, nbr)
                changed.add(link_key(op.a, nbr))
            if op.remove_node:
                del graph._adj[op.a]
                graph._bump(frozenset())
            return DeltaOp(DeltaOpKind.AS_UP, op.a, links=links)
        # AS_UP
        created = op.a not in graph
        graph.add_as(op.a)
        for nbr, rel in op.links:
            graph.add_link(op.a, nbr, rel)
            changed.add(link_key(op.a, nbr))
        return DeltaOp(DeltaOpKind.AS_DOWN, op.a, remove_node=created)

    def __str__(self) -> str:
        parts = []
        for op in self.ops:
            if op.b is not None:
                parts.append(f"{op.kind.value} {op.a}—{op.b}")
            else:
                parts.append(f"{op.kind.value} {op.a}")
        return ", ".join(parts)


@dataclass(frozen=True, slots=True)
class TimedDelta:
    """A :class:`TopologyDelta` stamped with a simulated injection time.

    The unit of a churn scenario: :func:`repro.convergence.eventsim.run_churn`
    schedules each one as a discrete event at ``time`` and applies it
    through the simulator's transactional
    :meth:`~repro.convergence.simulator.MiroConvergenceSystem.apply_event`
    path while convergence is in flight.
    """

    time: float
    delta: TopologyDelta

    def __str__(self) -> str:
        return f"t={self.time}: {self.delta}"


@dataclass(slots=True)
class AppliedDelta:
    """The transaction record of one :meth:`TopologyDelta.apply`.

    Knows which links changed (for incremental route recomputation), the
    version window the event spans, and how to :meth:`revert`.
    """

    delta: TopologyDelta
    graph: ASGraph
    version_before: int
    version_after: int
    changed_links: FrozenSet[LinkKey]
    _undo: Tuple[DeltaOp, ...] = field(repr=False, default=())
    reverted: bool = False

    def revert(self) -> None:
        """Undo the delta, restoring the exact pre-apply graph state.

        The inverse operations run in reverse order, then the pre-apply
        :attr:`~repro.topology.graph.ASGraph.version` is restored —
        legitimate because the adjacency state is bit-identical to what
        that version identified, so cached routing tables keyed on it
        become servable again (a failure sweep's revert is free).  A
        transaction can be reverted once; reverting twice raises.
        """
        if self.reverted:
            raise TopologyError(f"delta [{self.delta}] was already reverted")
        if self.graph.version != self.version_after:
            raise TopologyError(
                f"cannot revert delta [{self.delta}]: the graph has been "
                f"mutated since it was applied (version "
                f"{self.graph.version} != {self.version_after})"
            )
        _run_inverse(self.graph, list(self._undo))
        self.graph._restore_version(self.version_before)
        self.reverted = True

    def reapply(self) -> None:
        """Re-execute a reverted delta, restoring the post-apply state.

        The forward operations run again (transactionally, like
        :meth:`TopologyDelta.apply`), then the recorded post-apply
        :attr:`~repro.topology.graph.ASGraph.version` is restored — the
        adjacency is bit-identical to what that version identified, so
        routing tables cached after the original apply become servable
        again.  A failure campaign can thus flap the same event
        (apply → revert → reapply → …) without the version journal ever
        drifting or the caches recomputing either side of the flap.

        Re-applying a delta that is currently applied raises
        :class:`~repro.errors.TopologyError` — executing the forward
        operations twice would corrupt the graph (links double-removed)
        and the version journal along with it.  So does re-applying after
        the graph moved on from the reverted state: ``version_after`` no
        longer identifies the adjacency the re-execution would produce.
        """
        if not self.reverted:
            raise TopologyError(
                f"delta [{self.delta}] is already applied; revert it "
                f"before re-applying"
            )
        if self.graph.version != self.version_before:
            raise TopologyError(
                f"cannot re-apply delta [{self.delta}]: the graph has been "
                f"mutated since it was reverted (version "
                f"{self.graph.version} != {self.version_before})"
            )
        undo: List[DeltaOp] = []
        changed: Set[LinkKey] = set()
        try:
            for op in self.delta.ops:
                undo.append(TopologyDelta._execute(self.graph, op, changed))
        except TopologyError:
            _run_inverse(self.graph, undo)
            self.graph._restore_version(self.version_before)
            raise
        self.graph._restore_version(self.version_after)
        self._undo = tuple(undo)
        self.reverted = False


def _run_inverse(graph: ASGraph, undo: List[DeltaOp]) -> None:
    """Run recorded inverse ops, newest first (used by revert/rollback)."""
    scratch: Set[LinkKey] = set()
    for op in reversed(undo):
        TopologyDelta._execute(graph, op, scratch)
