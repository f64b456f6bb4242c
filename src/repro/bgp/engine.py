"""Event-driven, message-level BGP simulation (§2.2.2, §2.2.3).

Where :mod:`repro.bgp.routing` computes the Gao–Rexford stable state in
closed form, this module *runs the protocol*: ASes exchange UPDATE and
WITHDRAW messages over sessions, keep per-neighbour Adj-RIB-In state (BGP
is incremental — "each router must remember all received routes"), select
best routes, and propagate changes.  It supports:

* message counting (the scalability currency of path-vector protocols),
* link failure / restoration with reconvergence,
* deterministic FIFO or seeded-random message ordering (the Ch. 7
  activation-order question, at message granularity).

The stable state it reaches is validated against the closed form in the
tests and benchmarks (the DESIGN.md ablation).  Nothing on the serving
path runs it — the MIRO runtime reads its session's closed-form tables;
this engine says what convergence costs in messages
(:mod:`repro.experiments.overhead`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import RoutingError, TopologyError, UnknownASError
from ..topology.graph import ASGraph
from .policy import exportable_route, select_best
from .route import Route, RouteClass


@dataclass(frozen=True, slots=True)
class Update:
    """A BGP message: an announcement (``route`` set) or a withdrawal."""

    sender: int
    receiver: int
    destination: int
    route: Optional[Route]  # None = WITHDRAW

    @property
    def is_withdrawal(self) -> bool:
        return self.route is None


class BGPNode:
    """One AS's BGP state: Adj-RIB-In per neighbour, plus the Loc-RIB."""

    def __init__(self, asn: int) -> None:
        self.asn = asn
        # destination -> neighbour -> learned route
        self.rib_in: Dict[int, Dict[int, Route]] = {}
        # destination -> selected best route
        self.best: Dict[int, Route] = {}
        self.originated: Set[int] = set()

    def candidates(self, destination: int) -> List[Route]:
        learned = list(self.rib_in.get(destination, {}).values())
        if destination in self.originated:
            learned.append(Route((self.asn,), RouteClass.ORIGIN))
        return learned

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BGPNode(asn={self.asn}, prefixes={len(self.best)})"


class EventDrivenBGP:
    """A message-passing BGP system over an AS graph.

    Sessions follow the graph's links; export policies are the
    conventional Gao–Rexford rules (via
    :func:`repro.bgp.policy.exportable_route`).  ``originate`` seeds a
    prefix; ``run`` drains the message queue to quiescence.
    """

    def __init__(self, graph: ASGraph, seed: Optional[int] = None) -> None:
        self.graph = graph
        self.nodes: Dict[int, BGPNode] = {
            asn: BGPNode(asn) for asn in graph.iter_ases()
        }
        # Per-session FIFO queues: BGP messages ride a TCP connection, so
        # updates between one pair of speakers are never reordered; the
        # seeded randomness only chooses which *session* delivers next.
        self._sessions: Dict[Tuple[int, int], deque] = {}
        self._arrivals: deque = deque()  # session keys in arrival order
        self._pending = 0
        self._rng = random.Random(seed) if seed is not None else None
        self._down_links: Set[Tuple[int, int]] = set()
        self.messages_processed = 0
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def node(self, asn: int) -> BGPNode:
        if asn not in self.nodes:
            raise UnknownASError(asn)
        return self.nodes[asn]

    def _link_up(self, a: int, b: int) -> bool:
        key = (min(a, b), max(a, b))
        return self.graph.has_link(a, b) and key not in self._down_links

    def _neighbors(self, asn: int) -> List[int]:
        return [n for n in self.graph.neighbors(asn) if self._link_up(asn, n)]

    # ------------------------------------------------------------------
    # control operations
    # ------------------------------------------------------------------
    def originate(self, destination: int) -> None:
        """The destination AS announces its prefix to its neighbours."""
        node = self.node(destination)
        if destination in node.originated:
            raise RoutingError(f"AS {destination} already originates its prefix")
        node.originated.add(destination)
        self._reselect(destination, destination)

    def fail_link(self, a: int, b: int) -> None:
        """Take a link down; both ends flush routes learned over it."""
        if not self.graph.has_link(a, b):
            raise TopologyError(f"no link {a}—{b}")
        key = (min(a, b), max(a, b))
        if key in self._down_links:
            raise TopologyError(f"link {a}—{b} is already down")
        self._down_links.add(key)
        for here, there in ((a, b), (b, a)):
            node = self.node(here)
            for destination in list(node.rib_in):
                if there in node.rib_in[destination]:
                    del node.rib_in[destination][there]
                    self._reselect(here, destination)

    def restore_link(self, a: int, b: int) -> None:
        """Bring a link back; both ends re-advertise their best routes."""
        key = (min(a, b), max(a, b))
        if key not in self._down_links:
            raise TopologyError(f"link {a}—{b} is not down")
        self._down_links.discard(key)
        for here, there in ((a, b), (b, a)):
            node = self.node(here)
            for destination, best in node.best.items():
                self._send(here, there, destination, best)

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    def _enqueue(self, update: Update) -> None:
        key = (update.sender, update.receiver)
        self._sessions.setdefault(key, deque()).append(update)
        self._arrivals.append(key)
        self._pending += 1
        self.messages_sent += 1

    def _send(
        self, sender: int, receiver: int, destination: int,
        route: Optional[Route],
    ) -> None:
        if route is not None:
            route = exportable_route(self.graph, route, receiver)
            # not exportable (policy or loop): from the receiver's view
            # this neighbour has no route, which a withdrawal conveys
        self._enqueue(Update(sender, receiver, destination, route))

    def _reselect(self, asn: int, destination: int) -> None:
        """Re-run best-route selection at one AS; propagate on change."""
        node = self.node(asn)
        new_best = select_best(node.candidates(destination))
        old_best = node.best.get(destination)
        if new_best == old_best:
            return
        if new_best is None:
            del node.best[destination]
        else:
            node.best[destination] = new_best
        for neighbor in self._neighbors(asn):
            self._send(asn, neighbor, destination, new_best)

    def _process(self, update: Update) -> None:
        self.messages_processed += 1
        if not self._link_up(update.sender, update.receiver):
            return  # message lost with the session
        node = self.node(update.receiver)
        rib = node.rib_in.setdefault(update.destination, {})
        if update.is_withdrawal:
            if update.sender not in rib:
                return
            del rib[update.sender]
        else:
            route = update.route
            assert route is not None
            if route.holder != update.receiver:
                raise RoutingError(
                    f"update for {route} delivered to AS {update.receiver}"
                )
            rib[update.sender] = route
        self._reselect(update.receiver, update.destination)

    def run(self, max_messages: int = 1_000_000) -> int:
        """Drain the queue; returns the number of messages processed.

        Raises :class:`RoutingError` if the budget is exhausted (which,
        under Guideline-A policies on a hierarchical graph, cannot happen
        — see Ch. 7).
        """
        processed = 0
        while self._pending:
            if processed >= max_messages:
                raise RoutingError(
                    f"BGP did not quiesce within {max_messages} messages"
                )
            update = self._next_update()
            self._process(update)
            processed += 1
        return processed

    def _next_update(self) -> Update:
        if self._rng is not None:
            nonempty = [k for k, q in self._sessions.items() if q]
            key = self._rng.choice(nonempty)
            self._arrivals.clear()  # stamps are only used in FIFO mode
        else:
            # arrival stamps mirror the queues 1:1, so the head stamp's
            # session head is the globally oldest message
            key = self._arrivals.popleft()
        update = self._sessions[key].popleft()
        self._pending -= 1
        return update

    @property
    def pending_messages(self) -> int:
        return self._pending

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def best(self, asn: int, destination: int) -> Optional[Route]:
        return self.node(asn).best.get(destination)

    def candidates(self, asn: int, destination: int) -> List[Route]:
        return self.node(asn).candidates(destination)

    def best_paths(self, destination: int) -> Dict[int, Tuple[int, ...]]:
        """asn -> selected AS path for one destination (routed ASes only)."""
        return {
            asn: node.best[destination].path
            for asn, node in self.nodes.items()
            if destination in node.best
        }
