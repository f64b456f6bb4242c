"""Control-plane overhead: MIRO vs push-based alternatives (§3.2).

The abstract claims MIRO "offers tremendous flexibility ... with
reasonable overhead"; §3.2 argues that pull-based retrieval avoids
"the propagation of unnecessary information".  This experiment quantifies
that with three message counts on the same topology:

* **BGP** — messages for the default single-path protocol to converge
  (the event-driven engine of :mod:`repro.bgp.engine`);
* **push-all** — a hypothetical protocol in which every AS advertises
  *every* policy-compliant path it learns (the state a push-based
  multi-path dissemination would move; source routing's link-state flood
  is even larger);
* **MIRO** — the BGP baseline plus four control messages per negotiation
  (request, offer, accept, tunnel-id — Fig. 4.2) for a population of
  avoid-AS requests, using the measured negotiations-per-request of
  Table 5.3.

The paper's expectation, reproduced here: push-all costs a large multiple
of BGP, while MIRO adds only a few messages per *requesting* AS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..bgp.engine import EventDrivenBGP
from ..bgp.policy import may_export
from ..miro.avoidance import miro_attempt, single_path_attempt
from ..miro.negotiation import HANDSHAKE_MESSAGES
from ..miro.policies import ExportPolicy
from ..topology.graph import ASGraph
from .sampling import sample_triples

def bgp_message_count(
    graph: ASGraph, destinations: Sequence[int]
) -> int:
    """Messages for plain BGP to converge on the given prefixes."""
    engine = EventDrivenBGP(graph)
    for destination in destinations:
        engine.originate(destination)
    return engine.run()


def push_all_message_count(
    graph: ASGraph,
    destinations: Sequence[int],
    max_path_length: int = 6,
    message_budget: int = 5_000_000,
) -> int:
    """Messages for a push-based protocol advertising *all* learned paths.

    Every AS re-advertises each newly learned, policy-compliant path to
    every neighbour the export rules allow.  ``max_path_length`` bounds
    the explosion the same way real proposals bound it (and biases the
    count *down*, in push-all's favour).
    """
    from ..bgp.policy import classify_path

    known: Dict[Tuple[int, int], Set[Tuple[int, ...]]] = {}
    queue: deque = deque()
    messages = 0

    def advertise(holder: int, path: Tuple[int, ...], destination: int) -> None:
        nonlocal messages
        route_class = classify_path(graph, path)
        for neighbor in graph.neighbors(holder):
            if neighbor in path:
                continue
            if not may_export(graph, holder, neighbor, route_class):
                continue
            messages += 1
            queue.append((neighbor, (neighbor,) + path, destination))

    for destination in destinations:
        known[(destination, destination)] = {(destination,)}
        advertise(destination, (destination,), destination)

    while queue:
        if messages > message_budget:
            raise RuntimeError(
                f"push-all exceeded the {message_budget}-message budget"
            )
        receiver, path, destination = queue.popleft()
        if len(path) - 1 > max_path_length:
            continue
        paths = known.setdefault((receiver, destination), set())
        if path in paths:
            continue
        paths.add(path)
        advertise(receiver, path, destination)
    return messages


@dataclass(frozen=True)
class OverheadComparison:
    """Message counts for one topology and request population."""

    n_destinations: int
    n_requests: int
    bgp_messages: int
    push_all_messages: int
    miro_negotiation_messages: int

    @property
    def miro_total(self) -> int:
        return self.bgp_messages + self.miro_negotiation_messages

    @property
    def push_all_blowup(self) -> float:
        """How many times BGP's message count push-all moves."""
        return self.push_all_messages / max(1, self.bgp_messages)

    @property
    def miro_overhead_fraction(self) -> float:
        """MIRO's negotiation messages relative to the BGP baseline."""
        return self.miro_negotiation_messages / max(1, self.bgp_messages)

    def as_rows(self) -> List[Tuple[str, int, str]]:
        return [
            ("BGP (default routes)", self.bgp_messages, "1.00x"),
            (
                "push-all alternates",
                self.push_all_messages,
                f"{self.push_all_blowup:.2f}x",
            ),
            (
                f"MIRO (+{self.n_requests} requests)",
                self.miro_total,
                f"{self.miro_total / max(1, self.bgp_messages):.2f}x",
            ),
        ]


def run_overhead_comparison(
    graph: ASGraph,
    n_destinations: int = 8,
    sources_per_destination: int = 10,
    seed: int = 0,
    policy: ExportPolicy = ExportPolicy.EXPORT,
    max_push_path_length: int = 6,
    session=None,
) -> OverheadComparison:
    """Measure the three message counts on one topology.

    The MIRO request population is the sampled avoid-AS triples that
    single-path routing cannot satisfy (the same population as Table 5.3);
    each contributes its measured number of negotiations × the four
    handshake messages.
    """
    triples = [
        t for t in sample_triples(
            graph, n_destinations, sources_per_destination, seed=seed,
            session=session,
        )
        if not single_path_attempt(t.table, t.source, t.avoid).success
    ]
    destinations = sorted({t.destination for t in triples})
    if not destinations:
        destinations = graph.ases[:n_destinations]

    bgp = bgp_message_count(graph, destinations)
    push = push_all_message_count(
        graph, destinations, max_path_length=max_push_path_length
    )

    negotiation_messages = 0
    for triple in triples:
        attempt = miro_attempt(
            triple.table, triple.source, triple.avoid, policy,
            include_single_path=False,
        )
        negotiation_messages += attempt.negotiations * HANDSHAKE_MESSAGES
    return OverheadComparison(
        n_destinations=len(destinations),
        n_requests=len(triples),
        bgp_messages=bgp,
        push_all_messages=push,
        miro_negotiation_messages=negotiation_messages,
    )
