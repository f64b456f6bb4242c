"""The avoid-an-AS application (§5.3).

A source AS wants to reach a destination while avoiding one intermediate
AS on its default path (for security or performance reasons).  The module
implements the three schemes compared in Table 5.2:

* **single-path** — the source can only switch to another route already
  announced to it by an immediate neighbour;
* **MIRO** — additionally, the source negotiates tunnels.  Following the
  policy-configuration sketch of §6.2.1, it contacts "each AS that sits
  between itself and [the AS to avoid] on any of the current candidate
  paths", nearest first (the order is configurable for the ablation);
* **source routing** — any path in the graph will do (see
  :mod:`repro.sourcerouting`).

Negotiation accounting (ASes contacted, candidate paths received) feeds
Table 5.3.  Data-plane note: when the source uses a tunnel negotiated with
an on-path AS, packets travel the candidate-path prefix to the responder
and the offered path beyond it; the AS-level evaluation treats that prefix
as the via segment, as the paper does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..bgp.routing import RoutingTable
from ..errors import RoutingError
from .negotiation import exchange
from .policies import ExportPolicy


class NegotiationScope(enum.Enum):
    """Which ASes the requester may negotiate with."""

    ONE_HOP = "1-hop"          # immediate neighbours only (Fig. 5.2 "1-hop")
    ON_PATH = "path"           # ASes before the avoided AS on candidate paths


class ContactOrder(enum.Enum):
    """Order in which on-path responders are contacted (Table 5.3 ablation)."""

    NEAR_FIRST = "near-first"
    FAR_FIRST = "far-first"


@dataclass(frozen=True)
class AvoidanceAttempt:
    """Outcome of one (source, destination, avoid) tuple under one scheme."""

    success: bool
    #: "default" = default path already avoids it, "bgp" = another announced
    #: candidate works, "tunnel" = a negotiated tunnel works, "failed".
    method: str
    negotiations: int = 0
    paths_received: int = 0
    responder: Optional[int] = None
    full_path: Optional[Tuple[int, ...]] = None


def single_path_attempt(
    table: RoutingTable, source: int, avoid: int
) -> AvoidanceAttempt:
    """Can the source avoid ``avoid`` with today's BGP alone?"""
    best = table.best(source)
    if best is not None and not best.contains(avoid):
        return AvoidanceAttempt(True, "default", full_path=best.path)
    for candidate in table.candidates(source):
        if not candidate.contains(avoid):
            return AvoidanceAttempt(True, "bgp", full_path=candidate.path)
    return AvoidanceAttempt(False, "failed")


def negotiation_targets(
    table: RoutingTable,
    source: int,
    avoid: int,
    scope: NegotiationScope = NegotiationScope.ON_PATH,
    order: ContactOrder = ContactOrder.NEAR_FIRST,
    deployed: Optional[Set[int]] = None,
) -> List[Tuple[int, Tuple[int, ...]]]:
    """The (responder, via-segment) list the source will try, in order.

    For ON_PATH scope the responders are the ASes strictly between the
    source and the avoided AS on any of the source's candidate paths; the
    via segment is the candidate-path prefix up to the responder.  For
    ONE_HOP they are the immediate neighbours (via segment is the direct
    link).  ``deployed`` restricts responders to ASes running MIRO
    (§5.3.3); None means ubiquitous deployment.
    """
    graph = table.graph
    seen: Set[int] = set()
    targets: List[Tuple[int, int, Tuple[int, ...]]] = []  # (distance, asn, via)

    if scope is NegotiationScope.ONE_HOP:
        for neighbor in sorted(graph.neighbors(source)):
            if neighbor == avoid or neighbor in seen:
                continue
            if deployed is not None and neighbor not in deployed:
                continue
            seen.add(neighbor)
            targets.append((1, neighbor, (source, neighbor)))
    else:
        for candidate in table.candidates(source):
            path = candidate.path
            if avoid not in path:
                continue  # this candidate avoids it outright (single-path case)
            cutoff = path.index(avoid)
            for i in range(1, cutoff):
                responder = path[i]
                if responder in seen:
                    continue
                if deployed is not None and responder not in deployed:
                    continue
                seen.add(responder)
                targets.append((i, responder, path[: i + 1]))

    reverse = order is ContactOrder.FAR_FIRST
    targets.sort(key=lambda t: (t[0], t[1]), reverse=reverse)
    return [(asn, via) for _, asn, via in targets]


def miro_attempt(
    table: RoutingTable,
    source: int,
    avoid: int,
    policy: ExportPolicy,
    scope: NegotiationScope = NegotiationScope.ON_PATH,
    order: ContactOrder = ContactOrder.NEAR_FIRST,
    deployed: Optional[Set[int]] = None,
    include_single_path: bool = True,
    max_depth: int = 1,
) -> AvoidanceAttempt:
    """Try to avoid ``avoid`` using MIRO under the given export policy.

    With ``include_single_path`` (the Table 5.2 definition: "the source AS
    is allowed to use the routes announced by BGP, or establish a routing
    tunnel"), a BGP-announced alternative short-circuits the negotiation.
    Otherwise only tunnels count (used when isolating negotiation state for
    Table 5.3).

    ``max_depth`` enables the §3.3 extension: at depth 2, a responding AS
    that has no satisfying alternate of its own contacts its *own*
    neighbours for one ("AS B may ask AS C to advertise alternate paths as
    part of satisfying the request from AS A").  The paper's evaluation
    uses bilateral negotiation only (depth 1), noting multi-hop "does not
    need to happen very often".
    """
    if source == avoid:
        raise RoutingError("a source cannot avoid itself")
    if max_depth < 1:
        raise RoutingError("max_depth must be at least 1")
    if include_single_path:
        plain = single_path_attempt(table, source, avoid)
        if plain.success:
            return plain

    negotiations = 0
    paths_received = 0
    for responder, via in negotiation_targets(
        table, source, avoid, scope=scope, order=order, deployed=deployed
    ):
        negotiations += 1
        offers, chosen = exchange(
            table, via, policy, accept=lambda r: not r.contains(avoid)
        )
        paths_received += len(offers)
        if chosen is not None:
            return AvoidanceAttempt(
                True, "tunnel", negotiations, paths_received,
                responder=responder, full_path=via + chosen.path[1:],
            )
        if max_depth >= 2:
            sub = _responder_recursion(
                table, source, avoid, policy, responder, via, deployed
            )
            negotiations += sub.negotiations
            paths_received += sub.paths_received
            if sub.success:
                return AvoidanceAttempt(
                    True, "tunnel-chain", negotiations, paths_received,
                    responder=responder, full_path=sub.full_path,
                )
    return AvoidanceAttempt(False, "failed", negotiations, paths_received)


def _responder_recursion(
    table: RoutingTable,
    source: int,
    avoid: int,
    policy: ExportPolicy,
    responder: int,
    via: Tuple[int, ...],
    deployed: Optional[Set[int]],
) -> AvoidanceAttempt:
    """One level of §3.3 responder recursion.

    The responder contacts each of its neighbours; a neighbour's offered
    alternate that avoids the AS composes with the via segment plus the
    direct responder→neighbour link into a chained tunnel path.
    """
    graph = table.graph
    negotiations = 0
    paths_received = 0
    for helper in sorted(graph.neighbors(responder)):
        if helper == avoid or helper == source or helper in via:
            continue
        if deployed is not None and helper not in deployed:
            continue
        negotiations += 1
        offers, chosen = exchange(
            table, (responder, helper), policy,
            accept=lambda r: not r.contains(avoid) and source not in r.path,
            include_default=True,
        )
        paths_received += len(offers)
        if chosen is not None:
            return AvoidanceAttempt(
                True, "tunnel-chain", negotiations, paths_received,
                responder=responder, full_path=via + chosen.path,
            )
    return AvoidanceAttempt(False, "failed", negotiations, paths_received)
