"""Bilateral MIRO negotiation (§3.3, Fig. 4.2).

The control-plane exchange between a *requesting* AS and a *responding* AS:

1. the requester sends a request for a destination prefix, optionally
   carrying the desired properties (a :class:`RouteConstraint`) and a
   price ceiling;
2. the responder answers with an offer — the candidate routes its
   export policy allows toward the requester, each optionally priced —
   or a decline;
3. the requester adopts one offered route and sends an accept;
4. the responder allocates a tunnel identifier and replies with a
   grant; both ends install tunnel state.

:func:`exchange` runs steps 1–4 over a given requester→responder path
(:func:`via_path` resolves the usual one) and counts their messages.
:func:`negotiate` adds the responder's accept rules
(:class:`ResponderConfig`) and returns the :class:`Tunnel`;
:class:`~repro.miro.runtime.MiroRuntime` installs the adopted route in
live tunnel tables, and the Ch. 5 drivers (avoid-an-AS, the failure
sweep) count its offers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from ..bgp.route import Route
from ..bgp.routing import RoutingTable
from ..errors import NegotiationError
from ..obs import get_logger, get_registry, get_tracer
from .policies import ExportPolicy, offered_routes
from .tunnels import Tunnel

# ----------------------------------------------------------------------
# instrumentation (repro.obs): every §3.3 control-plane message is
# counted by exchange(), so the paper's §5.5 message-overhead numbers
# are a live counter query whichever driver negotiated.
# ----------------------------------------------------------------------
_TRACER = get_tracer()
_LOG = get_logger("miro.negotiation")
MESSAGES_TOTAL = get_registry().counter(
    "repro_miro_messages_total",
    "MIRO negotiation messages by kind (request/offer/decline/accept/grant)",
    labels=("kind",),
)
_MSG_REQUEST = MESSAGES_TOTAL.labels(kind="request")
_MSG_OFFER = MESSAGES_TOTAL.labels(kind="offer")
_MSG_DECLINE = MESSAGES_TOTAL.labels(kind="decline")
_MSG_ACCEPT = MESSAGES_TOTAL.labels(kind="accept")
_MSG_GRANT = MESSAGES_TOTAL.labels(kind="grant")

#: Messages in a complete §3.3 exchange: request → offer → accept → grant.
HANDSHAKE_MESSAGES = 4


def handshake_delay(per_message: float) -> float:
    """Simulated duration of one full negotiation handshake.

    The event-driven convergence simulator uses this as the default
    ``negotiation_delay`` of a :class:`~repro.events.timers.DelayModel`
    built from a per-message latency: a responder's state change reaches
    its requesters only after a full four-message re-negotiation.
    """
    return HANDSHAKE_MESSAGES * per_message


@dataclass(frozen=True)
class RouteConstraint:
    """Desired properties of the alternate routes (§6.2.1).

    ``avoid`` lists ASes that must not appear on the offered path;
    ``max_length`` bounds the AS-path length; ``require_transit``
    lists ASes that must appear.
    """

    avoid: Tuple[int, ...] = ()
    max_length: Optional[int] = None
    require_transit: Tuple[int, ...] = ()

    def satisfied_by(self, route: Route) -> bool:
        if any(route.contains(asn) for asn in self.avoid):
            return False
        if self.max_length is not None and route.length > self.max_length:
            return False
        return all(route.contains(asn) for asn in self.require_transit)


@dataclass(frozen=True)
class OfferedRoute:
    """An offered route with its asking price: what a rank compares."""

    route: Route
    price: int = 0


PriceFunction = Callable[[Route], int]

#: Requester's candidate-ranking function: smaller key = preferred.
RankFunction = Callable[[OfferedRoute], Tuple]


def default_rank(offered: OfferedRoute) -> Tuple:
    """Prefer cheaper, then shorter, then lexicographically smaller paths."""
    return (offered.price, offered.route.length, offered.route.path)


def _free_rank(route: Route) -> Tuple:
    """:func:`default_rank` of an unpriced route (every price is 0)."""
    return (route.length, route.path)


@dataclass
class ResponderConfig:
    """Accept rules of the responding AS (§6.2.1).

    ``max_tunnels`` caps active tunnels; ``accept_from`` (when given)
    whitelists requesters; ``price_for`` prices each offered route.
    """

    max_tunnels: int = 1000
    accept_from: Optional[Set[int]] = None
    price_for: PriceFunction = lambda route: 0


def via_path(
    table: RoutingTable, requester: int, responder: int
) -> Tuple[int, ...]:
    """The requester's path to the responder: its default path toward
    the table's destination, truncated at the responder when the
    responder lies on it, else the direct link."""
    default = table.default_path(requester)
    if default is not None and responder in default:
        return default[: default.index(responder) + 1]
    if table.graph.has_link(requester, responder):
        return (requester, responder)
    raise NegotiationError(
        f"no known path from AS {requester} to responder AS {responder}"
    )


def exchange(
    table: RoutingTable,
    via: Tuple[int, ...],
    policy: ExportPolicy,
    constraint: Optional[RouteConstraint] = None,
    price_for: Optional[PriceFunction] = None,
    max_price: Optional[int] = None,
    accept: Optional[Callable[[Route], bool]] = None,
    rank: RankFunction = default_rank,
    include_default: bool = False,
) -> Tuple[List[Route], Optional[Route]]:
    """One §3.3 exchange between ``via[0]`` (the requester) and
    ``via[-1]`` (the responder), over the requester's path ``via``.

    The responder offers the routes ``policy`` lets it export toward
    ``via[-2]``, narrowed by ``constraint`` and, when ``price_for``
    prices them, by ``max_price``.  The requester adopts the best offer
    by ``rank`` among those that do not pass back through it and that
    ``accept`` (when given) takes.  Returns the offered routes (the
    paths received of Table 5.3) and the adopted one, or None.

    Every negotiation message is counted here: a request, then an offer
    or a decline, then an accept and a grant when an offer is adopted.
    """
    requester, responder = via[0], via[-1]
    toward = via[-2] if len(via) > 1 else None
    offered = offered_routes(table, responder, policy, toward, include_default)
    if constraint is not None:
        offered = [r for r in offered if constraint.satisfied_by(r)]
    priced: Optional[List[OfferedRoute]] = None
    if price_for is not None:
        priced = [OfferedRoute(r, price_for(r)) for r in offered]
        if max_price is not None:
            priced = [o for o in priced if o.price <= max_price]
            offered = [o.route for o in priced]
    _MSG_REQUEST.inc()
    if not offered:
        _MSG_DECLINE.inc()
        _LOG.debug("negotiation_declined", requester=requester,
                   responder=responder, destination=table.destination)
        return offered, None
    _MSG_OFFER.inc()

    def fits(route: Route) -> bool:
        return requester not in route.path and (accept is None or accept(route))

    if priced is None and rank is default_rank:
        chosen = min(filter(fits, offered), key=_free_rank, default=None)
    else:
        offers = priced if priced is not None else map(OfferedRoute, offered)
        best = min((o for o in offers if fits(o.route)), key=rank, default=None)
        chosen = None if best is None else best.route
    if chosen is not None:
        _MSG_ACCEPT.inc()
        _MSG_GRANT.inc()
    return offered, chosen


@dataclass(frozen=True)
class NegotiationOutcome:
    """Result of one full negotiation exchange."""

    established: bool
    tunnel: Optional[Tunnel]
    offered_count: int
    reason: Optional[str] = None


def negotiate(
    table: RoutingTable,
    requester: int,
    responder: int,
    policy: ExportPolicy,
    constraint: Optional[RouteConstraint] = None,
    via: Optional[Tuple[int, ...]] = None,
    responder_config: Optional[ResponderConfig] = None,
    max_price: Optional[int] = None,
    rank: RankFunction = default_rank,
) -> NegotiationOutcome:
    """Drive one complete negotiation and return the outcome.

    ``via`` is the requester's path to the responder (default:
    :func:`via_path`).  The responder applies its accept rules first; a
    one-off exchange holds no earlier tunnels, so only a ``max_tunnels``
    below 1 binds, and the grant carries the responder's first id.
    """
    if via is None:
        via = via_path(table, requester, responder)
    config = responder_config or ResponderConfig()
    with _TRACER.span("negotiate", requester=requester, responder=responder,
                      destination=table.destination) as span:
        if config.accept_from is not None and requester not in config.accept_from:
            reason = "requester not accepted by local policy"
        elif config.max_tunnels < 1:
            reason = "tunnel limit reached"
        else:
            reason = None
        if reason is not None:
            _MSG_REQUEST.inc()
            _MSG_DECLINE.inc()
            span.set(established=False)
            return NegotiationOutcome(False, None, 0, reason)
        offered, chosen = exchange(
            table, via, policy, constraint, config.price_for, max_price,
            rank=rank,
        )
        span.set(established=chosen is not None, offered=len(offered))
        if not offered:
            return NegotiationOutcome(
                False, None, 0, "no candidate routes satisfy the request"
            )
        if chosen is None:
            return NegotiationOutcome(
                False, None, len(offered),
                "no offered route satisfies the requester",
            )
        tunnel = Tunnel(
            tunnel_id=1,
            upstream=requester,
            downstream=responder,
            destination=table.destination,
            path=chosen.path,
            via_path=via,
            price=config.price_for(chosen),
        )
        return NegotiationOutcome(True, tunnel, len(offered))
