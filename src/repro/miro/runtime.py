"""A live MIRO system on top of the event-driven BGP engine (§4.3).

:class:`MiroRuntime` couples :class:`~repro.bgp.engine.EventDrivenBGP`
with per-AS tunnel tables and negotiation, giving the full dynamic
behaviour of §4.3:

* tunnels are negotiated against the *current* protocol state,
* when BGP reconverges after a failure, tunnels whose via path or tunnel
  path changed are torn down automatically (the route-change listener),
* both ends exchange keep-alives; a partitioned upstream stops
  refreshing and the downstream's soft state expires the tunnel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bgp.engine import EventDrivenBGP
from ..bgp.policy import may_export
from ..bgp.route import Route
from ..errors import NegotiationError
from ..obs import get_logger, get_registry, get_tracer
from ..topology.graph import ASGraph
from .policies import ExportPolicy
from .negotiation import MESSAGES_TOTAL, RouteConstraint
from .tunnels import Tunnel, TunnelTable

# ----------------------------------------------------------------------
# instrumentation (repro.obs): tunnel lifecycle events — established,
# removed (by cause), and the current live level — plus the negotiation
# messages the live establish() exchange implies.
# ----------------------------------------------------------------------
_TRACER = get_tracer()
_LOG = get_logger("miro.runtime")
_TUNNELS_ESTABLISHED = get_registry().counter(
    "repro_miro_tunnels_established_total",
    "Tunnels successfully negotiated and installed",
)
_TUNNELS_REMOVED = get_registry().counter(
    "repro_miro_tunnels_removed_total",
    "Tunnels removed, by cause (route_change / expired)",
    labels=("cause",),
)
_LIVE_TUNNELS = get_registry().gauge(
    "repro_miro_live_tunnels",
    "Tunnels currently live across all ASes of the runtime",
)
_MSG_REQUEST = MESSAGES_TOTAL.labels(kind="request")
_MSG_OFFER = MESSAGES_TOTAL.labels(kind="offer")
_MSG_DECLINE = MESSAGES_TOTAL.labels(kind="decline")
_MSG_ACCEPT = MESSAGES_TOTAL.labels(kind="accept")
_MSG_GRANT = MESSAGES_TOTAL.labels(kind="grant")


@dataclass(frozen=True)
class EstablishedTunnel:
    """Bookkeeping for one live tunnel (both endpoints' state)."""

    tunnel: Tunnel
    requester: int
    responder: int
    destination: int


class _EstablishFlight:
    """One in-flight negotiation for a (requester, destination) pair.

    Concurrent :meth:`MiroRuntime.establish` calls with the *same*
    request arguments share the leader's outcome; calls with different
    arguments on the same pair serialize behind it (negotiating against
    the post-flight tunnel state) instead of racing the id allocator and
    the tunnel-table installs.
    """

    __slots__ = ("signature", "event", "result", "error")

    def __init__(self, signature: Tuple) -> None:
        self.signature = signature
        self.event = threading.Event()
        self.result: Optional[EstablishedTunnel] = None
        self.error: Optional[BaseException] = None


class MiroRuntime:
    """MIRO speakers over a running BGP system."""

    def __init__(
        self,
        graph: ASGraph,
        seed: Optional[int] = None,
        heartbeat_timeout: float = 90.0,
    ) -> None:
        self.graph = graph
        self.engine = EventDrivenBGP(graph, seed=seed)
        self.engine.add_listener(self._on_route_change)
        self._dirty_destinations: Set[int] = set()
        self.tunnels: Dict[int, TunnelTable] = {
            asn: TunnelTable(asn, heartbeat_timeout=heartbeat_timeout)
            for asn in graph.iter_ases()
        }
        self._live: List[EstablishedTunnel] = []
        self.clock = 0.0
        self.torn_down: List[Tunnel] = []
        # Concurrency discipline for the serving plane: one re-entrant
        # lock guards every tunnel-table mutation (install / remove /
        # heartbeat / expire and the _live list), and negotiations are
        # single-flight per (requester, destination) — see establish().
        self._lock = threading.RLock()
        self._establish_flights: Dict[Tuple[int, int], _EstablishFlight] = {}

    # ------------------------------------------------------------------
    # bring-up
    # ------------------------------------------------------------------
    def originate_all(self, destinations: Sequence[int]) -> int:
        """Originate the given prefixes and run BGP to quiescence."""
        for destination in destinations:
            self.engine.originate(destination)
        return self.engine.run()

    # ------------------------------------------------------------------
    # negotiation against live state
    # ------------------------------------------------------------------
    def offered_routes(
        self, responder: int, destination: int, policy: ExportPolicy,
        toward: Optional[int],
    ) -> List[Route]:
        """The responder's current alternates under ``policy`` (§3.4),
        computed from its live Adj-RIB-In."""
        best = self.engine.best(responder, destination)
        pool = [
            route for route in self.engine.candidates(responder, destination)
            if best is None or route.path != best.path
        ]
        if policy is ExportPolicy.FLEXIBLE:
            return pool
        if toward is None or not self.graph.has_link(responder, toward):
            raise NegotiationError(
                f"policy {policy} needs a neighbouring 'toward' AS"
            )
        pool = [
            r for r in pool
            if may_export(self.graph, responder, toward, r.route_class)
        ]
        if policy is ExportPolicy.EXPORT:
            return pool
        if best is None:
            return []
        return [r for r in pool if r.route_class is best.route_class]

    def establish(
        self,
        requester: int,
        responder: int,
        destination: int,
        policy: ExportPolicy,
        constraint: Optional[RouteConstraint] = None,
    ) -> Optional[EstablishedTunnel]:
        """Negotiate and install a tunnel, or return None if no offer fits.

        The via path is the requester's *current* route to the responder
        (truncated default path toward the destination when the responder
        lies on it, else the direct link).

        Thread-safe and single-flight per (requester, destination):
        concurrent identical requests (same responder/policy/constraint)
        share one negotiation and one installed tunnel — the concurrent
        analogue of "the AS already asked for this path" — while
        differing concurrent requests on the pair serialize.  Sequential
        calls are unaffected: each still negotiates its own tunnel.
        """
        key = (requester, destination)
        signature = (responder, policy, constraint)
        while True:
            with self._lock:
                flight = self._establish_flights.get(key)
                if flight is None:
                    flight = _EstablishFlight(signature)
                    self._establish_flights[key] = flight
                    break
            flight.event.wait()
            if flight.signature == signature:
                if flight.error is not None:
                    raise flight.error
                return flight.result
            # a different request for the same pair was in flight:
            # loop and negotiate against the post-flight state
        try:
            record = self._establish(
                requester, responder, destination, policy, constraint
            )
            flight.result = record
            return record
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._establish_flights.pop(key, None)
            flight.event.set()

    def _establish(
        self,
        requester: int,
        responder: int,
        destination: int,
        policy: ExportPolicy,
        constraint: Optional[RouteConstraint],
    ) -> Optional[EstablishedTunnel]:
        best = self.engine.best(requester, destination)
        via: Optional[Tuple[int, ...]] = None
        if best is not None and responder in best.path:
            via = best.path[: best.path.index(responder) + 1]
        elif self.graph.has_link(requester, responder):
            via = (requester, responder)
        if via is None:
            raise NegotiationError(
                f"AS {requester} has no known path to responder AS {responder}"
            )
        toward = via[-2] if len(via) >= 2 else None
        _MSG_REQUEST.inc()
        offers = self.offered_routes(responder, destination, policy, toward)
        if constraint is not None:
            offers = [r for r in offers if constraint.satisfied_by(r)]
        offers = [r for r in offers if requester not in r.path]
        if not offers:
            _MSG_DECLINE.inc()
            _LOG.debug("negotiation_declined", requester=requester,
                       responder=responder, destination=destination,
                       reason="no candidate routes satisfy the request")
            return None
        _MSG_OFFER.inc()
        chosen = min(offers, key=lambda r: (r.length, r.path))
        # The downstream AS assigns the identifier (§3.5, unique within
        # that AS) — but the state is installed at *both* endpoints, and
        # a requester holding tunnels from several responders can be
        # handed the same number twice.  Keep drawing from the
        # responder's monotonic allocator until the id is free at both
        # ends (found by the verify harness's tunnel campaign).
        with self._lock:
            tunnel_id = self.tunnels[responder].allocate_id()
            while (
                self.tunnels[requester].has(tunnel_id)
                or self.tunnels[responder].has(tunnel_id)
            ):
                tunnel_id = self.tunnels[responder].allocate_id()
            tunnel = Tunnel(
                tunnel_id=tunnel_id,
                upstream=requester,
                downstream=responder,
                destination=destination,
                path=chosen.path,
                via_path=via,
            )
            mirror = Tunnel(
                tunnel_id=tunnel_id,
                upstream=requester,
                downstream=responder,
                destination=destination,
                path=chosen.path,
                via_path=via,
            )
            _MSG_ACCEPT.inc()
            _MSG_GRANT.inc()
            self.tunnels[requester].install(tunnel, now=self.clock)
            self.tunnels[responder].install(mirror, now=self.clock)
            record = EstablishedTunnel(
                tunnel, requester, responder, destination
            )
            self._live.append(record)
            _LIVE_TUNNELS.set(len(self._live))
        _TUNNELS_ESTABLISHED.inc()
        _LOG.info("tunnel_established", tunnel_id=tunnel_id,
                  requester=requester, responder=responder,
                  destination=destination, path=chosen.path)
        return record

    def live_tunnels(self) -> List[EstablishedTunnel]:
        with self._lock:
            return [
                t for t in self._live
                if self.tunnels[t.requester].has(t.tunnel.tunnel_id)
            ]

    # ------------------------------------------------------------------
    # §4.3 dynamics
    # ------------------------------------------------------------------
    def _on_route_change(
        self, asn: int, destination: int,
        old: Optional[Route], new: Optional[Route],
    ) -> None:
        """Mark prefixes whose tunnels must be revalidated (§4.3: "the
        ASes can observe these changes in the BGP update messages")."""
        self._dirty_destinations.add(destination)

    def _tunnel_still_valid(self, record: EstablishedTunnel) -> bool:
        tunnel = record.tunnel
        # (1) the upstream's path to the downstream AS must be intact:
        # either the via segment is still a prefix of its selected route,
        # or it is the direct link and the link is up.
        best = self.engine.best(record.requester, record.destination)
        via_ok = (
            best is not None
            and best.path[: len(tunnel.via_path)] == tunnel.via_path
        )
        if not via_ok and len(tunnel.via_path) == 2:
            via_ok = self.engine._link_up(record.requester, record.responder)
        if not via_ok:
            return False
        # (2) the downstream AS must still learn the tunnel path.
        learned = {
            r.path
            for r in self.engine.candidates(record.responder, record.destination)
        }
        return tunnel.path in learned

    def revalidate(self) -> List[Tunnel]:
        """Tear down tunnels invalidated by routing changes; return them."""
        if not self._dirty_destinations:
            return []
        removed: List[Tunnel] = []
        with self._lock:
            for record in list(self._live):
                if record.destination not in self._dirty_destinations:
                    continue
                if not self.tunnels[record.requester].has(
                    record.tunnel.tunnel_id
                ):
                    continue
                if self._tunnel_still_valid(record):
                    continue
                for endpoint in (record.requester, record.responder):
                    if self.tunnels[endpoint].has(record.tunnel.tunnel_id):
                        self.tunnels[endpoint].remove(record.tunnel.tunnel_id)
                removed.append(record.tunnel)
                self._live.remove(record)
            self._dirty_destinations.clear()
            self.torn_down.extend(removed)
            _LIVE_TUNNELS.set(len(self._live))
        if removed:
            _TUNNELS_REMOVED.labels(cause="route_change").inc(len(removed))
            for tunnel in removed:
                _LOG.info("tunnel_torn_down", tunnel_id=tunnel.tunnel_id,
                          destination=tunnel.destination, cause="route_change")
        return removed

    def fail_link(self, a: int, b: int) -> int:
        """Fail a link, reconverge, and revalidate tunnels (§4.3)."""
        with _TRACER.span("miro_fail_link", a=a, b=b) as span:
            # tunnels whose via segment or tunnel path uses the link must
            # be re-checked even if no best route changes (e.g. a
            # direct-link via that no selected route crosses)
            for record in self._live:
                tunnel = record.tunnel
                hops = list(zip(tunnel.via_path, tunnel.via_path[1:]))
                hops += list(zip(tunnel.path, tunnel.path[1:]))
                if (a, b) in hops or (b, a) in hops:
                    self._dirty_destinations.add(record.destination)
            self.engine.fail_link(a, b)
            processed = self.engine.run()
            torn = self.revalidate()
            span.set(messages=processed, torn_down=len(torn))
        return processed

    def restore_link(self, a: int, b: int) -> int:
        self.engine.restore_link(a, b)
        processed = self.engine.run()
        self.revalidate()
        return processed

    def heartbeat(self, requester: int, tunnel_id: int) -> None:
        """One keep-alive exchange refreshing both endpoints (§4.3)."""
        with self._lock:
            for record in self._live:
                if record.tunnel.tunnel_id == tunnel_id and (
                    record.requester == requester
                ):
                    for endpoint in (record.requester, record.responder):
                        if self.tunnels[endpoint].has(tunnel_id):
                            self.tunnels[endpoint].heartbeat(
                                tunnel_id, self.clock
                            )
                    return
        raise NegotiationError(
            f"AS {requester} holds no live tunnel {tunnel_id}"
        )

    def tick(self, dt: float) -> List[Tunnel]:
        """Advance time and expire silent tunnels at every AS."""
        expired: List[Tunnel] = []
        with self._lock:
            self.clock += dt
            for table in self.tunnels.values():
                expired.extend(table.expire(self.clock))
            self.torn_down.extend(expired)
            if expired:
                # expiry is the one removal that happens inside the
                # tables; drop its records so ``_live`` stays the live set
                self._live = self.live_tunnels()
                _LIVE_TUNNELS.set(len(self._live))
        if expired:
            _TUNNELS_REMOVED.labels(cause="expired").inc(len(expired))
            for tunnel in expired:
                _LOG.info("tunnel_expired", tunnel_id=tunnel.tunnel_id,
                          destination=tunnel.destination)
        return expired
