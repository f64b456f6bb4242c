"""A live MIRO system over one session's routing tables (§4.3).

:class:`MiroRuntime` couples per-AS tunnel tables and negotiation with
the stable state a :class:`~repro.session.SessionCore` serves (the
tables every route lookup reads), giving the dynamics of §4.3:

* tunnels are negotiated against the table for the *current* graph
  version,
* when that version moves, whoever moved it, tunnels whose via path or
  tunnel path changed are torn down before another tunnel is handed out
  or listed (:meth:`MiroRuntime.revalidate`),
* both ends exchange keep-alives; a partitioned upstream stops
  refreshing and the downstream's soft state expires the tunnel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..bgp.routing import RoutingTable, affected_ases
from ..errors import NegotiationError, ReproError, TopologyError, UnknownASError
from ..obs import get_logger, get_registry, get_tracer
from ..session import SessionCore, ensure_session
from ..topology.delta import AppliedDelta, TopologyDelta
from ..topology.graph import ASGraph, LinkKey, link_key
from .negotiation import RouteConstraint, exchange, via_path
from .policies import ExportPolicy
from .tunnels import Tunnel, TunnelTable

# ----------------------------------------------------------------------
# instrumentation (repro.obs): tunnel lifecycle events — established,
# removed (by cause), and the current live level.  Negotiation messages
# are counted by the exchange itself (miro.negotiation).
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


class StaleTable(ReproError):
    """:meth:`MiroRuntime.establish` was handed a table the graph has
    moved past, or a re-check of the live tunnels is due first: run
    :meth:`MiroRuntime.revalidate`, fetch the table again, and retry."""


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
    the post-flight tunnel state).
    """

    __slots__ = ("signature", "event", "result", "error")

    def __init__(self, signature: Tuple) -> None:
        self.signature = signature
        self.event = threading.Event()
        self.result: Optional[EstablishedTunnel] = None
        self.error: Optional[BaseException] = None


#: A live tunnel's identity: ``(requester, tunnel id)``.
_Key = Tuple[int, int]


def _traversed(tunnel: Tunnel) -> Set[LinkKey]:
    """Every link the tunnel rides: the via segment and the tunnel path."""
    via, path = tunnel.via_path, tunnel.path
    hops = [*zip(via, via[1:]), *zip(path, path[1:])]
    return {link_key(a, b) for a, b in hops}


class MiroRuntime:
    """MIRO speakers over the routing tables of one session.

    ``session`` is the :class:`~repro.session.SessionCore` to read — a
    serving daemon :meth:`attach`-es its own, so lookups and negotiations
    see one state; by default a serial one (no pool, nothing to close).
    """

    def __init__(
        self,
        graph: ASGraph,
        heartbeat_timeout: float = 90.0,
        session: Optional[SessionCore] = None,
    ) -> None:
        self.graph = graph
        if session is None:
            session = SessionCore(graph, parallel=False)
        self.attach(session)
        self._heartbeat_timeout = heartbeat_timeout
        #: per-AS tunnel state, created the first time an AS takes part
        self.tunnels: Dict[int, TunnelTable] = {}
        self.clock = 0.0
        self.torn_down: List[Tunnel] = []
        # The live set, three ways: a heartbeat, a teardown and a link
        # event's re-check reach their tunnels without walking the rest.
        self._records: Dict[_Key, EstablishedTunnel] = {}
        self._by_destination: Dict[int, Set[_Key]] = {}
        self._by_link: Dict[LinkKey, Set[_Key]] = {}
        # §4.3: every live tunnel is known valid at graph version
        # ``_validated``, judged against ``_tables[destination]`` (kept
        # only while the destination has live tunnels).
        self._validated = graph.version
        self._tables: Dict[int, RoutingTable] = {}
        #: link -> (the failure's transaction, the repair captured before it)
        self._failed: Dict[LinkKey, Tuple[AppliedDelta, TopologyDelta]] = {}
        # Guards every tunnel-table mutation and the live-set indexes;
        # no table is settled under it (tools/check_locks.py):
        # establish() runs on the service's event loop.  Negotiations
        # are single-flight per (requester, destination).
        self._lock = threading.RLock()
        self._establish_flights: Dict[Tuple[int, int], _EstablishFlight] = {}

    def attach(self, session: SessionCore) -> None:
        """Read routing tables from ``session`` from now on."""
        self.session = ensure_session(self.graph, session)

    def _tunnel_table(self, asn: int) -> TunnelTable:
        state = self.tunnels.get(asn)
        if state is None:
            state = self.tunnels[asn] = TunnelTable(
                asn, heartbeat_timeout=self._heartbeat_timeout
            )
        return state

    # ------------------------------------------------------------------
    # negotiation against live state
    # ------------------------------------------------------------------
    def establish(
        self,
        requester: int,
        responder: int,
        destination: int,
        policy: ExportPolicy,
        constraint: Optional[RouteConstraint] = None,
        table: Optional[RoutingTable] = None,
    ) -> Optional[EstablishedTunnel]:
        """Negotiate and install a tunnel, or return None if no offer fits.

        The via path is the requester's *current* route to the responder
        (:func:`~repro.miro.negotiation.via_path`), and the tunnel carries
        the route the §3.3 exchange adopts.  Live tunnels are re-checked
        first if the graph changed (:meth:`revalidate`) and the session's
        table for ``destination`` is read — unless the caller brings that
        ``table`` because it must not settle here (the service's event
        loop): then nothing is computed, and a table the graph has moved
        past, or a due re-check, is a :class:`StaleTable`.

        Thread-safe and single-flight per (requester, destination):
        concurrent identical requests (same responder/policy/constraint,
        same ``table``) share one negotiation and one installed tunnel —
        the concurrent analogue of "the AS already asked for this path" —
        while differing concurrent requests on the pair serialize.
        Sequential calls are unaffected: each still negotiates its own
        tunnel.
        """
        key = (requester, destination)
        signature = (responder, policy, constraint, table)
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
                requester, responder, destination, policy, constraint, table
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
        given: Optional[RoutingTable] = None,
    ) -> Optional[EstablishedTunnel]:
        graph = self.graph
        while True:
            version = graph.version
            if given is None:
                self.revalidate()
                table = self.session.compute(destination)
            elif (self._validated == version
                    and self.session.holds(destination, given)):
                table = given
            else:
                raise StaleTable(destination)
            if graph.version != version:
                continue  # the graph moved under the reads: start over
            via = via_path(table, requester, responder)
            _, chosen = exchange(table, via, policy, constraint)
            if chosen is None:
                return None
            with self._lock:
                if self._validated == version:
                    record = self._install(
                        requester, responder, destination, chosen.path, via
                    )
                    self._tables.setdefault(destination, table)
                    break
            # re-checked at a newer version meanwhile, which an install
            # now would never be judged against: negotiate again
        _TUNNELS_ESTABLISHED.inc()
        _LOG.info("tunnel_established", tunnel_id=record.tunnel.tunnel_id,
                  requester=requester, responder=responder,
                  destination=destination, path=chosen.path)
        return record

    def _install(
        self, requester: int, responder: int, destination: int,
        path: Tuple[int, ...], via: Tuple[int, ...],
    ) -> EstablishedTunnel:
        """Install the agreed tunnel at both ends (lock held)."""
        here = self._tunnel_table(requester)
        there = self._tunnel_table(responder)
        # The downstream AS assigns the identifier (§3.5), but the state
        # is installed at *both* endpoints, and a requester holding
        # tunnels from several responders can be handed the same number
        # twice: draw until the id is free at both ends.
        tunnel_id = there.allocate_id()
        while here.has(tunnel_id) or there.has(tunnel_id):
            tunnel_id = there.allocate_id()
        for state in (there, here):  # the record keeps the requester's copy
            tunnel = Tunnel(
                tunnel_id, requester, responder, destination, path, via
            )
            state.install(tunnel, now=self.clock)
        record = EstablishedTunnel(tunnel, requester, responder, destination)
        key = (requester, tunnel_id)
        self._records[key] = record
        self._by_destination.setdefault(destination, set()).add(key)
        for link in _traversed(tunnel):
            self._by_link.setdefault(link, set()).add(key)
        _LIVE_TUNNELS.set(len(self._records))
        return record

    def _forget(self, key: _Key) -> None:
        """Drop a tunnel from the live set (lock held); idempotent."""
        record = self._records.pop(key, None)
        if record is None:
            return
        keys = self._by_destination[record.destination]
        keys.discard(key)
        if not keys:
            del self._by_destination[record.destination]
            del self._tables[record.destination]
        for link in _traversed(record.tunnel):
            keys = self._by_link[link]
            keys.discard(key)
            if not keys:
                del self._by_link[link]
        _LIVE_TUNNELS.set(len(self._records))

    def live_tunnels(self) -> List[EstablishedTunnel]:
        self.revalidate()
        with self._lock:
            return list(self._records.values())

    # ------------------------------------------------------------------
    # §4.3 dynamics
    # ------------------------------------------------------------------
    def _tunnel_still_valid(
        self, record: EstablishedTunnel, table: Optional[RoutingTable]
    ) -> bool:
        if table is None:
            return False  # the destination left the topology
        tunnel = record.tunnel
        via = tunnel.via_path
        try:
            # (1) the upstream's path to the downstream AS must be
            # intact: either the via segment is still a prefix of its
            # selected route, or it is the direct link and the link is up.
            default = table.default_path(record.requester)
            if (default is None or default[: len(via)] != via) and not (
                len(via) == 2 and self.graph.has_link(*via)
            ):
                return False
            # (2) the downstream AS must still learn the tunnel path.
            return any(
                route.path == tunnel.path
                for route in table.candidates(record.responder)
            )
        except UnknownASError:
            return False  # an endpoint left the topology

    def revalidate(self) -> List[Tunnel]:
        """Tear down tunnels the graph's changes since the last check
        invalidated (§4.3); return them.

        Free while :attr:`ASGraph.version` stands where every live
        tunnel was last judged.  When it moved, whoever moved it, the
        journal says which links changed: per destination, the tunnels
        that ride one, or whose requester / first tunnel hop lost its
        route (:func:`~repro.bgp.routing.affected_ases` of the table
        last judged against), are judged again — all of them when the
        change is unbounded (a link came up, the journal cannot say).
        """
        graph = self.graph
        while True:
            version, since = graph.version, self._validated
            if since == version:
                return []
            with self._lock:
                wanted = [d for d in self._by_destination if d in graph]
            tables = self.session.compute_many(wanted)
            changed = graph.changed_links_since(since)
            with self._lock:
                unmoved = (graph.version, self._validated) == (version, since)
                if unmoved and all(
                    d in tables for d in self._by_destination if d in graph
                ):
                    removed = self._recheck(tables, changed)
                    self._validated = version
                    break
            # the graph moved, or another thread re-checked or installed,
            # under the reads: start over
        if removed:
            _TUNNELS_REMOVED.labels(cause="route_change").inc(len(removed))
            for tunnel in removed:
                _LOG.info("tunnel_torn_down", tunnel_id=tunnel.tunnel_id,
                          destination=tunnel.destination, cause="route_change")
        return removed

    def _recheck(
        self,
        tables: Dict[int, RoutingTable],
        changed: Optional[FrozenSet[LinkKey]],
    ) -> List[Tunnel]:
        """Judge the suspects against ``tables`` (lock held)."""
        records = self._records
        crossing: Dict[int, Set[_Key]] = {}
        for link in changed or ():
            for key in self._by_link.get(link, ()):
                crossing.setdefault(records[key].destination, set()).add(key)
        removed: List[Tunnel] = []
        for destination, keys in list(self._by_destination.items()):
            table = tables.get(destination)
            affected = None if table is None else affected_ases(
                self.graph, self._tables[destination], changed
            )
            if affected is None:
                suspects = set(keys)
            else:
                suspects = crossing.get(destination, set())
                if affected:
                    suspects.update(
                        key for key in keys
                        if records[key].requester in affected
                        or records[key].tunnel.path[1] in affected
                    )
            for key in suspects:
                record = records[key]
                if self._tunnel_still_valid(record, table):
                    continue
                for endpoint in (record.requester, record.responder):
                    if self.tunnels[endpoint].has(key[1]):
                        self.tunnels[endpoint].remove(key[1])
                self._forget(key)
                removed.append(record.tunnel)
            if destination in self._by_destination:
                self._tables[destination] = table
        self.torn_down.extend(removed)
        return removed

    def fail_link(self, a: int, b: int) -> List[Tunnel]:
        """Fail a link through the session's writer gate and re-check
        tunnels (§4.3); returns the tunnels torn down."""
        with _TRACER.span("miro_fail_link", a=a, b=b) as span:
            # the repair records the relationship while the link exists
            repair = TopologyDelta.link_restore(self.graph, a, b)
            applied = self.session.mutate(TopologyDelta.link_down(a, b).apply)
            self._failed[link_key(a, b)] = (applied, repair)
            torn = self.revalidate()
            span.set(torn_down=len(torn))
        return torn

    def restore_link(self, a: int, b: int) -> List[Tunnel]:
        """Bring back a link :meth:`fail_link` took down, in any order:
        the failure is reverted while it is the graph's latest change
        (the earlier version's cached tables serve again), and repaired
        by a fresh ``link_up`` once other changes came after it."""
        failed = self._failed.get(link_key(a, b))
        if failed is None:
            raise TopologyError(f"link {a}—{b} is not down")
        applied, repair = failed

        def restore(graph: ASGraph) -> None:
            if graph.version == applied.version_after:
                applied.revert()
            else:
                repair.apply(graph)

        self.session.mutate(restore)
        del self._failed[link_key(a, b)]
        return self.revalidate()

    def heartbeat(self, requester: int, tunnel_id: int) -> None:
        """One keep-alive exchange refreshing both endpoints (§4.3)."""
        with self._lock:
            record = self._records.get((requester, tunnel_id))
            if record is None:
                raise NegotiationError(
                    f"AS {requester} holds no live tunnel {tunnel_id}"
                )
            for endpoint in (record.requester, record.responder):
                if self.tunnels[endpoint].has(tunnel_id):
                    self.tunnels[endpoint].heartbeat(tunnel_id, self.clock)

    def tick(self, dt: float) -> List[Tunnel]:
        """Advance time and expire silent tunnels at every AS."""
        expired: List[Tunnel] = []
        with self._lock:
            self.clock += dt
            for state in self.tunnels.values():
                expired.extend(state.expire(self.clock))
            self.torn_down.extend(expired)
            for tunnel in expired:
                # both ends lapse together (one clock, one heartbeat)
                self._forget((tunnel.upstream, tunnel.tunnel_id))
        if expired:
            _TUNNELS_REMOVED.labels(cause="expired").inc(len(expired))
            for tunnel in expired:
                _LOG.info("tunnel_expired", tunnel_id=tunnel.tunnel_id,
                          destination=tunnel.destination)
        return expired
