"""AS-level packet forwarding with MIRO tunnels (§3.5).

:class:`ASLevelForwarder` builds per-AS FIBs from a computed routing
table (each AS originates its :func:`~repro.dataplane.prefix.prefix_for_as`
prefix) and walks packets hop by hop:

* plain packets follow destination-based forwarding along the default
  paths (longest-prefix match at every AS);
* at the tunnel ingress, a classifier may divert matching flows: the
  packet is encapsulated toward the downstream AS and travels by
  destination-based forwarding to it, where it is decapsulated and handed
  to the *directed* next hop (the first hop of the negotiated path), after
  which normal forwarding resumes.

The traces it returns are what the integration tests compare against the
negotiated end-to-end paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bgp.routing import RoutingTable
from ..errors import DataPlaneError
from ..miro.tunnels import Tunnel
from ..session import SimulationSession, ensure_session
from .classifier import Classifier
from .packet import Packet
from .prefix import PrefixTable, prefix_for_as


@dataclass(frozen=True)
class ForwardingTrace:
    """The journey of one packet."""

    hops: Tuple[int, ...]
    delivered: bool
    used_tunnel: Optional[int] = None
    encapsulated_hops: Tuple[int, ...] = ()


@dataclass
class _TunnelBinding:
    tunnel: Tunnel
    classifier: Classifier


class ASLevelForwarder:
    """Destination-based forwarding over a set of routing tables, with
    optional tunnel diversions installed at upstream ASes."""

    def __init__(
        self,
        tables: Dict[int, RoutingTable],
        session: Optional[SimulationSession] = None,
    ) -> None:
        if not tables:
            raise DataPlaneError("need at least one destination's routes")
        self._tables = tables
        graph = next(iter(tables.values())).graph
        self.graph = graph
        # on-demand tunnel-endpoint tables go through the session so the
        # control plane and data plane share one cache (and telemetry),
        # which holds trees only: a pinned table is not adopted
        self._session = ensure_session(graph, session)
        for table in tables.values():
            if table.graph is graph and table._tree is not None:
                self._session.adopt(table)
        # per-AS FIB: prefix -> next-hop AS (None at the origin)
        self._fibs: Dict[int, PrefixTable] = {}
        for asn in graph.iter_ases():
            fib: PrefixTable = PrefixTable()
            for destination, table in tables.items():
                route = table.best(asn)
                if route is None:
                    continue
                fib.insert(prefix_for_as(destination), route.next_hop)
            self._fibs[asn] = fib
        # upstream AS -> bindings
        self._bindings: Dict[int, List[_TunnelBinding]] = {}
        # (downstream AS, tunnel id) -> directed next hop after decap
        self._directed: Dict[Tuple[int, int], Optional[int]] = {}

    def install_tunnel(
        self, tunnel: Tunnel, classifier: Classifier
    ) -> None:
        """Install a negotiated tunnel: the classifier at the upstream AS
        picks which flows enter it (§3.5).

        Routes toward the downstream AS's own prefix are computed on
        demand — encapsulated packets are addressed to the tunnel
        endpoint, so intermediate ASes forward them toward that prefix
        (§4.2).
        """
        if tunnel.destination not in self._tables:
            raise DataPlaneError(
                f"no routes computed for destination AS {tunnel.destination}"
            )
        self._ensure_destination(tunnel.downstream)
        self._bindings.setdefault(tunnel.upstream, []).append(
            _TunnelBinding(tunnel, classifier)
        )
        directed = tunnel.path[1] if len(tunnel.path) > 1 else None
        self._directed[(tunnel.downstream, tunnel.tunnel_id)] = directed

    def _ensure_destination(self, destination: int) -> None:
        if destination in self._tables:
            return
        table = self._session.compute(destination)
        self._tables[destination] = table
        prefix = prefix_for_as(destination)
        for asn in self.graph.iter_ases():
            route = table.best(asn)
            if route is not None:
                self._fibs[asn].insert(prefix, route.next_hop)

    def _lookup(self, asn: int, address: int) -> Optional[int]:
        hit = self._fibs[asn].lookup(address)
        if hit is None:
            return None
        return hit[1]

    def forward(self, packet: Packet, max_hops: int = 64) -> ForwardingTrace:
        """Walk a packet from its source AS to delivery (or failure).

        The packet's inner source address must fall inside its source AS's
        prefix (that is how the starting AS is identified).
        """
        current = self._as_of(packet.inner.source)
        destination_as = self._as_of(packet.inner.destination)
        hops: List[int] = [current]
        encapsulated: List[int] = []
        used_tunnel: Optional[int] = None

        for _ in range(max_hops):
            if packet.encapsulated:
                # travelling inside a tunnel toward the downstream AS
                tunnel_as = self._as_of(packet.outer.destination)
                if current == tunnel_as:
                    tunnel_id = packet.outer.tunnel_id
                    packet = packet.decapsulate()
                    directed = self._directed.get((current, tunnel_id))
                    if directed is None and (current, tunnel_id) not in self._directed:
                        raise DataPlaneError(
                            f"AS {current} has no state for tunnel {tunnel_id}"
                        )
                    if directed is not None:
                        current = directed
                        hops.append(current)
                        continue
                    # tunnel terminates at the destination-adjacent AS:
                    # fall through to plain forwarding
                else:
                    next_hop = self._lookup(current, packet.outer.destination)
                    if next_hop is None:
                        return ForwardingTrace(
                            tuple(hops), False, used_tunnel,
                            tuple(encapsulated),
                        )
                    encapsulated.append(next_hop)
                    current = next_hop
                    hops.append(current)
                    continue

            if current == destination_as:
                return ForwardingTrace(
                    tuple(hops), True, used_tunnel, tuple(encapsulated)
                )

            # tunnel ingress?
            diverted = False
            for binding in self._bindings.get(current, []):
                tunnel = binding.tunnel
                if tunnel.destination != destination_as:
                    continue
                action = binding.classifier.classify(packet)
                if action == f"tunnel-{tunnel.tunnel_id}":
                    packet = packet.encapsulate(
                        packet.inner.source,
                        prefix_for_as(tunnel.downstream).first_address + 1,
                        tunnel_id=tunnel.tunnel_id,
                    )
                    used_tunnel = tunnel.tunnel_id
                    diverted = True
                    break
            if diverted:
                continue

            next_hop = self._lookup(current, packet.inner.destination)
            if next_hop is None:
                return ForwardingTrace(
                    tuple(hops), False, used_tunnel, tuple(encapsulated)
                )
            current = next_hop
            hops.append(current)

        raise DataPlaneError(f"packet looped beyond {max_hops} hops")

    def _as_of(self, address: int) -> int:
        """Reverse the :func:`prefix_for_as` mapping."""
        asn = (((address >> 24) & 0xFF) - 1) * 256 + ((address >> 16) & 0xFF)
        if asn not in self.graph:
            raise DataPlaneError(
                f"address {address} does not belong to any known AS"
            )
        return asn


def address_in_as(asn: int, host: int = 1) -> int:
    """A host address inside an AS's prefix (host 1 by default)."""
    prefix = prefix_for_as(asn)
    if not 0 <= host <= 0xFFFF:
        raise DataPlaneError(f"host {host} outside the /16 host space")
    return prefix.first_address + host
