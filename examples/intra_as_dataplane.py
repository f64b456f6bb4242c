#!/usr/bin/env python3
"""Inside one AS: iBGP path diversity and tunnel termination (Ch. 4).

Rebuilds the Fig. 4.1 scenario — edge routers R2/R3 select different AS
paths for the same prefix — from real eBGP sessions: AS X joins its
neighbours V and W, and the origin U, in one router-level internetwork.
A neighbour then negotiates a hidden path twice, through each of §4.1's
options: router by router (the entry router polls its iBGP peers) and
through a routing control platform, and a packet walks the §4.2
reserved-address tunnel scheme: ingress rewriting at R1, directed
forwarding at the egress, decapsulation on the exit link.

Run:  python examples/intra_as_dataplane.py
"""

from repro.dataplane import Packet, format_ipv4, parse_ipv4
from repro.intra import (
    ASNetwork,
    Internetwork,
    ReservedAddressScheme,
    RouterNegotiationRelay,
    RoutingControlPlatform,
)

PREFIX = "12.34.0.0/16"
V, W, U = 100, 200, 300


def one_router_as(asn: int, *links) -> ASNetwork:
    """An AS with a single border router holding every ``(neighbour AS,
    link name)`` exit link."""
    network = ASNetwork(asn)
    network.add_router("B", router_id=1, is_edge=True)
    for neighbor, name in links:
        network.add_exit_link("B", neighbor, name)
    return network


def main() -> None:
    # AS X: internal router R1, edge routers R2 (links to V and W) and R3
    # (link to W), as in Fig. 4.1.
    as_x = ASNetwork(asn=10)
    as_x.add_router("R1", router_id=1)
    as_x.add_router("R2", router_id=2, is_edge=True)
    as_x.add_router("R3", router_id=3, is_edge=True)
    as_x.add_intra_link("R1", "R2", cost=1)
    as_x.add_intra_link("R1", "R3", cost=5)
    as_x.add_intra_link("R2", "R3", cost=1)
    as_x.add_exit_link("R2", V, "X-V")
    as_x.add_exit_link("R2", W, "X-W@R2")
    as_x.add_exit_link("R3", W, "X-W@R3")

    # U originates the prefix; V and W carry it to X over eBGP sessions,
    # so R2 hears VU and WU, R3 hears WU (equal attributes).
    internet = Internetwork()
    internet.add_network(as_x)
    internet.add_network(one_router_as(V, (10, "V-X"), (U, "V-U")))
    internet.add_network(
        one_router_as(W, (10, "W-X@R2"), (10, "W-X@R3"), (U, "W-U")))
    internet.add_network(one_router_as(U, (V, "U-V"), (W, "U-W")))
    internet.connect(10, "X-V", V, "V-X")
    internet.connect(10, "X-W@R2", W, "W-X@R2")
    internet.connect(10, "X-W@R3", W, "W-X@R3")
    internet.connect(V, "V-U", U, "U-V")
    internet.connect(W, "W-U", U, "U-W")
    internet.originate(U, PREFIX)
    internet.run(PREFIX)

    print("Fig. 4.1: per-router selections for", PREFIX)
    for router in as_x.routers:
        route = internet.best(10, router, PREFIX)
        print(f"    {router}: AS path {route.as_path} "
              f"(egress {route.egress_router})")
    print("Distinct AS paths in use simultaneously:",
          as_x.selected_paths())

    # §4.1, first option: a neighbour asks entry router R1 for a route
    # around W; R1 polls its iBGP peers, and installs the chosen tunnel at
    # the egress with one more message.
    relay = RouterNegotiationRelay(as_x)
    offers = relay.collect_offers("R1", PREFIX, avoid=(W,))
    print("\nRouter relay: R1 collected", [
        f"{offer.as_path} via {offer.egress_router}" for offer in offers])
    relayed = relay.select("R1", offers[0], PREFIX, upstream_as=42)
    print(f"    tunnel {relayed.tunnel_id} on exit link {relayed.exit_link}, "
          f"{relay.control_messages} intra-AS control messages")
    relay.tear_down(relayed.tunnel_id)

    # The MIRO view through an RCP (§4.1, second option): every valid
    # (path, egress) the AS can offer, with no polling.
    rcp = RoutingControlPlatform(
        as_x, ReservedAddressScheme(as_x, parse_ipv4("12.34.56.100")),
    )
    print("\nAlternate routes the RCP can offer:")
    for path, egress in rcp.alternate_routes(PREFIX):
        print(f"    {path} via {egress}")

    # A neighbour asks for a route around W and takes the hidden (V, U)
    # path; the RCP binds it.
    offers = rcp.handle_request(42, PREFIX, avoid=(W,))
    print("Offered to a neighbour avoiding W:", offers)
    as_path, egress = offers[0]
    tunnel = rcp.create_tunnel(upstream_as=42, prefix=PREFIX,
                               as_path=as_path, egress_router=egress)
    print(f"\nTunnel {tunnel.tunnel_id} created: path {tunnel.as_path}, "
          f"exit link {tunnel.exit_link}")

    # §4.2 walk-through: the upstream encapsulates toward the reserved
    # address 12.34.56.100; R1 rewrites to the closest egress and R2
    # direct-forwards onto X-V.
    packet = Packet.make(
        parse_ipv4("42.0.0.1"), parse_ipv4("12.34.56.78"),
    ).encapsulate(
        parse_ipv4("42.0.0.254"), rcp.scheme.reserved_address,
        tunnel_id=tunnel.tunnel_id,
    )
    print("\nPacket enters AS X at R1:")
    print(f"    outer dst {format_ipv4(packet.outer.destination)} "
          f"(tunnel id {packet.outer.tunnel_id})")
    delivery = rcp.scheme.deliver(packet, "R1")
    print(f"    R1 rewrote the outer destination: {delivery.ingress_rewritten}")
    print(f"    decapsulated at {delivery.egress_router}, "
          f"leaves on {delivery.exit_link.link_name} toward AS "
          f"{delivery.exit_link.neighbor_as}")
    print(f"    inner dst {format_ipv4(delivery.packet.outer.destination)}")

    # §4.3: the path (V, U) fails; the RCP tears down every tunnel on it.
    for stale in rcp.tunnels_using_path((V, U)):
        rcp.tear_down(stale.tunnel_id)
    print(f"\nPath (V, U) failed: tunnels left {rcp.tunnels()}")


if __name__ == "__main__":
    main()
