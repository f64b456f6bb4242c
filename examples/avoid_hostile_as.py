#!/usr/bin/env python3
"""Avoiding a hostile AS (the paper's motivating application, §1.2/§5.3).

Part 1 replays the Fig. 1.1/3.1 walk-through on the paper's six-AS
example: AS A cannot avoid AS E with today's BGP, but one MIRO
negotiation with AS B exposes the path B-C-F.  A then forwards packets
through the tunnel it established (§3.5): its classifier diverts
real-time traffic and a hash-split share of bulk flows into the tunnel,
and everything else keeps the default path.

Part 2 measures the Table 5.2 comparison on a generated Internet-like
topology: single-path BGP vs MIRO (three policies) vs source routing.

Run:  python examples/avoid_hostile_as.py
"""

from repro.bgp import compute_routes
from repro.dataplane import (
    ASLevelForwarder,
    Classifier,
    FlowKey,
    HashSplitter,
    MatchRule,
    Packet,
    address_in_as,
)
from repro.experiments import render_table, run_success_rates
from repro.miro import (
    ExportPolicy,
    RouteConstraint,
    all_policies,
    miro_attempt,
    negotiate,
    single_path_attempt,
)
from repro.sourcerouting import reachable_avoiding
from repro.topology import ASGraph, GAO_2005, generate_topology

A, B, C, D, E, F = 1, 2, 3, 4, 5, 6
NAMES = dict(zip((A, B, C, D, E, F), "ABCDEF"))


def fig_1_1_graph() -> ASGraph:
    graph = ASGraph()
    graph.add_customer_link(B, A)
    graph.add_customer_link(D, A)
    graph.add_customer_link(B, E)
    graph.add_customer_link(D, E)
    graph.add_customer_link(C, F)
    graph.add_customer_link(E, F)
    graph.add_peer_link(B, C)
    graph.add_peer_link(C, E)
    return graph


def pretty(path) -> str:
    return "".join(NAMES.get(asn, str(asn)) for asn in path)


def walkthrough() -> None:
    print("=" * 64)
    print("Part 1: the Fig. 1.1 walk-through (A wants to avoid E)")
    print("=" * 64)
    graph = fig_1_1_graph()
    table = compute_routes(graph, F)

    print("\nSelected BGP routes toward F:")
    for asn in (A, B, C, D, E):
        print(f"    {NAMES[asn]}: {pretty(table.best(asn).path)}")

    plain = single_path_attempt(table, A, E)
    print(f"\nSingle-path BGP: can A avoid E?  {plain.success}")

    for policy in all_policies():
        attempt = miro_attempt(table, A, E, policy)
        line = f"MIRO {policy.value:>2}: success={attempt.success}"
        if attempt.success and attempt.method == "tunnel":
            line += (
                f", tunnel with {NAMES[attempt.responder]}"
                f", end-to-end {pretty(attempt.full_path)}"
            )
        print(line)

    print(
        "Source routing: reachable avoiding E?"
        f"  {reachable_avoiding(graph, A, F, E)}"
    )
    print(
        "\n(The strict policy fails because B's alternate BCF is a peer\n"
        " route while its default BEF is a customer route — B only\n"
        " reveals BCF under the respect-export or flexible policies.)"
    )
    forward_through_the_tunnel(table)


def forward_through_the_tunnel(table) -> None:
    """§3.5: the upstream AS decides which packets enter the tunnel."""
    outcome = negotiate(table, A, B, ExportPolicy.EXPORT,
                        constraint=RouteConstraint(avoid=(E,)))
    tunnel = outcome.tunnel
    into_tunnel = f"tunnel-{tunnel.tunnel_id}"
    # real-time traffic (ToS 46) always takes the tunnel; bulk flows are
    # split 30/70 by flow hash, one classifier rule per flow, so every
    # packet of a flow takes the same path
    classifier = Classifier(default_action="default")
    classifier.add(MatchRule(tos=46), into_tunnel)
    splitter = HashSplitter([(into_tunnel, 0.3), ("default", 0.7)])
    bulk = [packet(A, F, src_port=port) for port in range(5000, 5010)]
    for flow in bulk:
        classifier.add(MatchRule(src_port=flow.flow.src_port),
                       splitter.pick(flow))
    forwarder = ASLevelForwarder({F: table})
    forwarder.install_tunnel(tunnel, classifier)

    print(f"\nData plane with tunnel {tunnel.tunnel_id} "
          f"({pretty(tunnel.path)}) installed at A:")
    voice = forwarder.forward(packet(A, F, tos=46))
    print(f"    real-time packet: {pretty(voice.hops)}"
          f" (encapsulated over {pretty(voice.encapsulated_hops)})")
    web = forwarder.forward(packet(A, F, dst_port=80))
    print(f"    web packet:       {pretty(web.hops)}")
    tunneled = sum(forwarder.forward(flow).used_tunnel is not None
                   for flow in bulk)
    print(f"    bulk flows through the tunnel: {tunneled} of {len(bulk)}")


def packet(source: int, destination: int, **flow) -> Packet:
    return Packet.make(address_in_as(source), address_in_as(destination),
                       flow=FlowKey(**flow))


def measurement() -> None:
    print()
    print("=" * 64)
    print("Part 2: Table 5.2 on a generated Internet-like topology")
    print("=" * 64)
    graph = generate_topology(GAO_2005, seed=5)
    rates = run_success_rates(
        graph, "gao-2005", n_destinations=10, sources_per_destination=12,
        seed=5,
    )
    print()
    print(render_table(
        ["Name", "Single", "Multi/s", "Multi/e", "Multi/a", "Source"],
        [rates.as_row()],
        title=f"Success rates over {rates.n_triples} "
              "(source, destination, avoid) triples",
    ))


if __name__ == "__main__":
    walkthrough()
    measurement()
