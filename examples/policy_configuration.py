#!/usr/bin/env python3
"""Policy-driven negotiation with the extended route-map language (Ch. 6).

The requesting AS configures "always try to avoid AS 5" with a price
ceiling; the responding AS prices customer routes at 120 and peer routes
at 180.  The configs are parsed, the trigger fires, and the negotiation
establishes a priced tunnel — the §6.3 example end to end.  Then a
policy monitor automates the same policy (§6.2.1): it negotiates when
the trigger fires, and checks the trigger again whenever the routes
change — here a link failure that tears the tunnel down, and the repair.

Run:  python examples/policy_configuration.py
"""

from repro.bgp import compute_routes
from repro.miro import ExportPolicy, MiroRuntime, PolicyMonitor, negotiate
from repro.policylang import parse_config
from repro.topology import ASGraph

A, B, C, D, E, F = 1, 2, 3, 4, 5, 6

REQUESTER_CONFIG = f"""
router bgp {A}
!
route-map AVOID_AS permit 10
 match empty path 200
 try negotiation NEG-5
!
ip as-path access-list 200 deny _{E}_
!
negotiation NEG-5
 match avoid {E}
 start negotiation with maximum cost 250
"""

RESPONDER_CONFIG = f"""
router bgp {B}
!
accept negotiation from any
 when tunnel_number < 1000
!
negotiation filter FILTER-1
 filter permit local_pref > 300
  set tunnel_cost 120
 filter permit local_pref > 100
  set tunnel_cost 180
"""


def build_graph() -> ASGraph:
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


def main() -> None:
    graph = build_graph()
    table = compute_routes(graph, F)

    requester = parse_config(REQUESTER_CONFIG).requester
    responder = parse_config(RESPONDER_CONFIG).responder
    print("Parsed requester policy:",
          list(requester.negotiations), "triggers:", len(requester.triggers))
    print("Parsed responder policy: accept from",
          requester and (responder.accept_from or "any"),
          "| filters:", [(f.min_local_pref, f.tunnel_cost)
                         for f in responder.filters])

    candidates = table.candidates(A)
    print("\nAS A's candidate routes:",
          [" -> ".join(map(str, r.path)) for r in candidates])
    spec = requester.should_negotiate(candidates)
    if spec is None:
        print("Trigger did not fire — a candidate already avoids AS 5.")
        return
    print(f"Trigger fired: start {spec.name} "
          f"(avoid {spec.avoid}, max cost {spec.max_cost})")

    outcome = negotiate(
        table, A, B, ExportPolicy.EXPORT,
        constraint=spec.constraint(),
        max_price=spec.max_cost,
        responder_config=responder.as_responder_config(),
    )
    if outcome.established:
        tunnel = outcome.tunnel
        print(
            f"\nTunnel established: id {tunnel.tunnel_id}, "
            f"path {'-'.join(map(str, tunnel.path))}, "
            f"price {tunnel.price} (a peer route: local_pref 200 -> 180)"
        )
    else:
        print(f"\nNegotiation failed: {outcome.reason}")
    monitor_the_policy(graph, requester)


def monitor_the_policy(graph: ASGraph, requester) -> None:
    """§6.2.1: the same requester policy, applied by a monitor that
    re-checks its trigger whenever the routes change."""
    runtime = MiroRuntime(graph)
    monitor = PolicyMonitor(runtime, A, requester,
                            watched_destinations={F})

    def poll(when: str) -> None:
        print(f"    {when}:")
        for event in monitor.poll():
            asked = f" (asked AS {event.responder})" if event.responder else ""
            print(f"        {event.kind}{asked} {event.detail}".rstrip())

    # the offline what-if an operator runs before deploying the policy
    would_fire = monitor.stable_state_check([C, D, F])
    print("\nBefore deploying, the trigger would fire toward:",
          sorted(dest for dest, spec in would_fire.items() if spec))
    print("Policy monitor at AS A, watching destination F:")
    poll("first poll")
    runtime.fail_link(B, C)     # the tunnel's B-C hop: torn down
    poll("after link B-C fails")
    runtime.restore_link(B, C)
    poll("after link B-C is repaired")


if __name__ == "__main__":
    main()
