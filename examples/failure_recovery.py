#!/usr/bin/env python3
"""Live protocol dynamics: failures, rerouting, tunnel teardown (§4.3).

Runs the MIRO runtime over its session's routing tables: a tunnel is
negotiated, a link on its path fails, the routes settle anew, and the
tunnel is torn down automatically; soft-state keep-alives clean up after
a silent upstream.

Run:  python examples/failure_recovery.py
"""

from repro.miro import ExportPolicy, MiroRuntime, RouteConstraint
from repro.topology import ASGraph

A, B, C, D, E, F = 1, 2, 3, 4, 5, 6
NAMES = dict(zip((A, B, C, D, E, F), "ABCDEF"))


def pretty(path):
    return "".join(NAMES[asn] for asn in path)


def main() -> None:
    graph = ASGraph()
    graph.add_customer_link(B, A)
    graph.add_customer_link(D, A)
    graph.add_customer_link(B, E)
    graph.add_customer_link(D, E)
    graph.add_customer_link(C, F)
    graph.add_customer_link(E, F)
    graph.add_peer_link(B, C)
    graph.add_peer_link(C, E)

    runtime = MiroRuntime(graph, heartbeat_timeout=30.0)
    print(f"A's default path to F: "
          f"{pretty(runtime.session.compute(F).default_path(A))}")

    record = runtime.establish(
        A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,)),
    )
    print(f"\nTunnel {record.tunnel.tunnel_id} established: "
          f"{pretty(record.tunnel.via_path)} + {pretty(record.tunnel.path)}"
          f" -> end-to-end {pretty(record.tunnel.end_to_end_path)}")

    print("\nFailing link C–F (the tunnel's exit into F)...")
    torn_down = runtime.fail_link(C, F)
    print(f"torn down: {[pretty(t.path) for t in torn_down]}")
    print(f"live tunnels: {len(runtime.live_tunnels())}")

    print("\nRestoring C–F and renegotiating...")
    runtime.restore_link(C, F)
    record = runtime.establish(
        A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,)),
    )
    print(f"tunnel re-established: {pretty(record.tunnel.end_to_end_path)}")

    print("\nUpstream goes silent; soft state expires the tunnel:")
    expired = runtime.tick(31.0)
    print(f"expired after 31s without keep-alives: "
          f"{[pretty(t.path) for t in expired]}")
    print(f"live tunnels: {len(runtime.live_tunnels())}")


if __name__ == "__main__":
    main()
