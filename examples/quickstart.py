#!/usr/bin/env python3
"""Quickstart: generate an Internet-like topology, compute BGP routes
through a SimulationSession, and negotiate a MIRO tunnel.

Run:  python examples/quickstart.py
"""

from repro import SimulationSession
from repro.miro import ExportPolicy, RouteConstraint, negotiate
from repro.topology import GAO_2005, generate_topology, summarize


def main() -> None:
    # 1. An Internet-like AS topology (stands in for the RouteViews-derived
    #    Gao 2005 snapshot; see DESIGN.md).
    graph = generate_topology(GAO_2005, seed=1)
    print("Topology:", summarize(graph, "gao-2005"))

    # 2. Default BGP routes toward one destination prefix.  The session
    #    memoizes tables against the graph's mutation counter, so every
    #    later lookup of this destination is a cache hit (see
    #    docs/architecture.md).
    session = SimulationSession(graph)
    destination = graph.stubs()[0]
    table = session.compute(destination)
    # pick a source whose default path crosses several transit ASes
    source = max(
        (a for a in table.routed_ases() if a != destination),
        key=lambda a: (len(table.default_path(a)), -a),
    )
    print(f"\nDefault BGP path from AS {source} to AS {destination}:")
    print("   ", " -> ".join(map(str, table.default_path(source))))

    # 3. Ask the first transit AS on the path for alternate routes and
    #    bind one to a tunnel (the Fig. 4.2 exchange in one call).
    default = table.default_path(source)
    if len(default) < 3:
        print("\nPath too short to need a tunnel; try another seed.")
        return
    responder = default[1]
    avoid = default[2]
    outcome = negotiate(
        table, source, responder, ExportPolicy.EXPORT,
        constraint=RouteConstraint(avoid=(avoid,)),
    )
    print(f"\nNegotiation with AS {responder} to avoid AS {avoid}:")
    if outcome.established:
        tunnel = outcome.tunnel
        print(f"    established tunnel id {tunnel.tunnel_id}")
        print("    tunnel path:     ", " -> ".join(map(str, tunnel.path)))
        print("    end-to-end path: ",
              " -> ".join(map(str, tunnel.end_to_end_path)))
    else:
        print(f"    declined ({outcome.reason}); "
              f"{outcome.offered_count} routes were offered")

    # 4. What did all of that cost in route computation?
    print("\nRouting-cost telemetry:")
    for key, value in session.stats.items():
        print(f"    {key}: {value}")


if __name__ == "__main__":
    main()
