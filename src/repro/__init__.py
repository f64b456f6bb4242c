"""repro — a full reproduction of *MIRO: Multi-path Interdomain Routing*
(Wen Xu and Jennifer Rexford, ACM SIGCOMM 2006; extended in Xu's 2009
dissertation).

The package layers, bottom-up:

* :mod:`repro.topology` — AS-level graphs with business relationships,
  an Internet-like generator, and relationship-inference algorithms;
* :mod:`repro.bgp` — Gao–Rexford policy routing and the router-level
  decision process;
* :mod:`repro.miro` — the paper's contribution: negotiated alternate
  routes, selective export policies, tunnels, and the two headline
  applications;
* :mod:`repro.sourcerouting` — the source-routing baseline;
* :mod:`repro.intra` / :mod:`repro.dataplane` — the Ch. 4 implementation
  architecture (iBGP, tunnel addressing, encapsulation, classifiers);
* :mod:`repro.policylang` — the Ch. 6 extended route-map language;
* :mod:`repro.convergence` — the Ch. 7 model, guidelines, and
  counterexamples;
* :mod:`repro.experiments` — regenerates every table and figure.

Quickstart::

    from repro.topology import generate_topology, GAO_2005
    from repro.bgp import compute_routes
    from repro.miro import ExportPolicy, miro_attempt

    graph = generate_topology(GAO_2005, seed=1)
    table = compute_routes(graph, destination=42)
    attempt = miro_attempt(table, source=900, avoid=3,
                           policy=ExportPolicy.STRICT)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "": (
        "topology", "bgp", "miro", "sourcerouting", "intra", "dataplane",
        "policylang", "convergence", "experiments",
    ),
    "session": ("SimulationSession", "RouteTableCache", "ensure_session"),
    "errors": (
        "ReproError", "TopologyError", "UnknownASError", "RoutingError",
        "SessionError", "NegotiationError", "TunnelError", "PolicyError",
        "PolicySyntaxError", "ConvergenceError", "DataPlaneError",
    ),
}, own=("__version__",))
