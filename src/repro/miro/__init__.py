"""MIRO core: export policies, bilateral negotiation, tunnels, and the
paper's two headline applications (avoid-an-AS, inbound traffic control)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "policies": (
        "ExportPolicy", "all_policies", "alternate_routes", "offered_routes",
    ),
    "negotiation": (
        "RouteConstraint", "OfferedRoute", "NegotiationOutcome",
        "ResponderConfig", "exchange", "via_path", "negotiate",
        "HANDSHAKE_MESSAGES", "handshake_delay",
    ),
    "tunnels": ("Tunnel", "TunnelTable"),
    "avoidance": (
        "NegotiationScope", "ContactOrder", "AvoidanceAttempt",
        "single_path_attempt", "miro_attempt", "negotiation_targets",
    ),
    "diversity": ("available_paths", "count_available_paths"),
    "traffic": (
        "IngressProfile", "ingress_profile", "ingress_of", "switchable_routes",
        "PowerNodeOption", "power_node_options", "convert_all_moved_fraction",
        "independent_selection_moved_fraction",
        "community_forced_moved_fraction", "StubControlResult",
        "best_control_for_stub",
    ),
    "runtime": ("MiroRuntime", "EstablishedTunnel"),
    "economics": (
        "PricingModel", "ClassBasedPricing", "PerHopPricing", "PremiumPricing",
        "utility_rank", "Ledger", "LedgerEntry", "MarketOutcome",
        "evaluate_pricing",
    ),
    "monitor": ("PolicyMonitor", "MonitorEvent"),
    "splicing": ("SplicedForwarding", "SpliceTrace", "recovery_rate"),
})
