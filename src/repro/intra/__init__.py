"""Intra-AS architecture (Ch. 4): routers, iBGP, tunnel endpoint
addressing, directed forwarding, and the Routing Control Platform."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "network": ("ASNetwork", "Router", "ExitLink"),
    "tunneling": (
        "Delivery", "DirectedForwardingTable", "ExitLinkAddressing",
        "EgressRouterAddressing", "TunnelIngressFilter",
        "ReservedAddressScheme",
    ),
    "rcp": ("RoutingControlPlatform", "ManagedTunnel"),
    "relay": ("RouterNegotiationRelay", "RelayedOffer", "RelayedTunnel"),
    "interconnect": ("Internetwork", "EBGPSession"),
})
