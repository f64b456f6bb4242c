"""Routing-policy configuration (Ch. 6): Cisco-style route-maps and the
paper's extended negotiation-policy language."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "routemap": (
        "compile_aspath_regex", "path_to_string", "AccessListEntry",
        "AsPathAccessList", "PolicyRoute", "MatchAsPath", "SetLocalPref",
        "RouteMapClause", "RouteMap",
    ),
    "config": (
        "parse_config", "MiroConfig", "NegotiationSpec", "TriggerRule",
        "FilterRule", "RequesterPolicy", "ResponderPolicy",
    ),
})
