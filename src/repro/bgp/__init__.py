"""BGP substrate: routes, Gao–Rexford policies, stable-state computation,
and the router-level decision process."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "": ("kernels",),
    "route": ("Route", "RouteClass"),
    "policy": (
        "classify_path", "make_route", "may_export", "exportable_route",
        "select_best",
    ),
    "routing": (
        "RoutingTable", "compute_routes", "recompute_routes", "affected_ases",
    ),
    "decision": (
        "RouterRoute", "OriginType", "SessionType", "decide", "DECISION_STEPS",
    ),
    "engine": ("EventDrivenBGP", "BGPNode", "Update"),
})
