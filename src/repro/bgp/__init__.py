"""BGP substrate: routes, Gao–Rexford policies, stable-state computation,
and the router-level decision process."""

from .engine import BGPNode, EventDrivenBGP, Update
from .decision import (
    DECISION_STEPS,
    OriginType,
    RouterRoute,
    SessionType,
    best_route,
    decide,
)
from .policy import (
    classify_path,
    exportable_route,
    make_route,
    may_export,
    select_best,
)
from .route import Route, RouteClass, better
from .routing import (
    RoutingTable,
    affected_ases,
    compute_routes,
    recompute_routes,
)

# Imported after .routing: the kernel table holds the settling
# implementation defined there.
from . import kernels

__all__ = [
    "kernels",
    "Route",
    "RouteClass",
    "better",
    "classify_path",
    "make_route",
    "may_export",
    "exportable_route",
    "select_best",
    "RoutingTable",
    "compute_routes",
    "recompute_routes",
    "affected_ases",
    "RouterRoute",
    "OriginType",
    "SessionType",
    "decide",
    "best_route",
    "DECISION_STEPS",
    "EventDrivenBGP",
    "BGPNode",
    "Update",
]
