"""Routing-state invariant checkers.

Every property a stable Gao–Rexford outcome must satisfy, checked
exhaustively against a concrete :class:`~repro.bgp.routing.RoutingTable`
(or a live :class:`~repro.miro.runtime.MiroRuntime`):

* **valley-free legality** — every selected path exists in the topology
  and obeys the Gao valley-free property (§2.2.1);
* **forwarding-tree consistency** — every installed route's next hop
  holds a route whose path is exactly the tail of the installed one, and
  the export rules permit the next hop to have advertised it;
* **stable-state fixed point** — each AS's selected route is the
  Gao–Rexford best among everything its neighbours export to it, and an
  unrouted AS truly has nothing exported to it;
* **tunnel-table consistency** — every live MIRO tunnel is installed at
  both endpoints, carries a path the responder actually learns, and rides
  a via segment the requester can still reach the responder over.

The checkers deliberately re-derive everything from first principles
(:mod:`repro.bgp.policy` primitives) instead of calling back into the
machinery under test, so a bug in the propagation, the incremental
recomputation, or the session cache cannot hide itself.  The one shared
surface is candidate *enumeration*: :meth:`RoutingTable.candidates`
walks neighbours through the memoized topology snapshot's arrays (the
hot-path representation), while every legality judgment about those
candidates — valley-freedom, export permission, preference — still comes
from the mutable graph and the policy primitives, independent of the
snapshot kernel under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..bgp.policy import may_export, select_best
from ..bgp.routing import RoutingTable, compute_routes_reference
from ..obs import get_registry

_VIOLATIONS_TOTAL = get_registry().counter(
    "repro_verify_violations_total",
    "Invariant violations detected, by invariant",
    labels=("invariant",),
)
_CHECKS_TOTAL = get_registry().counter(
    "repro_verify_checks_total",
    "Invariant checks executed, by invariant",
    labels=("invariant",),
)


@dataclass(frozen=True)
class Violation:
    """One concrete invariant breach, pinned to an AS and a destination."""

    invariant: str
    destination: Optional[int]
    asn: Optional[int]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "destination": self.destination,
            "asn": self.asn,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        where = f"dest={self.destination} asn={self.asn}"
        return f"[{self.invariant}] {where}: {self.detail}"


def _record(violations: List[Violation], invariant: str) -> List[Violation]:
    _CHECKS_TOTAL.labels(invariant=invariant).inc()
    if violations:
        _VIOLATIONS_TOTAL.labels(invariant=invariant).inc(len(violations))
    return violations


def check_valley_free(table: RoutingTable) -> List[Violation]:
    """Every selected path exists in the topology and is valley-free."""
    graph = table.graph
    destination = table.destination
    out: List[Violation] = []
    for asn, route in table.items():
        path = route.path
        if path[0] != asn or path[-1] != destination:
            out.append(Violation(
                "valley-free", destination, asn,
                f"path {path} does not run from holder to destination",
            ))
            continue
        if not graph.path_exists(path):
            out.append(Violation(
                "valley-free", destination, asn,
                f"path {path} uses a link absent from the topology",
            ))
            continue
        if not graph.is_valley_free(path):
            out.append(Violation(
                "valley-free", destination, asn,
                f"path {path} has a valley (illegal export chain)",
            ))
    return _record(out, "valley-free")


def check_forwarding_tree(table: RoutingTable) -> List[Violation]:
    """Each route's next hop holds exactly the tail, legally exported."""
    graph = table.graph
    destination = table.destination
    out: List[Violation] = []
    for asn, route in table.items():
        if asn == destination:
            continue
        path = route.path
        if len(path) < 2:
            out.append(Violation(
                "forwarding-tree", destination, asn,
                f"non-destination AS holds degenerate path {path}",
            ))
            continue
        next_hop = path[1]
        nh_route = table.best(next_hop) if next_hop in graph else None
        if nh_route is None:
            out.append(Violation(
                "forwarding-tree", destination, asn,
                f"next hop {next_hop} of path {path} holds no route",
            ))
            continue
        if nh_route.path != path[1:]:
            out.append(Violation(
                "forwarding-tree", destination, asn,
                f"next hop {next_hop} selected {nh_route.path}, "
                f"not the tail of {path}",
            ))
            continue
        if not graph.has_link(asn, next_hop):
            out.append(Violation(
                "forwarding-tree", destination, asn,
                f"first hop {asn}-{next_hop} of path {path} "
                f"is not a link in the graph",
            ))
            continue
        if not may_export(graph, next_hop, asn, nh_route.route_class):
            out.append(Violation(
                "forwarding-tree", destination, asn,
                f"export rules forbid {next_hop} advertising its "
                f"{nh_route.route_class.value} route to {asn}",
            ))
    return _record(out, "forwarding-tree")


def check_fixed_point(table: RoutingTable) -> List[Violation]:
    """The table is a stable state: nobody prefers a neighbour's offer.

    For every routed AS the selected route must be the Gao–Rexford best
    among the candidates its neighbours export in this very state; for
    every unrouted AS there must be no candidate at all.  This is the
    property the Ch. 7 convergence proofs guarantee the system settles
    into, so any breach means some computation path produced a
    non-equilibrium table.
    """
    graph = table.graph
    destination = table.destination
    out: List[Violation] = []
    for asn in graph.iter_ases():
        selected = table.best(asn)
        candidates = table.candidates(asn)
        if selected is None:
            if candidates:
                out.append(Violation(
                    "fixed-point", destination, asn,
                    f"unrouted AS is offered {len(candidates)} routes, "
                    f"e.g. {candidates[0].path}",
                ))
            continue
        if asn == destination:
            continue
        best = select_best(candidates)
        if best is None:
            out.append(Violation(
                "fixed-point", destination, asn,
                f"selected {selected.path} but no neighbour exports "
                f"anything to this AS",
            ))
            continue
        if best.preference_key() != selected.preference_key():
            out.append(Violation(
                "fixed-point", destination, asn,
                f"selected {selected.path} but would prefer {best.path}",
            ))
    return _record(out, "fixed-point")


def check_table(table: RoutingTable) -> List[Violation]:
    """All per-table invariants: valley-free, tree, fixed point."""
    return (
        check_valley_free(table)
        + check_forwarding_tree(table)
        + check_fixed_point(table)
    )


def check_tunnel_consistency(runtime) -> List[Violation]:
    """Every live tunnel of a :class:`~repro.miro.runtime.MiroRuntime`
    is consistent with the negotiated agreement and the current routes.

    Judged from outside: hop by hop against the live graph and against
    :func:`compute_routes_reference` at it (one table per destination
    with live tunnels), never the runtime's own tables or validity rule.
    Anything flagged is a tunnel wrongly kept (or half-removed).
    """
    graph = runtime.graph

    def intact(path) -> bool:
        return all(graph.has_link(a, b) for a, b in zip(path, path[1:]))

    references: Dict[int, RoutingTable] = {}
    out: List[Violation] = []
    for record in runtime.live_tunnels():
        tunnel = record.tunnel
        destination = record.destination

        def flag(asn: int, detail: str, destination=destination) -> None:
            out.append(
                Violation("tunnel-consistency", destination, asn, detail)
            )

        for endpoint in (record.requester, record.responder):
            state = runtime.tunnels.get(endpoint)
            if state is None or not state.has(tunnel.tunnel_id):
                flag(endpoint, f"tunnel {tunnel.tunnel_id} live but not "
                               f"installed at endpoint {endpoint}")
        gone = [asn for asn in (record.requester, record.responder,
                                destination) if asn not in graph]
        if gone:
            flag(gone[0], f"tunnel {tunnel.tunnel_id} outlived AS {gone[0]}")
            continue
        reference = references.get(destination)
        if reference is None:
            reference = references[destination] = compute_routes_reference(
                graph, destination)
        if not intact(tunnel.path):
            flag(record.responder,
                 f"tunnel path {tunnel.path} uses a failed link")
        learned = {r.path for r in reference.candidates(record.responder)}
        if tunnel.path not in learned:
            flag(record.responder,
                 f"responder no longer learns tunnel path {tunnel.path}")
        default = reference.default_path(record.requester)
        via = tunnel.via_path
        if (default is None or default[: len(via)] != via) and not (
            len(via) == 2 and intact(via)
        ):
            flag(record.requester,
                 f"via segment {via} no longer matches the requester's "
                 f"route {default}")
    return _record(out, "tunnel-consistency")


@dataclass
class InvariantReport:
    """Aggregate of one batch of invariant checks."""

    tables_checked: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, violations: List[Violation]) -> None:
        self.violations.extend(violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tables_checked": self.tables_checked,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }
