"""Post-hoc audits of live session state (``--verify`` on experiments).

An experiment run threads one :class:`~repro.session.SimulationSession`
through every table and figure; :func:`audit_session` spot-checks that
the tables the figures actually consumed — whatever mix of cached,
derived, and pool-computed state produced them — are invariant-clean and
byte-identical to fresh full computations.  Cheap enough to ride along
any run: the audit recomputes only a bounded sample of destinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..bgp.routing import compute_routes_reference
from ..obs import get_registry, get_tracer
from ..session import SimulationSession
from .invariants import Violation, check_table
from .oracle import Divergence, first_divergence

_TRACER = get_tracer()
_AUDITS_TOTAL = get_registry().counter(
    "repro_verify_audits_total",
    "Session audits run, by outcome",
    labels=("outcome",),
)


@dataclass
class AuditResult:
    """What one session audit found."""

    tables_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tables_checked": self.tables_checked,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def render(self) -> str:
        lines = [
            "route-table audit:",
            f"  tables audited:        {self.tables_checked}",
            f"  invariant violations:  {len(self.violations)}",
            f"  oracle divergences:    {len(self.divergences)}",
        ]
        for violation in self.violations[:5]:
            lines.append(f"  ! {violation}")
        for divergence in self.divergences[:5]:
            lines.append(f"  ! {divergence}")
        lines.append(
            "  result: " + ("PASS" if self.ok else "FAIL")
        )
        return "\n".join(lines)


def audit_session(
    session: SimulationSession,
    destinations=None,
    max_tables: int = 8,
) -> AuditResult:
    """Verify a sample of the session's tables against fresh references.

    ``destinations`` defaults to a spread over the graph's ASes.  Each
    sampled table is fetched *through the session* (so the audit sees
    exactly what the experiments saw, cache hits included), checked
    against the per-table invariants, and compared to an independent
    :func:`~repro.bgp.routing.compute_routes_reference` run — the legacy
    dict walk, so the audit shares no hot-path code with the snapshot
    kernel that produced the session's tables.
    """
    graph = session.graph
    if destinations is None:
        ases = graph.ases
        stride = max(1, len(ases) // max_tables)
        destinations = ases[::stride][:max_tables]
    result = AuditResult()
    with _TRACER.span("verify_audit", tables=len(destinations)):
        for destination in destinations:
            table = session.compute(destination)
            result.tables_checked += 1
            result.violations.extend(check_table(table))
            reference = compute_routes_reference(graph, destination)
            # check_table read every AS's best() and candidates() already
            divergence = first_divergence(
                reference, table, "session-audit", per_as=False)
            if divergence is not None:
                result.divergences.append(divergence)
    _AUDITS_TOTAL.labels(outcome="pass" if result.ok else "fail").inc()
    return result
