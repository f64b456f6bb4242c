"""Failure sweep: BGP vs MIRO recovery from link and AS failures (§7).

MIRO's headline scenario is routing *around* a problem before (or
instead of) waiting for BGP to re-converge.  This experiment samples
random link and AS failures on a topology and measures, for the sources
whose default route the failure severed:

* **BGP recovery** — does the re-converged stable state (computed
  incrementally from the pre-failure tables via
  :func:`~repro.bgp.routing.recompute_routes`) give the source a route
  again?
* **MIRO recovery** — could the source, using only its *pre-failure*
  learned routes, switch to a surviving announced candidate or negotiate
  a tunnel around the failed element?  Evaluated under each of the three
  §5.1 export policies; a negotiated path counts only if it traverses no
  failed link, so it is genuinely usable while BGP is still converging.

Each failure is applied as a :class:`~repro.topology.delta.TopologyDelta`
transaction and reverted afterwards, so one sweep probes many events on
one graph — and, because a revert restores the pre-failure graph
version, the pre-failure tables are served from the session cache
throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bgp.routing import RoutingTable, affected_ases
from ..errors import ExperimentError
from ..miro.negotiation import exchange
from ..miro.policies import ExportPolicy, all_policies
from ..session import SimulationSession, ensure_session
from ..topology.delta import TopologyDelta
from ..topology.graph import ASGraph, LinkKey, link_key


@dataclass(frozen=True)
class FailureEvent:
    """One sampled failure and its per-destination recovery outcome."""

    kind: str                      #: ``"link"`` or ``"as"``
    failed: Tuple[int, ...]        #: the failed link's endpoints, or (asn,)
    destination: int
    disrupted: int                 #: sources whose default route was severed
    bgp_recovered: int             #: … with a route in the new stable state
    miro_recovered: Dict[ExportPolicy, int]  #: … recoverable per policy
    affected_fraction: float       #: |affected set| / |pre-failure routed|


@dataclass(frozen=True)
class FailureSweep:
    """Aggregate of one failure sweep (the per-event detail rides along)."""

    name: str
    seed: int
    n_link_events: int
    n_as_events: int
    events: Tuple[FailureEvent, ...] = field(repr=False)

    @property
    def disrupted_sources(self) -> int:
        return sum(e.disrupted for e in self.events)

    @property
    def bgp_recovery_rate(self) -> float:
        disrupted = self.disrupted_sources
        if not disrupted:
            return 0.0
        return sum(e.bgp_recovered for e in self.events) / disrupted

    def miro_recovery_rate(self, policy: ExportPolicy) -> float:
        disrupted = self.disrupted_sources
        if not disrupted:
            return 0.0
        recovered = sum(e.miro_recovered[policy] for e in self.events)
        return recovered / disrupted

    @property
    def mean_affected_fraction(self) -> float:
        if not self.events:
            return 0.0
        return sum(e.affected_fraction for e in self.events) / len(self.events)

    def as_rows(self) -> List[Tuple]:
        """One row per recovery scheme, for the §7 report table."""
        rows: List[Tuple] = [
            ("bgp re-converged", f"{self.bgp_recovery_rate:.1%}")
        ]
        rows.extend(
            (f"miro {policy.label}", f"{self.miro_recovery_rate(policy):.1%}")
            for policy in all_policies()
        )
        return rows


def _surviving_attempt(
    table: RoutingTable,
    source: int,
    failed: FrozenSet[LinkKey],
    policy: ExportPolicy,
) -> bool:
    """Can ``source`` reach the destination on pre-failure MIRO state?

    Mirrors :func:`repro.miro.avoidance.miro_attempt`, generalised from
    avoiding an AS to avoiding a set of failed links: first a surviving
    BGP-announced candidate, then near-first on-path negotiation with the
    ASes before the first failed link of each candidate, accepting the
    first offer whose spliced path traverses no failed link.
    """
    candidates = table.candidates(source)
    for candidate in candidates:
        if _survives(candidate.path, failed):
            return True

    seen = set()
    targets: List[Tuple[int, int, Tuple[int, ...]]] = []
    for candidate in candidates:
        path = candidate.path
        cut = _first_failure(path, failed)
        if cut is None:
            continue
        for i in range(1, cut + 1):
            responder = path[i]
            if responder in seen:
                continue
            seen.add(responder)
            targets.append((i, responder, path[: i + 1]))
    targets.sort(key=lambda t: (t[0], t[1]))

    for _, responder, via in targets:
        _, chosen = exchange(
            table, via, policy,
            accept=lambda r: _survives(via + r.path[1:], failed),
        )
        if chosen is not None:
            return True
    return False


def _survives(path: Sequence[int], failed: FrozenSet[LinkKey]) -> bool:
    return all(link_key(a, b) not in failed for a, b in zip(path, path[1:]))


def _first_failure(
    path: Sequence[int], failed: FrozenSet[LinkKey]
) -> Optional[int]:
    """Index of the AS just before the first failed link, or None."""
    for i, (a, b) in enumerate(zip(path, path[1:])):
        if link_key(a, b) in failed:
            return i
    return None


def run_failure_sweep(
    graph: ASGraph,
    name: str = "topology",
    n_events: int = 12,
    as_failure_fraction: float = 0.25,
    n_destinations: int = 5,
    seed: int = 0,
    session: Optional[SimulationSession] = None,
) -> FailureSweep:
    """Sample failures and measure BGP vs MIRO recovery.

    Each event fails one random link (or, with probability
    ``as_failure_fraction``, one random non-destination AS), recomputes
    the stable state for every sampled destination through the shared
    session — which derives the post-failure tables incrementally from
    the cached pre-failure ones — and scores the disrupted sources, then
    reverts the failure.
    """
    if n_events < 1:
        raise ExperimentError(f"need at least 1 failure event, got {n_events}")
    if not 0.0 <= as_failure_fraction <= 1.0:
        raise ExperimentError(
            f"as_failure_fraction must be within [0, 1], "
            f"got {as_failure_fraction}"
        )
    session = ensure_session(graph, session)
    rng = random.Random(seed)
    destinations = sorted(
        rng.sample(graph.ases, min(n_destinations, len(graph)))
    )
    pre_tables = session.compute_many(destinations)

    events: List[FailureEvent] = []
    n_link_events = n_as_events = 0
    for _ in range(n_events):
        links = sorted(graph.iter_links())
        candidates = [a for a in graph.ases if a not in destinations]
        if candidates and rng.random() < as_failure_fraction:
            victim = rng.choice(candidates)
            delta = TopologyDelta.as_down(victim)
            kind, failed_ids = "as", (victim,)
            n_as_events += 1
        else:
            a, b, _ = rng.choice(links)
            delta = TopologyDelta.link_down(a, b)
            kind, failed_ids = "link", link_key(a, b)
            n_link_events += 1

        applied = delta.apply(graph)
        outcomes: List[Tuple[int, List[int], int, int]] = []
        for destination in destinations:
            pre = pre_tables[destination]
            affected = affected_ases(graph, pre, applied.changed_links)
            disrupted = sorted((affected or set()) - {destination})
            post = session.compute(destination)
            bgp_recovered = sum(
                1 for source in disrupted if post.best(source) is not None
            )
            outcomes.append(
                (destination, disrupted, bgp_recovered, len(affected or ()))
            )
        changed = applied.changed_links
        # MIRO negotiates over *pre-failure* state, so the pre-failure
        # graph must be back in place before the tables are queried.
        applied.revert()
        for destination, disrupted, bgp_recovered, n_affected in outcomes:
            pre = pre_tables[destination]
            miro_recovered = {
                policy: sum(
                    1 for source in disrupted
                    if _surviving_attempt(pre, source, changed, policy)
                )
                for policy in all_policies()
            }
            routed = max(1, len(pre.routed_ases()))
            events.append(FailureEvent(
                kind=kind,
                failed=tuple(failed_ids),
                destination=destination,
                disrupted=len(disrupted),
                bgp_recovered=bgp_recovered,
                miro_recovered=miro_recovered,
                affected_fraction=n_affected / routed,
            ))

    return FailureSweep(
        name=name,
        seed=seed,
        n_link_events=n_link_events,
        n_as_events=n_as_events,
        events=tuple(events),
    )
