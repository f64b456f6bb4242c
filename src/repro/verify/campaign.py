"""Fault-injection campaigns: seeded event streams under verification.

A *campaign* replays a seeded random stream of
:class:`~repro.topology.delta.TopologyDelta` events — link and AS
failures, compound events, revert/reapply flap cycles — against one
graph, running the differential oracle and the invariant checkers after
every step.  Events are recorded concretely (actual endpoints, not
sampling rules), so any failing stream replays deterministically on a
fresh graph; when the oracle reports a divergence the driver shrinks the
stream greedily (drop one event at a time, keep the drop if the
divergence still reproduces) down to a minimized reproduction:
``(seed, campaign, event list, destination, AS)``.

Event streams respect the delta stack discipline — a ``revert`` always
undoes the most recent live transaction, a ``reapply`` re-executes the
transaction just reverted — so version-journal ancestry stays intact and
the session cache's derivation paths are genuinely exercised across
apply/revert/reapply cycles.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..bgp.routing import compute_routes_reference
from ..errors import NegotiationError, TopologyError
from ..obs import get_logger, get_registry, get_tracer
from ..topology.delta import AppliedDelta, TopologyDelta
from ..topology.graph import ASGraph
from .invariants import (
    Violation,
    check_table,
    check_tunnel_consistency,
)
from .oracle import DifferentialOracle, Divergence

_TRACER = get_tracer()
_LOG = get_logger("verify")
_EVENTS_TOTAL = get_registry().counter(
    "repro_verify_campaign_events_total",
    "Fault-injection events executed, by kind",
    labels=("kind",),
)
_CAMPAIGNS_TOTAL = get_registry().counter(
    "repro_verify_campaigns_total",
    "Campaigns finished, by outcome (clean / violated / diverged)",
    labels=("outcome",),
)
_STEP_SECONDS = get_registry().histogram(
    "repro_verify_step_seconds",
    "Wall time per campaign step (event + oracle + invariants)",
)

GraphFactory = Callable[[], ASGraph]


@dataclass(frozen=True)
class CampaignEvent:
    """One concrete, replayable fault-injection event.

    ``links`` holds the affected link endpoints for the link kinds
    (one pair for ``link-down``, several for ``compound``); ``asn`` the
    victim for ``as-down``.  ``revert`` / ``reapply`` carry no operands —
    they act on the implicit delta stack.
    """

    kind: str
    links: Tuple[Tuple[int, int], ...] = ()
    asn: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "links": [list(pair) for pair in self.links],
            "asn": self.asn,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignEvent":
        return cls(
            kind=data["kind"],
            links=tuple((a, b) for a, b in data.get("links", ())),
            asn=data.get("asn"),
        )

    def __str__(self) -> str:
        if self.kind == "as-down":
            return f"as-down {self.asn}"
        if self.links:
            pairs = ", ".join(f"{a}—{b}" for a, b in self.links)
            return f"{self.kind} {pairs}"
        return self.kind


def execute_event(
    graph: ASGraph,
    stack: List[AppliedDelta],
    last_reverted: Optional[AppliedDelta],
    event: CampaignEvent,
) -> Optional[AppliedDelta]:
    """Apply one event; returns the new *last reverted* transaction.

    Events that are impossible in the current state (the link is already
    gone, the stack is empty, the reverted state moved on) degrade to
    no-ops instead of raising, so minimization can replay any subsequence
    of a recorded stream.
    """
    _EVENTS_TOTAL.labels(kind=event.kind).inc()
    if event.kind in ("link-down", "compound"):
        live = [(a, b) for a, b in event.links if graph.has_link(a, b)]
        if not live:
            return last_reverted
        delta = TopologyDelta.compose(
            *(TopologyDelta.link_down(a, b) for a, b in live)
        )
        stack.append(delta.apply(graph))
        return None
    if event.kind == "as-down":
        if event.asn not in graph or not graph.neighbors(event.asn):
            return last_reverted
        stack.append(TopologyDelta.as_down(event.asn).apply(graph))
        return None
    if event.kind == "revert":
        if not stack:
            return last_reverted
        record = stack.pop()
        try:
            record.revert()
        except TopologyError:
            stack.append(record)
            return last_reverted
        return record
    if event.kind == "reapply":
        if (
            last_reverted is None
            or graph.version != last_reverted.version_before
        ):
            return last_reverted
        try:
            last_reverted.reapply()
        except TopologyError:
            return last_reverted
        stack.append(last_reverted)
        return None
    raise TopologyError(f"unknown campaign event kind {event.kind!r}")


def _generate_event(
    graph: ASGraph,
    rng: random.Random,
    stack: List[AppliedDelta],
    last_reverted: Optional[AppliedDelta],
) -> CampaignEvent:
    """Draw the next event, valid for the graph's current state."""
    kinds = ["link-down"] * 35 + ["as-down"] * 15 + ["compound"] * 15
    if stack:
        kinds += ["revert"] * 20
    if (
        last_reverted is not None
        and graph.version == last_reverted.version_before
    ):
        kinds += ["reapply"] * 15
    kind = rng.choice(kinds)
    if kind in ("revert", "reapply"):
        return CampaignEvent(kind)
    if kind == "as-down":
        candidates = [asn for asn in graph.ases if graph.neighbors(asn)]
        return CampaignEvent("as-down", asn=rng.choice(candidates))
    links = sorted(
        (min(a, b), max(a, b)) for a, b, _ in graph.iter_links()
    )
    if kind == "compound":
        pairs = rng.sample(links, min(2, len(links)))
        return CampaignEvent("compound", links=tuple(pairs))
    return CampaignEvent("link-down", links=(rng.choice(links),))


@dataclass
class MinimizedReproduction:
    """The smallest recorded event stream still showing the divergence."""

    seed: int
    campaign: int
    destination: int
    events: List[CampaignEvent]
    divergence: Divergence
    original_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "campaign": self.campaign,
            "destination": self.destination,
            "events": [e.to_dict() for e in self.events],
            "divergence": self.divergence.to_dict(),
            "original_events": self.original_events,
        }


def replay_divergence(
    make_graph: GraphFactory,
    events: Sequence[CampaignEvent],
    destination: int,
) -> Optional[Divergence]:
    """Replay an event stream on a fresh graph, watching one destination.

    Returns the first divergence the oracle reports at any step, or None
    when the whole stream verifies clean for that destination.
    """
    graph = make_graph()
    if destination not in graph:
        return None
    oracle = DifferentialOracle(graph, [destination])
    result = oracle.check()
    if result.divergences:
        return result.divergences[0]
    stack: List[AppliedDelta] = []
    last_reverted: Optional[AppliedDelta] = None
    for event in events:
        last_reverted = execute_event(graph, stack, last_reverted, event)
        result = oracle.check()
        if result.divergences:
            return result.divergences[0]
    return None


def minimize_events(
    make_graph: GraphFactory,
    events: Sequence[CampaignEvent],
    destination: int,
) -> List[CampaignEvent]:
    """Greedy ddmin-lite: drop events one at a time while the divergence
    still reproduces.  Returns the (locally) minimal stream."""
    current = list(events)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for index in range(len(current)):
            trial = current[:index] + current[index + 1:]
            if replay_divergence(make_graph, trial, destination) is not None:
                current = trial
                shrunk = True
                break
    return current


@dataclass
class CampaignOutcome:
    """Everything one campaign observed."""

    seed: int
    campaign: int
    destinations: List[int]
    events: List[CampaignEvent] = field(default_factory=list)
    steps: int = 0
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    reproduction: Optional[MinimizedReproduction] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "campaign": self.campaign,
            "destinations": self.destinations,
            "events": [e.to_dict() for e in self.events],
            "steps": self.steps,
            "checks": self.checks,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "divergences": [d.to_dict() for d in self.divergences],
            "reproduction": (
                self.reproduction.to_dict() if self.reproduction else None
            ),
        }


def run_campaign(
    make_graph: GraphFactory,
    seed: int,
    campaign: int = 0,
    n_events: int = 8,
    n_destinations: int = 6,
    include_pool: bool = True,
    include_service: bool = True,
    check_invariants: bool = True,
    minimize: bool = True,
) -> CampaignOutcome:
    """One seeded fault-injection campaign on a fresh graph.

    Verifies the clean graph, then applies ``n_events`` generated events,
    re-running the differential oracle (and, optionally, the invariant
    checkers on the reference tables) after each.  The process-pool path
    and the query daemon's batched admission path are compared once, on
    the final state, where the campaign's cache history makes the
    comparison most meaningful.  On the first divergence the campaign
    stops and (when ``minimize``) shrinks the recorded stream to a
    minimized reproduction.
    """
    graph = make_graph()
    rng = random.Random(seed * 100_003 + campaign)
    destinations = sorted(
        rng.sample(graph.ases, min(n_destinations, len(graph)))
    )
    outcome = CampaignOutcome(seed, campaign, destinations)
    oracle = DifferentialOracle(graph, destinations)
    stack: List[AppliedDelta] = []
    last_reverted: Optional[AppliedDelta] = None

    with _TRACER.span("verify_campaign", campaign=campaign, seed=seed):
        for step in range(n_events + 1):
            start = time.perf_counter()
            if step > 0:
                event = _generate_event(graph, rng, stack, last_reverted)
                outcome.events.append(event)
                last_reverted = execute_event(
                    graph, stack, last_reverted, event
                )
                outcome.steps += 1
            final = step == n_events
            result = oracle.check(
                include_pool=include_pool and final,
                include_service=include_service and final,
            )
            outcome.checks += 1
            if check_invariants:
                for table in result.references.values():
                    outcome.violations.extend(check_table(table))
            _STEP_SECONDS.observe(time.perf_counter() - start)
            if result.divergences:
                outcome.divergences.extend(result.divergences)
                first = result.divergences[0]
                _LOG.warning(
                    "campaign_diverged", campaign=campaign, step=step,
                    mode=first.mode, destination=first.destination,
                )
                if minimize:
                    events = minimize_events(
                        make_graph, outcome.events, first.destination
                    )
                    final_div = replay_divergence(
                        make_graph, events, first.destination
                    )
                    outcome.reproduction = MinimizedReproduction(
                        seed=seed, campaign=campaign,
                        destination=first.destination,
                        events=events,
                        divergence=final_div or first,
                        original_events=len(outcome.events),
                    )
                break
            if outcome.violations:
                break

    outcome_label = (
        "diverged" if outcome.divergences
        else "violated" if outcome.violations
        else "clean"
    )
    _CAMPAIGNS_TOTAL.labels(outcome=outcome_label).inc()
    return outcome


def run_tunnel_campaign(
    graph: ASGraph,
    seed: int,
    n_destinations: int = 2,
    n_pairs: int = 6,
    n_failures: int = 3,
) -> Tuple[int, List[Violation]]:
    """Tunnel-table consistency under live failures (§4.3 dynamics).

    Brings up a :class:`~repro.miro.runtime.MiroRuntime`, negotiates
    tunnels along default paths (sources and responders picked from
    :func:`compute_routes_reference`, not the runtime under test), then
    fails sampled links — restored before returning — and checks
    tunnel-table consistency after each.  Returns ``(tunnels,
    violations)``.
    """
    from ..miro.policies import ExportPolicy
    from ..miro.runtime import MiroRuntime

    rng = random.Random(seed)
    runtime = MiroRuntime(graph)
    destinations = rng.sample(graph.ases, min(n_destinations, len(graph)))
    established = 0
    for destination in destinations:
        reference = compute_routes_reference(graph, destination)
        sources = [
            asn for asn in graph.ases
            if asn != destination
            and (path := reference.default_path(asn)) is not None
            and len(path) >= 3
        ]
        for source in rng.sample(sources, min(n_pairs, len(sources))):
            responder = reference.default_path(source)[1]
            try:
                if runtime.establish(
                    source, responder, destination, ExportPolicy.FLEXIBLE
                ) is not None:
                    established += 1
            except NegotiationError:
                continue
    violations = list(check_tunnel_consistency(runtime))
    links = sorted((min(a, b), max(a, b)) for a, b, _ in graph.iter_links())
    failed: List[Tuple[int, int]] = []
    for _ in range(n_failures):
        live = [pair for pair in links if pair not in failed]
        if not live:
            break
        pair = rng.choice(live)
        failed.append(pair)
        runtime.fail_link(*pair)
        violations.extend(check_tunnel_consistency(runtime))
    for pair in reversed(failed):
        runtime.restore_link(*pair)
    violations.extend(check_tunnel_consistency(runtime))
    return established, violations


@dataclass
class VerifyReport:
    """Aggregate of one whole ``repro verify`` run."""

    seed: int
    campaigns: int
    topology: str = ""
    n_ases: int = 0
    steps: int = 0
    checks: int = 0
    tunnels_checked: int = 0
    elapsed_seconds: float = 0.0
    outcomes: List[CampaignOutcome] = field(default_factory=list)
    tunnel_violations: List[Violation] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        out = [v for o in self.outcomes for v in o.violations]
        return out + self.tunnel_violations

    @property
    def divergences(self) -> List[Divergence]:
        return [d for o in self.outcomes for d in o.divergences]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "campaigns": self.campaigns,
            "topology": self.topology,
            "n_ases": self.n_ases,
            "steps": self.steps,
            "checks": self.checks,
            "tunnels_checked": self.tunnels_checked,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "ok": self.ok,
            "violation_count": len(self.violations),
            "divergence_count": len(self.divergences),
            "tunnel_violations": [
                v.to_dict() for v in self.tunnel_violations
            ],
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            f"verify: {self.campaigns} campaigns on {self.topology} "
            f"({self.n_ases} ASes), seed {self.seed}",
            f"  fault events injected:  {self.steps}",
            f"  oracle check rounds:    {self.checks}",
            f"  tunnels checked:        {self.tunnels_checked}",
            f"  invariant violations:   {len(self.violations)}",
            f"  table divergences:      {len(self.divergences)}",
            f"  wall-clock:             {self.elapsed_seconds:.1f} s",
        ]
        for outcome in self.outcomes:
            if outcome.reproduction is not None:
                repro = outcome.reproduction
                lines.append(
                    f"  minimized reproduction (campaign {repro.campaign}, "
                    f"dest {repro.destination}, "
                    f"{len(repro.events)}/{repro.original_events} events):"
                )
                for event in repro.events:
                    lines.append(f"    - {event}")
                lines.append(f"    => {repro.divergence}")
        for violation in self.violations[:10]:
            lines.append(f"  ! {violation}")
        lines.append("  result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_campaigns(
    make_graph: GraphFactory,
    seed: int = 0,
    campaigns: int = 25,
    n_events: int = 8,
    n_destinations: int = 6,
    include_pool: bool = True,
    include_service: bool = True,
    tunnel_campaigns: int = 2,
    topology: str = "topology",
    minimize: bool = True,
    progress: Optional[Callable[[int, CampaignOutcome], None]] = None,
) -> VerifyReport:
    """The full verification matrix: ``campaigns`` seeded campaigns plus
    ``tunnel_campaigns`` tunnel-consistency sub-campaigns.

    Stops early when a campaign diverges or violates an invariant — the
    minimized reproduction is worth more than further clean campaigns.
    """
    start = time.perf_counter()
    probe = make_graph()
    report = VerifyReport(
        seed=seed, campaigns=campaigns, topology=topology,
        n_ases=len(probe),
    )
    with _TRACER.span("verify_run", campaigns=campaigns, seed=seed):
        for campaign in range(campaigns):
            outcome = run_campaign(
                make_graph, seed, campaign=campaign, n_events=n_events,
                n_destinations=n_destinations, include_pool=include_pool,
                include_service=include_service, minimize=minimize,
            )
            report.outcomes.append(outcome)
            report.steps += outcome.steps
            report.checks += outcome.checks
            if progress is not None:
                progress(campaign, outcome)
            if not outcome.ok:
                break
        else:
            for campaign in range(tunnel_campaigns):
                established, violations = run_tunnel_campaign(
                    make_graph(), seed * 100_003 + campaign
                )
                report.tunnels_checked += established
                report.tunnel_violations.extend(violations)
    report.elapsed_seconds = time.perf_counter() - start
    return report
