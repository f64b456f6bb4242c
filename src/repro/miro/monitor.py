"""Automated negotiation triggering (§6.2.1).

"Negotiations should only be triggered if none of the current routes
satisfy the desired property.  Whenever the routes or the policies change,
the router should check the triggering conditions, then initiate a
negotiation when the conditions are satisfied."

:class:`PolicyMonitor` wires a compiled requester policy (from the Ch. 6
configuration language) into a live :class:`~repro.miro.runtime.MiroRuntime`:
it re-evaluates the trigger rules whenever the routes may have changed
(the graph's version moved, or a tunnel was torn down), picks
responders (the ASes "between itself and [the avoided AS] on any of the
current candidate paths"), and drives the negotiations — the software the
paper imagines "on the routers or end hosts [that] can automatically
monitor current routing situations and conduct the negotiations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..bgp.policy import make_route
from ..bgp.route import Route
from ..errors import NegotiationError
from ..policylang.config import NegotiationSpec, RequesterPolicy
from ..session import ensure_session
from .policies import ExportPolicy
from .runtime import MiroRuntime


@dataclass(frozen=True)
class MonitorEvent:
    """One action the monitor took."""

    kind: str  # "triggered", "established", "failed", "satisfied"
    destination: int
    responder: Optional[int] = None
    detail: str = ""


class PolicyMonitor:
    """Watches one AS's routes and negotiates per its configured policy."""

    def __init__(
        self,
        runtime: MiroRuntime,
        asn: int,
        policy: RequesterPolicy,
        export_policy: ExportPolicy = ExportPolicy.EXPORT,
        watched_destinations: Optional[Set[int]] = None,
    ) -> None:
        self.runtime = runtime
        self.asn = asn
        self.policy = policy
        self.export_policy = export_policy
        self.watched = watched_destinations
        self.events: List[MonitorEvent] = []
        # a new monitor has judged nothing yet: everything it watches
        self._pending: Set[int] = set(watched_destinations or ())
        self._version_seen = runtime.graph.version
        self._teardowns_seen = 0

    def pending_destinations(self) -> Set[int]:
        return set(self._pending)

    # ------------------------------------------------------------------
    # the §6.2.1 loop
    # ------------------------------------------------------------------
    def poll(self) -> List[MonitorEvent]:
        """Check triggers for every destination whose routes may have
        changed since the last poll.

        A move of the graph's version or a tunnel teardown re-pends
        every watched destination; without a watch list only this AS's
        own torn-down tunnels re-pend theirs (§4.3 teardown is how the
        AS learns its negotiated path died even when its own BGP routes
        are untouched).  Returns the events generated this round (also
        appended to :attr:`events`).
        """
        self.runtime.revalidate()
        torn_down = self.runtime.torn_down
        version = self.runtime.graph.version
        if self.watched is None:
            for tunnel in torn_down[self._teardowns_seen:]:
                if tunnel.upstream == self.asn:
                    self._pending.add(tunnel.destination)
        elif (version != self._version_seen
              or len(torn_down) != self._teardowns_seen):
            self._pending |= self.watched
        self._version_seen = version
        self._teardowns_seen = len(torn_down)

        produced: List[MonitorEvent] = []
        for destination in sorted(self._pending):
            produced.extend(self._check_destination(destination))
        self._pending.clear()
        self.events.extend(produced)
        return produced

    def _check_destination(self, destination: int) -> List[MonitorEvent]:
        table = self.runtime.session.compute(destination)
        candidates = table.candidates(self.asn)
        # tunnels the AS already holds count as satisfying routes
        tunnel_routes = self._tunnel_routes(destination)
        spec = self.policy.should_negotiate(
            list(candidates) + tunnel_routes
        )
        if spec is None:
            return [MonitorEvent("satisfied", destination)]
        events: List[MonitorEvent] = [
            MonitorEvent("triggered", destination, detail=spec.name)
        ]
        events.extend(self._negotiate(destination, spec))
        return events

    def stable_state_check(
        self, destinations, session=None
    ) -> Dict[int, Optional[str]]:
        """Offline §6.2.1 trigger evaluation against the stable state.

        For each destination, compute the Gao–Rexford stable state (through
        a shared :class:`~repro.session.SimulationSession`, so repeated
        checks and other experiment layers reuse the same cached tables)
        and evaluate this monitor's trigger rules against the candidate
        routes the AS would hold there.  Returns ``{destination: name of
        the negotiation spec that would fire, or None if satisfied}`` —
        the cheap what-if operators run before deploying a policy, without
        negotiating anything.
        """
        session = ensure_session(
            self.runtime.graph,
            self.runtime.session if session is None else session,
        )
        outcome: Dict[int, Optional[str]] = {}
        for destination, table in session.compute_many(destinations).items():
            spec = self.policy.should_negotiate(table.candidates(self.asn))
            outcome[destination] = None if spec is None else spec.name
        return outcome

    def _tunnel_routes(self, destination: int) -> List[Route]:
        routes: List[Route] = []
        for record in self.runtime.live_tunnels():
            if record.requester != self.asn:
                continue
            if record.destination != destination:
                continue
            path = record.tunnel.end_to_end_path
            if len(set(path)) == len(path):  # representable as a Route
                try:
                    routes.append(make_route(self.runtime.graph, path))
                except Exception:
                    continue
        return routes

    def _responders_for(self, destination: int, spec: NegotiationSpec) -> List[int]:
        """ASes between us and the avoided AS on any candidate path."""
        responders: List[int] = []
        table = self.runtime.session.compute(destination)
        for candidate in table.candidates(self.asn):
            path = candidate.path
            cutoffs = [
                path.index(asn) for asn in spec.avoid if asn in path
            ]
            cutoff = min(cutoffs) if cutoffs else len(path) - 1
            for asn in path[1:cutoff]:
                if asn not in responders:
                    responders.append(asn)
        return responders

    def _negotiate(
        self, destination: int, spec: NegotiationSpec
    ) -> List[MonitorEvent]:
        events: List[MonitorEvent] = []
        for responder in self._responders_for(destination, spec):
            try:
                record = self.runtime.establish(
                    self.asn, responder, destination,
                    self.export_policy, constraint=spec.constraint(),
                )
            except NegotiationError as exc:
                events.append(MonitorEvent(
                    "failed", destination, responder, detail=str(exc)
                ))
                continue
            if record is not None:
                events.append(MonitorEvent(
                    "established", destination, responder,
                    detail="-".join(map(str, record.tunnel.path)),
                ))
                return events
            events.append(MonitorEvent("failed", destination, responder))
        if not any(e.kind == "established" for e in events):
            events.append(MonitorEvent(
                "failed", destination, detail="no responder could help"
            ))
        return events
