"""Activation-based convergence simulator for MIRO (§7.1.2).

The simulator executes the dissertation's asynchronous model: a (possibly
random) *activation sequence* repeatedly activates ASes; an activated AS
re-runs route selection for every destination from the routes its
neighbours currently advertise plus the tunnels its standing demands can
establish.  The run converges when a full fair round changes nothing, and
is declared divergent when a state fingerprint repeats under a
deterministic schedule (a provable cycle) or the round budget runs out.

Layer semantics per :class:`~repro.convergence.model.GuidelineMode`:

* ``UNRESTRICTED`` — one layer: an adopted tunnel *replaces* the AS's
  selected route, and neighbours see (and responders offer) that selection.
  This reproduces the Fig. 7.1 and Fig. 7.2 oscillations.
* ``GUIDELINE_B`` — two layers: the BGP layer evolves untouched by
  tunnels; tunnels are built only on responders' BGP selections and are
  never advertised or offered onward.
* ``GUIDELINE_C`` — as B, but an AS advertises its effective route
  (possibly a tunnel) to *leaf* neighbours, and leaves advertise nothing.
* ``GUIDELINE_D`` — strict (same-class) offers; tunnels may ride on other
  routes, but an AS prefers a tunnel over BGP routes only where its
  strict partial order allows (``first_downstream ≺ destination``).
* ``GUIDELINE_E`` — strict offers; a tunnel's via path must be the AS's
  own *BGP* route to the responder (never one of its own tunnels).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import ConvergenceError
from ..obs import get_logger, get_registry, get_tracer
from ..topology.delta import AppliedDelta, TopologyDelta
from ..topology.graph import ASGraph, link_key
from ..topology.relationships import Relationship

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..events.timers import DelayModel

# ----------------------------------------------------------------------
# instrumentation (repro.obs): activation and round totals make the §7
# convergence cost (how much re-selection work a guideline induces) a
# live counter; one span per run shows up on the --trace timeline.
# ----------------------------------------------------------------------
_TRACER = get_tracer()
_LOG = get_logger("convergence")
_ACTIVATIONS_TOTAL = get_registry().counter(
    "repro_convergence_activations_total",
    "AS activations executed across all convergence runs",
)
_ROUNDS_TOTAL = get_registry().counter(
    "repro_convergence_rounds_total",
    "Fair activation rounds executed across all convergence runs",
)
_RUNS_TOTAL = get_registry().counter(
    "repro_convergence_runs_total",
    "Convergence runs, by outcome (converged / oscillating / exhausted)",
    labels=("outcome",),
)
from .model import (
    GuidelineMode,
    PartialOrder,
    Path,
    Ranker,
    Selection,
    TunnelDemand,
    path_class_rank,
)


@dataclass(frozen=True, slots=True)
class ConvergenceResult:
    """Outcome of one simulation run.

    Every run fills every field.  ``rounds`` counts the fair rounds run;
    an arrival-driven run (:meth:`MiroConvergenceSystem.run_events` under
    real delays) has no literal rounds and reports its activation count
    divided by the AS count, rounded up — a comparable work measure.
    """

    converged: bool
    rounds: int
    oscillating: bool
    #: effective selection per (asn, destination) at the end of the run
    final_state: Dict[Tuple[int, int], Optional[Selection]]
    #: simulated clock when the run ended (:meth:`MiroConvergenceSystem.run`
    #: has no clock and reports 0.0)
    sim_time: float = 0.0
    #: AS activations executed
    activations: int = 0

    def selection(self, asn: int, destination: int) -> Optional[Selection]:
        return self.final_state.get((asn, destination))


class MiroConvergenceSystem:
    """One MIRO system instance: topology, destinations, demands, mode."""

    def __init__(
        self,
        graph: ASGraph,
        destinations: Sequence[int],
        demands: Sequence[TunnelDemand],
        mode: Union[GuidelineMode, Dict[int, GuidelineMode]],
        ranker: Ranker,
        partial_orders: Optional[Dict[int, PartialOrder]] = None,
        bgp_export_filter: Optional[
            Callable[[int, int, Path], bool]
        ] = None,
    ) -> None:
        self.graph = graph
        self.destinations = list(destinations)
        self.demands = list(demands)
        # §7.4: guidelines can be mixed and matched — ``mode`` is either a
        # single system-wide guideline or a per-AS assignment (ASes not
        # listed default to Guideline B, the most conservative).
        if isinstance(mode, GuidelineMode):
            self.mode = mode
            self._modes: Dict[int, GuidelineMode] = {}
        else:
            self.mode = None  # type: ignore[assignment]
            self._modes = dict(mode)
        self.ranker = ranker
        self.partial_orders = partial_orders or {}
        #: extra per-link explicit export policy for BGP advertisements
        #: (holder, neighbour, path) -> may advertise?  Tunnel offers are
        #: not subject to it — that is exactly how the Fig. 7.2 providers
        #: "agree to export all of their BGP routes to D" in negotiations
        #: while D's BGP table holds only the direct routes.
        self.bgp_export_filter = bgp_export_filter
        for demand in self.demands:
            if (
                self._mode_of(demand.requester) is GuidelineMode.GUIDELINE_D
                and demand.requester not in self.partial_orders
            ):
                raise ConvergenceError(
                    f"Guideline D needs a partial order for AS "
                    f"{demand.requester}"
                )
        # bgp[(asn, dest)] / effective[(asn, dest)]
        self.bgp: Dict[Tuple[int, int], Optional[Selection]] = {}
        self.effective: Dict[Tuple[int, int], Optional[Selection]] = {}
        self._add_missing_rows()

    def _add_missing_rows(self) -> None:
        """Start every AS the state does not know yet: a destination
        holds its origin route, every other (asn, dest) row no route."""
        for dest in self.destinations:
            for asn in self.graph.iter_ases():
                if (asn, dest) not in self.bgp:
                    origin = Selection((asn,)) if asn == dest else None
                    self.bgp[(asn, dest)] = origin
                    self.effective[(asn, dest)] = origin

    def _mode_of(self, asn: int) -> GuidelineMode:
        """The guideline this AS follows (§7.4 allows mixing)."""
        if self.mode is not None:
            return self.mode
        return self._modes.get(asn, GuidelineMode.GUIDELINE_B)

    # ------------------------------------------------------------------
    # advertisement / export
    # ------------------------------------------------------------------
    def _export_ok(self, holder: int, neighbor: int, path: Path) -> bool:
        """Gao–Rexford export rule on an arbitrary path."""
        if len(path) < 2:
            return True  # origin route goes to everyone
        rel = self.graph.relationship(holder, neighbor)
        if rel in (Relationship.CUSTOMER, Relationship.SIBLING):
            return True
        return path_class_rank(self.graph, path) == 3

    def _advertised(self, holder: int, neighbor: int, dest: int) -> Optional[Path]:
        """The path ``holder`` currently advertises to ``neighbor``."""
        mode = self._mode_of(holder)
        if mode is GuidelineMode.UNRESTRICTED:
            selection = self.effective[(holder, dest)]
        elif mode is GuidelineMode.GUIDELINE_C:
            if self.graph.is_stub(holder):
                return None  # leaves advertise nothing (§7.3.2)
            if self.graph.is_stub(neighbor):
                selection = self.effective[(holder, dest)]
            else:
                selection = self.bgp[(holder, dest)]
        elif mode in (GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E):
            selection = self.bgp[(holder, dest)]
            effective = self.effective[(holder, dest)]
            if (
                effective is not None
                and effective.is_tunnel
                and self._same_class_as_bgp(holder, dest, effective.path)
            ):
                selection = effective  # same-class tunnels may be advertised
        else:  # GUIDELINE_B
            selection = self.bgp[(holder, dest)]
        if selection is None:
            return None
        path = selection.path
        if neighbor in path:
            return None
        if not self._export_ok(holder, neighbor, path):
            return None
        if self.bgp_export_filter is not None and not self.bgp_export_filter(
            holder, neighbor, path
        ):
            return None
        return path

    def _same_class_as_bgp(self, holder: int, dest: int, path: Path) -> bool:
        bgp = self.bgp[(holder, dest)]
        if bgp is None or len(bgp.path) < 2 or len(path) < 2:
            return False
        return path_class_rank(self.graph, path) == path_class_rank(
            self.graph, bgp.path
        )

    # ------------------------------------------------------------------
    # tunnel construction
    # ------------------------------------------------------------------
    def _via_path(self, requester: int, responder: int) -> Optional[Selection]:
        """The route the requester uses to reach the responder.

        When the responder's prefix is routed in the system, the tunnel
        rides on the requester's route to it — the *effective* route in the
        unrestricted and Guideline-D worlds (tunnels may ride tunnels), the
        *BGP* route under Guidelines B/C/E.  An unrouted but adjacent
        responder is reached over the direct link.
        """
        if responder in self.destinations:
            if self._mode_of(requester) in (
                GuidelineMode.UNRESTRICTED, GuidelineMode.GUIDELINE_D
            ):
                return self.effective[(requester, responder)]
            # B, C, E: tunnels ride only on the BGP layer
            return self.bgp[(requester, responder)]
        if self.graph.has_link(requester, responder):
            return Selection((requester, responder))
        return None

    def _offers(self, responder: int, dest: int, toward: Optional[int]) -> List[Path]:
        """What the responder offers in a negotiation (its t_export)."""
        mode = self._mode_of(responder)
        pool: List[Selection] = []
        bgp = self.bgp[(responder, dest)]
        effective = self.effective[(responder, dest)]
        if mode is GuidelineMode.UNRESTRICTED:
            if effective is not None:
                pool.append(effective)
        elif mode in (GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_C):
            if bgp is not None:
                pool.append(bgp)  # tunnels built on pure BGP routes only
        else:  # D, E: strict policy — BGP route plus same-class tunnels
            if bgp is not None:
                pool.append(bgp)
            if (
                effective is not None
                and effective.is_tunnel
                and self._same_class_as_bgp(responder, dest, effective.path)
            ):
                pool.append(effective)
        offers: List[Path] = []
        for selection in pool:
            path = selection.path
            if mode in (GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E):
                # strict policy also keeps conventional export toward the
                # neighbour the requester's traffic arrives through
                if toward is not None and not self._export_ok(
                    responder, toward, path
                ):
                    continue
            offers.append(path)
        return offers

    def _tunnel_candidates(self, asn: int, dest: int) -> List[Selection]:
        candidates: List[Selection] = []
        for demand in self.demands:
            if demand.requester != asn or demand.destination != dest:
                continue
            via = self._via_path(asn, demand.responder)
            if via is None:
                continue
            if (
                self._mode_of(asn) is GuidelineMode.GUIDELINE_E
                and via.is_tunnel
            ):
                continue  # Guideline E: no tunnel-on-own-tunnel
            toward = via.path[-2] if len(via.path) >= 2 else None
            for offered in self._offers(demand.responder, dest, toward):
                if asn in offered:
                    continue
                full = via.path + offered[1:]
                if self.ranker.rank(asn, dest, full) is None:
                    continue
                candidates.append(
                    Selection(full, is_tunnel=True,
                              first_downstream=demand.responder)
                )
        return candidates

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def activate(self, asn: int) -> bool:
        """Re-run route selection at one AS; True if anything changed."""
        changed = False
        for dest in self.destinations:
            if asn == dest:
                continue
            # --- BGP layer ---
            bgp_candidates: List[Selection] = []
            for neighbor in self.graph.neighbors(asn):
                path = self._advertised(neighbor, asn, dest)
                if path is None or asn in path:
                    continue
                bgp_candidates.append(Selection((asn,) + path))
            new_bgp = self.ranker.best(asn, dest, bgp_candidates)
            if new_bgp != self.bgp[(asn, dest)]:
                self.bgp[(asn, dest)] = new_bgp
                changed = True
            # --- effective layer ---
            effective_candidates: List[Selection] = []
            if new_bgp is not None:
                effective_candidates.append(new_bgp)
            for tunnel in self._tunnel_candidates(asn, dest):
                if (
                    self._mode_of(asn) is GuidelineMode.GUIDELINE_D
                    and new_bgp is not None
                ):
                    order = self.partial_orders.get(asn)
                    if order is None or not order.allows(
                        tunnel.first_downstream, dest
                    ):
                        continue  # may not prefer this tunnel over BGP routes
                effective_candidates.append(tunnel)
            new_effective = self.ranker.best(asn, dest, effective_candidates)
            if new_effective != self.effective[(asn, dest)]:
                self.effective[(asn, dest)] = new_effective
                changed = True
        return changed

    def apply_event(self, delta: TopologyDelta) -> AppliedDelta:
        """Apply a topology event mid-simulation and withdraw stale routes.

        The delta executes as a transaction on the live graph; every
        selection (in both layers) whose path crosses a link the event
        took down is withdrawn, like the burst of BGP withdrawals a real
        failure triggers, and the next :meth:`run` re-converges from that
        partial state.  Returns the transaction record so the caller can
        later :meth:`~repro.topology.delta.AppliedDelta.revert` the
        topology change — reverting restores the graph, not the
        pre-event selections, so re-convergence after a repair is also
        observable.  An AS the delta brought into the graph (incremental
        deployment) starts like any AS does at construction.
        """
        applied = delta.apply(self.graph)
        self._add_missing_rows()
        down = {
            link for link in applied.changed_links
            if not self.graph.has_link(*link)
        }
        for state in (self.bgp, self.effective):
            for key, selection in state.items():
                if selection is None:
                    continue
                path = selection.path
                if any(
                    link_key(a, b) in down for a, b in zip(path, path[1:])
                ):
                    state[key] = None
        return applied

    def fingerprint(self) -> Tuple:
        """Hashable snapshot of the whole system state."""
        items = []
        for key in sorted(self.bgp):
            b = self.bgp[key]
            e = self.effective[key]
            items.append((
                key,
                None if b is None else b.path,
                None if e is None else (e.path, e.is_tunnel),
            ))
        return tuple(items)

    def run(
        self,
        max_rounds: int = 200,
        seed: Optional[int] = None,
        schedule: Optional[Sequence[Sequence[int]]] = None,
    ) -> ConvergenceResult:
        """Run fair activation rounds until stable or the budget runs out.

        Each round activates every AS once.  With ``seed`` the per-round
        order is shuffled (a random fair sequence); with ``schedule`` the
        given round orders are used (then repeated round-robin); otherwise
        ascending AS order is used.  Under a deterministic schedule a
        repeated state fingerprint proves a cycle, reported as
        ``oscillating=True``.
        """
        if schedule is not None and not schedule:
            raise ConvergenceError(
                "schedule must hold at least one round order (got an "
                "empty sequence); pass None for ascending AS order"
            )
        # one explicit random stream per run: every shuffle (and, in event
        # mode, every jitter draw) comes from this Random, so a seed fully
        # determines the activation sequence
        rng = Random(seed) if seed is not None else None
        return self._observed(
            "convergence_run", self._run_rounds, max_rounds, rng, schedule
        )

    def run_events(
        self,
        delays: Optional["DelayModel"] = None,
        max_rounds: int = 200,
        seed: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> ConvergenceResult:
        """Run under a :class:`~repro.events.timers.DelayModel`.

        With the default zero-delay synchronous model nothing separates
        two ASes' timestamps, so the run *is* :meth:`run`'s fair-round
        loop (same ``final_state``, rounds and outcome for the same
        ``seed``), stamped with the simulated clock of its last round.
        With real delays, AS activations become events on the
        :mod:`repro.events` scheduler, triggered by neighbour
        advertisements after per-link propagation delays, rate-limited
        by per-AS MRAI timers, with seeded jitter drawn from the same
        ``Random`` stream a ``seed`` gives :meth:`run`.  ``max_rounds``
        bounds the equivalent activation budget; ``max_events`` caps raw
        scheduler dispatches (livelock guard, e.g. ``mrai=0`` on a
        divergent gadget) — a fair round counts as one.
        """
        from .eventsim import run_on_events  # local: avoids import cycle

        rng = Random(seed) if seed is not None else None
        return self._observed(
            "convergence_run_events", run_on_events,
            self, delays, max_rounds, rng, max_events,
        )

    def _observed(
        self, span_name: str, drive: Callable[..., ConvergenceResult], *args
    ) -> ConvergenceResult:
        """Run ``drive(*args)`` inside one span and record how it ended."""
        mode = self.mode.value if self.mode is not None else "mixed"
        with _TRACER.span(span_name, mode=mode,
                          ases=len(self.graph)) as span:
            result = drive(*args)
            outcome = (
                "converged" if result.converged
                else "oscillating" if result.oscillating
                else "exhausted"
            )
            span.set(outcome=outcome, rounds=result.rounds,
                     sim_time=result.sim_time)
        _RUNS_TOTAL.labels(outcome=outcome).inc()
        if not result.converged:
            _LOG.info("convergence_run_unstable", mode=mode, outcome=outcome,
                      rounds=result.rounds, span=span_name)
        return result

    def _run_rounds(
        self,
        max_rounds: int,
        rng: Optional[Random],
        schedule: Optional[Sequence[Sequence[int]]],
    ) -> ConvergenceResult:
        """The fair-round loop: activate every AS once per round, stop on
        a quiet round, a repeated fingerprint or the round budget."""
        ases = self.graph.ases
        seen: Set[Tuple] = set()
        rounds = activations = 0
        converged = oscillating = False
        while rounds < max_rounds:
            if schedule is not None:
                order = list(schedule[rounds % len(schedule)])
            elif rng is not None:
                order = ases[:]
                rng.shuffle(order)
            else:
                order = ases
            changed = False
            for asn in order:
                if self.activate(asn):
                    changed = True
            _ROUNDS_TOTAL.inc()
            _ACTIVATIONS_TOTAL.inc(len(order))
            rounds += 1
            activations += len(order)
            if not changed:
                converged = True
                break
            if rng is None and schedule is None:
                mark = self.fingerprint()
                if mark in seen:
                    oscillating = True
                    break
                seen.add(mark)
        return ConvergenceResult(
            converged, rounds, oscillating, dict(self.effective),
            activations=activations,
        )


def proof_schedule(graph: ASGraph) -> List[List[int]]:
    """The constructive two-phase activation order of the proofs (§7.2):
    first up the customer→provider DAG, then back down."""
    up = graph.provider_customer_dag_order()
    return [up, list(reversed(up))]


def proof_schedule_guideline_b(graph: ASGraph) -> List[List[int]]:
    """Lemma 3's three phases: up the DAG, down the DAG, then any order
    (the tunnel-settling phase)."""
    up = graph.provider_customer_dag_order()
    return [up, list(reversed(up)), sorted(graph.iter_ases())]


def proof_schedule_guideline_c(graph: ASGraph) -> List[List[int]]:
    """Lemma 5's four phases: up, down, non-leaf ASes, then leaf ASes."""
    up = graph.provider_customer_dag_order()
    non_leaves = [a for a in sorted(graph.iter_ases()) if not graph.is_stub(a)]
    leaves = [a for a in sorted(graph.iter_ases()) if graph.is_stub(a)]
    return [up, list(reversed(up)), non_leaves, leaves or non_leaves]


def proof_schedule_strict(graph: ASGraph) -> List[List[int]]:
    """The Lemma 8/10 schedules for the strict-policy guidelines (D/E):
    up the DAG, then down it twice — the second downward pass is the
    Lemma 10 "activate all prefixes ... for another time" round that
    settles tunnels riding on routes fixed in the first."""
    up = graph.provider_customer_dag_order()
    down = list(reversed(up))
    return [up, down, down]
