"""Tests for the live MIRO runtime (§4.3 dynamics)."""

import pytest

from repro.bgp.routing import compute_routes_reference
from repro.errors import NegotiationError, SessionError, TopologyError
from repro.miro import (
    ExportPolicy, MiroRuntime, RouteConstraint, negotiate, offered_routes,
)
from repro.miro.runtime import StaleTable
from repro.miro.tunnels import TunnelTable
from repro.session import SimulationSession
from repro.topology import Relationship, TopologyDelta, generate_named
from repro.verify.invariants import check_tunnel_consistency

from conftest import A, B, C, D, E, F


@pytest.fixture
def runtime(paper_graph):
    rt = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
    return rt


class TestEstablishment:
    def test_tunnel_against_live_state(self, runtime):
        record = runtime.establish(
            A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,))
        )
        assert record is not None
        assert record.tunnel.path == (B, C, F)
        assert record.tunnel.via_path == (A, B)
        assert len(runtime.live_tunnels()) == 1
        # both endpoints installed state
        assert runtime.tunnels[A].has(record.tunnel.tunnel_id)
        assert runtime.tunnels[B].has(record.tunnel.tunnel_id)

    def test_strict_policy_finds_nothing(self, runtime):
        record = runtime.establish(
            A, B, F, ExportPolicy.STRICT, RouteConstraint(avoid=(E,))
        )
        assert record is None

    def test_unreachable_responder(self, runtime):
        with pytest.raises(NegotiationError):
            runtime.establish(A, C, F, ExportPolicy.FLEXIBLE)

    def test_offered_routes_live(self, runtime):
        table = runtime.session.compute(F)
        offers = offered_routes(table, B, ExportPolicy.EXPORT, A)
        assert [r.path for r in offers] == [(B, C, F)]
        # the session's table is the one establish negotiates against
        assert runtime.session.peek(F) is table
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT)
        assert record.tunnel.path == (B, C, F)

    def test_offered_routes_need_toward(self, runtime):
        table = runtime.session.compute(F)
        with pytest.raises(NegotiationError):
            offered_routes(table, B, ExportPolicy.STRICT, toward=None)


class TestRouteChangeTeardown:
    def test_tunnel_survives_unrelated_failure(self, paper_graph):
        rt = MiroRuntime(paper_graph)
        record = rt.establish(A, B, F, ExportPolicy.EXPORT,
                              RouteConstraint(avoid=(E,)))
        rt.fail_link(D, E)  # not involved in the tunnel
        assert rt.live_tunnels() != []
        assert record.tunnel.active

    def test_tunnel_path_failure_tears_down(self, runtime):
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT,
                                   RouteConstraint(avoid=(E,)))
        runtime.fail_link(C, F)  # kills the BCF tunnel path
        assert runtime.live_tunnels() == []
        assert record.tunnel in runtime.torn_down

    def test_via_link_failure_tears_down(self, runtime):
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT,
                                   RouteConstraint(avoid=(E,)))
        runtime.fail_link(A, B)  # §4.3: A tears down when path AB fails
        assert runtime.live_tunnels() == []

    def test_reestablish_after_restore(self, runtime):
        runtime.establish(A, B, F, ExportPolicy.EXPORT,
                          RouteConstraint(avoid=(E,)))
        runtime.fail_link(C, F)
        runtime.restore_link(C, F)
        assert runtime.live_tunnels() == []  # teardown is not undone
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT,
                                   RouteConstraint(avoid=(E,)))
        assert record is not None  # but renegotiation succeeds


class TestSoftState:
    def test_heartbeats_keep_tunnel_alive(self, runtime):
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        for _ in range(5):
            runtime.tick(5.0)
            runtime.heartbeat(A, record.tunnel.tunnel_id)
        assert runtime.live_tunnels() != []

    def test_silence_expires_tunnel(self, runtime):
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        expired = runtime.tick(11.0)  # timeout is 10s
        assert record.tunnel.tunnel_id in {t.tunnel_id for t in expired}
        assert runtime.live_tunnels() == []

    def test_heartbeat_unknown_tunnel(self, runtime):
        with pytest.raises(NegotiationError):
            runtime.heartbeat(A, 99)

    def test_partitioned_upstream_expires_downstream_state(self, paper_graph):
        """§4.3: when A cannot reach B, the tear-down message cannot either
        — the downstream's soft state must clean up."""
        rt = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        record = rt.establish(A, B, F, ExportPolicy.EXPORT,
                              RouteConstraint(avoid=(E,)))
        tid = record.tunnel.tunnel_id
        # B's state exists; A goes silent (no heartbeats), time passes
        assert rt.tunnels[B].has(tid)
        rt.tick(11.0)
        assert not rt.tunnels[B].has(tid)


class TestGraphVersionTeardown:
    """§4.3 follows the graph's version, whoever moved it."""

    def test_mutation_behind_the_runtimes_back(self, runtime, paper_graph):
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT,
                                   RouteConstraint(avoid=(E,)))
        unrelated = TopologyDelta.link_down(D, E).apply(paper_graph)
        assert runtime.live_tunnels() == [record]
        # a revert restores an earlier version: the journal cannot say
        # what changed, so everything is judged again — and still holds
        unrelated.revert()
        assert runtime.live_tunnels() == [record]
        assert check_tunnel_consistency(runtime) == []
        TopologyDelta.link_down(C, F).apply(paper_graph)
        assert runtime.live_tunnels() == []
        assert runtime.torn_down == [record.tunnel]
        assert not runtime.tunnels[A].has(record.tunnel.tunnel_id)
        assert not runtime.tunnels[B].has(record.tunnel.tunnel_id)
        assert check_tunnel_consistency(runtime) == []

    def test_shares_the_session_it_is_given(self, paper_graph):
        with SimulationSession(paper_graph, parallel=False) as session:
            runtime = MiroRuntime(paper_graph, session=session)
            assert runtime.session is session
            before = paper_graph.version
            runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
            table = session.peek(F)     # the runtime filled the session
            assert table is not None
            runtime.fail_link(C, F)     # through the session's writer gate
            assert not paper_graph.has_link(C, F)
            assert session.peek(F) is not table  # the re-check settled
            runtime.restore_link(C, F)  # a revert: the old table serves
            assert paper_graph.has_link(C, F)
            assert paper_graph.version == before
            assert session.peek(F) is table
        with pytest.raises(SessionError):
            MiroRuntime(paper_graph.copy(), session=session)

    def test_a_table_the_caller_brings_is_never_settled_for(
        self, runtime, paper_graph, monkeypatch
    ):
        """The service's event loop hands ``establish`` the table: then
        nothing is computed, and a table the graph moved past — or a
        re-check that is due — is refused, not repaired on the spot."""
        table = runtime.session.compute(F)
        monkeypatch.setattr(
            type(runtime.session), "_fill",
            lambda *args, **kwargs: pytest.fail("settled"),
        )
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE, None, table)
        assert record.tunnel.path == (B, C, F)
        TopologyDelta.link_down(C, F).apply(paper_graph)
        with pytest.raises(StaleTable):  # the re-check is due
            runtime.establish(A, B, F, ExportPolicy.FLEXIBLE, None, table)
        monkeypatch.undo()
        assert runtime.revalidate() == [record.tunnel]
        with pytest.raises(StaleTable):  # and the table is the old version's
            runtime.establish(A, B, F, ExportPolicy.FLEXIBLE, None, table)
        current = runtime.session.compute(F)
        assert runtime.establish(
            A, B, F, ExportPolicy.FLEXIBLE, None, current
        ) is None
        assert runtime.live_tunnels() == []

    def test_restore_needs_a_failed_link(self, runtime):
        with pytest.raises(TopologyError):
            runtime.restore_link(C, F)
        runtime.fail_link(C, F)
        with pytest.raises(TopologyError):
            runtime.fail_link(C, F)

    def test_links_are_restored_in_any_order(self, runtime, paper_graph):
        """A failure that is no longer the graph's latest change cannot
        be reverted; its link comes back all the same."""
        relationship = paper_graph.relationship(C, F)
        runtime.fail_link(C, F)
        runtime.fail_link(D, E)
        runtime.restore_link(C, F)      # first in, first out
        assert paper_graph.relationship(C, F) is relationship
        assert not paper_graph.has_link(D, E)
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        assert record.tunnel.path == (B, C, F)
        runtime.fail_link(C, F)
        assert runtime.torn_down == [record.tunnel]
        TopologyDelta.link_down(A, D).apply(paper_graph)  # someone else
        runtime.restore_link(D, E)
        runtime.restore_link(C, F)
        assert paper_graph.has_link(D, E) and paper_graph.has_link(C, F)
        with pytest.raises(TopologyError):
            runtime.restore_link(C, F)
        assert check_tunnel_consistency(runtime) == []

    def test_an_as_the_graph_gained_later_can_negotiate(self, paper_graph):
        """Tunnel tables are made on first use, for any AS of the live
        graph — not one per AS of the graph as it stood at construction."""
        runtime = MiroRuntime(paper_graph)
        assert runtime.tunnels == {}
        newcomer = 7
        joined = TopologyDelta.as_up(
            newcomer, [(B, Relationship.PROVIDER)]
        ).apply(paper_graph)
        record = runtime.establish(newcomer, B, F, ExportPolicy.FLEXIBLE)
        assert record is not None and record.tunnel.via_path == (newcomer, B)
        assert sorted(runtime.tunnels) == [B, newcomer]
        assert check_tunnel_consistency(runtime) == []
        joined.revert()                 # and leaves again: torn down
        assert runtime.live_tunnels() == []
        assert check_tunnel_consistency(runtime) == []
        with pytest.raises(TopologyError):
            runtime.establish(newcomer, B, F, ExportPolicy.FLEXIBLE)


class TestSameAnswersAsTheReference:
    def test_bench_shaped_triples_at_verify_500(self):
        """A seeded requester, its first hop toward a multi-homed stub,
        that stub, under all three policies: the tunnel path and via
        path are the ones ``compute_routes_reference`` dictates."""
        import random

        from repro.bgp.policy import exportable_route, may_export

        graph = generate_named("verify-500", seed=0)
        rng = random.Random(0)
        runtime = MiroRuntime(graph)
        checked = 0
        for stub in rng.sample(sorted(graph.multihomed_stubs()), 8):
            reference = compute_routes_reference(graph, stub)
            triples = []
            while len(triples) < 12:
                requester = rng.choice(graph.ases)
                path = reference.default_path(requester)
                if path is not None and len(path) >= 3:
                    triples.append((requester, path[1]))
            for requester, responder in triples:
                best = reference.best(responder)
                learned = [
                    offer for neighbor in graph.neighbors(responder)
                    if (route := reference.best(neighbor)) is not None
                    and (offer := exportable_route(graph, route, responder))
                    and offer.path != best.path
                    and requester not in offer.path
                ]
                for policy in ExportPolicy:
                    pool = learned
                    if policy is not ExportPolicy.FLEXIBLE:
                        pool = [r for r in pool if may_export(
                            graph, responder, requester, r.route_class)]
                    if policy is ExportPolicy.STRICT:
                        pool = [r for r in pool
                                if r.route_class is best.route_class]
                    expected = min(
                        (r.path for r in pool),
                        key=lambda p: (len(p), p), default=None,
                    )
                    record = runtime.establish(
                        requester, responder, stub, policy)
                    checked += 1
                    if expected is None:
                        assert record is None
                        continue
                    assert record.tunnel.path == expected
                    assert record.tunnel.via_path == (requester, responder)
        assert checked == 8 * 12 * 3
        assert check_tunnel_consistency(runtime) == []


class TestOneExchange:
    def test_negotiate_and_establish_agree_on_tiny(self):
        """Both drivers run the one §3.3 exchange: on every adjacent
        (requester, responder) pair toward the first ten destinations,
        under all three policies, they decline together or agree on the
        tunnel path — and no tunnel passes back through its requester."""
        graph = generate_named("tiny", seed=0)
        runtime = MiroRuntime(graph)
        compared = 0
        for destination in graph.ases[:10]:
            table = runtime.session.compute(destination)
            for a, b, _ in sorted(graph.iter_links()):
                for requester, responder in ((a, b), (b, a)):
                    if destination in (requester, responder):
                        continue
                    for policy in ExportPolicy:
                        outcome = negotiate(table, requester, responder, policy)
                        record = runtime.establish(
                            requester, responder, destination, policy)
                        negotiated = outcome.tunnel and outcome.tunnel.path
                        established = record and record.tunnel.path
                        assert negotiated == established, (
                            requester, responder, destination, policy)
                        if established:
                            assert requester not in established
                        compared += 1
        assert compared == 4596


class TestLiveTunnelGauge:
    """``repro_miro_live_tunnels`` is kept in O(1) — never by rescanning
    the live set — and still equals ``len(live_tunnels())`` throughout."""

    @staticmethod
    def _gauge():
        from repro.obs import get_registry

        return get_registry().gauge("repro_miro_live_tunnels", "").value

    def test_gauge_tracks_the_live_set_through_every_transition(self, runtime):
        def check():
            assert self._gauge() == len(runtime.live_tunnels())

        for _ in range(3):
            runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
            check()
        assert self._gauge() == 3
        runtime.fail_link(C, F)             # tears down the BCF tunnels
        check()
        assert self._gauge() == 0
        runtime.restore_link(C, F)
        check()
        kept = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        check()
        runtime.tick(6.0)
        runtime.heartbeat(A, kept.tunnel.tunnel_id)
        check()
        runtime.tick(6.0)                   # the silent one lapses
        check()
        assert runtime.live_tunnels() == [kept] and self._gauge() == 1
        runtime.tick(11.0)                  # and now the last one
        check()
        assert self._gauge() == 0 and runtime.live_tunnels() == []
        with pytest.raises(NegotiationError):   # expired: no longer live
            runtime.heartbeat(A, kept.tunnel.tunnel_id)

    def test_establish_does_not_scan_live_tunnels(self, runtime, monkeypatch):
        calls = []
        scan = MiroRuntime.live_tunnels
        monkeypatch.setattr(
            MiroRuntime, "live_tunnels",
            lambda self: calls.append(1) or scan(self),
        )
        for _ in range(5):
            assert runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        assert calls == []
        assert self._gauge() == 5

    def test_one_tunnel_among_ten_thousand(self, paper_graph, monkeypatch):
        """10,000 establishes, then a heartbeat and a teardown of one
        tunnel: neither touches another tunnel's record."""
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=1e9)
        for _ in range(9_999):
            runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)   # A-B + B-C-F
        odd = runtime.establish(D, E, F, ExportPolicy.FLEXIBLE)  # D-E + E-C-F
        assert odd.tunnel.path == (E, C, F)
        assert self._gauge() == 10_000

        refreshed, judged = [], []
        beat = TunnelTable.heartbeat
        valid = MiroRuntime._tunnel_still_valid
        monkeypatch.setattr(
            TunnelTable, "heartbeat",
            lambda self, tid, now: refreshed.append((self.asn, tid))
            or beat(self, tid, now),
        )
        monkeypatch.setattr(
            MiroRuntime, "_tunnel_still_valid",
            lambda self, record, table: judged.append(record)
            or valid(self, record, table),
        )
        monkeypatch.setattr(
            MiroRuntime, "live_tunnels",
            lambda self: pytest.fail("walked the live set"),
        )
        runtime.heartbeat(D, odd.tunnel.tunnel_id)
        assert sorted(refreshed) == [
            (D, odd.tunnel.tunnel_id), (E, odd.tunnel.tunnel_id)]
        # C-E carries only the odd tunnel, and no selected route toward F
        assert runtime.fail_link(C, E) == [odd.tunnel]
        assert judged == [odd]
        assert self._gauge() == 9_999
