"""Tests for the live MIRO runtime (§4.3 dynamics)."""

import pytest

from repro.errors import NegotiationError
from repro.miro import ExportPolicy, MiroRuntime, RouteConstraint

from conftest import A, B, C, D, E, F


@pytest.fixture
def runtime(paper_graph):
    rt = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
    rt.originate_all([F])
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
        offers = runtime.offered_routes(B, F, ExportPolicy.EXPORT, toward=A)
        assert [r.path for r in offers] == [(B, C, F)]

    def test_offered_routes_need_toward(self, runtime):
        with pytest.raises(NegotiationError):
            runtime.offered_routes(B, F, ExportPolicy.STRICT, toward=None)


class TestRouteChangeTeardown:
    def test_tunnel_survives_unrelated_failure(self, paper_graph):
        rt = MiroRuntime(paper_graph)
        rt.originate_all([F])
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
        rt.originate_all([F])
        record = rt.establish(A, B, F, ExportPolicy.EXPORT,
                              RouteConstraint(avoid=(E,)))
        tid = record.tunnel.tunnel_id
        # B's state exists; A goes silent (no heartbeats), time passes
        assert rt.tunnels[B].has(tid)
        rt.tick(11.0)
        assert not rt.tunnels[B].has(tid)


class TestLiveTunnelGauge:
    """``repro_miro_live_tunnels`` is kept in O(1) — never by rescanning
    the live list — and still equals ``len(live_tunnels())`` throughout."""

    @staticmethod
    def _gauge():
        from repro.obs import get_registry

        return get_registry().gauge("repro_miro_live_tunnels", "").value

    def test_gauge_tracks_the_live_set_through_every_transition(self, runtime):
        def check():
            assert self._gauge() == len(runtime.live_tunnels())
            assert len(runtime._live) == len(runtime.live_tunnels())

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
        assert self._gauge() == 0 and runtime._live == []
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
