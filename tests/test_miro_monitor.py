"""Tests for the §6.2.1 automated negotiation loop (PolicyMonitor)."""

import pytest

from repro.miro import ExportPolicy, MiroRuntime, PolicyMonitor
from repro.policylang import parse_config

from conftest import A, B, C, D, E, F

CONFIG = f"""
router bgp {A}
route-map AVOID permit 10
 match empty path 200
 try negotiation NEG
ip as-path access-list 200 deny _{E}_
negotiation NEG
 match avoid {E}
"""


@pytest.fixture
def runtime(paper_graph):
    rt = MiroRuntime(paper_graph)
    return rt


@pytest.fixture
def monitor(runtime):
    policy = parse_config(CONFIG).requester
    return PolicyMonitor(
        runtime, A, policy, export_policy=ExportPolicy.EXPORT,
        watched_destinations={F},
    )


class TestTriggering:
    def test_new_monitor_has_its_watched_destinations_pending(
        self, runtime, monitor
    ):
        assert monitor.pending_destinations() == {F}
        events = monitor.poll()
        kinds = [e.kind for e in events]
        assert "triggered" in kinds
        assert "established" in kinds
        established = [e for e in events if e.kind == "established"][0]
        assert established.responder == B
        assert established.detail == f"{B}-{C}-{F}"
        assert len(runtime.live_tunnels()) == 1

    def test_pending_cleared_after_poll(self, runtime, monitor):
        monitor.poll()
        assert monitor.pending_destinations() == set()

    def test_existing_tunnel_satisfies_policy(self, runtime, monitor):
        monitor.poll()
        assert len(runtime.live_tunnels()) == 1
        # a later unrelated change re-pends the destination, but the
        # held tunnel now satisfies the trigger: no second negotiation
        runtime.fail_link(D, E)
        events = monitor.poll()
        assert [e.kind for e in events] == ["satisfied"]
        assert len(runtime.live_tunnels()) == 1

    def test_renegotiates_after_failure_teardown(self, runtime, monitor):
        monitor.poll()
        # the C-F failure kills the tunnel AND removes the only bypass;
        # once restored, the monitor re-establishes on the next poll
        runtime.fail_link(C, F)
        assert runtime.live_tunnels() == []
        runtime.restore_link(C, F)
        events = monitor.poll()
        assert any(e.kind == "established" for e in events)
        assert len(runtime.live_tunnels()) == 1

    def test_fails_while_the_bypass_is_down_and_recovers_on_repair(
        self, runtime, monitor
    ):
        """B-C carries the tunnel and is the only way around E: the poll
        after the failure re-triggers and fails at every responder, the
        poll after the repair re-establishes the same path."""
        monitor.poll()
        runtime.fail_link(B, C)
        assert runtime.live_tunnels() == []
        events = monitor.poll()
        assert [e.kind for e in events] == [
            "triggered", "failed", "failed", "failed"]
        assert events[-1].detail == "no responder could help"
        runtime.restore_link(B, C)
        events = monitor.poll()
        assert [e.kind for e in events] == ["triggered", "established"]
        assert events[-1].detail == f"{B}-{C}-{F}"
        assert len(runtime.live_tunnels()) == 1

    def test_unwatched_destinations_ignored(self, runtime, paper_graph):
        policy = parse_config(CONFIG).requester
        monitor = PolicyMonitor(
            runtime, A, policy, watched_destinations={D},
        )
        assert monitor.pending_destinations() == {D}
        assert {e.destination for e in monitor.poll()} == {D}
        runtime.fail_link(C, F)         # a change re-pends D, never F
        assert {e.destination for e in monitor.poll()} == {D}

    def test_quiet_poll_checks_nothing(self, runtime, monitor):
        monitor.poll()
        assert monitor.poll() == []

    def test_change_behind_the_runtimes_back_repends(
        self, runtime, monitor, paper_graph
    ):
        from repro.topology import TopologyDelta

        monitor.poll()
        assert len(runtime.live_tunnels()) == 1
        TopologyDelta.link_down(C, F).apply(paper_graph)
        events = monitor.poll()     # the tunnel died; no bypass is left
        assert [e.kind for e in events][:1] == ["triggered"]
        assert runtime.live_tunnels() == []

    def test_without_a_watch_list_only_own_teardowns_repend(
        self, runtime, paper_graph
    ):
        monitor = PolicyMonitor(
            runtime, A, parse_config(CONFIG).requester,
            export_policy=ExportPolicy.EXPORT,
        )
        assert monitor.pending_destinations() == set()
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        runtime.establish(B, C, F, ExportPolicy.FLEXIBLE)   # not A's
        runtime.fail_link(D, E)                 # a change, no teardown
        assert monitor.poll() == []
        runtime.fail_link(C, F)                 # tears both down
        assert record.tunnel in runtime.torn_down
        assert {e.destination for e in monitor.poll()} == {F}

    def test_other_ases_changes_ignored(self, runtime, monitor):
        monitor.poll()
        # B's route changes do not pend anything for A's monitor beyond
        # A's own change notifications
        assert all(
            event.destination == F for event in monitor.events
        )


class TestFailurePath:
    def test_reports_failure_when_no_responder_helps(self, paper_graph):
        # avoid C instead: no on-path AS before C can help A avoid C,
        # because A's candidates don't even contain C
        config = f"""
router bgp {A}
route-map AVOID permit 10
 match empty path 200
 try negotiation NEG
ip as-path access-list 200 deny _{B}_
negotiation NEG
 match avoid {B}
"""
        runtime = MiroRuntime(paper_graph)
        policy = parse_config(config).requester
        monitor = PolicyMonitor(runtime, A, policy,
                                watched_destinations={F})
        events = monitor.poll()
        # A's alternate ADEF avoids B, so actually the ACL admits it and
        # the policy is satisfied without any negotiation
        assert [e.kind for e in events] == ["satisfied"]
