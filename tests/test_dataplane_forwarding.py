"""Tests for end-to-end AS-level forwarding with tunnels (§3.5)."""

import pytest

from repro.bgp import compute_routes
from repro.dataplane import (
    ASLevelForwarder,
    Classifier,
    FlowKey,
    HashSplitter,
    MatchRule,
    Packet,
    address_in_as,
)
from repro.errors import DataPlaneError
from repro.miro import ExportPolicy, RouteConstraint, negotiate

from conftest import A, B, C, D, E, F


@pytest.fixture
def forwarder(paper_graph):
    tables = {F: compute_routes(paper_graph, F)}
    return ASLevelForwarder(tables)


def packet_from_to(src_as, dst_as, **flow):
    return Packet.make(
        address_in_as(src_as), address_in_as(dst_as),
        flow=FlowKey(**flow) if flow else None,
    )


class TestPlainForwarding:
    def test_follows_default_path(self, forwarder):
        trace = forwarder.forward(packet_from_to(A, F))
        assert trace.delivered
        assert trace.hops == (A, B, E, F)
        assert trace.used_tunnel is None

    def test_every_source_delivers(self, paper_graph, forwarder):
        for source in (B, C, D, E):
            trace = forwarder.forward(packet_from_to(source, F))
            assert trace.delivered
            expected = compute_routes(paper_graph, F).default_path(source)
            assert trace.hops == expected

    def test_local_delivery(self, forwarder):
        trace = forwarder.forward(packet_from_to(F, F))
        assert trace.delivered
        assert trace.hops == (F,)

    def test_unroutable_destination(self, paper_graph):
        tables = {F: compute_routes(paper_graph, F)}
        forwarder = ASLevelForwarder(tables)
        packet = packet_from_to(A, C)  # no routes computed toward C
        trace = forwarder.forward(packet)
        assert not trace.delivered

    def test_walk_is_bounded_by_max_hops(self, forwarder):
        with pytest.raises(DataPlaneError, match="beyond 2 hops"):
            forwarder.forward(packet_from_to(A, F), max_hops=2)

    def test_unknown_address_rejected(self, forwarder):
        packet = Packet.make(address_in_as(A), (200 << 24))
        with pytest.raises(DataPlaneError):
            forwarder.forward(packet)


class TestTunnelForwarding:
    @pytest.fixture
    def tunneled(self, paper_graph):
        """A↔B tunnel avoiding E, diverting only ToS-46 traffic (§3.5)."""
        table = compute_routes(paper_graph, F)
        outcome = negotiate(
            table, A, B, ExportPolicy.EXPORT,
            constraint=RouteConstraint(avoid=(E,)),
        )
        assert outcome.established
        tunnel = outcome.tunnel
        classifier = Classifier(default_action="default")
        classifier.add(MatchRule(tos=46), f"tunnel-{tunnel.tunnel_id}")
        forwarder = ASLevelForwarder({F: table})
        forwarder.install_tunnel(tunnel, classifier)
        return forwarder, tunnel

    def test_realtime_traffic_takes_the_tunnel(self, tunneled):
        forwarder, tunnel = tunneled
        trace = forwarder.forward(packet_from_to(A, F, tos=46))
        assert trace.delivered
        assert trace.used_tunnel == tunnel.tunnel_id
        # A -> B (tunnel) -> directed to C -> F: E is bypassed
        assert trace.hops == (A, B, C, F)
        assert E not in trace.hops

    def test_best_effort_stays_on_default(self, tunneled):
        forwarder, _ = tunneled
        trace = forwarder.forward(packet_from_to(A, F, tos=0))
        assert trace.delivered
        assert trace.used_tunnel is None
        assert trace.hops == (A, B, E, F)

    def test_other_sources_unaffected(self, tunneled):
        forwarder, _ = tunneled
        trace = forwarder.forward(packet_from_to(D, F, tos=46))
        assert trace.used_tunnel is None
        assert trace.hops == (D, E, F)

    def test_remote_tunnel_traverses_encapsulated(self, paper_graph):
        """A tunnel with the two-hops-away E: the packet travels
        encapsulated A→…→E, then E direct-forwards onto the CF link."""
        table = compute_routes(paper_graph, F)
        outcome = negotiate(table, A, E, ExportPolicy.FLEXIBLE)
        assert outcome.established
        tunnel = outcome.tunnel
        assert tunnel.path == (E, C, F)
        classifier = Classifier()
        classifier.add(MatchRule(), f"tunnel-{tunnel.tunnel_id}")
        forwarder = ASLevelForwarder({F: table})
        forwarder.install_tunnel(tunnel, classifier)
        trace = forwarder.forward(packet_from_to(A, F))
        assert trace.delivered
        assert trace.used_tunnel == tunnel.tunnel_id
        assert trace.hops == (A, B, E, C, F)

    def test_split_flows_keep_their_path(self, paper_graph):
        """Bulk flows split by flow hash, one rule a flow: each flow takes
        the path its share picked, on every packet."""
        table = compute_routes(paper_graph, F)
        tunnel = negotiate(table, A, B, ExportPolicy.EXPORT,
                           constraint=RouteConstraint(avoid=(E,))).tunnel
        into = f"tunnel-{tunnel.tunnel_id}"
        splitter = HashSplitter([(into, 0.3), ("default", 0.7)])
        classifier = Classifier(default_action="default")
        flows = [packet_from_to(A, F, src_port=p) for p in range(5000, 5020)]
        for flow in flows:
            classifier.add(MatchRule(src_port=flow.flow.src_port),
                           splitter.pick(flow))
        forwarder = ASLevelForwarder({F: table})
        forwarder.install_tunnel(tunnel, classifier)
        for flow in flows:
            expected = ((A, B, C, F) if splitter.pick(flow) == into
                        else (A, B, E, F))
            for _ in range(2):
                assert forwarder.forward(flow).hops == expected
        assert 0 < sum(splitter.pick(flow) == into for flow in flows) < 20

    def test_tunnel_for_unknown_destination_rejected(self, tunneled):
        forwarder, tunnel = tunneled
        from repro.miro import Tunnel

        bogus = Tunnel(
            tunnel_id=9, upstream=A, downstream=B, destination=C,
            path=(B, C), via_path=(A, B),
        )
        with pytest.raises(DataPlaneError):
            forwarder.install_tunnel(bogus, Classifier())


class TestAddressing:
    def test_address_in_as_round_trips(self, forwarder):
        for asn in (A, B, C, D, E, F):
            assert forwarder._as_of(address_in_as(asn)) == asn

    def test_host_range_validated(self):
        with pytest.raises(DataPlaneError):
            address_in_as(A, host=70000)
