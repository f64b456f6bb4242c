"""Tests for prefixes, longest-prefix match, packets, and classifiers."""

import pytest

from repro.dataplane import (
    Classifier,
    FlowKey,
    HashSplitter,
    IPv4Prefix,
    MatchRule,
    Packet,
    PrefixTable,
    flow_hash,
    format_ipv4,
    parse_ipv4,
    prefix_for_as,
)
from repro.errors import DataPlaneError


class TestAddresses:
    def test_parse_format_round_trip(self):
        for text in ("0.0.0.0", "128.112.0.0", "255.255.255.255", "12.34.56.78"):
            assert format_ipv4(parse_ipv4(text)) == text

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DataPlaneError):
            parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(DataPlaneError):
            format_ipv4(2 ** 32)


class TestPrefix:
    def test_parse(self):
        prefix = IPv4Prefix.parse("128.112.0.0/16")
        assert str(prefix) == "128.112.0.0/16"
        assert prefix.length == 16

    def test_parse_host(self):
        assert IPv4Prefix.parse("1.2.3.4").length == 32

    def test_contains_range(self):
        """§1.1: 128.112.0.0/16 covers 128.112.0.0 – 128.112.255.255."""
        prefix = IPv4Prefix.parse("128.112.0.0/16")
        assert prefix.contains(parse_ipv4("128.112.0.0"))
        assert prefix.contains(parse_ipv4("128.112.255.255"))
        assert not prefix.contains(parse_ipv4("128.113.0.0"))
        assert prefix.first_address == parse_ipv4("128.112.0.0")
        assert prefix.last_address == parse_ipv4("128.112.255.255")

    def test_covers(self):
        outer = IPv4Prefix.parse("12.34.0.0/16")
        inner = IPv4Prefix.parse("12.34.56.0/24")
        assert outer.covers(inner)
        assert not inner.covers(outer)

    def test_invalid_length(self):
        with pytest.raises(DataPlaneError):
            IPv4Prefix.parse("1.2.3.0/33")

    def test_host_bits_rejected(self):
        with pytest.raises(DataPlaneError):
            IPv4Prefix(parse_ipv4("12.34.56.78"), 16)

    def test_prefix_for_as_distinct(self):
        seen = {str(prefix_for_as(asn)) for asn in range(500)}
        assert len(seen) == 500

    def test_prefix_for_as_bounds(self):
        with pytest.raises(DataPlaneError):
            prefix_for_as(70000)


class TestLongestPrefixMatch:
    def test_paper_example(self):
        """§2.1.1: 12.34.56.78 matches /24 over /16 when both present."""
        table = PrefixTable()
        table.insert(IPv4Prefix.parse("12.34.0.0/16"), "via-best")
        table.insert(IPv4Prefix.parse("12.34.56.0/24"), "via-specific")
        hit = table.lookup(parse_ipv4("12.34.56.78"))
        assert hit is not None
        prefix, value = hit
        assert str(prefix) == "12.34.56.0/24"
        assert value == "via-specific"
        assert table.lookup_value(parse_ipv4("12.34.1.1")) == "via-best"

    def test_miss(self):
        table = PrefixTable()
        table.insert(IPv4Prefix.parse("10.0.0.0/8"), 1)
        assert table.lookup(parse_ipv4("11.0.0.1")) is None

    def test_default_route(self):
        table = PrefixTable()
        table.insert(IPv4Prefix.parse("0.0.0.0/0"), "default")
        assert table.lookup_value(parse_ipv4("200.1.2.3")) == "default"

    def test_exact_and_replace(self):
        table = PrefixTable()
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        table.insert(prefix, 1)
        table.insert(prefix, 2)
        assert table.exact(prefix) == 2
        assert len(table) == 1

    def test_remove(self):
        table = PrefixTable()
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        table.insert(prefix, 1)
        table.remove(prefix)
        assert len(table) == 0
        with pytest.raises(DataPlaneError):
            table.remove(prefix)

    def test_items_enumerates_all(self):
        table = PrefixTable()
        prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"]
        for i, text in enumerate(prefixes):
            table.insert(IPv4Prefix.parse(text), i)
        found = {str(p) for p, _ in table.items()}
        assert found == set(prefixes)


class TestPacket:
    def test_make(self):
        packet = Packet.make(1, 2)
        assert packet.inner.source == 1
        assert packet.outer.destination == 2
        assert not packet.encapsulated

    def test_encapsulate_decapsulate(self):
        packet = Packet.make(1, 2).encapsulate(3, 4, tunnel_id=7)
        assert packet.encapsulated
        assert packet.encapsulation_depth == 1
        assert packet.outer.destination == 4
        assert packet.outer.tunnel_id == 7
        assert packet.inner.destination == 2
        restored = packet.decapsulate()
        assert not restored.encapsulated
        assert restored.outer.destination == 2

    def test_nested_tunnels(self):
        """§4.2: "a tunnel inside another tunnel"."""
        packet = Packet.make(1, 2).encapsulate(3, 4).encapsulate(5, 6)
        assert packet.encapsulation_depth == 2
        assert packet.outer.destination == 6
        assert packet.decapsulate().outer.destination == 4

    def test_decapsulate_plain_packet_rejected(self):
        with pytest.raises(DataPlaneError):
            Packet.make(1, 2).decapsulate()

    def test_rewrite_outer_destination(self):
        packet = Packet.make(1, 2).encapsulate(3, 4, tunnel_id=7)
        rewritten = packet.rewrite_outer_destination(9)
        assert rewritten.outer.destination == 9
        assert rewritten.outer.tunnel_id == 7  # id survives the rewrite
        assert rewritten.inner.destination == 2

    def test_needs_header(self):
        with pytest.raises(DataPlaneError):
            Packet(headers=())


class TestClassifier:
    def test_first_match_wins(self):
        classifier = Classifier()
        classifier.add(MatchRule(dst_port=80), "tunnel-7")
        classifier.add(MatchRule(), "catch-all")
        web = Packet.make(1, 2, flow=FlowKey(dst_port=80))
        other = Packet.make(1, 2, flow=FlowKey(dst_port=22))
        assert classifier.classify(web) == "tunnel-7"
        assert classifier.classify(other) == "catch-all"

    def test_default_action(self):
        classifier = Classifier(default_action="default-path")
        assert classifier.classify(Packet.make(1, 2)) == "default-path"

    def test_tos_matching(self):
        """§3.5: direct real-time traffic (by ToS bits) into the tunnel."""
        classifier = Classifier()
        classifier.add(MatchRule(tos=46), "low-latency-tunnel")
        realtime = Packet.make(1, 2, flow=FlowKey(tos=46))
        besteffort = Packet.make(1, 2, flow=FlowKey(tos=0))
        assert classifier.classify(realtime) == "low-latency-tunnel"
        assert classifier.classify(besteffort) == "default"

    def test_destination_matching(self):
        classifier = Classifier()
        classifier.add(MatchRule(destination=42), "x")
        assert classifier.classify(Packet.make(1, 42)) == "x"
        assert classifier.classify(Packet.make(1, 43)) == "default"


class TestHashSplitting:
    def test_flow_stability(self):
        """All packets of one flow must take the same path (§3.5)."""
        splitter = HashSplitter([("a", 0.5), ("b", 0.5)])
        flow = FlowKey(src_port=1234, dst_port=80)
        picks = {
            splitter.pick(Packet.make(1, 2, flow=flow)) for _ in range(20)
        }
        assert len(picks) == 1

    def test_split_roughly_proportional(self):
        splitter = HashSplitter([("a", 0.8), ("b", 0.2)])
        counts = {"a": 0, "b": 0}
        for port in range(1000):
            packet = Packet.make(1, 2, flow=FlowKey(src_port=port))
            counts[splitter.pick(packet)] += 1
        assert 0.7 < counts["a"] / 1000 < 0.9

    def test_weights_validated(self):
        with pytest.raises(DataPlaneError):
            HashSplitter([])
        with pytest.raises(DataPlaneError):
            HashSplitter([("a", -1.0), ("b", 0.5)])
        with pytest.raises(DataPlaneError):
            HashSplitter([("a", 0.0)])

    def test_hash_deterministic(self):
        packet = Packet.make(1, 2, flow=FlowKey(src_port=5))
        assert flow_hash(packet) == flow_hash(packet)
