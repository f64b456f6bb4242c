"""Tests for tunnel state and the soft-state protocol (§4.3)."""

import pytest

from repro.errors import TunnelError
from repro.miro import Tunnel, TunnelTable


def make_tunnel(tunnel_id=1, upstream=1, downstream=2, destination=6,
                path=(2, 3, 6), via_path=(1, 2)):
    return Tunnel(
        tunnel_id=tunnel_id, upstream=upstream, downstream=downstream,
        destination=destination, path=path, via_path=via_path,
    )


class TestTunnel:
    def test_end_to_end_path(self):
        tunnel = make_tunnel()
        assert tunnel.end_to_end_path == (1, 2, 3, 6)

    def test_path_must_start_at_downstream(self):
        with pytest.raises(TunnelError):
            make_tunnel(path=(3, 6))

    def test_path_must_end_at_destination(self):
        with pytest.raises(TunnelError):
            make_tunnel(path=(2, 3, 5))

    def test_via_path_endpoints_checked(self):
        with pytest.raises(TunnelError):
            make_tunnel(via_path=(1, 3))

    def test_empty_via_path_allowed(self):
        tunnel = make_tunnel(via_path=())
        assert tunnel.end_to_end_path == (3, 6)

    def test_repeated_as_across_segments_is_legal(self):
        # §7.1.1: paths like ABC(BD) are legal — packets are encapsulated.
        tunnel = Tunnel(
            tunnel_id=1, upstream=1, downstream=3, destination=4,
            path=(3, 2, 4), via_path=(1, 2, 3),
        )
        assert tunnel.end_to_end_path == (1, 2, 3, 2, 4)


class TestTunnelTable:
    def test_allocate_unique_ids(self):
        table = TunnelTable(asn=2)
        ids = {table.allocate_id() for _ in range(10)}
        assert len(ids) == 10

    def test_install_and_get(self):
        table = TunnelTable(asn=2)
        tunnel = make_tunnel()
        table.install(tunnel)
        assert table.get(1) is tunnel
        assert table.has(1)
        assert len(table) == 1

    def test_double_install_rejected(self):
        table = TunnelTable(asn=2)
        table.install(make_tunnel())
        with pytest.raises(TunnelError):
            table.install(make_tunnel())

    def test_get_missing(self):
        table = TunnelTable(asn=2)
        with pytest.raises(TunnelError):
            table.get(7)

    def test_remove_marks_inactive(self):
        table = TunnelTable(asn=2)
        tunnel = make_tunnel()
        table.install(tunnel)
        removed = table.remove(1)
        assert removed is tunnel
        assert not tunnel.active
        assert len(table) == 0

    def test_invalid_heartbeat_timeout(self):
        with pytest.raises(TunnelError):
            TunnelTable(asn=1, heartbeat_timeout=0)


class TestSoftState:
    def test_heartbeat_keeps_alive(self):
        table = TunnelTable(asn=2, heartbeat_timeout=10)
        table.install(make_tunnel(), now=0.0)
        table.heartbeat(1, now=8.0)
        assert table.expire(now=15.0) == []  # refreshed at t=8, expires t=18
        assert table.has(1)

    def test_expiry_without_heartbeat(self):
        table = TunnelTable(asn=2, heartbeat_timeout=10)
        tunnel = make_tunnel()
        table.install(tunnel, now=0.0)
        expired = table.expire(now=11.0)
        assert expired == [tunnel]
        assert not tunnel.active
        assert not table.has(1)

    def test_expire_is_selective(self):
        table = TunnelTable(asn=2, heartbeat_timeout=10)
        old = make_tunnel(tunnel_id=1)
        fresh = make_tunnel(tunnel_id=2)
        table.install(old, now=0.0)
        table.install(fresh, now=9.0)
        expired = table.expire(now=12.0)
        assert expired == [old]
        assert table.has(2)


class TestRouteChangeTeardown:
    def test_upstream_tears_down_on_via_change(self):
        # §4.3: "AS A will tear down the tunnel if the path AB changes"
        table = TunnelTable(asn=1)
        tunnel = make_tunnel()
        table.install(tunnel)
        stale = table.invalidate_on_route_change((1, 2))
        assert stale == [tunnel]
        assert not table.has(1)

    def test_downstream_tears_down_on_path_failure(self):
        # "AS B will tear down the tunnel if the path BCF ... fails"
        table = TunnelTable(asn=2)
        tunnel = make_tunnel()
        table.install(tunnel)
        stale = table.invalidate_on_route_change((2, 3, 6))
        assert stale == [tunnel]

    def test_unrelated_change_is_ignored(self):
        table = TunnelTable(asn=2)
        table.install(make_tunnel())
        assert table.invalidate_on_route_change((9, 8)) == []
        assert table.has(1)

    def test_tunnels_to_destination(self):
        table = TunnelTable(asn=2)
        table.install(make_tunnel(tunnel_id=1))
        table.install(make_tunnel(tunnel_id=2, destination=3, path=(2, 3)))
        to_six = table.tunnels_to(6)
        assert [t.tunnel_id for t in to_six] == [1]
