"""Tests for router-level interdomain BGP (repro.intra.interconnect)."""

import pytest

from repro.errors import RoutingError, TopologyError
from repro.intra import ASNetwork, RelayedOffer, RouterNegotiationRelay
from repro.intra.interconnect import Internetwork

PREFIX = "99.99.0.0/16"
CUST, T1, T2, ORIGIN = 10, 20, 21, 30


def build_diamond() -> Internetwork:
    """CUST dual-homed to transits T1/T2, both reaching ORIGIN.

    CUST's two border routers hear (T1, ORIGIN) and (T2, ORIGIN) — the
    Fig. 4.1 situation created by real sessions.
    """
    inter = Internetwork()

    cust = ASNetwork(CUST)
    cust.add_router("c1", router_id=1, is_edge=True)
    cust.add_router("c2", router_id=2, is_edge=True)
    cust.add_intra_link("c1", "c2", cost=1)
    cust.add_exit_link("c1", T1, "c1-t1")
    cust.add_exit_link("c2", T2, "c2-t2")
    inter.add_network(cust)

    for asn, name in ((T1, "t1"), (T2, "t2")):
        transit = ASNetwork(asn)
        transit.add_router(f"{name}a", router_id=1, is_edge=True)
        transit.add_router(f"{name}b", router_id=2, is_edge=True)
        transit.add_intra_link(f"{name}a", f"{name}b", cost=1)
        transit.add_exit_link(f"{name}a", CUST, f"{name}-cust")
        transit.add_exit_link(f"{name}b", ORIGIN, f"{name}-origin")
        inter.add_network(transit)

    origin = ASNetwork(ORIGIN)
    origin.add_router("o1", router_id=1, is_edge=True)
    origin.add_router("o2", router_id=2, is_edge=True)
    origin.add_intra_link("o1", "o2", cost=1)
    origin.add_exit_link("o1", T1, "o-t1")
    origin.add_exit_link("o2", T2, "o-t2")
    inter.add_network(origin)

    inter.connect(CUST, "c1-t1", T1, "t1-cust")
    inter.connect(CUST, "c2-t2", T2, "t2-cust")
    inter.connect(T1, "t1-origin", ORIGIN, "o-t1")
    inter.connect(T2, "t2-origin", ORIGIN, "o-t2")
    inter.originate(ORIGIN, PREFIX)
    return inter


class TestWiring:
    def test_duplicate_network_rejected(self):
        inter = Internetwork()
        net = ASNetwork(1)
        inter.add_network(net)
        with pytest.raises(TopologyError):
            inter.add_network(ASNetwork(1))

    def test_connect_validates_link_targets(self):
        inter = build_diamond()
        with pytest.raises(TopologyError):
            # c1-t1 points at T1, not T2
            inter.connect(CUST, "c1-t1", T2, "t2-cust")

    def test_run_needs_an_origin(self):
        inter = build_diamond()
        with pytest.raises(RoutingError):
            inter.run("1.2.0.0/16")


class TestConvergence:
    def test_everyone_learns_the_prefix(self):
        inter = build_diamond()
        inter.run(PREFIX)
        assert inter.as_path(T1, "t1b", PREFIX) == (ORIGIN,)
        assert inter.as_path(T2, "t2b", PREFIX) == (ORIGIN,)
        assert inter.as_path(CUST, "c1", PREFIX) is not None

    def test_transit_prepends_its_asn(self):
        inter = build_diamond()
        inter.run(PREFIX)
        # at CUST's border router c1 (session with T1)
        c1_path = inter.as_path(CUST, "c1", PREFIX)
        assert c1_path in {(T1, ORIGIN), (T2, ORIGIN)}

    def test_fig_4_1_emerges_at_the_customer(self):
        """c1 and c2 select different AS paths simultaneously — the
        Fig. 4.1 phenomenon out of real session wiring (eBGP > iBGP)."""
        inter = build_diamond()
        inter.run(PREFIX)
        c1 = inter.as_path(CUST, "c1", PREFIX)
        c2 = inter.as_path(CUST, "c2", PREFIX)
        assert c1 == (T1, ORIGIN)
        assert c2 == (T2, ORIGIN)
        assert c1 != c2

    def test_internal_router_picks_closest_egress(self):
        inter = build_diamond()
        cust = inter.network(CUST)
        cust.add_router("c3", router_id=3)
        cust.add_intra_link("c3", "c1", cost=1)
        cust.add_intra_link("c3", "c2", cost=9)
        inter.run(PREFIX)
        internal = cust.best("c3")
        assert internal.egress_router == "c1"  # IGP distance 1 beats 9

    def test_run_is_idempotent(self):
        inter = build_diamond()
        inter.run(PREFIX)
        before = {
            (asn, router): inter.as_path(asn, router, PREFIX)
            for asn, network in inter._networks.items()
            for router in network.routers
        }
        inter.run(PREFIX)
        after = {
            (asn, router): inter.as_path(asn, router, PREFIX)
            for asn, network in inter._networks.items()
            for router in network.routers
        }
        assert before == after

    def test_loop_prevention(self):
        """The origin never learns a path through itself."""
        inter = build_diamond()
        inter.run(PREFIX)
        for router in ("o1", "o2"):
            route = inter.network(ORIGIN).best(router)
            # the origin's routers hold no eBGP route for their own
            # prefix (poison-reverse suppressed them all)
            assert route is None or ORIGIN not in route.as_path


class TestMiroOnTop:
    def test_available_paths_across_the_internetwork(self):
        """After convergence, the §4.1 MIRO view at the customer exposes
        both transit paths even though each border router selected one."""
        inter = build_diamond()
        inter.run(PREFIX)
        available = inter.network(CUST).available_paths(PREFIX)
        paths = {path for path, _ in available}
        assert paths == {(T1, ORIGIN), (T2, ORIGIN)}


class TestRelayOverSessions:
    """§4.1's router relay at an AS whose routes came over eBGP sessions."""

    def test_entry_router_collects_every_learned_path(self):
        inter = build_diamond()
        inter.run(PREFIX)
        relay = RouterNegotiationRelay(inter.network(CUST))
        assert relay.collect_offers("c1", PREFIX) == [
            RelayedOffer((T1, ORIGIN), "c1"), RelayedOffer((T2, ORIGIN), "c2")]

    def test_a_relayed_tunnel_leaves_by_the_other_egress(self):
        inter = build_diamond()
        inter.run(PREFIX)
        relay = RouterNegotiationRelay(inter.network(CUST))
        offers = relay.collect_offers("c1", PREFIX, avoid=(T1,))
        assert offers == [RelayedOffer((T2, ORIGIN), "c2")]
        tunnel = relay.select("c1", offers[0], PREFIX, upstream_as=42)
        assert (tunnel.entry_router, tunnel.egress_router) == ("c1", "c2")
        assert tunnel.exit_link == "c2-t2"
