"""Tests for repro.bgp.route and repro.bgp.policy."""

import pytest

from repro.bgp import (
    Route,
    RouteClass,
    classify_path,
    exportable_route,
    make_route,
    may_export,
    select_best,
)
from repro.errors import RoutingError
from repro.topology import ASGraph

from conftest import A, B, C, D, E, F


class TestRoute:
    def test_origin_route(self):
        route = Route((6,), RouteClass.ORIGIN)
        assert route.holder == 6
        assert route.destination == 6
        assert route.next_hop is None
        assert route.length == 0

    def test_route_accessors(self):
        route = Route((1, 2, 6), RouteClass.PROVIDER)
        assert route.holder == 1
        assert route.destination == 6
        assert route.next_hop == 2
        assert route.length == 2
        assert route.contains(2)
        assert not route.contains(5)

    def test_empty_path_rejected(self):
        with pytest.raises(RoutingError):
            Route((), RouteClass.CUSTOMER)

    def test_loop_rejected(self):
        with pytest.raises(RoutingError):
            Route((1, 2, 1), RouteClass.CUSTOMER)

    def test_origin_must_be_single_as(self):
        with pytest.raises(RoutingError):
            Route((1, 2), RouteClass.ORIGIN)

    def test_preference_class_dominates_length(self):
        long_customer = Route((1, 2, 3, 4, 5), RouteClass.CUSTOMER)
        short_provider = Route((1, 6), RouteClass.PROVIDER)
        assert long_customer.preference_key() > short_provider.preference_key()

    def test_preference_length_within_class(self):
        short = Route((1, 2, 9), RouteClass.PEER)
        long = Route((1, 3, 4, 9), RouteClass.PEER)
        assert short.preference_key() > long.preference_key()

    def test_preference_deterministic_tiebreak(self):
        a = Route((1, 2, 9), RouteClass.PEER)
        b = Route((1, 3, 9), RouteClass.PEER)
        assert a.preference_key() > b.preference_key()  # lower next hop wins

    def test_local_pref_bands(self):
        assert Route((1, 2), RouteClass.CUSTOMER).local_pref == 400
        assert Route((1, 2), RouteClass.PEER).local_pref == 200
        assert Route((1, 2), RouteClass.PROVIDER).local_pref == 100

    def test_str(self):
        assert str(Route((1, 2, 6), RouteClass.PEER)) == "1-2-6"


class TestClassification:
    def test_origin(self, paper_graph):
        assert classify_path(paper_graph, (F,)) is RouteClass.ORIGIN

    def test_customer_route(self, paper_graph):
        # E is a customer of B, so (B, E, F) is a customer route at B
        assert classify_path(paper_graph, (B, E, F)) is RouteClass.CUSTOMER

    def test_peer_route(self, paper_graph):
        assert classify_path(paper_graph, (B, C, F)) is RouteClass.PEER

    def test_provider_route(self, paper_graph):
        assert classify_path(paper_graph, (A, B, E, F)) is RouteClass.PROVIDER

    def test_sibling_resolution_to_first_non_sibling(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        graph.add_peer_link(2, 3)
        graph.add_customer_link(3, 4)
        # 1 -s- 2 -peer- 3 -down- 4: a peer route after sibling resolution
        assert classify_path(graph, (1, 2, 3, 4)) is RouteClass.PEER

    def test_all_sibling_path_is_customer(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        graph.add_sibling_link(2, 3)
        assert classify_path(graph, (1, 2, 3)) is RouteClass.CUSTOMER

    def test_empty_path_rejected(self, paper_graph):
        with pytest.raises(RoutingError):
            classify_path(paper_graph, ())


class TestExportRules:
    def test_customer_route_exported_everywhere(self, paper_graph):
        # B's customer route may go to customers, peers, anyone
        assert may_export(paper_graph, B, A, RouteClass.CUSTOMER)
        assert may_export(paper_graph, B, C, RouteClass.CUSTOMER)

    def test_peer_route_only_to_customers(self, paper_graph):
        assert may_export(paper_graph, B, A, RouteClass.PEER)     # customer: yes
        assert not may_export(paper_graph, B, C, RouteClass.PEER)  # peer: no

    def test_provider_route_only_to_customers(self, paper_graph):
        assert may_export(paper_graph, A, B, RouteClass.PROVIDER) is False

    def test_everything_to_siblings(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        assert may_export(graph, 1, 2, RouteClass.PROVIDER)
        assert may_export(graph, 1, 2, RouteClass.PEER)

    def test_origin_exported_everywhere(self, paper_graph):
        assert may_export(paper_graph, F, C, RouteClass.ORIGIN)
        assert may_export(paper_graph, F, E, RouteClass.ORIGIN)

    def test_exportable_route_builds_new_route(self, paper_graph):
        route = make_route(paper_graph, (E, F))
        learned = exportable_route(paper_graph, route, B)
        assert learned is not None
        assert learned.path == (B, E, F)
        assert learned.route_class is RouteClass.CUSTOMER

    def test_exportable_route_blocks_loop(self, paper_graph):
        route = make_route(paper_graph, (B, E, F))
        assert exportable_route(paper_graph, route, E) is None

    def test_exportable_route_respects_export_rules(self, paper_graph):
        peer_route = make_route(paper_graph, (B, C, F))
        # B may not advertise its peer route to peer C... C is on it; use E:
        provider_route = make_route(paper_graph, (A, B, E, F))
        assert exportable_route(paper_graph, provider_route, D) is None

    def test_select_best_empty(self):
        assert select_best([]) is None

    def test_select_best_prefers_customer(self, paper_graph):
        peer = make_route(paper_graph, (B, C, F))
        customer = make_route(paper_graph, (B, E, F))
        assert select_best([peer, customer]) is customer
