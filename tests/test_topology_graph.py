"""Unit tests for repro.topology.graph."""

import pytest

from repro.bgp.policy import is_valley_free
from repro.errors import DuplicateLinkError, TopologyError, UnknownASError
from repro.topology import ASGraph, LinkType, Relationship

from conftest import A, B, C, D, E, F


class TestConstruction:
    def test_add_as_is_idempotent(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(1)
        assert len(graph) == 1

    def test_add_as_rejects_negative(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_as(-1)

    def test_add_as_rejects_non_int(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_as("AS1")

    def test_add_link_creates_both_endpoints(self):
        graph = ASGraph()
        graph.add_customer_link(1, 2)
        assert 1 in graph and 2 in graph

    def test_add_link_rejects_self_loop(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_link(1, 1, Relationship.PEER)

    def test_add_link_rejects_duplicates(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        with pytest.raises(DuplicateLinkError):
            graph.add_customer_link(1, 2)

    def test_duplicate_detected_in_either_direction(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        with pytest.raises(DuplicateLinkError):
            graph.add_peer_link(2, 1)

    def test_remove_link(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        graph.remove_link(1, 2)
        assert not graph.has_link(1, 2)
        assert graph.num_links == 0

    def test_remove_missing_link_raises(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        with pytest.raises(TopologyError):
            graph.remove_link(1, 2)


class TestRelationshipViews:
    def test_customer_link_views(self):
        graph = ASGraph()
        graph.add_customer_link(10, 20)  # 20 is customer of 10
        assert graph.relationship(10, 20) is Relationship.CUSTOMER
        assert graph.relationship(20, 10) is Relationship.PROVIDER

    def test_peer_link_symmetric(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        assert graph.relationship(1, 2) is Relationship.PEER
        assert graph.relationship(2, 1) is Relationship.PEER

    def test_sibling_link_symmetric(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        assert graph.relationship(1, 2) is Relationship.SIBLING
        assert graph.relationship(2, 1) is Relationship.SIBLING

    def test_relationship_of_non_neighbor_raises(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        with pytest.raises(TopologyError):
            graph.relationship(1, 2)

    def test_unknown_as_raises(self):
        graph = ASGraph()
        with pytest.raises(UnknownASError):
            graph.neighbors(99)

    def test_customers_providers_peers_lists(self, paper_graph):
        assert set(paper_graph.customers(B)) == {A, E}
        assert set(paper_graph.providers(A)) == {B, D}
        assert set(paper_graph.peers(C)) == {B, E}
        assert paper_graph.siblings(C) == []


class TestStructure:
    def test_paper_graph_counts(self, paper_graph):
        assert len(paper_graph) == 6
        assert paper_graph.num_links == 8
        counts = paper_graph.link_counts()
        assert counts[LinkType.CUSTOMER_PROVIDER] == 6
        assert counts[LinkType.PEER_PEER] == 2
        assert counts[LinkType.SIBLING_SIBLING] == 0

    def test_stub_detection(self, paper_graph):
        assert paper_graph.is_stub(A)
        assert paper_graph.is_stub(F)
        assert not paper_graph.is_stub(B)
        assert not paper_graph.is_stub(C)  # C has peers

    def test_multihomed_stub(self, paper_graph):
        assert paper_graph.is_multihomed_stub(A)
        assert paper_graph.is_multihomed_stub(F)
        assert set(paper_graph.multihomed_stubs()) == {A, F}

    def test_dag_order_customers_first(self, paper_graph):
        order = paper_graph.provider_customer_dag_order()
        # every customer precedes its providers
        position = {asn: i for i, asn in enumerate(order)}
        assert position[A] < position[B]
        assert position[A] < position[D]
        assert position[F] < position[C]
        assert position[E] < position[B]

    def test_hierarchy_detected(self, paper_graph):
        assert paper_graph.is_hierarchical()

    def test_provider_cycle_rejected(self):
        graph = ASGraph()
        graph.add_customer_link(1, 2)
        graph.add_customer_link(2, 3)
        graph.add_customer_link(3, 1)  # cycle
        assert not graph.is_hierarchical()
        with pytest.raises(TopologyError):
            graph.provider_customer_dag_order()

    def test_connected_components(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        graph.add_peer_link(3, 4)
        components = graph.connected_components()
        assert sorted(sorted(c) for c in components) == [[1, 2], [3, 4]]
        assert not graph.is_connected()

    def test_copy_is_independent(self, paper_graph):
        clone = paper_graph.copy()
        clone.remove_link(B, C)
        assert paper_graph.has_link(B, C)
        assert not clone.has_link(B, C)

    def test_without_as(self, paper_graph):
        reduced = paper_graph.without_as(E)
        assert E not in reduced
        assert not reduced.has_link(B, E)
        assert reduced.has_link(B, C)
        assert len(reduced) == 5


class TestValleyFree:
    def test_pure_downhill_is_valley_free(self, paper_graph):
        assert is_valley_free(paper_graph, (B, E, F))

    def test_up_then_down_is_valley_free(self, paper_graph):
        assert is_valley_free(paper_graph, (A, B, E, F))

    def test_peer_in_middle_is_valley_free(self, paper_graph):
        assert is_valley_free(paper_graph, (B, C, F))

    def test_down_then_up_is_a_valley(self, paper_graph):
        # B -> E (down to customer), E -> D (up to provider): a valley
        assert not is_valley_free(paper_graph, (B, E, D))

    def test_two_peer_hops_invalid(self, paper_graph):
        assert not is_valley_free(paper_graph, (B, C, E))

    def test_peer_then_up_invalid(self, triangle_graph):
        # 11 -> 12 peer, then 12 -> 2 provider: invalid
        assert not is_valley_free(triangle_graph, (11, 12, 2))

    def test_sibling_is_transparent(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        graph.add_customer_link(3, 2)  # 2 is customer of 3
        # 1 -s- 2 -up-> 3 is still "uphill only"
        assert is_valley_free(graph, (1, 2, 3))

    def test_single_as_path(self, paper_graph):
        assert is_valley_free(paper_graph, (F,))

    def test_graph_method_is_the_policy_rule(self, paper_graph):
        assert paper_graph.is_valley_free((A, B, E, F))
        assert not paper_graph.is_valley_free((B, E, D))

    def test_path_exists(self, paper_graph):
        assert paper_graph.path_exists((A, B, E, F))
        assert not paper_graph.path_exists((A, C, F))
        assert not paper_graph.path_exists((A, 99))
