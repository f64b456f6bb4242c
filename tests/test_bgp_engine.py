"""Tests for the event-driven, message-level BGP engine."""

import pytest

from repro.bgp import EventDrivenBGP, compute_routes
from repro.errors import RoutingError, TopologyError, UnknownASError
from repro.topology import TINY, generate_topology

from conftest import A, B, C, D, E, F


@pytest.fixture
def engine(paper_graph):
    eng = EventDrivenBGP(paper_graph)
    eng.originate(F)
    eng.run()
    return eng


class TestBasicOperation:
    def test_stable_state_matches_paper(self, engine):
        expected = {
            F: (F,), C: (C, F), E: (E, F),
            B: (B, E, F), D: (D, E, F), A: (A, B, E, F),
        }
        assert engine.best_paths(F) == expected

    def test_candidates_match_closed_form(self, paper_graph, engine):
        table = compute_routes(paper_graph, F)
        for asn in paper_graph.iter_ases():
            live = {r.path for r in engine.candidates(asn, F)}
            closed = {r.path for r in table.candidates(asn)}
            assert live == closed, asn

    def test_double_origination_rejected(self, engine):
        with pytest.raises(RoutingError):
            engine.originate(F)

    def test_unknown_as(self, paper_graph):
        engine = EventDrivenBGP(paper_graph)
        with pytest.raises(UnknownASError):
            engine.originate(99)

    def test_message_budget_enforced(self, paper_graph):
        engine = EventDrivenBGP(paper_graph)
        engine.originate(F)
        with pytest.raises(RoutingError):
            engine.run(max_messages=2)

    def test_quiescent_after_run(self, engine):
        assert engine.pending_messages == 0
        assert engine.run() == 0  # idempotent

    def test_message_counting(self, paper_graph):
        engine = EventDrivenBGP(paper_graph)
        engine.originate(F)
        processed = engine.run()
        assert processed == engine.messages_processed
        assert engine.messages_sent >= processed


class TestAgainstClosedForm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stable_state_on_generated(self, seed):
        graph = generate_topology(TINY, seed=seed)
        engine = EventDrivenBGP(graph)
        destinations = graph.ases[:5]
        for destination in destinations:
            engine.originate(destination)
        engine.run()
        for destination in destinations:
            table = compute_routes(graph, destination)
            for asn in graph.iter_ases():
                closed = table.best(asn)
                live = engine.best(asn, destination)
                assert (closed is None) == (live is None)
                if closed is not None and live is not None:
                    # identical class and length everywhere (tie-breaks on
                    # equal-preference paths may differ)
                    assert closed.route_class is live.route_class
                    assert closed.length == live.length

    def test_random_message_order_same_outcome(self):
        graph = generate_topology(TINY, seed=3)
        outcomes = []
        for seed in (None, 1, 2):
            engine = EventDrivenBGP(graph, seed=seed)
            engine.originate(graph.ases[0])
            engine.run()
            outcomes.append({
                asn: (route.route_class, route.length)
                for asn, route in (
                    (a, engine.best(a, graph.ases[0]))
                    for a in graph.iter_ases()
                )
                if route is not None
            })
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestFailures:
    def test_fail_link_reroutes(self, paper_graph, engine):
        # killing EF forces everyone through C
        engine.fail_link(E, F)
        engine.run()
        assert engine.best(E, F).path == (E, C, F)
        assert engine.best(B, F).path in {(B, E, C, F), (B, C, F)}
        assert engine.best(A, F) is not None
        assert (E, F) not in zip(
            engine.best(A, F).path, engine.best(A, F).path[1:]
        )

    def test_partition_withdraws_routes(self, paper_graph, engine):
        engine.fail_link(E, F)
        engine.fail_link(C, F)
        engine.run()
        # F is now unreachable from everyone
        for asn in (A, B, C, D, E):
            assert engine.best(asn, F) is None

    def test_restore_link_heals(self, paper_graph, engine):
        engine.fail_link(E, F)
        engine.run()
        engine.restore_link(E, F)
        engine.run()
        assert engine.best(E, F).path == (E, F)
        assert engine.best(A, F).path == (A, B, E, F)

    def test_fail_unknown_link(self, engine):
        with pytest.raises(TopologyError):
            engine.fail_link(A, F)

    def test_double_fail_rejected(self, paper_graph, engine):
        engine.fail_link(E, F)
        with pytest.raises(TopologyError):
            engine.fail_link(F, E)

    def test_restore_up_link_rejected(self, engine):
        with pytest.raises(TopologyError):
            engine.restore_link(E, F)
