"""Tests for the control-plane overhead experiment."""

import pytest

from repro.experiments import (
    bgp_message_count,
    push_all_message_count,
    run_overhead_comparison,
)
from repro.miro import HANDSHAKE_MESSAGES
from repro.topology import SMALL, generate_topology

from conftest import F


class TestMessageCounts:
    def test_bgp_count_matches_engine(self, paper_graph):
        count = bgp_message_count(paper_graph, [F])
        assert count > 0
        # re-running is deterministic
        assert bgp_message_count(paper_graph, [F]) == count

    def test_push_all_counts_every_distinct_path(self, paper_graph):
        # on the six-AS example the flood carries each policy-compliant
        # path exactly once: 12 valid advertisements toward F
        push = push_all_message_count(paper_graph, [F])
        assert push == 12

    def test_push_all_exceeds_bgp_at_scale(self):
        # BGP's convergence churn dominates on toy graphs; on an
        # Internet-like topology, path diversity dominates — the paper's
        # scalability argument (§3.2)
        graph = generate_topology(SMALL, seed=6)
        destinations = graph.stubs()[:5]
        push = push_all_message_count(graph, destinations)
        bgp = bgp_message_count(graph, destinations)
        assert push > 1.3 * bgp

    def test_path_length_cap_bounds_flood(self, tiny_graph):
        destinations = tiny_graph.ases[:3]
        short = push_all_message_count(tiny_graph, destinations,
                                       max_path_length=3)
        long = push_all_message_count(tiny_graph, destinations,
                                      max_path_length=6)
        assert short <= long

    def test_budget_enforced(self, tiny_graph):
        with pytest.raises(RuntimeError):
            push_all_message_count(
                tiny_graph, tiny_graph.ases[:3], message_budget=5
            )


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        graph = generate_topology(SMALL, seed=4)
        return run_overhead_comparison(
            graph, n_destinations=5, sources_per_destination=6, seed=4
        )

    def test_ordering(self, comparison):
        assert comparison.push_all_messages > comparison.bgp_messages
        assert comparison.miro_total < comparison.push_all_messages

    def test_miro_overhead_small(self, comparison):
        assert comparison.miro_overhead_fraction < 0.6

    def test_negotiation_accounting(self, comparison):
        assert comparison.miro_negotiation_messages % HANDSHAKE_MESSAGES == 0
        assert comparison.n_requests > 0

    def test_rows_render(self, comparison):
        rows = comparison.as_rows()
        assert len(rows) == 3
        assert rows[0][2] == "1.00x"
