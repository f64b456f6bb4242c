"""Tests for topology serialization (CAIDA format) and statistics."""

import io

import pytest

from repro.errors import TopologyError
from repro.topology import (
    ASGraph,
    Relationship,
    SMALL,
    bottom_degree_ases,
    degree_ccdf,
    degree_sequence,
    dump,
    dumps,
    generate_topology,
    load,
    loads,
    mean_degree,
    summarize,
    top_degree_ases,
)


class TestSerialization:
    def test_round_trip_small(self, paper_graph):
        text = dumps(paper_graph)
        parsed = loads(text)
        assert sorted(parsed.iter_links()) == sorted(paper_graph.iter_links())

    def test_round_trip_generated(self):
        graph = generate_topology(SMALL, seed=3)
        assert sorted(loads(dumps(graph)).iter_links()) == sorted(
            graph.iter_links()
        )

    def test_provider_written_first(self):
        graph = ASGraph()
        graph.add_link(5, 9, Relationship.PROVIDER)  # 9 provides for 5
        assert "9|5|-1" in dumps(graph)

    def test_isolated_as_preserved(self):
        graph = ASGraph()
        graph.add_as(7)
        parsed = loads(dumps(graph))
        assert 7 in parsed
        assert parsed.degree(7) == 0

    def test_comments_and_blanks_skipped(self):
        parsed = loads("# comment\n\n1|2|0\n")
        assert parsed.has_link(1, 2)

    def test_bad_field_count(self):
        with pytest.raises(TopologyError):
            loads("1|2\n")

    def test_bad_integer(self):
        with pytest.raises(TopologyError):
            loads("1|x|0\n")

    def test_bad_code(self):
        with pytest.raises(TopologyError):
            loads("1|2|9\n")

    def test_file_object_round_trip(self, paper_graph):
        buffer = io.StringIO()
        dump(paper_graph, buffer)
        buffer.seek(0)
        parsed = load(buffer)
        assert sorted(parsed.iter_links()) == sorted(paper_graph.iter_links())

    def test_path_round_trip(self, tmp_path, paper_graph):
        target = tmp_path / "topo.txt"
        dump(paper_graph, target)
        parsed = load(target)
        assert sorted(parsed.iter_links()) == sorted(paper_graph.iter_links())


class TestStats:
    def test_summary_counts(self, paper_graph):
        summary = summarize(paper_graph, "paper")
        assert summary.n_ases == 6
        assert summary.n_links == 8
        assert summary.n_customer_provider == 6
        assert summary.n_peering == 2
        assert summary.n_sibling == 0
        assert summary.n_stubs == 2

    def test_degree_sequence_descending(self, paper_graph):
        seq = degree_sequence(paper_graph)
        assert seq == sorted(seq, reverse=True)
        assert sum(seq) == 2 * paper_graph.num_links

    def test_ccdf_monotone(self, small_graph):
        points = degree_ccdf(small_graph)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)
        assert ys[0] == 1.0  # everyone has degree >= min degree

    def test_top_degree_ases(self, small_graph):
        top = top_degree_ases(small_graph, 0.05)
        assert len(top) == round(len(small_graph) * 0.05)
        worst_top = min(small_graph.degree(a) for a in top)
        rest = [a for a in small_graph.iter_ases() if a not in set(top)]
        assert worst_top >= max(small_graph.degree(a) for a in rest)

    def test_bottom_degree_ases_disjoint_from_top(self, small_graph):
        top = set(top_degree_ases(small_graph, 0.1))
        bottom = set(bottom_degree_ases(small_graph, 0.1))
        assert not top & bottom

    def test_fraction_bounds(self, small_graph):
        with pytest.raises(ValueError):
            top_degree_ases(small_graph, 0.0)
        with pytest.raises(ValueError):
            bottom_degree_ases(small_graph, 1.5)

    def test_mean_degree(self, paper_graph):
        assert mean_degree(paper_graph) == pytest.approx(16 / 6)

    def test_empty_graph_stats(self):
        graph = ASGraph()
        assert mean_degree(graph) == 0.0
        assert degree_ccdf(graph) == []
