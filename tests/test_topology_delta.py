"""Tests for the topology-delta layer (apply/revert transactions)."""

import random
from collections import OrderedDict

import pytest

from repro.errors import TopologyError
from repro.topology import (
    ASGraph,
    AppliedDelta,
    DeltaOpKind,
    Relationship,
    TopologyDelta,
    link_key,
)
from repro.topology.generator import generate_named
from repro.topology.graph import MAX_JOURNAL_STEPS

from conftest import A, B, C, D, E, F


def snapshot(graph: ASGraph):
    return {
        (a, b): rel for a, b, rel in graph.iter_links()
    }, set(graph.ases)


class CountingJournal(OrderedDict):
    """A version journal that counts the steps read from it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def full_walk(graph: ASGraph, old_version: int):
    """``changed_links_since`` without the early stop: the parent chain
    walked until ``old_version`` or the end of the journal."""
    if old_version == graph.version:
        return frozenset()
    changed = set()
    version = graph.version
    while version != old_version:
        step = graph._journal.get(version)
        if step is None:
            return None
        version, links = step
        changed.update(links)
    return frozenset(changed)


class TestFactories:
    def test_link_down_single_op(self):
        delta = TopologyDelta.link_down(B, E)
        assert len(delta.ops) == 1
        assert delta.ops[0].kind is DeltaOpKind.LINK_DOWN

    def test_compose_concatenates_in_order(self):
        delta = TopologyDelta.compose(
            TopologyDelta.link_down(B, E), TopologyDelta.as_down(C)
        )
        assert [op.kind for op in delta.ops] == [
            DeltaOpKind.LINK_DOWN, DeltaOpKind.AS_DOWN
        ]

    def test_str_mentions_every_op(self):
        delta = TopologyDelta.compose(
            TopologyDelta.link_down(B, E), TopologyDelta.as_down(C)
        )
        assert "link-down" in str(delta) and "as-down" in str(delta)


class TestLinkEvents:
    def test_link_down_removes_and_records(self, paper_graph):
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        assert not paper_graph.has_link(B, E)
        assert applied.changed_links == {link_key(B, E)}

    def test_revert_restores_link_and_relationship(self, paper_graph):
        before = snapshot(paper_graph)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        applied.revert()
        assert snapshot(paper_graph) == before
        # E is B's customer again, not just any neighbour
        assert paper_graph.relationship(B, E) is Relationship.CUSTOMER

    def test_revert_restores_exact_version(self, paper_graph):
        version = paper_graph.version
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        assert paper_graph.version != version
        applied.revert()
        assert paper_graph.version == version

    def test_link_up_adds_new_link(self, paper_graph):
        applied = TopologyDelta.link_up(
            A, C, Relationship.PEER
        ).apply(paper_graph)
        assert paper_graph.relationship(A, C) is Relationship.PEER
        applied.revert()
        assert not paper_graph.has_link(A, C)

    def test_double_revert_rejected(self, paper_graph):
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        applied.revert()
        with pytest.raises(TopologyError):
            applied.revert()

    def test_revert_after_external_mutation_rejected(self, paper_graph):
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        paper_graph.remove_link(C, F)
        with pytest.raises(TopologyError):
            applied.revert()


class TestReapply:
    def test_reapply_restores_post_apply_state_and_version(self, paper_graph):
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        after = snapshot(paper_graph)
        applied.revert()
        applied.reapply()
        assert snapshot(paper_graph) == after
        assert paper_graph.version == applied.version_after
        assert not applied.reverted

    def test_reapply_of_applied_state_rejected(self, paper_graph):
        """Re-executing forward ops on an already-applied graph would
        corrupt adjacency and version journal; it must raise instead."""
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        with pytest.raises(TopologyError, match="already applied"):
            applied.reapply()
        # and the graph is untouched by the rejected call
        assert paper_graph.version == applied.version_after
        assert not paper_graph.has_link(B, E)

    def test_reapply_after_external_mutation_rejected(self, paper_graph):
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        applied.revert()
        paper_graph.remove_link(C, F)
        with pytest.raises(TopologyError, match="mutated since"):
            applied.reapply()

    def test_flap_cycle_is_revertible_again(self, paper_graph):
        before = snapshot(paper_graph)
        applied = TopologyDelta.as_down(E).apply(paper_graph)
        for _ in range(3):
            applied.revert()
            applied.reapply()
        applied.revert()
        assert snapshot(paper_graph) == before
        assert paper_graph.version == applied.version_before

    def test_reapply_preserves_changed_links_derivability(self, paper_graph):
        """After revert+reapply, the original changed-link window must
        still resolve so cached tables keep deriving incrementally."""
        version_0 = paper_graph.version
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        applied.revert()
        applied.reapply()
        assert (
            paper_graph.changed_links_since(version_0)
            == applied.changed_links
        )


class TestASEvents:
    def test_as_down_isolates_but_keeps_node(self, paper_graph):
        applied = TopologyDelta.as_down(E).apply(paper_graph)
        assert E in paper_graph
        assert paper_graph.neighbors(E) == []
        assert applied.changed_links == {
            link_key(E, n) for n in (B, C, D, F)
        }

    def test_as_down_revert_restores_adjacency(self, paper_graph):
        before = snapshot(paper_graph)
        TopologyDelta.as_down(E).apply(paper_graph).revert()
        assert snapshot(paper_graph) == before

    def test_as_up_creates_and_revert_deletes_new_as(self, paper_graph):
        new = 99
        applied = TopologyDelta.as_up(
            new, [(B, Relationship.PROVIDER)]
        ).apply(paper_graph)
        assert paper_graph.relationship(new, B) is Relationship.PROVIDER
        applied.revert()
        assert new not in paper_graph

    def test_as_up_on_existing_isolated_as_keeps_node_on_revert(self):
        graph = ASGraph()
        graph.add_peer_link(1, 2)
        graph.add_as(3)
        applied = TopologyDelta.as_up(3, [(1, Relationship.PEER)]).apply(graph)
        assert graph.has_link(3, 1)
        applied.revert()
        assert 3 in graph and graph.neighbors(3) == []


class TestTransactionality:
    def test_failed_op_rolls_back_earlier_ops(self, paper_graph):
        before = snapshot(paper_graph)
        version = paper_graph.version
        bad = TopologyDelta.compose(
            TopologyDelta.link_down(B, E),
            TopologyDelta.link_down(A, C),  # no such link
        )
        with pytest.raises(TopologyError):
            bad.apply(paper_graph)
        assert snapshot(paper_graph) == before
        assert paper_graph.version == version

    def test_compose_applies_and_reverts_as_one(self, paper_graph):
        before = snapshot(paper_graph)
        delta = TopologyDelta.compose(
            TopologyDelta.link_down(B, E),
            TopologyDelta.as_down(C),
            TopologyDelta.link_up(A, E, Relationship.PEER),
        )
        applied = delta.apply(paper_graph)
        assert not paper_graph.has_link(B, E)
        assert paper_graph.neighbors(C) == []
        assert paper_graph.has_link(A, E)
        applied.revert()
        assert snapshot(paper_graph) == before

    def test_deltas_revert_in_reverse_order(self, paper_graph):
        before = snapshot(paper_graph)
        records = [delta.apply(paper_graph) for delta in (
            TopologyDelta.link_down(B, E),
            TopologyDelta.as_down(C),
        )]
        assert all(isinstance(r, AppliedDelta) for r in records)
        for record in reversed(records):
            record.revert()
        assert snapshot(paper_graph) == before

    def test_same_delta_reusable_across_applies(self, paper_graph):
        delta = TopologyDelta.link_down(B, E)
        for _ in range(3):
            applied = delta.apply(paper_graph)
            assert not paper_graph.has_link(B, E)
            applied.revert()
            assert paper_graph.has_link(B, E)


class TestVersionJournal:
    def test_changed_links_since_accumulates_over_steps(self, paper_graph):
        start = paper_graph.version
        paper_graph.remove_link(B, E)
        paper_graph.remove_link(C, F)
        changed = paper_graph.changed_links_since(start)
        assert changed == {link_key(B, E), link_key(C, F)}

    def test_changed_links_since_same_version_is_empty(self, paper_graph):
        assert paper_graph.changed_links_since(paper_graph.version) == frozenset()

    def test_unknown_version_returns_none(self, paper_graph):
        assert paper_graph.changed_links_since(-1) is None

    def test_abandoned_branch_is_not_an_ancestor(self, paper_graph):
        start = paper_graph.version
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        branch = paper_graph.version
        applied.revert()
        paper_graph.remove_link(C, F)
        # the reverted failure's version identifies a sibling state, not
        # an ancestor of the current one
        assert paper_graph.changed_links_since(branch) is None
        assert paper_graph.changed_links_since(start) == {link_key(C, F)}

    def test_abandoned_branch_costs_a_step_not_the_journal(self):
        """A revert's prune asks about the version it abandoned once per
        cached table; the walk stops as soon as it passes below it."""
        graph = generate_named("verify-500", seed=0)
        assert len(graph._journal) == MAX_JOURNAL_STEPS
        a, b, _ = next(graph.iter_links())
        applied = TopologyDelta.link_down(a, b).apply(graph)
        abandoned = graph.version
        applied.revert()
        journal = graph._journal = CountingJournal(graph._journal)
        assert graph.changed_links_since(abandoned) is None
        assert journal.reads <= 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walk_agrees_with_a_full_walk(self, small_graph, seed):
        """Seeded apply / revert / reapply: every version ever held,
        asked after every step, answers what walking the whole chain
        answers."""
        rng = random.Random(seed)
        graph = small_graph
        seen = [-1, graph.version]
        applied, reverted = [], []
        for _ in range(40):
            roll = rng.random()
            if reverted and roll < 0.2:
                record = reverted.pop()
                record.reapply()
                applied.append(record)
            elif applied and roll < 0.5:
                record = applied.pop()
                record.revert()
                reverted.append(record)
            else:
                a, b, _ = rng.choice(sorted(graph.iter_links()))
                applied.append(TopologyDelta.link_down(a, b).apply(graph))
                reverted.clear()
            seen.append(graph.version)
            for version in seen:
                assert graph.changed_links_since(version) == full_walk(
                    graph, version)

    def test_distinct_states_never_share_a_version(self, paper_graph):
        seen = {paper_graph.version}
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        assert paper_graph.version not in seen
        seen.add(paper_graph.version)
        applied.revert()
        paper_graph.remove_link(B, E)  # same adjacency as the delta state
        assert paper_graph.version not in seen
