"""Tests for the topology-delta layer (apply/revert transactions)."""

import operator
import random
from collections import OrderedDict

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bgp.routing import compute_routes, compute_routes_reference
from repro.errors import TopologyError
from repro.obs import get_registry
from repro.session import SimulationSession
from repro.topology import (
    ASGraph,
    AppliedDelta,
    DeltaOpKind,
    Relationship,
    TopologyDelta,
    TopologyProfile,
    generate_topology,
    link_key,
)
from repro.topology.generator import generate_named
from repro.topology.graph import MAX_JOURNAL_STEPS
from repro.topology.snapshot import TopologySnapshot
from repro.verify.oracle import first_divergence, graph_digest

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


def neighbour_order(graph: ASGraph):
    return {asn: graph.neighbors(asn) for asn in graph.iter_ases()}


def learned_first(graph: ASGraph):
    """``(table, asn, neighbour)``: ``asn`` learns two or more routes to
    the table's destination, the first of them from ``neighbour``, which
    is not ``asn``'s last neighbour — so re-adding the link last would
    reorder ``asn``'s candidates."""
    for destination in graph.ases:
        table = compute_routes(graph, destination)
        for asn in graph.ases:
            learned = table.candidates(asn)
            if len(learned) >= 2 and asn != destination:
                neighbour = learned[0].path[1]
                if graph.neighbors(asn)[-1] != neighbour:
                    return table, asn, neighbour
    raise AssertionError("no AS learns two routes")


class TestRevertRestoresOrder:
    """A revert puts back the neighbour order as well as the links, so
    a table held across it lists candidates as a fresh table does."""

    def _held_across(self, graph, table, delta):
        before = neighbour_order(graph)
        held = {asn: table.candidates(asn) for asn in graph.ases}
        applied = delta.apply(graph)
        applied.revert()
        assert graph.version == applied.version_before
        assert neighbour_order(graph) == before
        fresh = compute_routes(graph, table.destination)
        for asn in graph.ases:
            assert table.candidates(asn) == held[asn]
            assert fresh.candidates(asn) == held[asn], asn

    def test_link_flap(self):
        graph = generate_named("tiny", seed=1)
        table, asn, neighbour = learned_first(graph)
        self._held_across(
            graph, table, TopologyDelta.link_down(asn, neighbour)
        )

    def test_as_down_and_up(self):
        graph = generate_named("tiny", seed=1)
        table, asn, neighbour = learned_first(graph)
        self._held_across(graph, table, TopologyDelta.as_down(neighbour))

    def test_reapply_then_revert(self):
        graph = generate_named("tiny", seed=1)
        table, asn, neighbour = learned_first(graph)
        before = neighbour_order(graph)
        applied = TopologyDelta.as_down(neighbour).apply(graph)
        after = neighbour_order(graph)
        applied.revert()
        applied.reapply()
        assert neighbour_order(graph) == after
        applied.revert()
        assert neighbour_order(graph) == before

    def test_rollback_restores_order(self):
        graph = generate_named("tiny", seed=1)
        table, asn, neighbour = learned_first(graph)
        before = neighbour_order(graph)
        version = graph.version
        bad = TopologyDelta.compose(
            TopologyDelta.as_down(neighbour),
            TopologyDelta.link_down(asn, neighbour),  # already down
        )
        with pytest.raises(TopologyError):
            bad.apply(graph)
        assert graph.version == version
        assert neighbour_order(graph) == before

    @pytest.mark.parametrize("second", ["existing", "repeated"])
    def test_as_up_failing_partway_changes_nothing(self, paper_graph, second):
        """An AS_UP whose second link is bad, after a first link that
        would create a new AS, rolls back to the exact graph: no leaked
        link, no leaked AS, no one-sided adjacency."""
        new = max(paper_graph.ases) + 1
        dup = paper_graph.neighbors(A)[0] if second == "existing" else new
        before = snapshot(paper_graph)
        order = neighbour_order(paper_graph)
        version = paper_graph.version
        bad = TopologyDelta.compose(
            TopologyDelta.link_down(B, E),
            TopologyDelta.as_up(
                A, [(new, Relationship.PEER), (dup, Relationship.PEER)]
            ),
        )
        with pytest.raises(TopologyError):
            bad.apply(paper_graph)
        assert snapshot(paper_graph) == before
        assert neighbour_order(paper_graph) == order
        assert new not in paper_graph
        assert paper_graph.version == version


def graph_state(graph: ASGraph):
    """Everything a version names: the AS set, the links with their
    relationships, each AS's neighbour order, and the version."""
    links, _ = snapshot(graph)
    return list(graph.iter_ases()), links, neighbour_order(graph), graph.version


class TestRestoreIsExact:
    """Each case once left a graph other than the pre-apply one at the
    pre-apply version (``tiny`` seed 1: ASes 1..40, AS 1's neighbours
    2, 3, 4, 7, 9, 10)."""

    @pytest.fixture
    def graph(self):
        graph = generate_named("tiny", seed=1)
        assert graph.ases == list(range(1, 41))
        assert graph.neighbors(1) == [2, 3, 4, 7, 9, 10]
        return graph

    def test_revert_removes_the_as_a_link_up_created(self, graph):
        before = graph_state(graph)
        applied = TopologyDelta.link_up(1, 41, Relationship.PEER).apply(graph)
        assert 41 in graph
        applied.revert()
        assert graph_state(graph) == before

    def test_revert_of_as_up_keeps_the_links_it_found(self, graph):
        before = graph_state(graph)
        TopologyDelta.as_up(1, []).apply(graph).revert()
        assert graph_state(graph) == before

    def test_failed_apply_keeps_the_links_an_as_up_found(self, graph):
        before = graph_state(graph)
        bad = TopologyDelta.compose(
            TopologyDelta.as_up(1, []),
            TopologyDelta.link_up(1, 2, Relationship.PEER),  # 1—2 exists
        )
        with pytest.raises(TopologyError):
            bad.apply(graph)
        assert graph_state(graph) == before

    def test_revert_of_a_link_then_its_as_up_completes(self, graph):
        assert not graph.has_link(1, 5)
        before = graph_state(graph)
        applied = TopologyDelta.compose(
            TopologyDelta.link_up(1, 5, Relationship.PEER),
            TopologyDelta.as_up(5, []),
        ).apply(graph)
        applied.revert()
        assert graph_state(graph) == before


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


#: ASes 1..12 of the machine's graph, 0 and 13 that it lacks, and -1
#: that no graph can hold, so ops name unknown and invalid ASes too.
MACHINE_ASES = st.integers(min_value=-1, max_value=13)
RELATIONSHIPS = st.sampled_from(list(Relationship))
OPS = st.one_of(
    st.builds(TopologyDelta.link_down, MACHINE_ASES, MACHINE_ASES),
    st.builds(TopologyDelta.link_up, MACHINE_ASES, MACHINE_ASES,
              RELATIONSHIPS),
    st.builds(TopologyDelta.as_down, MACHINE_ASES),
    st.builds(TopologyDelta.as_up, MACHINE_ASES,
              st.lists(st.tuples(MACHINE_ASES, RELATIONSHIPS), max_size=3)),
)


#: Snapshots derived from their parent version's (not built afresh).
DERIVED = get_registry().counter("repro_topology_snapshot_derived_total")


class DeltaMachine(RuleBasedStateMachine):
    """Deltas valid or not, composed, nested, reverted and re-applied:
    a version always names one graph, and what is read at it agrees.

    ``derived_steps`` counts, over a whole run, the steps whose snapshot
    was derived from the parent version's: the memo invariant must have
    covered derivation, not only the full build."""

    derived_steps = 0

    def __init__(self):
        super().__init__()
        self.graph = generate_topology(
            TopologyProfile("delta-machine", n_ases=12, n_tier1=2), seed=3)
        self.destinations = self.graph.ases[:2]
        self.session = SimulationSession(self.graph, parallel=False)
        self.digests = {}
        self.applied = []    # (record, digest after), innermost last
        self.reverted = []   # (record, digest after), latest last
        self.derived_seen = DERIVED.value

    @rule(ops=st.lists(OPS, min_size=1, max_size=3))
    def apply(self, ops):
        before = graph_digest(self.graph), self.graph.version
        try:
            record = TopologyDelta.compose(*ops).apply(self.graph)
        except TopologyError:
            assert (graph_digest(self.graph), self.graph.version) == before
            return
        self.applied.append((record, graph_digest(self.graph)))
        self.reverted.clear()

    @precondition(lambda self: self.applied)
    @rule()
    def revert(self):
        record, _ = entry = self.applied.pop()
        record.revert()
        assert self.graph.version == record.version_before
        self.reverted.append(entry)

    @precondition(lambda self: self.reverted)
    @rule()
    def reapply(self):
        record, digest = entry = self.reverted.pop()
        record.reapply()
        assert graph_digest(self.graph) == digest
        assert self.graph.version == record.version_after
        self.applied.append(entry)

    @invariant()
    def version_names_one_graph(self):
        digest = graph_digest(self.graph)
        assert self.digests.setdefault(self.graph.version, digest) == digest

    @invariant()
    def snapshot_is_a_fresh_build(self):
        memo, fresh = self.graph.snapshot(), TopologySnapshot.build(self.graph)
        for name in TopologySnapshot.__slots__:
            if name != "_np_phases":  # built at the batched kernel's first use
                assert getattr(memo, name) == getattr(fresh, name), name
        # the settle loop copies a view only where seed[i] is not expand[i]
        for (seed, expand), (fresh_seed, fresh_expand) in zip(
            memo.phase_nbrs, fresh.phase_nbrs
        ):
            assert list(map(operator.is_, seed, expand)) == list(
                map(operator.is_, fresh_seed, fresh_expand)
            )
        # one snapshot per step at most, so a step in which the counter
        # moved checks a derived memo (whichever invariant asked first)
        if DERIVED.value > self.derived_seen:
            DeltaMachine.derived_steps += 1
        self.derived_seen = DERIVED.value

    @invariant()
    def session_tables_match_the_reference(self):
        for destination in self.destinations:
            reference = compute_routes_reference(self.graph, destination)
            table = self.session.compute(destination)
            assert first_divergence(reference, table, "session") is None

    def teardown(self):
        self.session.close()


DeltaMachine.TestCase.settings = settings(
    derandomize=True, max_examples=40, stateful_step_count=15,
    deadline=None,
    # explaining a failure replays the machine for minutes; the shrunk
    # steps are the report
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)


class TestDeltaMachine(DeltaMachine.TestCase):
    def runTest(self):
        DeltaMachine.derived_steps = 0
        super().runTest()
        assert DeltaMachine.derived_steps > 0
