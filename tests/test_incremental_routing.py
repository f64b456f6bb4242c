"""Incremental route recomputation must be indistinguishable from a
fresh full computation — values *and* ``items()`` order — exercised
both on the paper example and with randomized differential sweeps (a
few thousand topology/delta/destination cases)."""

import random

import pytest

from repro.bgp import compute_routes, kernels, recompute_routes
from repro.bgp.route import RouteClass
from repro.bgp.routing import (
    RouteTree,
    RoutingTable,
    affected_ases,
    compute_routes_reference,
)
from repro.obs import get_registry
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.topology import (
    ASGraph,
    Relationship,
    SMALL,
    TINY,
    TopologyDelta,
    TopologyProfile,
    generate_topology,
    link_key,
)

from conftest import A, B, C, D, E, F


def fingerprint(table):
    """Selected routes in ``items()`` order plus full candidate sets —
    the whole observable."""
    return (
        [(asn, r.path, r.route_class) for asn, r in table.items()],
        {
            asn: sorted(
                (c.path, c.route_class) for c in table.candidates(asn)
            )
            for asn in table.graph.ases
        },
    )


def tables_total(mode):
    return get_registry().counter(
        "repro_routing_tables_total", "", labels=("mode",)
    ).labels(mode=mode).value


def fallbacks(reason):
    return get_registry().counter(
        "repro_routing_incremental_fallbacks_total", "", labels=("reason",)
    ).labels(reason=reason).value


class TestPaperExample:
    def test_link_failure_resettles_affected_region(self, paper_graph):
        before = compute_routes(paper_graph, F)
        assert before.best(B).path == (B, E, F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        after = recompute_routes(paper_graph, before, applied)
        assert after.best(B).path == (B, C, F)
        assert after.best(A).path == (A, B, C, F)
        assert fingerprint(after) == fingerprint(compute_routes(paper_graph, F))

    def test_derived_table_is_a_tree_in_reference_order(self, paper_graph):
        before = compute_routes(paper_graph, F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        after = recompute_routes(paper_graph, before, applied)
        assert isinstance(after._tree, RouteTree) and after._routes is None
        assert after._tree is not before._tree
        reference = compute_routes_reference(paper_graph, F)
        assert [after.default_path(asn) for asn in paper_graph.ases] == [
            reference.default_path(asn) for asn in paper_graph.ases
        ]
        assert after._routes is None  # path reads built nothing
        assert list(after.items()) == list(reference.items())

    def test_event_off_the_tree_shares_the_parent_tree(
        self, paper_graph, monkeypatch
    ):
        """B—C carries no selected route toward F: nothing is affected,
        the derived table stands on the very tree it was derived from,
        and neither step reads a table in full."""
        before = compute_routes(paper_graph, F)
        applied = TopologyDelta.link_down(B, C).apply(paper_graph)
        monkeypatch.setattr(
            RoutingTable, "items",
            lambda self: pytest.fail("affected_ases read items()"),
        )
        materialized = get_registry().counter(
            "repro_routing_tables_materialized_total", ""
        )
        count = materialized.value
        affected = affected_ases(paper_graph, before, applied.changed_links)
        assert affected == set()
        after = recompute_routes(
            paper_graph, before, applied, affected=affected
        )
        assert after is not before and after._tree is before._tree
        assert after.default_path(A) == (A, B, E, F)
        assert materialized.value == count

    def test_affected_set_is_exactly_the_severed_routes(
        self, paper_graph, monkeypatch
    ):
        before = compute_routes(paper_graph, F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        monkeypatch.setattr(
            RoutingTable, "items",
            lambda self: pytest.fail("affected_ases read items()"),
        )
        affected = affected_ases(paper_graph, before, applied.changed_links)
        # pre-failure, only B and A (via B) routed over B—E: the subtree
        # under the cut tree edge, read off the parent pointers
        assert affected == {A, B}
        assert before._routes is None

    def test_as_failure_handled(self, paper_graph):
        """``as_down`` keeps the AS (isolated), so indices still name the
        same ASes and the table is re-derived, not settled afresh."""
        before = compute_routes(paper_graph, F)
        applied = TopologyDelta.as_down(E).apply(paper_graph)
        incremental = tables_total("incremental")
        after = recompute_routes(paper_graph, before, applied)
        assert tables_total("incremental") == incremental + 1
        assert after.best(E) is None
        assert fingerprint(after) == fingerprint(compute_routes(paper_graph, F))

    def test_second_generation_derivation(self, paper_graph):
        before = compute_routes(paper_graph, F)
        first = TopologyDelta.link_down(B, E).apply(paper_graph)
        derived = recompute_routes(paper_graph, before, first)
        second = TopologyDelta.link_down(D, E).apply(paper_graph)
        again = recompute_routes(paper_graph, derived, second)
        assert again._tree is not derived._tree
        assert again.best(A).path == (A, B, C, F)
        assert again.best(D) is None
        assert fingerprint(again) == fingerprint(
            compute_routes_reference(paper_graph, F)
        )

    def test_accepts_raw_link_pairs(self, paper_graph):
        before = compute_routes(paper_graph, F)
        paper_graph.remove_link(B, E)
        after = recompute_routes(paper_graph, before, [(B, E)])
        assert fingerprint(after) == fingerprint(compute_routes(paper_graph, F))


class TestAffectedSetDefinition:
    """``affected_ases`` walks only the cut subtrees; on seeded random
    failures it must still return exactly its definition — every AS
    whose old path crosses a changed link."""

    @staticmethod
    def crossing(table, changed):
        hops = {(a, b) for a, b in changed} | {(b, a) for a, b in changed}
        return {
            asn for asn, route in table.items()
            if not hops.isdisjoint(zip(route.path, route.path[1:]))
        }

    @pytest.mark.parametrize("profile, seed", [(TINY, 3), (SMALL, 11)])
    def test_random_failures_match_the_definition(self, profile, seed):
        rng = random.Random(seed)
        base = generate_topology(profile, seed=seed)
        links = [(a, b) for a, b, _ in base.iter_links()]
        cut_some = 0
        for _ in range(60):
            graph = base.copy()
            destination = rng.choice(graph.ases)
            before = compute_routes(graph, destination)
            # one hop off a selected path, so most trials cut the tree,
            # plus up to two links anywhere
            path = None
            while path is None or len(path) < 2:
                path = before.default_path(rng.choice(graph.ases))
            hop = rng.randrange(len(path) - 1)
            failed = {link_key(path[hop], path[hop + 1])}
            failed |= {link_key(*rng.choice(links))
                       for _ in range(rng.randrange(3))}
            if rng.random() < 0.2:
                gone = rng.choice([a for a in graph.ases if a != destination])
                reduced = graph.without_as(gone)
                changed = reduced.changed_links_since(graph.version)
                graph = reduced
            else:
                changed = failed
                for a, b in failed:
                    graph.remove_link(a, b)
            expected = self.crossing(before, changed)
            assert affected_ases(graph, before, changed) == expected
            cut_some += bool(expected)
        assert cut_some > 30


class TestOffererMerge:
    """A restart level where an earlier-phase holder and a kept border
    holder of the same phase offer at the same depth.

    Destination 1 has customers 2 and ``border``, and provider ``seed``;
    AS 9 buys transit from 2, ``border`` and ``seed``.  All three
    providers sit at depth 1, so 9 first settles via 2 (smallest
    index).  Failing 2—9 clears 9 alone; in the descent the restart
    then offers 9 a path of two hops from ``seed`` (a climb holder,
    across its customer links) and from ``border`` (a kept descent
    holder, across its expansion links) in one level, and the smaller
    index must win as in a full settle.
    """

    @pytest.mark.parametrize("seed, border", [(3, 4), (4, 3)])
    def test_seed_and_border_at_one_depth(self, seed, border):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(1, border, Relationship.CUSTOMER)
        graph.add_link(1, seed, Relationship.PROVIDER)
        for provider in (2, border, seed):
            graph.add_link(9, provider, Relationship.PROVIDER)
        before = compute_routes(graph, 1)
        assert before.best(seed).route_class is RouteClass.CUSTOMER
        assert before.default_path(9) == (9, 2, 1)
        applied = TopologyDelta.link_down(2, 9).apply(graph)
        assert affected_ases(graph, before, applied.changed_links) == {9}
        derived = tables_total("incremental")
        after = recompute_routes(graph, before, applied)
        assert tables_total("incremental") == derived + 1
        assert isinstance(after._tree, RouteTree)
        assert after.default_path(9) == (9, min(seed, border), 1)
        reference = compute_routes_reference(graph, 1)
        assert list(after.items()) == list(reference.items())
        assert fingerprint(after) == fingerprint(reference)


class TestFallbacks:
    def test_unknown_window_falls_back_to_full(self, paper_graph):
        before = compute_routes(paper_graph, F)
        paper_graph.remove_link(B, E)
        count = fallbacks("unbounded")
        after = recompute_routes(paper_graph, before, None)
        assert fallbacks("unbounded") == count + 1
        assert fingerprint(after) == fingerprint(compute_routes(paper_graph, F))

    def test_link_addition_falls_back_to_full(self, paper_graph):
        before = compute_routes(paper_graph, F)
        applied = TopologyDelta.link_up(A, C, Relationship.PEER).apply(
            paper_graph
        )
        assert affected_ases(
            paper_graph, before, applied.changed_links
        ) is None
        after = recompute_routes(paper_graph, before, applied)
        assert fingerprint(after) == fingerprint(compute_routes(paper_graph, F))

    def test_as_removal_falls_back_to_full(self, paper_graph):
        """An AS that *leaves* the graph shifts every index after it: the
        parent's columns no longer name the same ASes."""
        before = compute_routes(paper_graph, F)
        reduced = paper_graph.without_as(B)
        changed = reduced.changed_links_since(paper_graph.version)
        assert affected_ases(reduced, before, changed) == {A, B}
        count = fallbacks("as_set_changed")
        after = recompute_routes(reduced, before, changed)
        assert fallbacks("as_set_changed") == count + 1
        assert after.best(A).path == (A, D, E, F)
        assert fingerprint(after) == fingerprint(
            compute_routes_reference(reduced, F)
        )

    def test_dict_backed_parent_falls_back_to_full(self, paper_graph):
        """Reference (and pinned) tables have no tree to restart from;
        their affected set still comes from the path scan."""
        before = compute_routes_reference(paper_graph, F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        assert affected_ases(
            paper_graph, before, applied.changed_links
        ) == {A, B}
        count = fallbacks("parent_not_tree")
        after = recompute_routes(paper_graph, before, applied)
        assert fallbacks("parent_not_tree") == count + 1
        assert isinstance(after._tree, RouteTree)
        assert fingerprint(after) == fingerprint(
            compute_routes_reference(paper_graph, F)
        )

    def test_pinned_parent_falls_back_before_any_affected_scan(
        self, paper_graph
    ):
        """A dict-backed parent settles in full at once: no path scan
        runs, so no affected-region size is recorded for it."""
        alternate = [r for r in compute_routes(paper_graph, F).candidates(B)
                     if r.path == (B, C, F)][0]
        before = compute_routes(paper_graph, F, pinned={B: alternate})
        applied = TopologyDelta.link_down(D, E).apply(paper_graph)
        sizes = get_registry().histogram(
            "repro_routing_affected_ases", buckets=DEFAULT_SIZE_BUCKETS)
        count, observed = fallbacks("parent_not_tree"), sizes.count
        recompute_routes(paper_graph, before, applied)
        assert fallbacks("parent_not_tree") == count + 1
        assert sizes.count == observed

    def test_improved_export_at_region_boundary_detected(self):
        """Regression: a failure can *shorten* an affected AS's path.

        Losing a customer route can reveal a shorter provider route,
        whose export then beats routes kept at unaffected neighbours
        (found by the randomized sweep: tiny seed 3, three simultaneous
        failures).  recompute_routes must detect this at the region
        boundary and fall back to a full computation.
        """
        graph = generate_topology(TINY, seed=3)
        before = compute_routes(graph, 21)
        delta = TopologyDelta.compose(*[
            TopologyDelta.link_down(a, b)
            for a, b in [(5, 27), (10, 20), (12, 29)]
        ])
        applied = delta.apply(graph)
        count = fallbacks("boundary_improved")
        after = recompute_routes(graph, before, applied)
        assert fallbacks("boundary_improved") == count + 1
        assert fingerprint(after) == fingerprint(compute_routes(graph, 21))


class TestRandomizedDifferential:
    """Several hundred random (topology, delta, destination) cases."""

    SEEDS = range(6)
    TRIALS = 8
    DESTINATIONS = 6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_link_failures_match_full_compute(self, seed):
        graph = generate_topology(TINY, seed=seed)
        rng = random.Random(seed * 97 + 1)
        destinations = rng.sample(graph.ases, self.DESTINATIONS)
        tables = {d: compute_routes(graph, d) for d in destinations}
        cases = 0
        for _ in range(self.TRIALS):
            links = sorted(graph.iter_links())
            fails = rng.sample(links, rng.randint(1, 3))
            delta = TopologyDelta.compose(*[
                TopologyDelta.link_down(a, b) for a, b, _ in fails
            ])
            applied = delta.apply(graph)
            for destination in destinations:
                incremental = recompute_routes(
                    graph, tables[destination], applied
                )
                full = compute_routes(graph, destination)
                assert fingerprint(incremental) == fingerprint(full), (
                    f"seed={seed} failed={sorted(applied.changed_links)} "
                    f"destination={destination}"
                )
                cases += 1
            applied.revert()
        assert cases == self.TRIALS * self.DESTINATIONS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_as_failures_match_full_compute(self, seed):
        graph = generate_topology(TINY, seed=seed)
        rng = random.Random(seed * 131 + 7)
        destinations = rng.sample(graph.ases, 4)
        tables = {d: compute_routes(graph, d) for d in destinations}
        for _ in range(4):
            victim = rng.choice(
                [a for a in graph.ases if a not in destinations]
            )
            applied = TopologyDelta.as_down(victim).apply(graph)
            for destination in destinations:
                incremental = recompute_routes(
                    graph, tables[destination], applied
                )
                full = compute_routes(graph, destination)
                assert fingerprint(incremental) == fingerprint(full), (
                    f"seed={seed} victim={victim} destination={destination}"
                )
            applied.revert()

    @pytest.mark.parametrize("seed", range(8))
    def test_ordered_differential_against_reference(self, seed):
        """2,688 cases over the eight seeds: 40–150 ASes, sibling and
        peer fractions up to 0.3, 1–5 simultaneous link failures or an
        AS failure, parents settled by either kernel, and a further
        failure derived from each derived table.  Every path is read
        off the parent pointers before anything materializes; then
        ``items()`` must list the same routes in the same order."""
        rng = random.Random(seed * 61 + 5)
        names = kernels.available()
        cases = 0

        def check(graph, table, label):
            nonlocal cases
            reference = compute_routes_reference(graph, table.destination)
            assert [table.default_path(a) for a in graph.ases] == [
                reference.default_path(a) for a in graph.ases
            ], label
            assert table._routes is None or table._tree is None, label
            assert list(table.items()) == list(reference.items()), label
            cases += 1

        for topology in range(7):
            profile = TopologyProfile(
                "differential", n_ases=rng.choice([40, 80, 150]),
                n_tier1=rng.choice([3, 5, 8]),
                peer_fraction=rng.choice([0.08, 0.3]),
                sibling_fraction=rng.choice([0.0, 0.015, 0.1, 0.3]),
            )
            graph = generate_topology(profile, seed=seed * 100 + topology)
            snapshot = graph.snapshot()
            destinations = rng.sample(graph.ases, 4)
            parents = {
                d: RoutingTable(graph, d, kernels.settle_many(
                    snapshot, [d], kernel=names[(topology + i) % len(names)]
                )[d])
                for i, d in enumerate(destinations)
            }
            for trial in range(6):
                if rng.random() < 0.25:
                    delta = TopologyDelta.as_down(rng.choice(
                        [a for a in graph.ases if a not in destinations]
                    ))
                else:
                    delta = TopologyDelta.compose(*[
                        TopologyDelta.link_down(a, b)
                        for a, b, _ in rng.sample(
                            sorted(graph.iter_links()), rng.randint(1, 5)
                        )
                    ])
                applied = delta.apply(graph)
                label = f"seed={seed} topology={topology} trial={trial}"
                derived = {
                    d: recompute_routes(graph, parents[d], applied)
                    for d in destinations
                }
                for d in destinations:
                    check(graph, derived[d], f"{label} destination={d}")
                # second generation: one more failure, from derived tables
                a, b, _ = rng.choice(sorted(graph.iter_links()))
                again = TopologyDelta.link_down(a, b).apply(graph)
                for d in destinations:
                    check(
                        graph, recompute_routes(graph, derived[d], again),
                        f"{label} destination={d} then {a}-{b}",
                    )
                again.revert()
                applied.revert()
        assert cases == 7 * 6 * 4 * 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_apply_revert_round_trip_restores_tables(self, seed):
        graph = generate_topology(TINY, seed=seed)
        rng = random.Random(seed * 53 + 11)
        destinations = rng.sample(graph.ases, 4)
        before = {
            d: fingerprint(compute_routes(graph, d)) for d in destinations
        }
        links = sorted(graph.iter_links())
        fails = rng.sample(links, 2)
        delta = TopologyDelta.compose(*[
            TopologyDelta.link_down(a, b) for a, b, _ in fails
        ])
        applied = delta.apply(graph)
        applied.revert()
        for destination in destinations:
            assert fingerprint(compute_routes(graph, destination)) == (
                before[destination]
            )


class TestAffectedAses:
    def test_no_change_means_no_affected(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert affected_ases(paper_graph, table, frozenset()) == set()

    def test_none_window_is_unbounded(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert affected_ases(paper_graph, table, None) is None

    def test_destination_removal_is_unbounded(self, paper_graph):
        table = compute_routes(paper_graph, F)
        clone = paper_graph.without_as(F)
        changed = frozenset(link_key(F, n) for n in paper_graph.neighbors(F))
        assert affected_ases(clone, table, changed) is None
