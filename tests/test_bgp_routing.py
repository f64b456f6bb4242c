"""Tests for the stable-state BGP computation (repro.bgp.routing).

The paper_graph fixture reproduces the Fig. 1.1/2.1 walk-through, so the
expected selections come straight from the paper: C picks CF, E picks EF,
B picks BEF (over the peer route BCF), D picks DEF, A picks ABEF.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    Route,
    RouteClass,
    compute_all_routes,
    compute_routes,
    make_route,
)
from repro.bgp.routing import (
    RouteTree,
    RoutingTable,
    compute_routes_reference,
    compute_routes_snapshot,
)
from repro.errors import RoutingError, UnknownASError
from repro.obs import get_registry
from repro.topology import (
    ASGraph,
    Relationship,
    TopologyDelta,
    TopologyProfile,
    generate_topology,
    SMALL,
)

from conftest import A, B, C, D, E, F


class TestPaperWalkthrough:
    def test_origin(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.best(F).path == (F,)
        assert table.best(F).route_class is RouteClass.ORIGIN

    def test_neighbors_learn_direct_routes(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.best(C).path == (C, F)
        assert table.best(E).path == (E, F)

    def test_b_prefers_customer_route_bef(self, paper_graph):
        # Fig. 2.1 step 3: B gets BCF (peer) and BEF (customer), keeps BEF
        table = compute_routes(paper_graph, F)
        assert table.best(B).path == (B, E, F)
        assert table.best(B).route_class is RouteClass.CUSTOMER

    def test_b_candidates_include_both(self, paper_graph):
        table = compute_routes(paper_graph, F)
        candidates = {r.path for r in table.candidates(B)}
        assert candidates == {(B, E, F), (B, C, F)}

    def test_a_selects_abef(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.best(A).path == (A, B, E, F)

    def test_a_candidates(self, paper_graph):
        table = compute_routes(paper_graph, F)
        candidates = {r.path for r in table.candidates(A)}
        assert candidates == {(A, B, E, F), (A, D, E, F)}

    def test_d_keeps_def(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.best(D).path == (D, E, F)

    def test_default_path_helper(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.default_path(A) == (A, B, E, F)

    def test_everyone_routed(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert table.routed_ases() == [A, B, C, D, E, F]

    def test_candidates_at_destination(self, paper_graph):
        table = compute_routes(paper_graph, F)
        assert [r.path for r in table.candidates(F)] == [(F,)]

    def test_candidates_are_kept_per_as_and_handed_out_fresh(self, paper_graph):
        table = compute_routes(paper_graph, F)
        first = table.candidates(B)
        first.clear()                   # the caller's own list
        again = table.candidates(B)
        assert {r.path for r in again} == {(B, E, F), (B, C, F)}
        assert all(x is y for x, y in zip(again, table.candidates(B)))

    def test_candidates_kept_at_one_version_never_answer_another(
        self, paper_graph
    ):
        """A table held across a mutation reads the changed graph; what
        it enumerated then must not survive the revert."""
        table = compute_routes(paper_graph, F)
        applied = TopologyDelta.link_down(B, C).apply(paper_graph)
        assert {r.path for r in table.candidates(B)} == {(B, E, F)}
        applied.revert()
        for asn in paper_graph.ases:
            assert table.candidates(asn) == compute_routes_reference(
                paper_graph, F
            ).candidates(asn)
        applied.reapply()               # and the other way round
        assert {r.path for r in table.candidates(B)} == {(B, E, F)}

    def test_unknown_destination(self, paper_graph):
        with pytest.raises(UnknownASError):
            compute_routes(paper_graph, 99)

    def test_unknown_source_query(self, paper_graph):
        table = compute_routes(paper_graph, F)
        with pytest.raises(UnknownASError):
            table.best(99)


class TestInvariants:
    """Structural invariants on generated topologies."""

    @pytest.fixture(scope="class")
    def tables(self):
        graph = generate_topology(SMALL, seed=11)
        return graph, compute_all_routes(graph, graph.ases[:20])

    def test_full_reachability(self, tables):
        graph, all_tables = tables
        for table in all_tables.values():
            assert len(table.routed_ases()) == len(graph)

    def test_paths_exist_in_graph(self, tables):
        graph, all_tables = tables
        for table in all_tables.values():
            for asn, route in table.items():
                assert graph.path_exists(route.path)

    def test_paths_are_valley_free(self, tables):
        graph, all_tables = tables
        for table in all_tables.values():
            for asn, route in table.items():
                assert graph.is_valley_free(route.path), route.path

    def test_tree_consistency(self, tables):
        """Each selected path extends the next hop's selected path."""
        graph, all_tables = tables
        for table in all_tables.values():
            for asn, route in table.items():
                if route.length == 0:
                    continue
                next_route = table.best(route.path[1])
                assert next_route.path == route.path[1:]

    def test_candidate_classes_match_relationships(self, tables):
        graph, all_tables = tables
        for table in all_tables.values():
            for asn in list(graph.iter_ases())[:30]:
                for candidate in table.candidates(asn):
                    expected = make_route(graph, candidate.path).route_class
                    assert candidate.route_class is expected

    def test_selected_is_best_candidate(self, tables):
        graph, all_tables = tables
        for table in all_tables.values():
            for asn in list(graph.iter_ases())[:30]:
                best = table.best(asn)
                for candidate in table.candidates(asn):
                    assert candidate.preference_key() <= best.preference_key()


class TestPinnedRoutes:
    def test_pin_b_to_peer_route(self, paper_graph):
        # Force B onto BCF; A should follow with ABCF.
        base = compute_routes(paper_graph, F)
        alternate = [
            r for r in base.candidates(B) if r.path == (B, C, F)
        ][0]
        pinned = compute_routes(paper_graph, F, pinned={B: alternate})
        assert pinned.best(B).path == (B, C, F)
        assert pinned.best(A).path == (A, B, C, F)

    def test_pin_wrong_holder_rejected(self, paper_graph):
        route = make_route(paper_graph, (B, C, F))
        with pytest.raises(RoutingError):
            compute_routes(paper_graph, F, pinned={A: route})

    def test_pin_wrong_destination_rejected(self, paper_graph):
        route = make_route(paper_graph, (B, E))
        with pytest.raises(RoutingError):
            compute_routes(paper_graph, F, pinned={B: route})

    def test_pin_at_destination_rejected(self, paper_graph):
        route = make_route(paper_graph, (F,))
        with pytest.raises(RoutingError):
            compute_routes(paper_graph, F, pinned={F: route})

    def test_rejected_pin_leaves_nothing_behind(self, paper_graph):
        """A bad pin raises on every call, and the un-pinned settle of
        the same destination is untouched by it."""
        bad = make_route(paper_graph, (B, E))
        for _ in range(2):
            with pytest.raises(RoutingError):
                compute_routes(paper_graph, F, pinned={B: bad})
        assert compute_routes(paper_graph, F).best(B).path == (B, E, F)

    def test_pin_off_the_snapshot_settles_by_the_reference(self, paper_graph):
        """A pinned path through an AS the topology lacks has no index
        path; the heap walk's UnknownASError sends the request to the
        dict walk, which settles it, instead of out to the caller."""
        stray = Route((B, 99, F), RouteClass.PEER)
        table = compute_routes(paper_graph, F, pinned={B: stray})
        assert table.best(B) is stray
        assert table.best(A).path == (A, B, 99, F)
        assert [(a, r.path) for a, r in table.items()] == [
            (a, r.path) for a, r in compute_routes_reference(
                paper_graph, F, pinned={B: stray}).items()
        ]

    def test_pinned_peer_route_not_exported_to_peers(self, triangle_graph):
        # Pin 2 onto a peer route; its peer 3 must not learn it.
        base = compute_routes(triangle_graph, 11)
        # 2's candidates to 11: via peer 1 (2,1,11) and via customer 12
        alternate = [
            r for r in base.candidates(2) if r.path == (2, 1, 11)
        ][0]
        pinned = compute_routes(triangle_graph, 11, pinned={2: alternate})
        assert pinned.best(2).path == (2, 1, 11)
        # 3 must not route through 2's peer route
        assert pinned.best(3).path[:2] != (3, 2)

    def test_sibling_chain_routes(self):
        graph = ASGraph()
        graph.add_sibling_link(1, 2)
        graph.add_sibling_link(2, 3)
        table = compute_routes(graph, 3)
        assert table.best(1).path == (1, 2, 3)
        assert table.best(1).route_class is RouteClass.CUSTOMER


class TestSnapshotKernelEquivalence:
    """The index-space snapshot kernel must be byte-identical to the
    legacy dict walk — paths, route classes, *and* table iteration order
    — on every topology, with and without pinned routes."""

    @staticmethod
    def assert_tables_identical(kernel, reference):
        kernel_items = list(kernel.items())
        reference_items = list(reference.items())
        assert [asn for asn, _ in kernel_items] == [
            asn for asn, _ in reference_items
        ]
        for (asn, k_route), (_, r_route) in zip(kernel_items, reference_items):
            assert k_route.path == r_route.path, asn
            assert k_route.route_class is r_route.route_class, asn

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_topologies(self, seed):
        from repro.bgp.routing import compute_routes_reference

        graph = generate_topology(SMALL, seed=seed)
        for destination in graph.ases[:: max(1, len(graph) // 6)]:
            self.assert_tables_identical(
                compute_routes(graph, destination),
                compute_routes_reference(graph, destination),
            )

    def test_paper_graph_all_destinations(self, paper_graph):
        from repro.bgp.routing import compute_routes_reference

        for destination in paper_graph.ases:
            self.assert_tables_identical(
                compute_routes(paper_graph, destination),
                compute_routes_reference(paper_graph, destination),
            )

    def test_pinned_routes_identical(self, paper_graph):
        from repro.bgp.routing import compute_routes_reference

        base = compute_routes(paper_graph, F)
        alternate = [
            r for r in base.candidates(B) if r.path == (B, C, F)
        ][0]
        self.assert_tables_identical(
            compute_routes(paper_graph, F, pinned={B: alternate}),
            compute_routes_reference(paper_graph, F, pinned={B: alternate}),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_walk_matches_reference_in_order(self, seed):
        """The pinned heap walk is one loop over the wave phases; hold
        it to the dict walk on 1–4 pins drawn from ``candidates()`` —
        any learned route, so pins of every class, on and off the
        default tree — with sibling and peer links dense enough that
        class inheritance and the loop check both matter."""
        import random

        from repro.bgp.routing import compute_routes_reference

        rng = random.Random(seed * 43 + 9)
        for topology in range(5):
            profile = TopologyProfile(
                "pinned", n_ases=rng.choice([40, 80]), n_tier1=3,
                peer_fraction=rng.choice([0.08, 0.3]),
                sibling_fraction=rng.choice([0.015, 0.3]),
            )
            graph = generate_topology(profile, seed=seed * 10 + topology)
            for destination in rng.sample(graph.ases, 8):
                base = compute_routes(graph, destination)
                holders = rng.sample(
                    [a for a in graph.ases if a != destination],
                    rng.randint(1, 4),
                )
                pinned = {
                    asn: rng.choice(base.candidates(asn))
                    for asn in holders if base.candidates(asn)
                }
                self.assert_tables_identical(
                    compute_routes(graph, destination, pinned=pinned),
                    compute_routes_reference(
                        graph, destination, pinned=pinned
                    ),
                )

    def test_candidate_order_identical(self, paper_graph):
        from repro.bgp.routing import compute_routes_reference

        kernel = compute_routes(paper_graph, F)
        reference = compute_routes_reference(paper_graph, F)
        for asn in paper_graph.ases:
            assert [r.path for r in kernel.candidates(asn)] == [
                r.path for r in reference.candidates(asn)
            ]

    def test_kernel_reuses_memoized_snapshot(self, paper_graph):
        before = paper_graph.snapshot()
        compute_routes(paper_graph, F)
        compute_routes(paper_graph, C)
        assert paper_graph.snapshot() is before


def _materialized() -> float:
    return get_registry().counter(
        "repro_routing_tables_materialized_total", ""
    ).value


class TestRouteTree:
    """An un-pinned settle is a parent-pointer tree: equal to the dict
    walk whichever way it is read, and expanded into its dict at most
    once."""

    @given(
        n=st.integers(min_value=16, max_value=48),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_wave_kernel_equals_the_dict_walk(self, n, seed):
        """Values *and* insertion order, every destination, on
        topologies dense in sibling and peer links."""
        profile = TopologyProfile(
            "siblings", n_ases=n, n_tier1=3,
            peer_fraction=0.3, sibling_fraction=0.3,
        )
        graph = generate_topology(profile, seed=seed)
        graph.add_as(n + 1)  # routes nowhere, is routed to by nobody
        snapshot = graph.snapshot()
        for destination in graph.ases:
            tree = compute_routes_snapshot(snapshot, destination)
            assert isinstance(tree, RouteTree)
            reference = dict(
                compute_routes_reference(graph, destination).items()
            )
            for asn in graph.ases:  # the walk, before anything expands
                route = reference.get(asn)
                assert tree.path(asn) == (route and route.path), asn
            assert tree._routes is None
            assert list(tree) == list(reference)
            assert len(tree) == len(reference)
            for asn, route in reference.items():
                assert tree[asn].path == route.path, asn
                assert tree[asn].route_class is route.route_class, asn

    def test_pinned_settle_is_still_the_dict(self, paper_graph):
        base = compute_routes(paper_graph, F)
        alternate = [r for r in base.candidates(B) if r.path == (B, C, F)][0]
        table = compute_routes(paper_graph, F, pinned={B: alternate})
        assert table._tree is None and table.best(B) is alternate

    def test_default_path_reads_the_tree(self):
        graph = generate_topology(SMALL, seed=4)
        island = max(graph.ases) + 1
        graph.add_as(island)
        destination = graph.ases[7]
        before = _materialized()
        fresh = compute_routes(graph, destination)
        paths = {asn: fresh.default_path(asn) for asn in graph.ases}
        assert fresh.default_path(island) is None
        assert not fresh.reachable(island) and fresh.reachable(graph.ases[0])
        with pytest.raises(UnknownASError):
            fresh.default_path(island + 1)
        assert fresh._routes is None and _materialized() == before
        for asn in graph.ases:
            route = fresh.best(asn)
            assert paths[asn] == (route.path if route else None), asn
        assert _materialized() == before + 1
        # and the answers do not change once the dict exists
        assert paths == {asn: fresh.default_path(asn) for asn in graph.ases}

    def test_table_outlives_its_graph_version(self):
        """An AS the graph gained later is in the graph, not in the
        tree's index: no route, not a KeyError."""
        graph = generate_topology(SMALL, seed=4)
        destination, provider = graph.ases[7], graph.ases[0]
        table = compute_routes(graph, destination)
        newcomer = max(graph.ases) + 1
        TopologyDelta.as_up(
            newcomer, [(provider, Relationship.PROVIDER)]
        ).apply(graph)
        assert newcomer in graph
        assert table.default_path(newcomer) is None
        assert table._routes is None
        assert table.best(newcomer) is None
        assert compute_routes(graph, destination).default_path(newcomer)

    def test_concurrent_first_reads_materialize_once(self):
        graph = generate_topology(SMALL, seed=4)
        table = compute_routes(graph, graph.ases[7])
        readers = 12
        barrier = threading.Barrier(readers)
        seen, errors = [], []

        def read(i):
            try:
                barrier.wait(timeout=30)
                if i % 3 == 0:
                    list(table.items())
                elif i % 3 == 1:
                    table.best(graph.ases[i])
                else:
                    table.default_path(graph.ases[i])
                    table.routed_ases()
                seen.append(table._best)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        before = _materialized()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == readers
        assert all(routes is seen[0] for routes in seen)
        assert _materialized() == before + 1

    def test_table_takes_a_dict_or_a_tree(self, paper_graph):
        tree = compute_routes_snapshot(paper_graph.snapshot(), F)
        from_tree = RoutingTable(paper_graph, F, tree)
        from_dict = RoutingTable(paper_graph, F, dict(tree))
        assert from_tree.default_path(A) == from_dict.default_path(A)
        assert list(from_tree.items()) == list(from_dict.items())
