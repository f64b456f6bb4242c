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
    compute_routes,
    make_route,
)
from repro.bgp.policy import is_valley_free
from repro.bgp.kernels.scalar import compute_routes_snapshot
from repro.bgp.routing import (
    RouteTree,
    RoutingTable,
    compute_routes_reference,
)
from repro.errors import RoutingError, UnknownASError
from repro.obs import get_registry
from repro.session import SimulationSession
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

    def test_candidates_follow_graph_neighbors_without_a_snapshot(
        self, paper_graph
    ):
        """Enumerated off the live graph in ``ASGraph.neighbors`` order:
        right after a mutation, no snapshot is derived for them."""
        table = compute_routes(paper_graph, F)
        paper_graph.remove_link(B, E)
        paper_graph.add_customer_link(B, E)  # now last among B's neighbours
        builds = get_registry().counter(
            "repro_topology_snapshot_builds_total", ""
        )
        before = builds.value
        for asn in paper_graph.ases:
            heard = [r.path[1] for r in table.candidates(asn) if r.path[1:]]
            assert heard == [
                nb for nb in paper_graph.neighbors(asn) if nb in heard
            ]
        assert [r.path for r in table.candidates(B)] == [
            (B, C, F), (B, E, F),
        ]
        assert builds.value == before

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
        return graph, SimulationSession(graph).compute_many(graph.ases[:20])

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
                assert is_valley_free(graph, route.path), route.path

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

    @pytest.mark.parametrize(
        "walk", [compute_routes, compute_routes_reference],
        ids=["heap", "reference"])
    def test_pin_off_the_graph_is_rejected(self, paper_graph, walk):
        """A pinned path through an AS the topology lacks is refused by
        both walks' validation, naming the AS."""
        stray = Route((B, 99, F), RouteClass.PEER)
        with pytest.raises(UnknownASError, match="AS 99 ") as raised:
            walk(paper_graph, F, pinned={B: stray})
        assert raised.value.asn == 99

    @pytest.mark.parametrize(
        "walk", [compute_routes, compute_routes_reference],
        ids=["heap", "reference"])
    @pytest.mark.parametrize("holder, path", [
        (3, (3, 6, 1)),     # 3's sibling 4 would inherit it
        (2, (2, 3, 6, 1)),  # the missing link past the first hop
    ], ids=["first-hop", "later-hop"])
    def test_pin_across_a_missing_link_is_rejected(self, walk, holder, path):
        """Every AS of the pinned path is in the graph, but 3 and 6 share
        no link: both walks refuse the pin before settling, naming both."""
        graph = ASGraph()
        graph.add_customer_link(2, 1)
        graph.add_customer_link(3, 2)
        graph.add_sibling_link(3, 4)
        graph.add_customer_link(4, 5)
        graph.add_customer_link(6, 1)
        pin = Route(path, RouteClass.PROVIDER)
        with pytest.raises(RoutingError, match="AS 3 - AS 6"):
            walk(graph, 1, pinned={holder: pin})

    @pytest.mark.parametrize("holder, path", [
        (A, (B, C, F)),     # held by another AS
        (B, (B, E)),        # toward another destination
        (F, (F,)),          # at the destination itself
    ], ids=["holder", "destination", "at-destination"])
    def test_reference_walk_applies_the_same_pin_checks(
        self, paper_graph, holder, path
    ):
        route = make_route(paper_graph, path)
        for walk in (compute_routes, compute_routes_reference):
            with pytest.raises(RoutingError):
                walk(paper_graph, F, pinned={holder: route})

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
    walk whichever way it is read, and expanded only by a whole-table
    read, which keeps nothing."""

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
            before = _materialized()
            for asn in graph.ases:  # per AS, before anything expands
                route = reference.get(asn)
                assert tree.path(asn) == (route and route.path), asn
                assert tree.route(asn) == route, asn
            assert _materialized() == before
            expanded = list(tree.expand())
            assert _materialized() == before + 1
            assert [asn for asn, _ in expanded] == list(reference)
            for asn, route in expanded:
                assert route.path == reference[asn].path, asn
                assert route.route_class is reference[asn].route_class, asn

    def test_pinned_settle_is_still_the_dict(self, paper_graph):
        base = compute_routes(paper_graph, F)
        alternate = [r for r in base.candidates(B) if r.path == (B, C, F)][0]
        table = compute_routes(paper_graph, F, pinned={B: alternate})
        assert table._tree is None and table.best(B) is alternate

    def test_per_as_reads_never_expand_the_tree(self):
        """``default_path``, ``best``, ``candidates`` and ``routed_ases``
        answer from the parent pointers; only ``items()`` expands, once
        per call, and the table keeps no route dict either way."""
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
        for asn in graph.ases:
            route = fresh.best(asn)
            assert paths[asn] == (route.path if route else None), asn
            assert fresh.candidates(asn) or route is None, asn
        routed = fresh.routed_ases()
        assert routed == sorted(a for a, p in paths.items() if p is not None)
        assert fresh._routes is None and _materialized() == before
        assert sorted(asn for asn, _ in fresh.items()) == routed
        assert _materialized() == before + 1
        list(fresh.items())  # nothing was kept: a second read expands anew
        assert fresh._routes is None and _materialized() == before + 2
        # and the answers do not change for having been expanded
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

    def test_concurrent_readers_agree(self):
        """Racing first readers (one builds the slice column the others
        may build too) all answer as one serial reader does."""
        graph = generate_topology(SMALL, seed=4)
        table = compute_routes(graph, graph.ases[7])
        serial = compute_routes(graph, graph.ases[7])
        expected = {
            "items": [(a, r) for a, r in serial.items()],
            "best": [serial.best(asn) for asn in graph.ases],
            "walk": [serial.default_path(asn) for asn in graph.ases],
        }
        readers = 12
        barrier = threading.Barrier(readers)
        seen, errors = [], []

        def read(i):
            try:
                barrier.wait(timeout=30)
                if i % 3 == 0:
                    seen.append(("items", list(table.items())))
                elif i % 3 == 1:
                    seen.append(
                        ("best", [table.best(asn) for asn in graph.ases]))
                else:
                    seen.append(("walk", [
                        table.default_path(asn) for asn in graph.ases]))
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
        assert all(answer == expected[kind] for kind, answer in seen)
        assert _materialized() == before + readers // 3
        assert table._routes is None

    def test_table_takes_a_dict_or_a_tree(self, paper_graph):
        tree = compute_routes_snapshot(paper_graph.snapshot(), F)
        from_tree = RoutingTable(paper_graph, F, tree)
        from_dict = RoutingTable(paper_graph, F, dict(tree.expand()))
        assert list(from_tree.items()) == list(from_dict.items())
        assert from_tree.routed_ases() == from_dict.routed_ases()
        for asn in paper_graph.ases:
            assert from_tree.default_path(asn) == from_dict.default_path(asn)
            assert from_tree.best(asn) == from_dict.best(asn)
            assert from_tree.candidates(asn) == from_dict.candidates(asn)
