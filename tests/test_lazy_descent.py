"""The scalar kernel's partial trees: a fill settles the climb and the
peer phase, and the descent is pulled per AS, then completed.

Every per-AS read of a fresh partial tree — ``path``, ``route``,
``learned`` — pulls only the AS's provider closure and must equal the
reference walk; after any pulls, completing the tree must give the full
wave settle field for field.  The graphs cover sibling links (a descent
route handed across one), ASes with no route (an AS isolated by
``as_down``, a second component) and ties between equal-depth offerers.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.bgp.kernels.scalar import compute_routes_snapshot, settle_waves
from repro.bgp.route import RouteClass
from repro.bgp.routing import (
    NO_ROUTE, RoutingTable, compute_routes_reference,
)
from repro.topology import ASGraph, TopologyDelta, generate_named

from conftest import A, B, C, D, E, F


def full_settle(snapshot, destination):
    """The wave loop over all three phases: the tree a partial one must
    complete to, as ``(order, parent, peer_from, provider_from)``."""
    n = snapshot.n
    dest = snapshot.index_of(destination)
    parent = [-1] * n
    parent[dest] = dest
    order = [dest]
    (_, peer_from), (_, provider_from), _ = settle_waves(
        snapshot.phase_nbrs, destination, parent, [0] * n, order
    )
    return order, parent, peer_from, provider_from


def fields(tree):
    return list(tree.order), list(tree.parent), tree.peer_from, tree.provider_from


def sibling_graph() -> ASGraph:
    """Destination 1 under provider 10; 10's customer 20 hands its
    descent route across a sibling link to 21, which has no provider,
    and on to 21's customer 22.  22 also buys from 30, a customer of 10
    at 20's depth: 22 ties between 21 and 30 one level further down, so
    its route crosses the sibling link only if the sibling offers."""
    graph = ASGraph()
    graph.add_customer_link(10, 1)
    graph.add_customer_link(10, 20)
    graph.add_sibling_link(20, 21)
    graph.add_customer_link(21, 22)
    graph.add_customer_link(10, 30)
    graph.add_customer_link(30, 31)
    graph.add_customer_link(31, 22)
    return graph


def two_components() -> ASGraph:
    """Two provider hierarchies with no link between them."""
    graph = ASGraph()
    for top in (1, 100):
        graph.add_customer_link(top, top + 1)
        graph.add_customer_link(top, top + 2)
        graph.add_customer_link(top + 1, top + 3)
        graph.add_customer_link(top + 2, top + 3)
        graph.add_peer_link(top + 1, top + 2)
    return graph


def isolated_after_as_down() -> ASGraph:
    graph = generate_named("tiny", seed=0)
    TopologyDelta.as_down(graph.ases[len(graph) // 2]).apply(graph)
    return graph


def paper() -> ASGraph:
    """The conftest's Fig. 1.1 topology, for the module-scoped cases."""
    graph = ASGraph()
    for provider, customer in ((B, A), (D, A), (B, E), (D, E), (C, F), (E, F)):
        graph.add_customer_link(provider, customer)
    graph.add_peer_link(B, C)
    graph.add_peer_link(C, E)
    return graph


#: name -> (graph factory, destinations per graph)
GRAPHS = {
    "paper": (paper, None),
    "siblings": (sibling_graph, None),
    "two-components": (two_components, None),
    "isolated-as": (isolated_after_as_down, 4),
    "tiny": (lambda: generate_named("tiny", seed=0), 4),
    "small": (lambda: generate_named("small", seed=42), 2),
    "gao-2005-siblings": (lambda: generate_named("gao-2005", seed=0), 2),
}


def destinations_of(graph, count):
    if count is None:
        return list(graph.ases)
    return random.Random(len(graph)).sample(graph.ases, count)


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def case(request):
    make, count = GRAPHS[request.param]
    graph = make()
    return graph, destinations_of(graph, count)


class TestPullExactness:
    def test_every_per_as_read_of_a_fresh_tree(self, case):
        """``path``, ``route`` and ``learned`` each read once per AS,
        each from a fresh partial tree: the first read is a pull."""
        graph, destinations = case
        snapshot = graph.snapshot()
        for destination in destinations:
            reference = compute_routes_reference(graph, destination)

            def fresh():
                return RoutingTable(
                    graph, destination,
                    compute_routes_snapshot(snapshot, destination),
                )

            for asn in graph.ases:
                assert fresh().default_path(asn) == (
                    reference.default_path(asn)), (destination, asn)
                assert fresh().best(asn) == reference.best(asn), (
                    destination, asn)
                assert fresh().candidates(asn) == (
                    reference.candidates(asn)), (destination, asn)

    def test_completion_after_any_pulls_is_the_full_settle(self, case):
        graph, destinations = case
        snapshot = graph.snapshot()
        rng = random.Random(7)
        for destination in destinations:
            expected = full_settle(snapshot, destination)
            for _ in range(3):
                tree = compute_routes_snapshot(snapshot, destination)
                nodes = list(range(snapshot.n))
                rng.shuffle(nodes)
                for i in nodes[:rng.randrange(snapshot.n + 1)]:
                    tree.pull((i,))
                assert fields(tree) == expected, destination
                assert tree._descent is None  # the snapshot is dropped

    def test_a_pull_resolves_its_closure_once(self, paper_graph):
        snapshot = paper_graph.snapshot()
        tree = compute_routes_snapshot(snapshot, F)
        a = snapshot.index_of(A)
        assert tree.parent[a] == -1 and tree._descent is not None
        assert tree.path(A) == (A, B, E, F)  # the first pull: A's closure
        assert tree._descent.pulls == 1
        assert tree.path(A) == (A, B, E, F)  # resolved: no pull at all
        assert tree.route(A).route_class is RouteClass.PROVIDER
        assert tree.route(D).route_class is RouteClass.CUSTOMER  # climbed
        assert tree._descent is not None and tree._descent.pulls == 1
        assert fields(tree) == full_settle(snapshot, F)

    def test_a_node_without_a_route_is_marked_and_read_as_none(self):
        graph = two_components()
        snapshot = graph.snapshot()
        tree = compute_routes_snapshot(snapshot, 1)
        far = snapshot.index_of(103)
        assert tree.pull((far,))[far] == NO_ROUTE
        assert tree.path(103) is None and tree.route(103) is None
        assert tree.path(4) == (4, 2, 1)  # the tree's first pull
        assert tree._descent is not None and tree._descent.pulls == 1
        tree.complete()
        assert tree.parent[far] == -1 and tree.path(103) is None

    def test_an_outside_pull_is_not_the_trees_first(self, paper_graph):
        """A pull through :meth:`RouteTree.pull` (the re-stamp probe,
        the oracle) leaves the tree its one pull before completion."""
        snapshot = paper_graph.snapshot()
        tree = compute_routes_snapshot(snapshot, F)
        tree.pull((snapshot.index_of(A),))
        assert tree._descent.pulls == 0
        assert tree.path(C) == (C, F)  # resolved by the fill
        assert tree.path(B) == (B, E, F)  # resolved by the outside pull
        assert tree._descent is not None and tree._descent.pulls == 0

    def test_a_late_pull_never_writes_a_completed_column(self):
        """A reader that loaded the descent before a completion swapped
        the columns pulls into the partial column the descent holds;
        the complete tree keeps -1 on its unrouted nodes."""
        graph = two_components()
        snapshot = graph.snapshot()
        tree = compute_routes_snapshot(snapshot, 1)
        descent = tree._descent
        tree.complete()
        complete = tree.parent
        # the reader's view: the new column, and the descent it loaded
        object.__setattr__(tree, "_descent", descent)
        far = snapshot.index_of(103)
        assert tree.path(103) is None
        assert descent.parent[far] == NO_ROUTE
        assert complete[far] == -1

    def test_a_descent_route_crosses_a_sibling_link(self):
        graph = sibling_graph()
        table = RoutingTable(
            graph, 1, compute_routes_snapshot(graph.snapshot(), 1))
        assert table.default_path(22) == (22, 21, 20, 10, 1)
        assert table.default_path(22) == compute_routes_reference(
            graph, 1).default_path(22)


class TestLazyTreesUnderThreads:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readers_race_a_completion(self, seed):
        """Two threads read disjoint sources of one partial tree while a
        third completes it; every answer is the reference's."""
        graph = generate_named("small", seed=42)
        snapshot = graph.snapshot()
        rng = random.Random(seed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for destination in rng.sample(graph.ases, 4):
                reference = compute_routes_reference(graph, destination)
                tree = compute_routes_snapshot(snapshot, destination)
                table = RoutingTable(graph, destination, tree)
                sources = list(graph.ases)
                rng.shuffle(sources)
                halves = sources[::2], sources[1::2]
                answers = [{}, {}]
                start = threading.Barrier(3)

                def read(k):
                    start.wait()
                    for asn in halves[k]:
                        answers[k][asn] = (
                            table.default_path(asn), table.best(asn))

                def complete():
                    start.wait()
                    tree.complete()

                threads = [
                    threading.Thread(target=read, args=(0,)),
                    threading.Thread(target=read, args=(1,)),
                    threading.Thread(target=complete),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for half in answers:
                    for asn, (path, route) in half.items():
                        assert path == reference.default_path(asn)
                        assert route == reference.best(asn)
                assert fields(tree) == full_settle(snapshot, destination)
        finally:
            sys.setswitchinterval(interval)
