"""Tests for the Ch. 7 convergence model, simulator, and counterexamples."""

import pytest

from repro.bgp import RouteClass, classify_path, compute_routes
from repro.convergence import (
    ExplicitRanker, GaoRexfordRanker, GuidelineMode, MiroConvergenceSystem,
    PartialOrder, Selection, TunnelDemand, bad_gadget_bgp_system,
    fig_7_1_graph, fig_7_1_system, fig_7_2_graph, fig_7_2_system,
    path_class_rank, proof_schedule,
)
from repro.errors import ConvergenceError
from repro.topology import TINY, generate_topology

from conftest import A, B, D, E, F


class TestPartialOrder:
    def test_allows_given_pairs(self):
        order = PartialOrder(((1, 2), (2, 3)))
        assert order.allows(1, 2)
        assert order.allows(2, 3)

    def test_transitive_closure(self):
        order = PartialOrder(((1, 2), (2, 3)))
        assert order.allows(1, 3)

    def test_unrelated_pairs_denied(self):
        order = PartialOrder(((1, 2),))
        assert not order.allows(2, 1)
        assert not order.allows(3, 4)

    def test_cycle_rejected(self):
        with pytest.raises(ConvergenceError):
            PartialOrder(((1, 2), (2, 3), (3, 1)))

    def test_self_pair_rejected(self):
        with pytest.raises(ConvergenceError):
            PartialOrder(((1, 1),))


class TestRankers:
    def test_explicit_order(self):
        ranker = ExplicitRanker({(1, 9): ((1, 2, 9), (1, 9))})
        assert ranker.rank(1, 9, (1, 2, 9)) > ranker.rank(1, 9, (1, 9))
        assert ranker.rank(1, 9, (1, 3, 9)) is None

    def test_explicit_falls_back_to_default(self):
        graph = fig_7_1_graph()
        ranker = ExplicitRanker({}, default=GaoRexfordRanker(graph))
        assert ranker.rank(1, 4, (1, 4)) is not None

    def test_gao_rexford_prefers_customer(self, paper_graph):
        ranker = GaoRexfordRanker(paper_graph)
        customer = ranker.rank(2, 6, (2, 5, 6))  # B via customer E
        peer = ranker.rank(2, 6, (2, 3, 6))      # B via peer C
        assert customer > peer

    def test_gao_rexford_prefers_shorter(self, paper_graph):
        ranker = GaoRexfordRanker(paper_graph)
        short = ranker.rank(1, 6, (1, 2, 6))
        long = ranker.rank(1, 6, (1, 2, 5, 6))
        assert short > long

    def test_class_rank_is_the_policy_class(self):
        graph = generate_topology(TINY, seed=7)
        for destination in graph.ases[::4]:
            table = compute_routes(graph, destination)
            for asn in graph.iter_ases():
                for route in table.candidates(asn):
                    assert path_class_rank(graph, route.path) == (
                        classify_path(graph, route.path).value
                    ), route.path

    def test_non_adjacent_hop_before_the_deciding_link_ranks_provider(
        self, paper_graph
    ):
        """A tunnel path may hold a hop between ASes that share no link:
        before the first non-sibling link it ranks as a provider route,
        after it the link has already decided the class."""
        paper_graph.add_sibling_link(D, 7)
        provider = RouteClass.PROVIDER.value
        assert path_class_rank(paper_graph, (A, F)) == provider
        assert path_class_rank(paper_graph, (7, D, F)) == provider
        assert path_class_rank(paper_graph, (7, D, E, A)) == (
            RouteClass.CUSTOMER.value
        )
        assert path_class_rank(paper_graph, (B, E, A)) == (
            RouteClass.CUSTOMER.value
        )

    def test_best_prefers_plain_bgp_on_tie(self):
        ranker = ExplicitRanker({(1, 9): ((1, 2, 9),)})
        bgp = Selection((1, 2, 9))
        tunnel = Selection((1, 2, 9), is_tunnel=True, first_downstream=2)
        assert ranker.best(1, 9, [tunnel, bgp]) == bgp


class TestCounterexamples:
    def test_fig_7_1_oscillates_unrestricted(self):
        result = fig_7_1_system(GuidelineMode.UNRESTRICTED).run(max_rounds=60)
        assert not result.converged
        assert result.oscillating  # provable cycle under the fixed order

    @pytest.mark.parametrize("mode", [
        GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_C,
        GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E,
    ])
    def test_fig_7_1_converges_under_guidelines(self, mode):
        result = fig_7_1_system(mode).run(max_rounds=60)
        assert result.converged

    def test_fig_7_1_guideline_b_keeps_tunnels(self):
        result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run()
        # A's effective route is the tunnel ABD built on B's stable BGP BD
        selection = result.selection(1, 4)
        assert selection.path == (1, 2, 4)
        assert selection.is_tunnel

    def test_fig_7_2_oscillates_unrestricted(self):
        result = fig_7_2_system(GuidelineMode.UNRESTRICTED).run(max_rounds=60)
        assert not result.converged
        assert result.oscillating

    @pytest.mark.parametrize("mode", [
        GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_C,
        GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E,
    ])
    def test_fig_7_2_converges_under_guidelines(self, mode):
        result = fig_7_2_system(mode).run(max_rounds=60)
        assert result.converged

    def test_fig_7_2_guideline_e_all_tunnels_stable(self):
        result = fig_7_2_system(GuidelineMode.GUIDELINE_E).run()
        for dest, downstream in ((1, 2), (2, 3), (3, 1)):
            selection = result.selection(4, dest)
            assert selection.is_tunnel
            assert selection.first_downstream == downstream

    def test_fig_7_2_guideline_d_forbids_cyclic_third_tunnel(self):
        result = fig_7_2_system(GuidelineMode.GUIDELINE_D).run()
        tunnels = [
            result.selection(4, dest).is_tunnel for dest in (1, 2, 3)
        ]
        assert not all(tunnels)  # the order blocks at least one
        assert result.converged

    def test_guideline_d_requires_order(self):
        graph = fig_7_2_graph()
        with pytest.raises(ConvergenceError):
            MiroConvergenceSystem(
                graph, destinations=[1], demands=[TunnelDemand(4, 1, 2)],
                mode=GuidelineMode.GUIDELINE_D,
                ranker=GaoRexfordRanker(graph),
            )

    def test_bad_gadget_bgp_diverges(self):
        result = bad_gadget_bgp_system().run(max_rounds=60)
        assert not result.converged
        assert result.oscillating

    def test_random_fair_sequences_also_diverge(self):
        # random activation orders may or may not cycle exactly, but the
        # system must not report convergence
        for seed in range(3):
            result = fig_7_1_system(GuidelineMode.UNRESTRICTED).run(
                max_rounds=40, seed=seed
            )
            assert not result.converged


class TestSchedules:
    def test_proof_schedule_two_phases(self):
        graph = fig_7_1_graph()
        schedule = proof_schedule(graph)
        assert len(schedule) == 2
        assert schedule[0] == list(reversed(schedule[1]))

    def test_proof_schedule_converges_guideline_b_quickly(self):
        graph = fig_7_1_graph()
        system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
        result = system.run(max_rounds=10, schedule=proof_schedule(graph))
        assert result.converged
        # two constructive phases + one quiet verification round
        assert result.rounds <= 4

    def test_empty_schedule_is_rejected_by_name(self):
        system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
        with pytest.raises(ConvergenceError, match="schedule"):
            system.run(schedule=[])


class TestRandomTopologies:
    @pytest.mark.parametrize("mode", [
        GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_C,
        GuidelineMode.GUIDELINE_E,
    ])
    def test_guidelines_converge_on_random_graphs(self, mode):
        from repro.experiments import run_guideline_sweep

        outcomes = run_guideline_sweep(
            n_topologies=2, demands_per_topology=4, seed=3, modes=[mode]
        )
        assert outcomes[0].converged_runs == outcomes[0].runs

    def test_gao_rexford_bgp_always_converges(self):
        # Guideline A alone (no tunnels) on random hierarchical graphs
        for seed in range(3):
            graph = generate_topology(TINY, seed=seed)
            system = MiroConvergenceSystem(
                graph, destinations=graph.ases[:3], demands=[],
                mode=GuidelineMode.UNRESTRICTED,
                ranker=GaoRexfordRanker(graph),
            )
            result = system.run(max_rounds=80)
            assert result.converged

    def test_bgp_layer_matches_closed_form(self):
        """The activation simulator's stable BGP state equals the
        three-phase closed-form computation (the DESIGN.md ablation)."""
        from repro.bgp import compute_routes

        graph = generate_topology(TINY, seed=4)
        dest = graph.ases[0]
        system = MiroConvergenceSystem(
            graph, destinations=[dest], demands=[],
            mode=GuidelineMode.GUIDELINE_B,
            ranker=GaoRexfordRanker(graph),
        )
        result = system.run(max_rounds=100)
        assert result.converged
        table = compute_routes(graph, dest)
        for asn in graph.iter_ases():
            selection = result.selection(asn, dest)
            closed = table.best(asn)
            if selection is None:
                assert closed is None or closed.length == 0
                continue
            # same class and length (tie-breaks may differ)
            assert closed is not None
            assert len(selection.path) == len(closed.path), (
                selection.path, closed.path
            )


class TestProofSchedules:
    """The constructive activation orders of the Ch. 7 lemmas converge
    within their predicted number of phases (plus the quiet verification
    round the simulator needs to declare stability)."""

    def test_guideline_b_schedule(self):
        from repro.convergence import proof_schedule_guideline_b

        system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
        schedule = proof_schedule_guideline_b(system.graph)
        assert len(schedule) == 3
        result = system.run(max_rounds=10, schedule=schedule)
        assert result.converged
        assert result.rounds <= len(schedule) + 1

    def test_guideline_c_schedule(self):
        from repro.convergence import proof_schedule_guideline_c

        system = fig_7_1_system(GuidelineMode.GUIDELINE_C)
        schedule = proof_schedule_guideline_c(system.graph)
        assert len(schedule) == 4
        result = system.run(max_rounds=10, schedule=schedule)
        assert result.converged
        assert result.rounds <= len(schedule) + 1

    def test_strict_schedule_for_d_and_e(self):
        from repro.convergence import proof_schedule_strict

        for mode in (GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E):
            system = fig_7_2_system(mode)
            schedule = proof_schedule_strict(system.graph)
            result = system.run(max_rounds=10, schedule=schedule)
            assert result.converged
            assert result.rounds <= len(schedule) + 1

    def test_schedules_on_random_topologies(self):
        from repro.convergence import (
            GaoRexfordRanker,
            proof_schedule_guideline_b,
        )
        from repro.experiments.convergence import _random_demands
        import random

        for seed in range(3):
            graph = generate_topology(TINY, seed=seed)
            destinations, demands = _random_demands(
                graph, 4, random.Random(seed)
            )
            system = MiroConvergenceSystem(
                graph, destinations=destinations, demands=demands,
                mode=GuidelineMode.GUIDELINE_B,
                ranker=GaoRexfordRanker(graph),
            )
            schedule = proof_schedule_guideline_b(graph)
            result = system.run(max_rounds=12, schedule=schedule)
            assert result.converged


class TestTopologyEvents:
    """Link/AS events driven through the delta API mid-simulation."""

    def _system(self, graph, destination):
        return MiroConvergenceSystem(
            graph, [destination], [], GuidelineMode.GUIDELINE_B,
            GaoRexfordRanker(graph),
        )

    def test_event_withdraws_severed_selections(self):
        from repro.topology import TopologyDelta

        graph = generate_topology(TINY, seed=0)
        destination = graph.ases[0]
        system = self._system(graph, destination)
        assert system.run().converged
        severed = next(
            (s.path[0], s.path[1])
            for s in system.bgp.values()
            if s is not None and len(s.path) > 1
        )
        system.apply_event(TopologyDelta.link_down(*severed))
        assert system.bgp[(severed[0], destination)] is None

    def test_reconverges_after_event_and_revert(self):
        from repro.topology import TopologyDelta

        graph = generate_topology(TINY, seed=0)
        destination = graph.ases[0]
        system = self._system(graph, destination)
        assert system.run().converged
        routed = sum(1 for s in system.bgp.values() if s is not None)
        severed = next(
            (s.path[0], s.path[1])
            for s in system.bgp.values()
            if s is not None and len(s.path) > 1
        )
        applied = system.apply_event(TopologyDelta.link_down(*severed))
        assert system.run().converged
        applied.revert()
        assert system.run().converged
        assert sum(1 for s in system.bgp.values() if s is not None) == routed

    def test_event_selections_match_stable_state(self):
        from repro.bgp import compute_routes
        from repro.topology import TopologyDelta

        graph = generate_topology(TINY, seed=1)
        destination = graph.ases[0]
        system = self._system(graph, destination)
        assert system.run().converged
        a, b, _ = sorted(graph.iter_links())[0]
        system.apply_event(TopologyDelta.link_down(a, b))
        assert system.run().converged
        table = compute_routes(graph, destination)
        for asn in graph.ases:
            selection = system.bgp[(asn, destination)]
            route = table.best(asn)
            got = None if selection is None else selection.path
            want = None if route is None else route.path
            assert got == want, f"AS {asn}: {got} != {want}"
