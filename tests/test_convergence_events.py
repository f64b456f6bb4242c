"""Round/event equivalence and churn semantics for the event engine.

The public contract: on zero-delay schedules ``run_events`` reaches a
``final_state`` byte-identical to the round-based ``run`` across all
five guideline modes (it is the same fair-round loop, on a clock), and
under real delays the arrival-driven regime — genuinely different code —
is held to that same state.  Plus: seeded asynchronous determinism,
divergence under delays still hits the budget, and mid-run churn keeps
the delta journal consistent and re-converges to the oracle's post-flap
state.
"""

import pickle
import random

import pytest

from repro.bgp.routing import compute_routes
from repro.convergence import (
    GaoRexfordRanker,
    GuidelineMode,
    MiroConvergenceSystem,
    bad_gadget_bgp_system,
    fig_7_1_system,
    fig_7_2_system,
    run_churn,
)
from repro.events import SYNCHRONOUS, DelayModel
from repro.topology import Relationship, TimedDelta, TopologyDelta
from repro.topology.generator import TINY, generate_topology

ALL_MODES = list(GuidelineMode)


# ----------------------------------------------------------------------
# byte-identical equivalence on synchronous schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("factory", [fig_7_1_system, fig_7_2_system],
                         ids=["fig7.1", "fig7.2"])
def test_event_mode_matches_round_mode_byte_identical(factory, mode):
    round_result = factory(mode).run()
    event_result = factory(mode).run_events(delays=SYNCHRONOUS)
    assert pickle.dumps(event_result.final_state) == pickle.dumps(
        round_result.final_state
    )
    assert event_result.converged == round_result.converged
    assert event_result.rounds == round_result.rounds
    assert event_result.oscillating == round_result.oscillating


def test_seeded_shuffles_share_one_stream():
    """Same seed -> same shuffled activation orders in both engines."""
    for seed in (1, 7, 42):
        round_result = fig_7_2_system(GuidelineMode.GUIDELINE_D).run(seed=seed)
        event_result = fig_7_2_system(GuidelineMode.GUIDELINE_D).run_events(
            seed=seed
        )
        assert event_result.final_state == round_result.final_state
        assert event_result.rounds == round_result.rounds


def _random_demand_system(mode, seed=3, n_demands=6):
    """A seeded ``TINY`` topology with random tunnel demands."""
    from repro.experiments.convergence import _orders_for, _random_demands

    graph = generate_topology(TINY, seed=seed)
    destinations, demands = _random_demands(
        graph, n_demands, random.Random(seed)
    )
    orders = _orders_for(demands) if mode is GuidelineMode.GUIDELINE_D \
        else None
    return MiroConvergenceSystem(
        graph, destinations=destinations, demands=demands, mode=mode,
        ranker=GaoRexfordRanker(graph), partial_orders=orders,
    )


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize(
    "mode", [GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_D],
    ids=lambda m: m.value,
)
def test_equivalence_on_random_topology_with_demands(mode, seed):
    round_result = _random_demand_system(mode).run(seed=seed)
    event_result = _random_demand_system(mode).run_events(
        delays=SYNCHRONOUS, seed=seed
    )
    assert round_result.converged
    assert event_result.final_state == round_result.final_state
    assert (
        event_result.converged, event_result.rounds, event_result.oscillating,
        event_result.activations,
    ) == (
        round_result.converged, round_result.rounds, round_result.oscillating,
        round_result.activations,
    )


def test_event_result_reports_sim_time_and_activations():
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run_events()
    assert result.converged
    # 3 rounds at the default 1 s MRAI: waves at t=0, 1, 2
    assert result.sim_time == 2.0
    assert result.activations == 3 * 4  # three rounds, four ASes
    # round mode counts the same work and has no clock
    round_result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run()
    assert round_result.sim_time == 0.0
    assert round_result.activations == 3 * 4
    slow = fig_7_1_system(GuidelineMode.GUIDELINE_B).run_events(
        delays=DelayModel(mrai=2.5)
    )
    assert slow.sim_time == 5.0


def test_tripped_max_events_reports_the_rounds_actually_run():
    """Under zero delays one fair round is one event: a tripped
    ``max_events`` stops the run there and says so."""
    result = fig_7_1_system(GuidelineMode.UNRESTRICTED).run_events(
        delays=SYNCHRONOUS, max_events=1, seed=3
    )
    assert result.rounds == 1
    assert result.activations == 4
    assert result.converged is False
    assert result.oscillating is False
    assert result.sim_time == 0.0


# ----------------------------------------------------------------------
# asynchronous regime
# ----------------------------------------------------------------------
_JITTERED = DelayModel(link_delay=0.1, link_jitter=0.05,
                       negotiation_delay=0.2, activation_jitter=0.3)


@pytest.mark.parametrize("run_seed", [0, 1, 2])
@pytest.mark.parametrize(
    "mode",
    [GuidelineMode.GUIDELINE_B, GuidelineMode.GUIDELINE_C,
     GuidelineMode.GUIDELINE_D, GuidelineMode.GUIDELINE_E],
    ids=lambda m: m.value,
)
@pytest.mark.parametrize(
    "factory", [fig_7_1_system, fig_7_2_system, _random_demand_system],
    ids=["fig7.1", "fig7.2", "tiny-random"],
)
def test_async_converges_to_round_mode_state(factory, mode, run_seed):
    """The oracle: arrival-driven activations under jittered delays —
    code that shares nothing with the fair-round loop but ``activate`` —
    settle on the round loop's ``final_state`` under every guideline."""
    expected = factory(mode).run()
    assert expected.converged
    result = factory(mode).run_events(delays=_JITTERED, seed=run_seed)
    assert result.converged
    assert result.final_state == expected.final_state
    assert result.sim_time > 0.0


def test_async_is_deterministic_under_one_seed():
    delays = DelayModel(link_delay=0.1, link_jitter=0.05,
                        activation_jitter=0.3)
    results = [
        fig_7_2_system(GuidelineMode.GUIDELINE_E).run_events(
            delays=delays, seed=99
        )
        for _ in range(2)
    ]
    assert results[0] == results[1]
    different = fig_7_2_system(GuidelineMode.GUIDELINE_E).run_events(
        delays=delays, seed=100
    )
    # a different seed may converge elsewhere in time, never in state
    assert different.final_state == results[0].final_state


def test_async_divergent_gadget_trips_budget():
    delays = DelayModel(link_delay=0.1, mrai=0.5)
    result = bad_gadget_bgp_system().run_events(delays=delays, max_rounds=25)
    assert not result.converged
    assert not result.oscillating  # no cycle proof in the async regime
    assert result.activations >= 25  # the budget, not an early stall


def test_per_as_mrai_overrides_slow_one_as():
    delays = DelayModel(link_delay=0.1, mrai=1.0, mrai_overrides=((1, 5.0),))
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run_events(
        delays=delays
    )
    assert result.converged
    expected = fig_7_1_system(GuidelineMode.GUIDELINE_B).run().final_state
    assert result.final_state == expected


# ----------------------------------------------------------------------
# apply_event mid-run: journal consistency + oracle re-convergence
# ----------------------------------------------------------------------
def test_mid_run_flap_keeps_journal_consistent_and_reconverges():
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    graph = system.graph
    version_start = graph.version
    repair = TopologyDelta.link_restore(graph, 1, 4)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4)),
         TimedDelta(6.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged
    assert churn.injections == 2
    assert len(churn.applied) == 2
    # the version journal advanced once per applied delta and the graph
    # reports exactly the flapped link as changed since the start
    down, up = churn.applied
    assert down.changed_links == frozenset({(1, 4)})
    assert up.changed_links == frozenset({(1, 4)})
    assert graph.version == up.version_after
    assert graph.has_link(1, 4)
    # reverting the records in reverse order walks the journal back to
    # the pre-churn version (transaction stack consistency)
    up.revert()
    assert graph.version == down.version_after
    down.revert()
    assert graph.version == version_start
    assert graph.has_link(1, 4)


def test_post_flap_state_matches_oracle():
    """After a flap storm settles, the BGP layer equals compute_routes."""
    graph = generate_topology(TINY, seed=5)
    destinations = graph.ases[:3]
    system = MiroConvergenceSystem(
        graph, destinations=destinations, demands=[],
        mode=GuidelineMode.GUIDELINE_B, ranker=GaoRexfordRanker(graph),
    )
    links = sorted((a, b) for a, b, _rel in graph.iter_links())
    a, b = links[0]
    repair = TopologyDelta.link_restore(graph, a, b)
    churn = run_churn(
        system,
        [TimedDelta(3.0, TopologyDelta.link_down(a, b)),
         TimedDelta(6.0, repair),
         TimedDelta(8.0, TopologyDelta.link_down(a, b)),
         TimedDelta(11.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
        max_rounds=500,
    )
    assert churn.converged
    for dest in destinations:
        table = compute_routes(graph, dest)
        for asn in graph.ases:
            selection = system.bgp[(asn, dest)]
            route = table.best(asn)
            if route is None:
                assert selection is None
            else:
                assert selection is not None
                # class and length agree with the closed-form oracle
                assert len(selection.path) == len(route.path)


def test_unconverged_flap_leaves_withdrawals_pending():
    """A failure with no repair withdraws the severed selections for good."""
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4))],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged  # quiescent, just with fewer routes
    assert not system.graph.has_link(1, 4)
    for key, selection in system.effective.items():
        if selection is None:
            continue
        path = selection.path
        assert not any(
            {path[i], path[i + 1]} == {1, 4} for i in range(len(path) - 1)
        )


def test_as_joining_mid_run_gets_rows_and_a_timer():
    """Incremental deployment: a new AS homes onto A while the run is live."""
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    graph = system.graph
    version_start = graph.version
    churn = run_churn(
        system,
        [TimedDelta(5.0, TopologyDelta.as_up(
            5, ((1, Relationship.PROVIDER),)
        ))],
        delays=DelayModel(link_delay=0.1),
    )
    assert churn.converged
    joined = churn.final_state[(5, 4)]
    assert joined is not None and joined.path[0] == 5 and joined.path[-1] == 4
    assert system.bgp[(5, 4)] is not None
    (applied,) = churn.applied
    applied.revert()
    assert graph.version == version_start
    assert 5 not in graph


def test_churn_recovery_times_are_recorded():
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    repair = TopologyDelta.link_restore(system.graph, 1, 4)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4)),
         TimedDelta(30.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged
    times = dict(churn.recovery_times)
    # well-separated injections get their own quiescence instants
    assert set(times) == {0, 1}
    assert times[0] < 28.0  # the failure settled before the repair fired
    assert churn.max_recovery == max(times.values())
