"""Tests for the churn scenario builders and the sweep."""

import random

from repro.experiments.churn import (
    ChurnSweep,
    flap_storm_schedule,
    negotiation_race_schedule,
    rolling_deployment_schedule,
    run_churn_sweep,
)
from repro.miro import handshake_delay
from repro.topology.delta import DeltaOpKind
from repro.topology.generator import TINY, generate_topology


def test_flap_storm_schedule_shape():
    graph = generate_topology(TINY, seed=0)
    schedule = flap_storm_schedule(
        graph, n_links=3, flaps=2, period=4.0, start=10.0,
        rng=random.Random(0),
    )
    # 3 links x 2 flaps x (down + up)
    assert len(schedule) == 12
    downs = [t for t in schedule if t.delta.ops[0].kind is DeltaOpKind.LINK_DOWN]
    ups = [t for t in schedule if t.delta.ops[0].kind is DeltaOpKind.LINK_UP]
    assert len(downs) == len(ups) == 6
    assert min(t.time for t in schedule) == 10.0
    # repairs land half a period after their failure
    for down, up in zip(sorted(downs, key=lambda t: t.time)[:1],
                        sorted(ups, key=lambda t: t.time)[:1]):
        assert up.time - down.time == 2.0
    # the repair captured the pre-failure relationship up front
    assert all(op.relationship is not None
               for t in ups for op in t.delta.ops)


def test_flap_storm_is_seed_deterministic():
    graph = generate_topology(TINY, seed=0)
    one = flap_storm_schedule(graph, 2, 2, 4.0, 5.0, random.Random(3))
    two = flap_storm_schedule(graph, 2, 2, 4.0, 5.0, random.Random(3))
    assert one == two


def test_rolling_deployment_is_non_overlapping():
    graph = generate_topology(TINY, seed=1)
    schedule = rolling_deployment_schedule(
        graph, n_ases=3, outage=3.0, gap=2.0, start=0.0,
        rng=random.Random(1),
    )
    assert len(schedule) == 6
    windows = []
    for down, up in zip(schedule[::2], schedule[1::2]):
        assert down.delta.ops[0].kind is DeltaOpKind.AS_DOWN
        assert up.delta.ops[0].kind is DeltaOpKind.AS_UP
        assert up.delta.ops[0].a == down.delta.ops[0].a
        assert up.delta.ops[0].links  # adjacency captured up front
        windows.append((down.time, up.time))
    for (_, end), (start, _) in zip(windows, windows[1:]):
        assert start > end  # strictly sequential outages


def test_negotiation_race_targets_the_via_path():
    graph = generate_topology(TINY, seed=2)
    # find an AS pair with a routed multi-hop path
    from repro.bgp.routing import compute_routes

    requester = responder = None
    for dest in graph.ases:
        table = compute_routes(graph, dest)
        for source in table.routed_ases():
            path = table.default_path(source)
            if path and len(path) >= 2:
                requester, responder, first_link = source, dest, path[:2]
                break
        if requester is not None:
            break
    schedule = negotiation_race_schedule(
        graph, requester, responder, start=5.0, per_message=0.05,
        repair_after=2.0,
    )
    assert len(schedule) == 2
    fail, repair = schedule
    # the failure fires mid-handshake
    assert fail.time == 5.0 + handshake_delay(0.05) / 2
    assert repair.time == fail.time + 2.0
    op = fail.delta.ops[0]
    assert {op.a, op.b} == set(first_link)


def test_sweep_is_reproducible_and_jsonable():
    from repro.experiments import to_jsonable

    one = run_churn_sweep(n_topologies=1, demands_per_topology=3, seed=4)
    two = run_churn_sweep(n_topologies=1, demands_per_topology=3, seed=4)
    assert isinstance(one, ChurnSweep)
    assert one == two
    assert one.runs
    assert one.converged_runs == len(one.runs)
    scenarios = {run.scenario for run in one.runs}
    assert "flap_storm" in scenarios and "rolling" in scenarios
    document = to_jsonable(one)
    assert document["runs"][0]["scenario"] in scenarios
    # distributions derive from the runs
    assert one.recoveries() == sorted(r.max_recovery for r in one.runs)
    assert one.mean_recovery("flap_storm") >= 0.0


def test_sweep_seeds_shift_the_distribution_deterministically():
    a = run_churn_sweep(n_topologies=1, demands_per_topology=3, seed=4,
                        scenarios=("flap_storm",))
    b = run_churn_sweep(n_topologies=1, demands_per_topology=3, seed=5,
                        scenarios=("flap_storm",))
    assert all(run.scenario == "flap_storm" for run in a.runs + b.runs)
    # different seeds sample different topologies/links; both reproducible
    assert a == run_churn_sweep(n_topologies=1, demands_per_topology=3,
                                seed=4, scenarios=("flap_storm",))


def test_export_results_includes_churn(tmp_path):
    import json

    from repro.experiments import export_results
    from repro.topology.generator import generate_topology as gen

    graph = gen(TINY, seed=0)
    target = tmp_path / "results.json"
    document = export_results(
        graph, name="tiny", seed=0, n_destinations=3,
        sources_per_destination=3, n_stubs=3, path=target,
    )
    assert "churn" in document
    entry = document["churn"]
    assert entry["runs"]
    assert entry["converged_runs"] >= 0
    assert isinstance(entry["recovery_times"], list)
    assert "mean_recovery" in entry
    # and it round-trips through the JSON file
    loaded = json.loads(target.read_text())
    assert loaded["churn"]["runs"] == entry["runs"]
