"""Tests for the failure-sweep experiment (BGP vs MIRO recovery)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_failure_sweep
from repro.experiments import export_results
from repro.miro import ExportPolicy
from repro.session import SimulationSession
from repro.topology import TINY, generate_topology


@pytest.fixture(scope="module")
def sweep_and_session():
    graph = generate_topology(TINY, seed=0)
    session = SimulationSession(graph, parallel=False)
    sweep = run_failure_sweep(
        graph, "tiny", n_events=10, as_failure_fraction=0.3, seed=0,
        session=session,
    )
    return sweep, session, graph


class TestSweepMechanics:
    def test_event_counts_add_up(self, sweep_and_session):
        sweep, _, _ = sweep_and_session
        assert sweep.n_link_events + sweep.n_as_events == 10
        assert len(sweep.events) == 10 * 5  # events x destinations

    def test_graph_restored_after_sweep(self, sweep_and_session):
        _, _, graph = sweep_and_session
        fresh = generate_topology(TINY, seed=0)
        assert sorted(graph.iter_links()) == sorted(fresh.iter_links())

    def test_rates_are_fractions(self, sweep_and_session):
        sweep, _, _ = sweep_and_session
        assert 0.0 <= sweep.bgp_recovery_rate <= 1.0
        for policy in ExportPolicy:
            assert 0.0 <= sweep.miro_recovery_rate(policy) <= 1.0
        assert 0.0 <= sweep.mean_affected_fraction <= 1.0

    def test_recoveries_never_exceed_disruptions(self, sweep_and_session):
        sweep, _, _ = sweep_and_session
        for event in sweep.events:
            assert event.bgp_recovered <= event.disrupted
            for count in event.miro_recovered.values():
                assert count <= event.disrupted

    def test_flexible_offers_at_least_strict_recovery(self, sweep_and_session):
        sweep, _, _ = sweep_and_session
        assert sweep.miro_recovery_rate(ExportPolicy.FLEXIBLE) >= (
            sweep.miro_recovery_rate(ExportPolicy.STRICT)
        )

    def test_post_failure_tables_are_derived(self, sweep_and_session):
        _, session, _ = sweep_and_session
        stats = session.stats
        assert stats["tables_derived"] > 0
        assert stats["tables_derived"] > stats["tables_computed"]

    def test_as_rows_cover_all_schemes(self, sweep_and_session):
        sweep, _, _ = sweep_and_session
        rows = dict(sweep.as_rows())
        assert "bgp re-converged" in rows
        for policy in ExportPolicy:
            assert f"miro {policy.label}" in rows

    def test_deterministic_for_a_seed(self, sweep_and_session):
        sweep, _, graph = sweep_and_session
        again = run_failure_sweep(
            graph, "tiny", n_events=10, as_failure_fraction=0.3, seed=0,
        )
        assert again.events == sweep.events


class TestValidation:
    def test_zero_events_rejected(self, paper_graph):
        with pytest.raises(ExperimentError):
            run_failure_sweep(paper_graph, n_events=0)

    def test_bad_fraction_rejected(self, paper_graph):
        with pytest.raises(ExperimentError):
            run_failure_sweep(paper_graph, as_failure_fraction=1.5)


class TestExportIntegration:
    def test_export_results_includes_failure_sweep(self, paper_graph):
        document = export_results(
            paper_graph, "paper", n_destinations=3,
            sources_per_destination=3, n_stubs=2,
        )
        entry = document["failure_sweep"]
        assert entry["n_link_events"] + entry["n_as_events"] > 0
        assert "bgp_recovery_rate" in entry
        assert set(entry["miro_recovery_rates"]) == {
            policy.label for policy in ExportPolicy
        }
        assert "mean_affected_fraction" in entry
        assert entry["events"]
