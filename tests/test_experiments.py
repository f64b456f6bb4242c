"""Tests for the experiment harness (sampling, per-figure runners, report)."""

import pytest

from repro.miro import ExportPolicy
from repro.experiments import (
    DATASETS,
    SMALL_DATASET,
    degree_distribution,
    fraction_at_least,
    heavy_tail_summary,
    percent,
    render_series,
    render_table,
    run_counterexamples,
    run_diversity,
    run_guideline_sweep,
    run_incremental_deployment,
    run_negotiation_state,
    run_success_rates,
    run_traffic_control,
    sample_pairs,
    sample_triples,
    table_5_1_rows,
)


@pytest.fixture(scope="module")
def small():
    return SMALL_DATASET.build()


class TestSampling:
    def test_pairs_are_routed(self, small):
        for pair in sample_pairs(small, 4, 5, seed=1):
            assert pair.table.reachable(pair.source)
            assert pair.source != pair.destination

    def test_pairs_deterministic(self, small):
        a = [(p.source, p.destination) for p in sample_pairs(small, 4, 5, seed=1)]
        b = [(p.source, p.destination) for p in sample_pairs(small, 4, 5, seed=1)]
        assert a == b

    def test_triples_constraints(self, small):
        for triple in sample_triples(small, 4, 5, seed=1):
            path = triple.table.default_path(triple.source)
            assert triple.avoid in path[1:-1]
            assert not small.has_link(triple.source, triple.avoid)

    def test_fraction_at_least(self):
        assert fraction_at_least([0.1, 0.2, 0.3], 0.2) == pytest.approx(2 / 3)
        assert fraction_at_least([], 0.5) == 0.0


class TestTable51:
    def test_four_rows(self):
        rows = table_5_1_rows()
        assert [r.name for r in rows] == [d.name for d in DATASETS]

    def test_growth_over_years(self):
        rows = {r.name: r for r in table_5_1_rows()}
        assert rows["Gao 2000"].n_ases < rows["Gao 2003"].n_ases
        assert rows["Gao 2003"].n_ases < rows["Gao 2005"].n_ases
        assert rows["Gao 2000"].n_links < rows["Gao 2005"].n_links

    def test_link_classes_ordered_like_paper(self):
        for row in table_5_1_rows():
            assert row.n_customer_provider > row.n_peering > row.n_sibling


class TestFig51:
    def test_distribution_shape(self, small):
        from repro.topology import mean_degree

        dist = degree_distribution(small, "small")
        assert dist.max_degree > 4 * mean_degree(small)
        assert dist.fraction_core < 0.15  # few very-high-degree nodes
        assert dist.ccdf[0][1] == 1.0

    def test_heavy_tail(self, small):
        summary = heavy_tail_summary(small)
        assert summary["top1pct_link_share"] > 0.03


class TestFig52:
    def test_six_series(self, small):
        series = run_diversity(small, n_destinations=4,
                               sources_per_destination=6, seed=2)
        assert set(series) == {
            "1-hop/s", "1-hop/e", "1-hop/a", "path/s", "path/e", "path/a"
        }

    def test_policy_monotonicity_per_pair(self, small):
        series = run_diversity(small, n_destinations=4,
                               sources_per_destination=6, seed=2)
        for scope in ("1-hop", "path"):
            strict = series[f"{scope}/s"].counts
            export = series[f"{scope}/e"].counts
            flexible = series[f"{scope}/a"].counts
            assert all(s <= e <= a for s, e, a in zip(strict, export, flexible))

    def test_summary_statistics(self, small):
        series = run_diversity(small, n_destinations=4,
                               sources_per_destination=6, seed=2)
        curve = series["1-hop/a"]
        assert 0.0 <= curve.fraction_no_alternate <= 1.0
        assert curve.median >= 1
        assert curve.quantile(0.75) >= curve.median


class TestTables52And53:
    def test_success_ordering(self, small):
        rates = run_success_rates(small, "small", n_destinations=6,
                                  sources_per_destination=8, seed=1)
        assert rates.n_triples > 10
        assert rates.single_path < rates.multi_strict
        assert rates.multi_strict <= rates.multi_export
        assert rates.multi_export <= rates.multi_flexible
        assert rates.multi_flexible <= rates.source_routing

    def test_negotiation_state_trends(self, small):
        rows = run_negotiation_state(small, n_destinations=6,
                                     sources_per_destination=8, seed=1)
        strict, export, flexible = rows
        # relaxing the policy cannot reduce success
        assert strict.success_rate <= export.success_rate <= flexible.success_rate
        # ...and yields at least as many candidate paths per tuple
        assert strict.paths_per_tuple <= flexible.paths_per_tuple
        # ...while contacting no more ASes
        assert flexible.ases_per_tuple <= strict.ases_per_tuple + 1e-9

    def test_rows_render(self, small):
        rows = run_negotiation_state(small, n_destinations=4,
                                     sources_per_destination=5, seed=1)
        text = render_table(
            ["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"],
            [r.as_row() for r in rows],
        )
        assert "strict/s" in text and "flexible/a" in text


class TestFig54:
    def test_monotone_in_fraction(self, small):
        curve = run_incremental_deployment(
            small, n_destinations=5, sources_per_destination=6, seed=1
        )
        series = curve.series(ExportPolicy.FLEXIBLE)
        ratios = [r for _, r in series]
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0)

    def test_top_beats_bottom(self, small):
        top = run_incremental_deployment(
            small, fractions=(0.05,), n_destinations=5,
            sources_per_destination=6, seed=1, strategy="top-degree",
        )
        bottom = run_incremental_deployment(
            small, fractions=(0.05,), n_destinations=5,
            sources_per_destination=6, seed=1, strategy="bottom-degree",
        )
        top_ratio = top.series(ExportPolicy.FLEXIBLE)[0][1]
        bottom_ratio = bottom.series(ExportPolicy.FLEXIBLE)[0][1]
        assert top_ratio > bottom_ratio

    def test_unknown_strategy(self, small):
        with pytest.raises(ValueError):
            run_incremental_deployment(small, strategy="alphabetical")


class TestFig56:
    def test_curves_and_bounds(self, small):
        result = run_traffic_control(small, n_stubs=6, seed=2)
        assert result.n_stubs == 6
        for (policy, model), curve in result.curves.items():
            for threshold, fraction in curve.points((0.1, 0.5)):
                assert 0.0 <= fraction <= 1.0
        # convert_all bounds independent_selection from above (per stub)
        for policy in ("/s", "/a"):
            convert = result.curves[(policy, "convert")].best_fractions
            independent = result.curves[(policy, "independent")].best_fractions
            assert all(c >= i - 0.25 for c, i in zip(convert, independent))

    def test_power_node_profile(self, small):
        result = run_traffic_control(small, n_stubs=6, seed=2)
        if result.profile is not None:
            assert 0 <= result.profile.fraction_high_degree <= 1
            assert result.profile.mean_degree > 0


class TestCh7:
    def test_counterexample_matrix(self):
        outcomes = run_counterexamples(max_rounds=60)
        by_key = {(o.figure, o.mode.value): o for o in outcomes}
        assert not by_key[("7.1", "unrestricted")].converged
        assert not by_key[("7.2", "unrestricted")].converged
        for figure in ("7.1", "7.2"):
            for mode in ("B", "C", "D", "E"):
                assert by_key[(figure, mode)].converged

    def test_sweep_converges(self):
        outcomes = run_guideline_sweep(n_topologies=2, demands_per_topology=3,
                                       seed=5)
        for outcome in outcomes:
            assert outcome.converged_runs == outcome.runs


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_render_series_truncates(self):
        points = [(i, i / 100) for i in range(100)]
        text = render_series("curve", points, max_points=5)
        assert text.count("(") == 5

    def test_percent(self):
        assert percent(0.125) == "12.5%"


class TestPathLengths:
    def test_mean_close_to_paper(self):
        """The generator is calibrated to the paper's 'average AS path
        length is only 4' (§7.4)."""
        from repro.experiments import path_length_stats
        from repro.topology import GAO_2005, generate_topology

        stats = path_length_stats(
            generate_topology(GAO_2005, seed=2005), n_destinations=6
        )
        assert 3.0 < stats.mean < 5.0
        assert stats.max_length <= 9

    def test_fraction_at_most_monotone(self, small):
        from repro.experiments import path_length_stats

        stats = path_length_stats(small, n_destinations=5)
        previous = 0.0
        for hops in range(1, stats.max_length + 1):
            current = stats.fraction_at_most(hops)
            assert current >= previous
            previous = current
        assert stats.fraction_at_most(stats.max_length) == pytest.approx(1.0)

    def test_empty_histogram(self):
        from repro.experiments import PathLengthStats

        stats = PathLengthStats(mean=0.0, histogram={}, max_length=0)
        assert stats.fraction_at_most(5) == 0.0


class TestForcedTrafficModel:
    def test_forced_curve_between_bounds(self, small):
        result = run_traffic_control(
            small, n_stubs=5, seed=3, include_forced=True
        )
        for policy in ("/s", "/a"):
            convert = result.curves[(policy, "convert")].best_fractions
            forced = result.curves[(policy, "forced")].best_fractions
            independent = result.curves[(policy, "independent")].best_fractions
            for c, f, i in zip(convert, forced, independent):
                assert i - 1e-9 <= f <= c + 1e-9

    def test_section_5_4_numbers_do_not_move(self, small):
        """Every curve of the §5.4 run, pinned what-if tables included,
        at the points recorded before those tables left the session
        cache."""
        result = run_traffic_control(small, seed=0, include_forced=True)
        thresholds = (0.05, 0.10, 0.15, 0.25, 0.35, 0.50)
        expected = {
            ("/a", "convert"): (1.0, 1.0, 0.96, 0.88, 0.52, 0.32),
            ("/a", "forced"): (1.0, 1.0, 0.96, 0.64, 0.36, 0.24),
            ("/a", "independent"): (1.0, 0.92, 0.76, 0.44, 0.28, 0.2),
            ("/s", "convert"): (1.0, 0.92, 0.8, 0.64, 0.36, 0.2),
            ("/s", "forced"): (1.0, 0.92, 0.76, 0.44, 0.28, 0.2),
            ("/s", "independent"): (0.96, 0.64, 0.52, 0.32, 0.28, 0.2),
        }
        assert {
            key: curve.points(thresholds)
            for key, curve in result.curves.items()
        } == {
            key: list(zip(thresholds, fractions))
            for key, fractions in expected.items()
        }

    def test_forced_absent_by_default(self, small):
        result = run_traffic_control(small, n_stubs=3, seed=3)
        assert all(model != "forced" for _, model in result.curves)
