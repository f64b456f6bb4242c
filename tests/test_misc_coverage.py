"""Edge-case tests across modules: error branches, reprs, small helpers."""

import pytest

from repro.errors import (
    PolicySyntaxError,
    ReproError,
    RoutingError,
    TopologyError,
    UnknownASError,
)

from conftest import B, C, E, F


class TestErrors:
    def test_hierarchy_single_root(self):
        assert issubclass(UnknownASError, TopologyError)
        assert issubclass(TopologyError, ReproError)
        assert issubclass(RoutingError, ReproError)

    def test_unknown_as_records_asn(self):
        error = UnknownASError(42)
        assert error.asn == 42
        assert "42" in str(error)

    def test_policy_syntax_error_line_number(self):
        with_line = PolicySyntaxError("bad", line_number=3)
        assert "line 3" in str(with_line)
        without = PolicySyntaxError("bad")
        assert without.line_number is None
        assert str(without) == "bad"


class TestGeneratorEdgeCases:
    def test_no_room_for_stubs(self):
        from repro.topology import TopologyProfile, generate_topology

        profile = TopologyProfile(
            "cramped", n_ases=20, n_tier1=5,
            tier2_fraction=0.4, tier3_fraction=0.35,
        )
        with pytest.raises(TopologyError):
            generate_topology(profile)

    def test_profiles_are_frozen(self):
        from repro.topology import SMALL

        with pytest.raises(AttributeError):
            SMALL.n_ases = 10  # type: ignore[misc]


class TestRouteReprs:
    def test_graph_repr(self, paper_graph):
        assert "ASGraph" in repr(paper_graph)
        assert "n=6" in repr(paper_graph)

    def test_routing_table_repr(self, paper_graph):
        from repro.bgp import compute_routes

        table = compute_routes(paper_graph, F)
        text = repr(table)
        assert "dest=6" in text and "6/6" in text


class TestEngineEdgeCases:
    def test_update_dataclass(self):
        from repro.bgp import Update

        withdraw = Update(sender=1, receiver=2, destination=6, route=None)
        assert withdraw.is_withdrawal

    def test_best_paths_empty_before_origination(self, paper_graph):
        from repro.bgp import EventDrivenBGP

        engine = EventDrivenBGP(paper_graph)
        assert engine.best_paths(F) == {}

    def test_restore_triggers_readvertisement_both_ways(self, paper_graph):
        from repro.bgp import EventDrivenBGP

        engine = EventDrivenBGP(paper_graph)
        engine.originate(F)
        engine.run()
        engine.fail_link(B, E)
        engine.run()
        b_during = engine.best(B, F)
        assert b_during.path == (B, C, F)  # fell back to the peer route
        engine.restore_link(B, E)
        engine.run()
        assert engine.best(B, F).path == (B, E, F)


class TestIntraEdgeCases:
    def test_exit_links_filter_by_router(self):
        from repro.intra import ASNetwork

        network = ASNetwork(asn=1)
        network.add_router("r1", router_id=1, is_edge=True)
        network.add_router("r2", router_id=2, is_edge=True)
        network.add_exit_link("r1", 9, "l1")
        network.add_exit_link("r2", 9, "l2")
        assert [l.link_name for l in network.exit_links("r1")] == ["l1"]
        assert len(network.exit_links()) == 2

    def test_known_paths_before_run_is_empty(self):
        from repro.intra import ASNetwork

        network = ASNetwork(asn=1)
        network.add_router("r1", router_id=1, is_edge=True)
        assert network.known_paths("r1", "1.2.0.0/16") == []

    def test_selected_paths_empty_before_run(self):
        from repro.intra import ASNetwork

        network = ASNetwork(asn=1)
        network.add_router("r1", router_id=1, is_edge=True)
        assert network.selected_paths() == set()


class TestDataplaneEdgeCases:
    def test_prefix_exact_miss(self):
        from repro.dataplane import IPv4Prefix, PrefixTable

        table = PrefixTable()
        table.insert(IPv4Prefix.parse("10.0.0.0/8"), 1)
        assert table.exact(IPv4Prefix.parse("10.0.0.0/16")) is None
        assert table.exact(IPv4Prefix.parse("11.0.0.0/8")) is None

    def test_default_route_lookup_on_empty_table(self):
        from repro.dataplane import PrefixTable, parse_ipv4

        table = PrefixTable()
        assert table.lookup(parse_ipv4("1.2.3.4")) is None

    def test_prefix_str_and_bounds(self):
        from repro.dataplane import IPv4Prefix

        prefix = IPv4Prefix.parse("0.0.0.0/0")
        assert str(prefix) == "0.0.0.0/0"
        assert prefix.contains(0)
        assert prefix.contains(2 ** 32 - 1)


class TestSelectionModel:
    def test_selection_accessors(self):
        from repro.convergence import Selection

        selection = Selection((1, 2, 3), is_tunnel=True, first_downstream=2)
        assert selection.holder == 1
        assert selection.destination == 3
        assert selection.first_downstream == 2

    def test_fingerprint_changes_with_state(self):
        from repro.convergence import GuidelineMode, fig_7_1_system

        system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
        before = system.fingerprint()
        system.run(max_rounds=20)
        after = system.fingerprint()
        assert before != after


class TestJSONExport:
    def test_export_is_json_serialisable(self, small_graph, tmp_path):
        import json

        from repro.experiments import export_results

        target = tmp_path / "results.json"
        document = export_results(
            small_graph, "small", seed=1,
            n_destinations=4, sources_per_destination=4, n_stubs=3,
            path=target,
        )
        assert target.exists()
        parsed = json.loads(target.read_text())
        assert parsed["name"] == "small"
        assert "table_5_2" in parsed
        assert parsed["table_5_2"]["single_path"] <= parsed["table_5_2"][
            "multi_flexible"
        ]
        assert set(parsed["fig_5_4"]) == {"/s", "/e", "/a"}
        assert document["seed"] == 1

    def test_to_jsonable_handles_enums_and_tuples(self):
        from repro.experiments import to_jsonable
        from repro.miro import ExportPolicy

        data = {ExportPolicy.STRICT: ((1, 2), {"x": ExportPolicy.FLEXIBLE})}
        converted = to_jsonable(data)
        assert converted == {"/s": [[1, 2], {"x": "/a"}]}
