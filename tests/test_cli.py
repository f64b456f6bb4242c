"""Tests for the command-line interface."""

import argparse
import re

import pytest

from repro import cli
from repro.cli import main


def _commands(parser, prefix=()):
    """Every runnable command path under ``parser``, e.g. ``bench compare``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix)


def test_module_docstring_lists_exactly_the_parsers_commands():
    documented = re.findall(
        r"^    repro ([a-z-]+(?: [a-z-]+)*?)(?:  |$)", cli.__doc__, re.M
    )
    assert sorted(documented) == sorted(_commands(cli.build_parser()))


#: The least each command needs on its line to parse.
_REQUIRED = {
    "route": ["--destination", "1"],
    "avoid": ["--source", "1", "--destination", "2", "--avoid", "3"],
    "experiment": ["ch7"],
    "bench compare": ["baseline.json", "current.json"],
}


@pytest.mark.parametrize("command", sorted(_commands(cli.build_parser())))
def test_kernel_is_no_flag_on_any_command(command, capsys):
    """``REPRO_KERNEL`` is the one kernel selector: ``--kernel`` is an
    argparse error everywhere."""
    argv = command.split() + _REQUIRED.get(command, [])
    cli.build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--kernel", "scalar"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err


class TestTopologyCommand:
    def test_summary_printed(self, capsys):
        assert main(["topology", "--profile", "tiny", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ASes:" in out and "peering:" in out

    def test_dump_and_reload(self, tmp_path, capsys):
        target = tmp_path / "topo.txt"
        assert main([
            "topology", "--profile", "tiny", "--seed", "1",
            "--out", str(target),
        ]) == 0
        assert target.exists()
        assert main(["topology", "--topology", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.count("name:") == 2
        assert out.count("links:") == 2

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "--profile", "nope"])


class TestRouteCommand:
    def test_single_source(self, capsys):
        assert main([
            "route", "--profile", "tiny", "--seed", "1",
            "--destination", "1", "--source", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "->" in out

    def test_table_listing(self, capsys):
        assert main([
            "route", "--profile", "tiny", "--seed", "1",
            "--destination", "1", "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5


class TestAvoidCommand:
    def _triple(self):
        from repro.bgp import compute_routes
        from repro.topology import generate_named

        graph = generate_named("tiny", seed=1)
        for destination in graph.ases:
            table = compute_routes(graph, destination)
            for source in table.routed_ases():
                path = table.default_path(source)
                if path and len(path) >= 3:
                    for avoid in path[1:-1]:
                        if not graph.has_link(source, avoid):
                            return source, destination, avoid
        pytest.skip("no eligible triple in the tiny topology")

    def test_avoid_runs(self, capsys):
        source, destination, avoid = self._triple()
        code = main([
            "avoid", "--profile", "tiny", "--seed", "1",
            "--source", str(source), "--destination", str(destination),
            "--avoid", str(avoid), "--policy", "/a", "--max-depth", "2",
        ])
        out = capsys.readouterr().out
        assert "default path:" in out
        assert "MIRO /a:" in out
        assert code in (0, 2)

    def test_bad_policy_label(self, capsys):
        source, destination, avoid = self._triple()
        code = main([
            "avoid", "--profile", "tiny", "--seed", "1",
            "--source", str(source), "--destination", str(destination),
            "--avoid", str(avoid), "--policy", "/zz",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    @pytest.mark.parametrize("which", [
        "table5.2", "table5.3", "fig5.2", "ch7",
    ])
    def test_experiments_run_on_small(self, which, capsys):
        assert main([
            "experiment", "--profile", "small", "--seed", "2", which,
        ]) == 0
        assert capsys.readouterr().out.strip()

    def test_overhead(self, capsys):
        assert main([
            "experiment", "--profile", "small", "--seed", "2", "overhead",
        ]) == 0
        out = capsys.readouterr().out
        assert "vs BGP" in out


class TestFailureSweepCommand:
    def test_sweep_prints_recovery_table(self, capsys):
        assert main([
            "failure-sweep", "--profile", "tiny", "--seed", "1",
            "--events", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "failure sweep on tiny" in out
        assert "bgp re-converged" in out
        assert "miro strict/s" in out
        assert "miro flexible/a" in out
        assert "mean affected-set fraction:" in out

    def test_stats_report_derived_tables(self, capsys):
        assert main([
            "failure-sweep", "--profile", "tiny", "--seed", "1",
            "--events", "4", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "  tables_derived: " in out
        assert "  tables_computed: " in out

    def test_event_count_honoured(self, capsys):
        assert main([
            "failure-sweep", "--profile", "tiny", "--seed", "3",
            "--events", "6", "--as-fraction", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 link / 6 AS failures" in out

    def test_zero_events_is_an_error(self, capsys):
        assert main([
            "failure-sweep", "--profile", "tiny", "--events", "0",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestConvergeCommand:
    def test_event_engine_with_delays(self, capsys):
        assert main([
            "converge", "--figure", "7.2", "--mode", "E",
            "--link-delay", "0.1", "--mrai", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim_time=" in out
        assert "converged" in out

    def test_zero_delays_print_the_fair_round_table(self, capsys):
        assert main(["converge", "--figure", "7.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(
            "unrestricted: OSCILLATES (5 rounds) sim_time=4 activations=20"
        )
        assert [line.split(": ")[1] for line in lines[1:]] == [
            "converged (3 rounds) sim_time=2 activations=12",
            "converged (3 rounds) sim_time=2 activations=12",
            "converged (2 rounds) sim_time=1 activations=8",
            "converged (2 rounds) sim_time=1 activations=8",
        ]


class TestChurnCommand:
    def test_sweep_prints_table_and_writes_json(self, tmp_path, capsys):
        import json as jsonlib

        target = tmp_path / "churn.json"
        assert main([
            "churn", "--topologies", "1", "--demands", "3",
            "--link-delay", "0.1", "--out", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "churn sweep:" in out
        assert "flap_storm" in out
        assert "mean recovery time:" in out
        document = jsonlib.loads(target.read_text())
        assert document["runs"]

    def test_single_scenario(self, capsys):
        assert main([
            "churn", "--scenario", "rolling", "--topologies", "1",
            "--demands", "3", "--link-delay", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "rolling" in out
        assert "flap_storm" not in out


class TestPoolFlags:
    def test_stats_text_renders_pool_section(self, capsys):
        assert main([
            "stats", "--profile", "tiny", "--seed", "1",
            "--parallel", "on", "--workers", "2", "--shards", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fan-out pool:" in out
        assert "  parallel: True\n  max_workers: 2\n  shards: 3\n" in out
        assert "  parallel_fanouts: 2\n" in out

    def test_stats_json_reports_pool(self, tmp_path, capsys):
        import json as json_module

        from repro.topology import generate_named

        target = tmp_path / "stats.json"
        assert main([
            "stats", "--profile", "tiny", "--seed", "1",
            "--parallel", "on", "--workers", "2",
            "--format", "json", "--out", str(target),
        ]) == 0
        payload = json_module.loads(target.read_text())
        pool = payload["pool"]
        assert pool["parallel"] is True
        assert pool["max_workers"] == 2
        assert payload["session_stats"]["parallel_fanouts"] >= 1
        assert "parallel_fanouts" not in pool
        assert pool["mode"] == "shm"
        assert pool["shared_memory"] is True
        assert 0 < pool["ship_bytes"] < 512
        snapshot = generate_named("tiny", seed=1).snapshot()
        assert pool["shared_bytes"] == 8 * (
            len(snapshot.asns) + len(snapshot.cls_off) + len(snapshot.cls_adj)
        )

    def test_parallel_off_skips_pool(self, capsys):
        assert main([
            "stats", "--profile", "tiny", "--seed", "1",
            "--parallel", "off",
        ]) == 0
        out = capsys.readouterr().out
        assert "  parallel_fanouts: 0\n" in out
        assert "  mode: None\n" in out

    def test_invalid_workers_rejected(self, capsys):
        assert main([
            "stats", "--profile", "tiny",
            "--parallel", "on", "--workers", "0",
        ]) == 1
        assert "max_workers must be >= 1" in capsys.readouterr().err

    def test_route_accepts_pool_flags(self, capsys):
        assert main([
            "route", "--profile", "tiny", "--seed", "1",
            "--destination", "1", "--parallel", "auto", "--shards", "2",
        ]) == 0
        assert "->" in capsys.readouterr().out
