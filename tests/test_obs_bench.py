"""The performance-observability plane: bench trajectory and profiler.

Unit coverage for the canonical benchmark record schema, the
``BENCH_<sha>.json`` trajectory writer/merger, the regression comparator
that backs the CI gate, and the span-tree profiler (rollup and
collapsed-stack flamegraph export) — plus ``repro bench compare`` and
the ``--flamegraph`` / ``--log-json`` flags end to end.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs.bench import (
    SCHEMA,
    BenchRecord,
    BenchReporter,
    compare,
    detect_git_sha,
    load_trajectory,
    validate_document,
)
from repro.obs.profile import (
    build_tree,
    collapsed_stacks,
    render_rollup,
    rollup,
    write_collapsed,
)


def _reporter(**kwargs):
    defaults = dict(sha="abc1234", timestamp=1_700_000_000.0, kernel="scalar")
    defaults.update(kwargs)
    return BenchReporter(**defaults)


# ----------------------------------------------------------------------
# records and the reporter
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_direction_defaults_from_unit(self):
        reporter = _reporter()
        assert reporter.record("s", "t", 1.0, "seconds").better == "lower"
        assert reporter.record("s", "b", 1.0, "bytes").better == "lower"
        assert reporter.record("s", "r", 1.0, "tables/s").better == "higher"

    def test_explicit_direction_wins(self):
        rec = _reporter().record("s", "m", 1.0, "seconds", better="higher")
        assert rec.better == "higher"

    def test_invalid_direction_rejected(self):
        with pytest.raises(ObservabilityError):
            BenchRecord("s", "m", 1.0, "seconds", better="sideways")

    def test_empty_names_rejected(self):
        with pytest.raises(ObservabilityError):
            BenchRecord("", "m", 1.0, "seconds")
        with pytest.raises(ObservabilityError):
            BenchRecord("s", "", 1.0, "seconds")

    def test_echo_renders_one_line_per_record(self):
        lines = []
        reporter = _reporter(echo=lines.append)
        reporter.record("kernel", "settle_seconds", 0.25, "seconds")
        assert lines == ["BENCH kernel.settle_seconds=0.25 seconds"]

    def test_suite_handle_binds_the_suite_name(self):
        reporter = _reporter()
        suite = reporter.suite("kernel")
        rec = suite.record("settle_seconds", 1.0, "seconds", gate=True)
        assert rec.suite == "kernel" and rec.gate


class TestTrajectoryFile:
    def test_write_and_load_round_trip(self, tmp_path):
        reporter = _reporter()
        reporter.record("kernel", "settle_seconds", 0.5, "seconds", gate=True)
        path = reporter.write(tmp_path)
        assert path.name == "BENCH_abc1234.json"
        document = load_trajectory(path)
        assert document["schema"] == SCHEMA
        assert document["sha"] == "abc1234"
        assert document["kernel"] == "scalar"
        [raw] = document["records"]
        assert raw["metric"] == "settle_seconds" and raw["gate"] is True

    def test_second_write_merges_by_suite_and_metric(self, tmp_path):
        first = _reporter()
        first.record("kernel", "settle_seconds", 0.5, "seconds")
        first.record("session", "warm_hit_seconds", 0.1, "seconds")
        first.write(tmp_path)

        second = _reporter()
        second.record("kernel", "settle_seconds", 0.4, "seconds")  # re-measured
        second.record("events", "events_per_second", 9.0, "events/s")
        path = second.write(tmp_path)

        by_key = {
            (r["suite"], r["metric"]): r["value"]
            for r in load_trajectory(path)["records"]
        }
        assert by_key[("kernel", "settle_seconds")] == 0.4
        assert by_key[("session", "warm_hit_seconds")] == 0.1
        assert by_key[("events", "events_per_second")] == 9.0

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(
            {"schema": "repro-bench/999", "sha": "x", "timestamp": 0,
             "records": []}
        ))
        with pytest.raises(ObservabilityError, match="schema"):
            load_trajectory(path)

    def test_malformed_record_rejected(self):
        document = {
            "schema": SCHEMA, "sha": "x", "timestamp": 0.0,
            "records": [{"suite": "s", "metric": "m"}],  # no value/unit
        }
        with pytest.raises(ObservabilityError, match="malformed"):
            validate_document(document)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_trajectory(tmp_path / "missing.json")

    def test_detect_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "deadbee")
        assert detect_git_sha() == "deadbee"


# ----------------------------------------------------------------------
# comparison: the regression gate
# ----------------------------------------------------------------------
def _trajectory(sha, **values):
    reporter = _reporter(sha=sha)
    reporter.record("kernel", "settle_seconds",
                    values.get("settle", 1.0), "seconds", gate=True)
    reporter.record("events", "events_per_second",
                    values.get("rate", 1000.0), "events/s", better="higher",
                    gate=True)
    reporter.record("session", "cold_seconds",
                    values.get("cold", 2.0), "seconds")
    return reporter.to_document()


class TestCompare:
    def test_unchanged_metrics_pass(self):
        report = compare(_trajectory("a"), _trajectory("b"), 10.0)
        assert report.ok and not report.regressions and not report.warnings

    def test_gated_lower_is_better_regression_fails(self):
        report = compare(
            _trajectory("a"), _trajectory("b", settle=1.3), 10.0
        )
        assert not report.ok
        [delta] = report.regressions
        assert delta.name == "kernel.settle_seconds"
        assert delta.regression_pct == pytest.approx(30.0)
        assert "FAIL" in report.render()
        assert "kernel.settle_seconds" in report.render()

    def test_higher_is_better_drop_is_a_regression(self):
        report = compare(_trajectory("a"), _trajectory("b", rate=500.0), 10.0)
        assert not report.ok
        [delta] = report.regressions
        assert delta.name == "events.events_per_second"
        assert delta.regression_pct == pytest.approx(50.0)

    def test_improvements_never_fail(self):
        report = compare(
            _trajectory("a"),
            _trajectory("b", settle=0.5, rate=2000.0, cold=1.0),
            10.0,
        )
        assert report.ok

    def test_ungated_regression_is_a_warning_only(self):
        report = compare(_trajectory("a"), _trajectory("b", cold=3.0), 10.0)
        assert report.ok
        [delta] = report.warnings
        assert delta.name == "session.cold_seconds"

    def test_within_threshold_passes(self):
        report = compare(_trajectory("a"), _trajectory("b", settle=1.09), 10.0)
        assert report.ok

    def test_missing_gated_metric_is_reported(self):
        baseline = _trajectory("a")
        current = _trajectory("b")
        current["records"] = [
            r for r in current["records"] if r["metric"] != "settle_seconds"
        ]
        report = compare(baseline, current, 10.0)
        assert "kernel.settle_seconds" in report.missing
        assert report.missing_gated == ["kernel.settle_seconds"]
        assert not report.ok  # a vanished gate is a failure, not a pass
        assert "missing from current run" in report.render()
        assert "kernel.settle_seconds (missing)" in report.render()
        # a vanished ungated metric is a listed note only
        current = _trajectory("b")
        current["records"] = [
            r for r in current["records"] if r["metric"] != "cold_seconds"
        ]
        report = compare(baseline, current, 10.0)
        assert report.missing == ["session.cold_seconds"]
        assert report.ok and not report.missing_gated
        assert "session.cold_seconds" in report.render()

    def test_to_dict_is_json_ready(self):
        report = compare(_trajectory("a"), _trajectory("b", settle=2.0), 10.0)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["ok"] is False
        assert document["regressions"][0]["metric"] == "settle_seconds"

    @pytest.mark.parametrize("better, worse", [
        ("lower", True), ("higher", False),
    ])
    def test_a_move_from_zero_is_strict_json(self, better, worse):
        """A zero baseline has no percent: ``null`` in the report (it used
        to be ``Infinity``, which strict parsers reject), still gated."""
        report = compare(
            _gated("a", 0.0, better), _gated("b", 3.0, better), 10.0
        )
        [delta] = report.deltas
        assert delta.regression_pct is None and delta.worse is worse
        assert report.ok is not worse
        document = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert document["deltas"][0]["regression_pct"] is None
        assert len(document["regressions"]) == int(worse)
        text = report.render()
        assert "inf" not in text
        assert f"0 -> 3 seconds (from 0, {'worse' if worse else 'better'})" \
            in text

    def test_zero_to_zero_is_unchanged(self):
        report = compare(_gated("a", 0.0), _gated("b", 0.0), 10.0)
        [delta] = report.deltas
        assert (delta.regression_pct, delta.worse) == (0.0, False)
        assert report.ok


def _gated(sha, value, better="lower"):
    reporter = _reporter(sha=sha)
    reporter.record("kernel", "settle_seconds", value, "seconds",
                    better=better, gate=True)
    return reporter.to_document()


# ----------------------------------------------------------------------
# profiler: span-tree rollup and collapsed stacks
# ----------------------------------------------------------------------
def _event(name, ts, dur, pid=1, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid}


class TestProfile:
    def test_tree_nests_by_interval_containment(self):
        events = [
            _event("root", 0, 100),
            _event("childA", 10, 30),
            _event("childB", 50, 40),
            _event("grandchild", 15, 10),
        ]
        [root] = build_tree(events)
        assert root.name == "root"
        assert [c.name for c in root.children] == ["childA", "childB"]
        assert [g.name for g in root.children[0].children] == ["grandchild"]

    def test_self_time_excludes_children(self):
        events = [_event("root", 0, 100), _event("child", 10, 60)]
        stats = {s.name: s for s in rollup(events)}
        assert stats["root"].cumulative_seconds == pytest.approx(100e-6)
        assert stats["root"].self_seconds == pytest.approx(40e-6)
        assert stats["child"].self_seconds == pytest.approx(60e-6)

    def test_separate_lanes_are_separate_roots(self):
        events = [
            _event("parent", 0, 100, pid=1),
            _event("worker", 10, 20, pid=2),
        ]
        roots = build_tree(events)
        assert {r.name for r in roots} == {"parent", "worker"}
        assert all(not r.children for r in roots)

    def test_collapsed_stacks_merge_same_paths(self):
        events = [
            _event("root", 0, 100),
            _event("leaf", 10, 20),
            _event("leaf", 40, 30),
        ]
        folded = collapsed_stacks(events)
        assert folded["root;leaf"] == pytest.approx(50.0)
        assert folded["root"] == pytest.approx(50.0)

    def test_write_collapsed_is_sorted_and_integral(self, tmp_path):
        path = tmp_path / "flame.txt"
        count = write_collapsed(
            str(path), [_event("b", 0, 10), _event("a", 20, 5)]
        )
        lines = path.read_text().splitlines()
        assert count == 2 and lines == ["a 5", "b 10"]

    def test_rollup_from_a_real_traced_run(self):
        tracer = obs.get_tracer()
        tracer.enable()
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        finally:
            tracer.disable()
        stats = {s.name: s for s in rollup(tracer.events())}
        assert stats["outer"].cumulative_seconds >= (
            stats["inner"].cumulative_seconds
        )
        assert "phase attribution" in render_rollup(tracer.events())

    def test_empty_trace_renders_placeholder(self):
        assert "(no spans recorded)" in render_rollup([])


# ----------------------------------------------------------------------
# CLI: repro bench compare, --flamegraph, --log-json
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_bench_compare_gates_a_degraded_hot_path(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps(_trajectory("base")))
        degraded = _trajectory("cur", settle=1.25)
        current.write_text(json.dumps(degraded))

        rc = main(["bench", "compare", str(baseline), str(current),
                   "--threshold", "20"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "kernel.settle_seconds" in out and "FAIL" in out

        rc = main(["bench", "compare", str(baseline), str(current),
                   "--threshold", "30"])
        assert rc == 0

    def test_bench_compare_report_file(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps(_trajectory("base")))
        current.write_text(json.dumps(_trajectory("cur", settle=9.0)))
        report_path = tmp_path / "report.json"
        rc = main(["bench", "compare", str(baseline), str(current),
                   "--out", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert report["ok"] is False

    def test_bench_compare_report_file_is_strict_json(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps(_gated("base", 0.0)))
        current.write_text(json.dumps(_gated("cur", 3.0)))
        report_path = tmp_path / "report.json"
        rc = main(["bench", "compare", str(baseline), str(current),
                   "--out", str(report_path)])
        assert rc == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        assert report["regressions"][0]["regression_pct"] is None

    def test_flamegraph_flag_writes_phase_stacks(self, tmp_path, capsys):
        flame = tmp_path / "flame.folded"
        rc = main([
            "verify", "--profile", "tiny", "--campaigns", "1",
            "--events", "2", "--destinations", "2", "--quiet", "--no-pool",
            "--flamegraph", str(flame),
        ])
        assert rc == 0
        lines = flame.read_text().splitlines()
        assert lines  # non-empty collapsed-stack file
        roots = {line.split(" ")[0].split(";")[0] for line in lines}
        assert "verify_run" in roots  # root frames are tracer phase spans
        err = capsys.readouterr().err
        assert "phase attribution" in err

    def test_log_json_flag_emits_json_lines(self, capsys):
        rc = main([
            "converge", "--figure", "7.1", "--mode", "unrestricted",
            "--log-json", "--log-level", "info",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        json_lines = [
            json.loads(line) for line in err.splitlines()
            if line.startswith("{")
        ]
        assert json_lines, err
        assert all("event" in line and "level" in line for line in json_lines)
