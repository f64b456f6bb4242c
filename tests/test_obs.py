"""The unified instrumentation layer (``repro.obs``).

Unit coverage for the metrics registry, the tracer and the structured
logger, plus integration coverage for the instruments threaded through
routing, sessions, negotiation, the MIRO runtime and the CLI — including
span propagation across the ``compute_many`` process pool.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import obs
from repro.bgp.routing import compute_routes
from repro.cli import main
from repro.errors import ObservabilityError
from repro.miro import ExportPolicy, NegotiationScope, miro_attempt
from repro.miro.negotiation import negotiate
from repro.miro.runtime import MiroRuntime
from repro.obs import (
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    Tracer,
    configure_logging,
    get_logger,
    get_registry,
    get_tracer,
)
from repro.session import SimulationSession

from conftest import A, B, D, E, F


# ----------------------------------------------------------------------
# metrics: instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3

    def test_histogram_buckets_and_mean(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 55.5
        assert h.mean == pytest.approx(18.5)
        assert h.counts == [1, 1, 1]  # (..1], (1..10], +Inf overflow

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=(10.0, 1.0))

    def test_labels_return_one_child_per_combination(self):
        family = MetricsRegistry().counter("m_total", labels=("kind",))
        assert family.labels(kind="a") is family.labels(kind="a")
        assert family.labels(kind="a") is not family.labels(kind="b")

    def test_wrong_label_names_rejected(self):
        family = MetricsRegistry().counter("m_total", labels=("kind",))
        with pytest.raises(ObservabilityError):
            family.labels(flavor="a")

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", labels=("bad-label",))

    def test_reregistration_with_different_shape_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m_total", labels=("kind",))
        with pytest.raises(ObservabilityError):
            registry.gauge("m_total", labels=("kind",))
        with pytest.raises(ObservabilityError):
            registry.counter("m_total")


# ----------------------------------------------------------------------
# metrics: histogram quantiles
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_empty_histogram_returns_zero(self):
        h = Histogram((1.0, 10.0))
        assert h.quantile(0.5) == 0.0
        assert h.quantiles() == {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_out_of_range_quantile_rejected(self):
        h = Histogram((1.0, 10.0))
        with pytest.raises(ObservabilityError):
            h.quantile(-0.1)
        with pytest.raises(ObservabilityError):
            h.quantile(1.1)

    def test_exact_at_bucket_edges(self):
        # 10 observations fill the (0..1] bucket: every rank inside that
        # bucket interpolates linearly from 0 toward the upper edge.
        h = Histogram((1.0, 10.0))
        for _ in range(10):
            h.observe(0.5)
        assert h.quantile(1.0) == pytest.approx(1.0)
        assert h.quantile(0.5) == pytest.approx(0.5)

    def test_linear_interpolation_within_a_bucket(self):
        # 2 in (0..1], 2 in (1..10]: p75 sits halfway into the second
        # bucket's population -> 1 + 0.5 * (10 - 1) = 5.5.
        h = Histogram((1.0, 10.0))
        for v in (0.5, 0.7, 2.0, 9.0):
            h.observe(v)
        assert h.quantile(0.75) == pytest.approx(5.5)

    def test_overflow_bucket_clamps_to_largest_finite_bound(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 100.0, 200.0, 300.0):
            h.observe(v)
        assert h.quantile(0.99) == pytest.approx(10.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    @pytest.mark.parametrize("bounds", [
        obs.DEFAULT_TIME_BUCKETS,
        obs.DEFAULT_SIZE_BUCKETS,
        obs.DEFAULT_BYTE_BUCKETS,
        obs.DEFAULT_SIM_TIME_BUCKETS,
    ])
    def test_default_bucket_families_are_monotone(self, bounds):
        """p50 <= p90 <= p99, all within the observed bucket range, on
        every default bucket family the codebase registers."""
        h = Histogram(bounds)
        lo, hi = bounds[0], bounds[-1]
        span = [lo + (hi - lo) * i / 40 for i in range(41)]
        for v in span:
            h.observe(v)
        q = h.quantiles()
        assert 0.0 <= q["p50"] <= q["p90"] <= q["p99"] <= hi
        assert q["p99"] > lo

    def test_quantiles_surface_in_snapshot_and_text(self):
        registry = MetricsRegistry()
        h = registry.histogram("h_seconds", "timings", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 3.0, 20.0):
            h.observe(v)
        [sample] = registry.snapshot()["h_seconds"]["samples"]
        assert sample["quantiles"]["p99"] == pytest.approx(10.0)
        text = registry.render_text()
        assert "p50=" in text and "p90=" in text and "p99=" in text

    def test_merge_preserves_quantile_inputs(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, values in ((a, (0.5, 0.6)), (b, (5.0, 6.0))):
            h = registry.histogram("h_seconds", buckets=(1.0, 10.0))
            for v in values:
                h.observe(v)
        a.merge(b.snapshot())
        merged = a.histogram("h_seconds", buckets=(1.0, 10.0))
        assert merged.count == 4
        assert merged.quantile(0.5) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# metrics: Prometheus text-format conformance
# ----------------------------------------------------------------------
class TestPrometheusConformance:
    """The exposition text must parse under Prometheus' grammar: HELP
    before TYPE, one TYPE per family, escaped label values and help
    text, and a cumulative _bucket/_sum/_count triplet per histogram."""

    def test_help_and_type_lines_precede_samples(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counts things").inc()
        lines = registry.render_prometheus().splitlines()
        assert lines[0] == "# HELP c_total counts things"
        assert lines[1] == "# TYPE c_total counter"
        assert lines[2].startswith("c_total ")

    def test_one_type_line_per_family(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "x", labels=("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="b").inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE c_total counter") == 1

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("path",)).labels(
            path='a\\b"c\nd'
        ).inc()
        text = registry.render_prometheus()
        assert 'c_total{path="a\\\\b\\"c\\nd"} 1' in text

    def test_help_text_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "line one\nline two\\end").inc()
        text = registry.render_prometheus()
        assert "# HELP c_total line one\\nline two\\\\end" in text
        assert "\nline two" not in text  # no raw newline inside HELP

    def test_histogram_triplet_is_cumulative_and_complete(self):
        registry = MetricsRegistry()
        h = registry.histogram("h_seconds", "timings", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 20.0):
            h.observe(v)
        lines = registry.render_prometheus().splitlines()
        buckets = [l for l in lines if l.startswith("h_seconds_bucket")]
        assert buckets == [
            'h_seconds_bucket{le="1"} 1',
            'h_seconds_bucket{le="10"} 2',
            'h_seconds_bucket{le="+Inf"} 3',
        ]
        assert "h_seconds_sum 22.5" in lines
        assert "h_seconds_count 3" in lines

    def test_labeled_histogram_keeps_le_last_with_labels(self):
        registry = MetricsRegistry()
        registry.histogram(
            "h_seconds", buckets=(1.0,), labels=("backend",)
        ).labels(backend="scalar").observe(0.5)
        text = registry.render_prometheus()
        assert 'h_seconds_bucket{backend="scalar",le="1"} 1' in text
        assert 'h_seconds_sum{backend="scalar"} 0.5' in text
        assert 'h_seconds_count{backend="scalar"} 1' in text

    def test_exposition_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        assert registry.render_prometheus().endswith("\n")


# ----------------------------------------------------------------------
# metrics: registry snapshot / merge / reset / rendering
# ----------------------------------------------------------------------
class TestRegistry:
    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help text").inc(2)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["help"] == "help text"
        assert snap["c_total"]["samples"][0]["value"] == 2

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for r in (a, b):
            r.counter("c_total").inc(2)
            r.histogram("h", buckets=(1.0,)).observe(0.5)
            r.gauge("g").set(7)
        a.merge(b.snapshot())
        assert a.counter("c_total").value == 4
        assert a.histogram("h", buckets=(1.0,)).count == 2
        assert a.gauge("g").value == 7  # gauges: last write wins

    def test_merge_creates_missing_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("only_in_b_total", labels=("kind",)).labels(kind="x").inc(3)
        a.merge(b.snapshot())
        family = a.counter("only_in_b_total", labels=("kind",))
        assert family.labels(kind="x").value == 3

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ObservabilityError):
            a.merge(b.snapshot())

    def test_reset_keeps_instrument_identity(self):
        registry = MetricsRegistry()
        c = registry.counter("c_total")
        c.inc(5)
        registry.reset()
        assert c.value == 0
        c.inc()
        assert registry.counter("c_total").value == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels=("kind",)).labels(
            kind="x"
        ).inc(3)
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 3' in text
        assert 'h_seconds_bucket{le="0.1"} 0' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_render_text_skips_zero_samples(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total")
        registry.counter("busy_total").inc()
        text = registry.render_text()
        assert "busy_total" in text
        assert "quiet_total" not in text


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        with span as s:
            s.set(more="attrs")
        assert len(tracer) == 0

    def test_enabled_span_records_chrome_event(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", destination=6) as span:
            span.set(result=3)
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"] == {"destination": 6, "result": 3}

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("exploding"):
                raise ValueError("boom")
        assert [e["name"] for e in tracer.events()] == ["exploding"]

    def test_drain_and_merge(self):
        parent, worker = Tracer(), Tracer()
        parent.enable()
        worker.enable(epoch=parent.epoch)
        with worker.span("in_worker"):
            pass
        parent.merge(worker.drain())
        assert len(worker) == 0
        assert [e["name"] for e in parent.events()] == ["in_worker"]

    def test_write_produces_valid_chrome_trace(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("s", nested=(1, 2)):
            pass
        path = tmp_path / "trace.json"
        count = tracer.write(str(path))
        document = json.loads(path.read_text())
        assert count == 1
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"][0]["args"]["nested"] == [1, 2]


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_key_value_lines(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        get_logger("unit").info("cache_evict", destination=6, note="two words")
        line = stream.getvalue().strip()
        assert "level=info" in line
        assert "logger=repro.unit" in line
        assert "event=cache_evict" in line
        assert "destination=6" in line
        assert 'note="two words"' in line

    def test_json_lines(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream, json_lines=True)
        get_logger("unit").warning("oscillation", rounds=9)
        record = json.loads(stream.getvalue())
        assert record["event"] == "oscillation"
        assert record["rounds"] == 9
        assert record["level"] == "warning"

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        configure_logging("debug", stream=first)
        root = configure_logging("debug", stream=second)
        get_logger("unit").info("only_once")
        assert "only_once" not in first.getvalue()
        assert first.getvalue() == "" and "only_once" in second.getvalue()
        assert len([h for h in root.handlers
                    if getattr(h, "_repro_obs", False)]) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ObservabilityError):
            configure_logging("loud")

    def test_disabled_level_emits_nothing(self):
        stream = io.StringIO()
        configure_logging("error", stream=stream)
        get_logger("unit").debug("invisible", detail=1)
        assert stream.getvalue() == ""


# ----------------------------------------------------------------------
# integration: routing / session / negotiation / runtime instruments
# ----------------------------------------------------------------------
class TestRoutingInstruments:
    def test_phase_timings_recorded(self, paper_graph):
        from repro.bgp import kernels

        def samples(family, label):
            return {
                s["labels"][label]: s
                for s in get_registry().snapshot()[family]["samples"]
            }

        def phases(mode):
            return {
                s["labels"]["phase"]: s["count"]
                for s in get_registry().snapshot()[
                    "repro_routing_phase_seconds"]["samples"]
                if s["labels"]["mode"] == mode and s["count"]
            }

        # the batched wave kernel times all three phases under
        # mode="batched"; the scalar kernel's fill times the first two
        # under mode="partial", and its completion the descent — assert
        # on whichever backend this run settles with
        # (REPRO_KERNEL-sensitive)
        table = compute_routes(paper_graph, F)
        tables = {
            mode: s["value"] for mode, s in samples(
                "repro_routing_tables_total", "mode").items()
        }
        # reset() keeps zeroed children from earlier tests, so assert on
        # per-mode values rather than the exact sample set
        assert tables.get("incremental", 0) == 0
        all_three = {"phase1_climb": 1, "phase2_peer": 1, "phase3_descend": 1}
        if kernels.resolve() == "batched":
            assert tables["full"] == 1
            assert phases("batched") == all_three
            return
        assert tables["partial"] == 1 and tables.get("full", 0) == 0
        assert phases("partial") == {"phase1_climb": 1, "phase2_peer": 1}
        assert table.default_path(A) == (A, B, E, F)  # a pull: untimed
        assert phases("partial") == {"phase1_climb": 1, "phase2_peer": 1}
        list(table.items())  # a whole-table read completes the descent
        assert phases("partial") == all_three

    def test_routing_spans_when_enabled(self, paper_graph):
        from repro.bgp import kernels

        # the batched kernel spans each phase; the scalar kernel spans
        # each table around its climb and peer phases, and the descent
        # when a whole-table read completes it; the dispatcher spans
        # the call
        if kernels.resolve() == "batched":
            settled = ["phase1_climb", "phase2_peer", "phase3_descend"]
            completed = []
        else:
            settled = ["phase1_climb", "phase2_peer", "compute_routes"]
            completed = ["phase3_descend"]
        get_tracer().enable()
        table = compute_routes(paper_graph, F)
        list(table.items())
        names = [e["name"] for e in get_tracer().events()]
        assert names == [*settled, "settle_many", *completed]


class TestSessionInstruments:
    def test_cache_hit_miss_counters(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute(F)
        session.compute(F)
        snap = get_registry().snapshot()
        events = {
            s["labels"]["event"]: s["value"]
            for s in snap["repro_session_cache_events_total"]["samples"]
        }
        assert events["miss"] == 1
        assert events["hit"] == 1
        assert session.stats["hits"] == 1 and session.stats["misses"] == 1

    def test_to_dict_counts_misses(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute_many([F, E])
        assert session.stats["misses"] == 2

    def test_parallel_fanout_merges_worker_spans(self, small_graph):
        # workers settle whole shards through the one dispatcher
        get_tracer().enable()
        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        destinations = small_graph.ases[:20]
        session.compute_many(destinations)
        assert session.stats["parallel_fanouts"] == 1
        events = get_tracer().events()
        worker_pids = {
            e["pid"] for e in events if e["name"] == "settle_many"
        }
        assert worker_pids and os.getpid() not in worker_pids
        assert any(
            e["name"] == "compute_many" and e["pid"] == os.getpid()
            for e in events
        )

    def test_parallel_fanout_merges_worker_metrics(self, small_graph):
        from repro.bgp import kernels

        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        destinations = small_graph.ases[:20]
        session.compute_many(destinations)
        snap = get_registry().snapshot()
        tables = {
            s["labels"]["mode"]: s["value"]
            for s in snap["repro_routing_tables_total"]["samples"]
        }
        # a worker's scalar fill is partial; it ships the completed tree
        mode = "full" if kernels.resolve() == "batched" else "partial"
        assert tables.get(mode) == len(destinations)


class TestNegotiationInstruments:
    def test_negotiate_counts_message_kinds(self, paper_graph):
        table = compute_routes(paper_graph, F)
        obs.reset()  # isolate the negotiation exchange itself
        outcome = negotiate(
            table, requester=A, responder=E, policy=ExportPolicy.FLEXIBLE,
        )
        assert outcome.established
        snap = get_registry().snapshot()
        kinds = {
            s["labels"]["kind"]: s["value"]
            for s in snap["repro_miro_messages_total"]["samples"]
        }
        assert kinds["request"] == 1
        assert kinds["offer"] == 1
        assert kinds["accept"] == 1
        assert kinds["grant"] == 1
        assert kinds.get("decline", 0) == 0

    @pytest.mark.parametrize(
        "requester, responder, policy, avoid, expected",
        [
            # B offers B-C-F and A adopts it
            (A, B, ExportPolicy.FLEXIBLE, E,
             {"request": 1, "offer": 1, "accept": 1, "grant": 1}),
            # STRICT: B's one alternate is of another class than its default
            (A, B, ExportPolicy.STRICT, E, {"request": 1, "decline": 1}),
            # A's one alternate A-D-E-F passes back through D
            (D, A, ExportPolicy.FLEXIBLE, B, {"request": 1, "offer": 1}),
        ],
        ids=["adopted", "declined", "offers-loop"],
    )
    def test_every_driver_counts_one_exchange_alike(
        self, paper_graph, requester, responder, policy, avoid, expected
    ):
        """negotiate(), MiroRuntime.establish and a one-contact
        miro_attempt run the same exchange, so they send (and count) the
        same messages."""
        table = compute_routes(paper_graph, F)
        runtime = MiroRuntime(paper_graph)
        runtime.session.compute(F)
        drivers = {
            "negotiate": lambda: negotiate(table, requester, responder, policy),
            "establish": lambda: runtime.establish(
                requester, responder, F, policy
            ),
            "miro_attempt": lambda: miro_attempt(
                table, requester, avoid, policy,
                scope=NegotiationScope.ONE_HOP, deployed={responder},
                include_single_path=False,
            ),
        }
        for name, drive in drivers.items():
            obs.reset()
            drive()
            samples = get_registry().snapshot()["repro_miro_messages_total"]
            kinds = {
                s["labels"]["kind"]: s["value"]
                for s in samples["samples"] if s["value"]
            }
            assert kinds == expected, name


class TestRuntimeInstruments:
    def test_tunnel_lifecycle_counters(self, paper_graph):
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        record = runtime.establish(A, E, F, ExportPolicy.FLEXIBLE)
        assert record is not None
        snap = get_registry().snapshot()
        assert (
            snap["repro_miro_tunnels_established_total"]["samples"][0]["value"]
            == 1
        )
        assert snap["repro_miro_live_tunnels"]["samples"][0]["value"] == 1
        runtime.tick(11.0)  # no heartbeats: the tunnel soft-state expires
        snap = get_registry().snapshot()
        removed = {
            s["labels"]["cause"]: s["value"]
            for s in snap["repro_miro_tunnels_removed_total"]["samples"]
        }
        assert removed["expired"] >= 1
        assert snap["repro_miro_live_tunnels"]["samples"][0]["value"] == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_experiment_trace_and_stats(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main([
            "experiment", "table5.3", "--profile", "tiny",
            "--trace", str(trace_path), "--stats",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instrumentation snapshot:" in out
        assert "repro_miro_messages_total" in out
        assert "repro_routing_phase_seconds" in out
        assert "repro_session_cache_events_total" in out
        document = json.loads(trace_path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        # whichever kernel backend settled, some settling span must show
        settle_spans = {
            "compute_routes", "compute_routes_batched", "settle_many",
        }
        assert names & settle_spans and "phase3_descend" in names

    def test_stats_subcommand_json(self, tmp_path, capsys):
        out_path = tmp_path / "snapshot.json"
        rc = main([
            "stats", "--profile", "tiny", "--format", "json",
            "--out", str(out_path),
        ])
        assert rc == 0
        document = json.loads(out_path.read_text())
        metrics = document["metrics"]
        hits = {
            s["labels"]["event"]: s["value"]
            for s in metrics["repro_session_cache_events_total"]["samples"]
        }
        assert hits["hit"] > 0  # the workload replays its destinations
        kinds = {
            s["labels"]["kind"]: s["value"]
            for s in metrics["repro_miro_messages_total"]["samples"]
        }
        assert kinds["request"] > 0
        stats = document["session_stats"]
        assert stats["hits"] > 0 and 0 < stats["hit_rate"] <= 1

    def test_stats_subcommand_prometheus(self, capsys):
        rc = main(["stats", "--profile", "tiny", "--format", "prom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_session_cache_events_total counter" in out
        assert "# TYPE repro_routing_phase_seconds histogram" in out
        assert 'repro_routing_phase_seconds_bucket' in out
