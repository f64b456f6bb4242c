"""Tests for the shared simulation session (repro.session).

Covers the versioned-graph cache key (mutations invalidate silently),
the LRU bound, the fan-out interface, what the cache will adopt (trees
only), and the cross-layer sharing the session exists for: Table 5.2 and
Table 5.3 on the same graph must hit the cache.
"""

import random

import pytest

from repro.bgp import compute_routes
from repro.bgp.routing import compute_routes_reference
from repro.errors import RoutingError, SessionError, UnknownASError
from repro.session import (
    AUTO_PARALLEL_THRESHOLD,
    RouteTableCache,
    SimulationSession,
    ensure_session,
)
from repro.session.cache import _CACHE_EVENTS
from repro.topology import ASGraph, TopologyDelta
from repro.session.pool import shared_memory_available
from repro.verify.oracle import first_divergence

from conftest import A, B, C, D, E, F


class TestGraphVersion:
    def test_fresh_graph_starts_at_zero(self):
        assert ASGraph().version == 0

    def test_add_as_bumps_once(self):
        graph = ASGraph()
        graph.add_as(1)
        after_first = graph.version
        graph.add_as(1)  # idempotent: no state change, no bump
        assert graph.version == after_first == 1

    def test_add_link_bumps(self, paper_graph):
        before = paper_graph.version
        paper_graph.add_peer_link(B, D)
        assert paper_graph.version > before

    def test_remove_link_bumps(self, paper_graph):
        before = paper_graph.version
        paper_graph.remove_link(B, E)
        assert paper_graph.version > before

    def test_copy_preserves_version(self, paper_graph):
        assert paper_graph.copy().version == paper_graph.version

    def test_copy_diverges_after_mutation(self, paper_graph):
        clone = paper_graph.copy()
        clone.remove_link(B, E)
        assert clone.version != paper_graph.version
        assert paper_graph.has_link(B, E)

    def test_without_as_is_strictly_newer(self, paper_graph):
        assert paper_graph.without_as(A).version > paper_graph.version


class TestRouteTableCache:
    def _table(self, graph, destination):
        return compute_routes(graph, destination)

    def test_rejects_zero_capacity(self):
        with pytest.raises(SessionError):
            RouteTableCache(maxsize=0)

    def test_lru_evicts_oldest(self, paper_graph):
        cache = RouteTableCache(maxsize=2)
        evicted = [
            cache.put((0, destination), self._table(paper_graph, destination))
            for destination in (F, E, D)
        ]
        assert len(cache) == 2
        assert (0, F) not in cache
        assert evicted == [0, 0, 1]

    def test_get_refreshes_recency(self, paper_graph):
        cache = RouteTableCache(maxsize=2)
        cache.put((0, F), self._table(paper_graph, F))
        cache.put((0, E), self._table(paper_graph, E))
        assert cache.get((0, F)) is not None  # F becomes most recent
        cache.put((0, D), self._table(paper_graph, D))
        assert (0, F) in cache
        assert (0, E) not in cache

    def test_peak_size_tracks_high_water_mark(self, paper_graph):
        cache = RouteTableCache(maxsize=8)
        for destination in (F, E, D):
            cache.put((0, destination),
                      self._table(paper_graph, destination))
        cache.clear()
        assert len(cache) == 0
        assert cache.peak_size == 3

    def test_peak_size_records_pre_eviction_pressure(self, paper_graph):
        """Regression: the peak must be sampled before eviction trims the
        cache back to maxsize, otherwise peak can never exceed maxsize and
        an overflowing cache is indistinguishable from a comfortable one."""
        cache = RouteTableCache(maxsize=2)
        for destination in (F, E, D):
            cache.put((0, destination),
                      self._table(paper_graph, destination))
        assert len(cache) == 2
        assert cache.peak_size == 3

    def test_prune_superseded_drops_seed_covered_by_current_table(
        self, paper_graph
    ):
        """Regression: a stale derivation parent is dead weight once an
        current-version table for the same destination is cached —
        lookups hit that table and nothing is ever derived from the seed."""
        cache = RouteTableCache(maxsize=8)
        cache.put((paper_graph.version, F), self._table(paper_graph, F))
        paper_graph.remove_link(B, E)
        current_key = (paper_graph.version, F)
        cache.put(current_key, self._table(paper_graph, F))
        assert cache.prune_superseded(paper_graph) == 1
        assert current_key in cache
        assert len(cache) == 1

    def test_prune_superseded_keeps_seed_for_uncovered_destination(
        self, paper_graph
    ):
        cache = RouteTableCache(maxsize=8)
        seed_key = (paper_graph.version, F)
        cache.put(seed_key, self._table(paper_graph, F))
        paper_graph.remove_link(B, E)
        cache.put((paper_graph.version, E),
                  self._table(paper_graph, E))
        assert cache.prune_superseded(paper_graph) == 0
        assert seed_key in cache


class TestCompute:
    def test_matches_compute_routes(self, paper_graph):
        session = SimulationSession(paper_graph)
        direct = compute_routes(paper_graph, F)
        cached = session.compute(F)
        assert dict(cached.items()) == dict(direct.items())

    def test_repeat_is_a_hit_and_same_object(self, paper_graph):
        session = SimulationSession(paper_graph)
        first = session.compute(F)
        second = session.compute(F)
        assert second is first
        assert session.stats["hits"] == 1
        assert session.stats["misses"] == 1
        assert session.stats["tables_computed"] == 1

    def test_hit_rate_rendering(self, paper_graph):
        from repro.cli import _render_section

        session = SimulationSession(paper_graph)
        assert session.stats["hit_rate"] == 0.0
        session.compute(F)
        session.compute(F)
        text = _render_section("routing-cost telemetry:", session.stats)
        assert "  hits: 1\n  misses: 1\n  hit_rate: 0.5\n" in text

    def test_invalid_parallel_policy_rejected(self, paper_graph):
        with pytest.raises(SessionError):
            SimulationSession(paper_graph, parallel="sometimes")


class TestInvalidationOnMutation:
    def test_remove_link_invalidates_cached_tables(self, paper_graph):
        """Regression test: a link failure must not serve stale routes.

        B's best route to F uses the B—E link; after that link fails the
        next compute() must miss the cache and select BCF instead.
        """
        session = SimulationSession(paper_graph)
        stale = session.compute(F)
        assert stale.best(B).path == (B, E, F)

        paper_graph.remove_link(B, E)
        fresh = session.compute(F)
        assert fresh is not stale
        assert fresh.best(B).path == (B, C, F)
        assert session.stats["hits"] == 0
        assert session.stats["misses"] == 2
        # the new state is cached under the new version
        assert session.compute(F) is fresh
        assert session.stats["hits"] == 1

    def test_lru_bound_limits_growth(self, paper_graph):
        session = SimulationSession(paper_graph, max_cached_tables=2)
        for destination in (F, E, D, C):
            session.compute(destination)
        assert session.tables_cached == 2
        assert session.stats["evictions"] == 2
        # peak reports pre-eviction pressure: maxsize + 1 during overflow
        assert session.stats["peak_cached_tables"] == 3


class TestComputeMany:
    def test_order_and_dedup(self, paper_graph):
        session = SimulationSession(paper_graph)
        tables = session.compute_many([F, E, F, D, E])
        assert list(tables) == [F, E, D]
        assert session.stats["tables_computed"] == 3

    def test_mixed_cached_and_uncached(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        tables = session.compute_many([F, E])
        assert session.stats["hits"] == 1
        assert session.stats["misses"] == 2
        assert tables[F].best(B).path == (B, E, F)
        assert tables[E].destination == E

    def test_counts_fanouts(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute_many([F, E])
        session.compute_many([F, E])
        assert session.stats["fanouts"] == 2
        assert session.stats["hit_rate"] == 0.5
        assert session.stats["last_fanout_seconds"] >= 0.0

    def test_serial_policy_never_uses_pool(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute_many(list(paper_graph.iter_ases()))
        assert session.stats["parallel_fanouts"] == 0

    def test_auto_stays_serial_below_threshold(self, paper_graph):
        session = SimulationSession(paper_graph, parallel="auto")
        assert len(paper_graph) < AUTO_PARALLEL_THRESHOLD
        session.compute_many(list(paper_graph.iter_ases()))
        assert session.stats["parallel_fanouts"] == 0

    def test_every_as(self, paper_graph):
        tables = SimulationSession(paper_graph).compute_many(paper_graph.ases)
        assert sorted(tables) == paper_graph.ases
        for destination, table in tables.items():
            assert dict(table.items()) == dict(
                compute_routes(paper_graph, destination).items()
            )

    def test_a_lone_miss_settles_in_process(self, small_graph):
        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        session.compute(small_graph.ases[0])
        session.compute_many(small_graph.ases[:2])
        assert session.stats["parallel_fanouts"] == 0
        assert session.pool_info()["alive"] is False


class TestParallelFanout:
    @pytest.mark.parametrize("destination_count", [6])
    def test_pool_matches_serial(self, small_graph, destination_count):
        destinations = small_graph.ases[:destination_count]
        serial = SimulationSession(small_graph, parallel=False)
        forced = SimulationSession(small_graph, parallel=True, max_workers=2)
        serial_tables = serial.compute_many(destinations)
        pool_tables = forced.compute_many(destinations)
        assert forced.stats["parallel_fanouts"] == 1
        for destination in destinations:
            assert (
                dict(pool_tables[destination].items())
                == dict(serial_tables[destination].items())
            )

    def test_pool_results_are_cached(self, small_graph):
        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        destinations = small_graph.ases[:4]
        first = session.compute_many(destinations)
        second = session.compute_many(destinations)
        assert session.stats["hits"] == len(destinations)
        for destination in destinations:
            assert second[destination] is first[destination]

    def test_pool_tables_wrap_parent_graph(self, small_graph):
        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        tables = session.compute_many(small_graph.ases[:3])
        for table in tables.values():
            assert table.graph is small_graph


def _fake_pool_executor(fail_for=frozenset(), error=RuntimeError):
    """An in-process stand-in for ProcessPoolExecutor for fault injection.

    Mirrors the real worker contract: jobs carry a ``(version,
    descriptor, ship_bytes)`` spec — the fake obtains the snapshot the
    way a worker would, attaching the shared-memory segment from the
    descriptor — and each job settles on it with the snapshot kernel.
    Jobs whose destination range touches ``fail_for`` raise ``error``
    from ``future.result()``; every other job computes the real tables
    and ships a synthetic drained-metrics payload (one
    ``repro_test_pool_jobs_total`` increment), exactly like a real
    worker's ``obs.drain_worker()``.
    """
    payload_template = {
        "metrics": {
            "repro_test_pool_jobs_total": {
                "type": "counter",
                "help": "synthetic per-job worker metric",
                "label_names": [],
                "samples": [{"labels": {}, "value": 1.0}],
            },
            "repro_test_pool_job_seconds": {
                "type": "histogram",
                "help": "synthetic per-job worker timing",
                "label_names": [],
                "samples": [{
                    "labels": {},
                    "sum": 0.25,
                    "count": 1,
                    "bounds": [0.1, 1.0],
                    "counts": [0, 1, 0],
                    "quantiles": {"p50": 0.55, "p90": 0.91, "p99": 0.991},
                }],
            },
        },
        "spans": [],
    }

    class FakeFuture:
        def __init__(self, value=None, exc=None):
            self._value = value
            self._exc = exc

        def result(self):
            if self._exc is not None:
                raise self._exc
            return self._value

    class FakeExecutor:
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            self._attached = {}

        def _snapshot_for(self, spec):
            from repro.session.pool import SharedSnapshot

            version, descriptor, _ship = spec
            if version not in self._attached:
                self._attached[version] = SharedSnapshot.attach(descriptor)
            return self._attached[version]

        def submit(self, fn, job):
            from repro.bgp.kernels.scalar import compute_routes_snapshot
            from repro.session.pool import _encode_shard, _pool_settle_shard

            assert fn is _pool_settle_shard
            spec, _obs, _kernel, destinations = job
            broken = [d for d in destinations if d in fail_for]
            if broken:
                return FakeFuture(exc=error(f"injected fault for {broken[0]}"))
            snapshot = self._snapshot_for(spec)
            swept = {
                d: compute_routes_snapshot(snapshot, d) for d in destinations
            }
            packed = _encode_shard(destinations, swept)
            return FakeFuture(value=(destinations, packed, payload_template))

        def shutdown(self, wait=True, cancel_futures=False):
            self._attached.clear()

    return FakeExecutor


class TestPoolFaultInjection:
    """compute_many's pool failure path: a crashed job falls back to a
    serial recompute, and worker telemetry is absorbed exactly once per
    successful job — never lost with a failure, never double-counted by
    the fallback."""

    def _session(self, small_graph, monkeypatch, fail_for=frozenset(),
                 error=RuntimeError):
        import repro.session.pool as pool_module
        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor",
            _fake_pool_executor(fail_for=fail_for, error=error),
        )
        return SimulationSession(small_graph, parallel=True, max_workers=2)

    def _jobs_absorbed(self):
        from repro.obs import get_registry
        counter = get_registry().counter(
            "repro_test_pool_jobs_total", "synthetic per-job worker metric"
        )
        return counter.value

    def test_failed_job_recomputed_serially(self, small_graph, monkeypatch):
        destinations = small_graph.ases[:6]
        broken = destinations[2]
        session = self._session(small_graph, monkeypatch, fail_for={broken})
        tables = session.compute_many(destinations)
        expected = compute_routes(small_graph, broken)
        assert dict(tables[broken].items()) == dict(expected.items())
        assert set(tables) == set(destinations)
        assert session.stats["parallel_fanouts"] == 1
        assert session.stats["tables_computed"] == len(destinations)

    def test_worker_metrics_absorbed_once_per_successful_job(
        self, small_graph, monkeypatch
    ):
        destinations = small_graph.ases[:6]
        failing = set(destinations[:2])
        session = self._session(small_graph, monkeypatch, fail_for=failing)
        session.compute_many(destinations)
        # failed jobs ship no payload; the serial fallback must not
        # re-absorb (or invent) telemetry for them
        assert self._jobs_absorbed() == len(destinations) - len(failing)

    def _job_seconds(self):
        from repro.obs import get_registry
        return get_registry().histogram(
            "repro_test_pool_job_seconds", "synthetic per-job worker timing",
            buckets=(0.1, 1.0),
        )

    def test_worker_histograms_survive_partial_failure(
        self, small_graph, monkeypatch
    ):
        """Histogram samples merge exactly once per successful job when a
        sibling job raises and falls back to serial: counts and sums
        track the survivors, and nothing is invented for the failures."""
        destinations = small_graph.ases[:6]
        failing = set(destinations[:2])
        session = self._session(small_graph, monkeypatch, fail_for=failing)
        session.compute_many(destinations)
        survivors = len(destinations) - len(failing)
        histogram = self._job_seconds()
        assert histogram.count == survivors
        assert histogram.sum == pytest.approx(0.25 * survivors)
        # every observation landed in the (0.1..1.0] bucket, once each
        assert histogram.counts == [0, survivors, 0]

    def test_worker_histograms_not_double_counted_on_success(
        self, small_graph, monkeypatch
    ):
        destinations = small_graph.ases[:6]
        session = self._session(small_graph, monkeypatch)
        session.compute_many(destinations)
        assert self._job_seconds().count == len(destinations)
        # a warm replay is all cache hits: no new worker payloads
        session.compute_many(destinations)
        assert self._job_seconds().count == len(destinations)

    def test_all_jobs_failing_degrades_to_serial(self, small_graph, monkeypatch):
        destinations = small_graph.ases[:5]
        session = self._session(small_graph, monkeypatch,
                                fail_for=set(destinations))
        tables = session.compute_many(destinations)
        serial = SimulationSession(small_graph, parallel=False)
        for destination in destinations:
            assert (
                dict(tables[destination].items())
                == dict(serial.compute(destination).items())
            )
        # no job completed: the fan-out was effectively serial
        assert session.stats["parallel_fanouts"] == 0
        assert self._jobs_absorbed() == 0.0

    def test_library_errors_propagate_from_pool(self, small_graph, monkeypatch):
        destinations = small_graph.ases[:4]
        session = self._session(small_graph, monkeypatch,
                                fail_for={destinations[1]}, error=RoutingError)
        with pytest.raises(RoutingError):
            session.compute_many(destinations)


class TestUnknownDestinationInFanout:
    """An AS outside the graph fails its whole fan-out with
    UnknownASError, on the serial path and through the pool (whose
    worker hands the shard back for the parent to raise), and leaves no
    fill in flight: a writer can still mutate, and the known
    destinations settle on the next call."""

    UNKNOWN = 10**9

    def _check(self, session, graph):
        known = graph.ases[:6]
        with pytest.raises(UnknownASError):
            session.compute_many(known + [self.UNKNOWN])
        assert session._fills_active == 0
        assert session._flights == {}
        session.mutate(lambda g: None)
        tables = session.compute_many(known)
        assert list(tables) == known
        for destination in known:
            assert dict(tables[destination].items()) == dict(
                compute_routes(graph, destination).items()
            )

    def test_serial(self, small_graph):
        session = SimulationSession(small_graph, parallel=False)
        self._check(session, small_graph)

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    )
    def test_pooled(self, small_graph):
        with SimulationSession(
            small_graph, parallel=True, max_workers=2
        ) as session:
            self._check(session, small_graph)
            assert session.stats["parallel_fanouts"] == 1
            assert session.pool_info()["alive"] is True


class TestEnsureSessionAndAdopt:
    def test_none_makes_fresh_session(self, paper_graph):
        session = ensure_session(paper_graph)
        assert session.graph is paper_graph

    def test_same_graph_passes_through(self, paper_graph):
        session = SimulationSession(paper_graph)
        assert ensure_session(paper_graph, session) is session

    def test_copy_is_a_different_graph(self, paper_graph):
        session = SimulationSession(paper_graph)
        with pytest.raises(SessionError):
            ensure_session(paper_graph.copy(), session)

    def test_adopt_seeds_the_cache(self, paper_graph):
        session = SimulationSession(paper_graph)
        table = compute_routes(paper_graph, F)
        session.adopt(table)
        assert session.compute(F) is table
        assert session.stats["hits"] == 1
        assert session.stats["tables_computed"] == 0

    def test_adopt_rejects_foreign_table(self, paper_graph):
        table = compute_routes(paper_graph.copy(), F)
        session = SimulationSession(paper_graph)
        with pytest.raises(SessionError):
            session.adopt(table)

    def test_adopt_rejects_a_dict_backed_table(self, paper_graph):
        """Regression: a pinned what-if table adopted as the plain one
        was then served as the destination's stable state."""
        session = SimulationSession(paper_graph)
        base = compute_routes(paper_graph, F)
        alternate = next(r for r in base.candidates(B) if r.path == (B, C, F))
        with pytest.raises(SessionError, match="dict-backed"):
            session.adopt(compute_routes(paper_graph, F, {B: alternate}))
        with pytest.raises(SessionError, match="dict-backed"):
            session.adopt(compute_routes_reference(paper_graph, F))
        assert session.tables_cached == 0
        assert session.compute(F).best(B).path == (B, E, F)


class TestForwarderIntegration:
    def test_forwarder_adopts_constructor_tables(self, paper_graph):
        from repro.dataplane import ASLevelForwarder

        session = SimulationSession(paper_graph)
        tables = {F: compute_routes(paper_graph, F)}
        ASLevelForwarder(tables, session=session)
        assert session.compute(F) is tables[F]
        assert session.stats["tables_computed"] == 0

    def test_forwarder_adopts_only_trees(self, paper_graph):
        from repro.dataplane import ASLevelForwarder

        session = SimulationSession(paper_graph)
        base = compute_routes(paper_graph, F)
        alternate = next(r for r in base.candidates(B) if r.path == (B, C, F))
        pinned = compute_routes(paper_graph, F, {B: alternate})
        ASLevelForwarder({F: pinned}, session=session)
        assert session.tables_cached == 0
        assert session.compute(F).best(B).path == (B, E, F)

    def test_on_demand_tables_come_from_shared_session(self, paper_graph):
        from repro.dataplane import ASLevelForwarder

        session = SimulationSession(paper_graph)
        warm = session.compute(E)  # e.g. the control plane already ran
        forwarder = ASLevelForwarder(
            {F: session.compute(F)}, session=session
        )
        forwarder._ensure_destination(E)
        assert forwarder._tables[E] is warm


class TestMonitorStableStateCheck:
    CONFIG = f"""
router bgp {A}
route-map AVOID permit 10
 match empty path 200
 try negotiation NEG
ip as-path access-list 200 deny _{E}_
negotiation NEG
 match avoid {E}
"""

    def _monitor(self, paper_graph):
        from repro.miro import ExportPolicy, MiroRuntime, PolicyMonitor
        from repro.policylang import parse_config

        runtime = MiroRuntime(paper_graph)
        return PolicyMonitor(
            runtime, A, parse_config(self.CONFIG).requester,
            export_policy=ExportPolicy.EXPORT,
        )

    def test_trigger_fires_offline(self, paper_graph):
        monitor = self._monitor(paper_graph)
        # both of A's stable-state candidates to F traverse E
        assert monitor.stable_state_check([F]) == {F: "NEG"}

    def test_satisfied_destination_reports_none(self, paper_graph):
        monitor = self._monitor(paper_graph)
        # A reaches B directly, no E on any candidate
        assert monitor.stable_state_check([B]) == {B: None}

    def test_check_populates_shared_session(self, paper_graph):
        monitor = self._monitor(paper_graph)
        session = SimulationSession(paper_graph)
        monitor.stable_state_check([F, B], session=session)
        assert session.stats["misses"] == 2
        session.compute(F)
        assert session.stats["hits"] == 1


class TestCrossExperimentSharing:
    def test_tables_5_2_and_5_3_share_tables(self, small_graph):
        """The acceptance criterion: running Table 5.2 then Table 5.3 on
        the same graph through one session must report nonzero cache hits
        — the second experiment reads tables the first computed."""
        from repro.experiments import (
            run_negotiation_state, run_success_rates,
        )

        session = SimulationSession(small_graph)
        run_success_rates(small_graph, "small", n_destinations=4,
                          sources_per_destination=5, seed=3, session=session)
        after_first = session.stats["hits"]
        run_negotiation_state(small_graph, n_destinations=4,
                              sources_per_destination=5, seed=3,
                              session=session)
        assert session.stats["hits"] > after_first
        assert session.stats["hits"] > 0

    def test_export_document_carries_session_stats(self, tiny_graph):
        from repro.experiments import export_results

        document = export_results(
            tiny_graph, "tiny", seed=1, n_destinations=2,
            sources_per_destination=3, n_stubs=2,
        )
        stats = document["session_stats"]
        assert stats["tables_computed"] > 0
        assert stats["hits"] > 0
        assert 0.0 < stats["hit_rate"] <= 1.0
        kernel = document["kernel"]
        assert kernel["active"] in {b["name"] for b in kernel["backends"]}
        assert kernel["default"] == "scalar"


class TestCliStats:
    def test_route_stats_flag(self, capsys):
        from repro.cli import main

        assert main([
            "route", "--profile", "tiny", "--seed", "1",
            "--destination", "1", "--limit", "3", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "routing-cost telemetry:" in out
        assert "  tables_computed: 1\n" in out

    def test_experiment_stats_flag(self, capsys):
        from repro.cli import main

        assert main([
            "experiment", "--profile", "tiny", "--seed", "1",
            "table5.2", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 5.2" in out
        assert "routing-cost telemetry:" in out

    def test_stats_off_by_default(self, capsys):
        from repro.cli import main

        assert main([
            "route", "--profile", "tiny", "--seed", "1",
            "--destination", "1", "--limit", "3",
        ]) == 0
        assert "telemetry" not in capsys.readouterr().out


class TestIncrementalDerivation:
    """After a mutation, misses should be served by deriving from the
    nearest cached pre-mutation table instead of recomputing."""

    def test_miss_after_failure_derives_from_parent(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(B, E)
        fresh = session.compute(F)
        assert fresh.best(B).path == (B, C, F)
        assert session.stats["tables_computed"] == 1
        assert session.stats["tables_derived"] == 1
        assert session.stats["misses"] == 2  # a derivation is still a miss

    def test_derived_table_matches_full_compute(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(B, E)
        derived = session.compute(F)
        full = compute_routes(paper_graph, F)
        assert {a: r.path for a, r in derived.items()} == {
            a: r.path for a, r in full.items()
        }

    def test_affected_set_size_recorded(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(B, E)
        session.compute(F)
        # pre-failure only A and B routed over B—E
        assert session.stats["mean_affected_size"] == 2.0

    def test_no_parent_means_full_compute(self, paper_graph):
        session = SimulationSession(paper_graph)
        paper_graph.remove_link(B, E)
        session.compute(F)
        assert session.stats["tables_derived"] == 0
        assert session.stats["tables_computed"] == 1

    def test_link_addition_recomputes_fully(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.add_peer_link(A, C)
        session.compute(F)
        assert session.stats["tables_derived"] == 0
        assert session.stats["tables_computed"] == 2

    def test_compute_many_derives_after_failure(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute_many([F, E])
        paper_graph.remove_link(B, E)
        tables = session.compute_many([F, E])
        assert session.stats["tables_derived"] == 2
        assert session.stats["tables_computed"] == 2
        full = compute_routes(paper_graph, F)
        assert {a: r.path for a, r in tables[F].items()} == {
            a: r.path for a, r in full.items()
        }

    def test_revert_serves_pre_failure_tables_from_cache(self, paper_graph):
        from repro.topology import TopologyDelta

        session = SimulationSession(paper_graph)
        original = session.compute(F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        session.compute(F)
        applied.revert()
        assert session.compute(F) is original
        assert session.stats["hits"] == 1

    def test_flap_through_mutate_makes_no_snapshot_under_the_lock(
        self, paper_graph
    ):
        """The writer only moves the version and the memo references;
        the next fill derives the snapshot from the parent's, and the
        revert puts the parent's back."""
        from repro.obs import get_registry

        builds = get_registry().counter("repro_topology_snapshot_builds_total")
        derived = get_registry().counter(
            "repro_topology_snapshot_derived_total")
        session = SimulationSession(paper_graph)
        session.compute(F)
        parent = paper_graph.snapshot()
        made = builds.value
        applied = session.mutate(TopologyDelta.link_down(B, E).apply)
        assert builds.value == made
        session.compute(F)
        assert (builds.value, derived.value) == (made + 1, 1)
        assert session.stats["tables_derived"] == 1
        session.mutate(lambda graph: applied.revert())
        assert paper_graph.snapshot() is parent
        assert builds.value == made + 1

    def test_chain_of_failures_derives_each_step(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(B, E)
        session.compute(F)
        paper_graph.remove_link(D, E)
        session.compute(F)
        assert session.stats["tables_computed"] == 1
        assert session.stats["tables_derived"] == 2

    def test_stats_render_shows_derived_counts(self, paper_graph):
        from repro.cli import _render_section

        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(B, E)
        session.compute(F)
        text = _render_section("routing-cost telemetry:", session.stats)
        assert "  tables_derived: 1\n" in text
        assert "  mean_affected_size: 2\n" in text

    def test_to_dict_exports_new_counters(self, paper_graph):
        session = SimulationSession(paper_graph)
        stats = session.stats
        for key in ("tables_derived", "mean_affected_size", "auto_pruned"):
            assert key in stats


class TestAutoPrune:
    def test_superseded_entries_reclaimed_on_next_lookup(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        paper_graph.remove_link(D, E)
        session.compute(F)      # derived; the first table stays its seed
        paper_graph.remove_link(B, C)
        session.compute(E)
        # the derived F table is the nearer derivation parent now, so
        # the first one is superseded and dropped
        assert session.stats["auto_pruned"] == 1
        assert session.tables_cached == 2

    def test_derivation_parents_survive_auto_prune(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute(F)
        session.compute(E)
        paper_graph.remove_link(B, E)
        session.compute(F)  # triggers auto-prune, then derives
        assert session.stats["auto_pruned"] == 0
        assert session.stats["tables_derived"] == 1
        assert session.tables_cached == 3

    def test_abandoned_branch_pruned_after_revert(self, paper_graph):
        from repro.topology import TopologyDelta

        session = SimulationSession(paper_graph)
        session.compute(F)
        applied = TopologyDelta.link_down(B, E).apply(paper_graph)
        session.compute(F)
        applied.revert()
        paper_graph.remove_link(D, E)
        session.compute(F)
        # the post-failure entry's version is no ancestor of the current
        # state, so it cannot seed derivations and is dropped
        assert session.stats["auto_pruned"] == 1


def restamps() -> float:
    return _CACHE_EVENTS.labels(event="restamp").value


class TestRestamp:
    """``mutate()`` re-stamps the cached trees a link failure did not
    cut: the same table object, aliased at the new version."""

    def test_off_tree_failure_restamps_the_same_table(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        table = session.compute(F)          # tree edges AB BE CF DE EF
        session.mutate(TopologyDelta.link_down(C, E).apply)
        assert restamps() == 1
        assert session.peek(F) is table
        assert session.stats["misses"] == 1

    def test_an_unresolved_tree_edge_is_pulled_before_the_probe(
        self, paper_graph, monkeypatch
    ):
        """A's descent route ABEF is not settled by the scalar fill, so
        the A–B probe must pull A first: aliased, the table's later pull
        on the old snapshot would serve the dead link."""
        from repro.bgp import kernels

        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "scalar")
        session = SimulationSession(paper_graph, parallel=False)
        table = session.compute(F)
        a = paper_graph.snapshot().index_of(A)
        assert table._tree.parent[a] == -1  # unresolved
        session.mutate(TopologyDelta.link_down(A, B).apply)
        assert restamps() == 0
        assert table._tree._descent is not None  # pulled, not completed
        assert session.peek(F) is None
        # derived from the old table, which the derivation completes
        assert session.compute(F).default_path(A) == (A, D, E, F)
        assert table.default_path(A) == (A, B, E, F)  # the old state

    def test_cut_tree_is_derived_on_first_lookup(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        table = session.compute(F)
        session.mutate(TopologyDelta.link_down(B, E).apply)
        assert restamps() == 0
        assert session.peek(F) is None
        assert session.compute(F).default_path(B) == (B, C, F)
        assert session.stats["tables_derived"] == 1
        assert table.default_path(B) == (B, E, F)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_served_table_is_the_reference(self, small_graph, seed):
        """After every event of a seeded flap sequence, each table the
        cache holds at the new version equals the reference walk in
        values and order, and the re-stamped ones are the very tables
        served before the event."""
        rng = random.Random(seed)
        graph = small_graph
        destinations = rng.sample(graph.ases, 24)
        session = SimulationSession(graph, parallel=False)
        session.compute_many(destinations)
        applied, reverted = [], []
        for _ in range(30):
            before = {d: session.peek(d) for d in destinations}
            version, counted = graph.version, restamps()
            roll = rng.random()
            failure = True
            if reverted and roll < 0.15:
                record = reverted.pop()
                session.mutate(lambda g, r=record: r.reapply())
                applied.append(record)
            elif applied and roll < 0.4:
                record = applied.pop()
                session.mutate(lambda g, r=record: r.revert())
                reverted.append(record)
                failure = False
            else:
                if roll < 0.5:
                    delta = TopologyDelta.as_down(rng.choice(graph.ases))
                else:
                    delta = TopologyDelta.link_down(
                        *rng.choice(sorted(graph.iter_links()))[:2])
                applied.append(session.mutate(delta.apply))
                reverted.clear()
            served = {
                destination: table
                for (version, destination), table
                in session._cache._entries.items()
                if version == graph.version
            }
            for destination, table in served.items():
                reference = compute_routes_reference(graph, destination)
                assert first_divergence(reference, table, "restamp") is None
            if failure and graph.version != version:
                # nothing was filled at the new version yet: all it holds
                # are the re-stamped tables, each the one served before
                assert len(served) == restamps() - counted
                assert all(t is before[d] for d, t in served.items())
            session.compute_many(destinations)
        assert restamps() > 0

    def test_no_restamp_for_a_link_addition(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute(F)
        session.mutate(lambda g: g.add_peer_link(A, C))
        assert restamps() == 0
        assert session.peek(F) is None

    def test_no_restamp_for_a_link_restore(self, paper_graph):
        repair = TopologyDelta.link_restore(paper_graph, C, E)
        session = SimulationSession(paper_graph, parallel=False)
        session.mutate(TopologyDelta.link_down(C, E).apply)
        session.compute(F)
        session.mutate(repair.apply)
        assert restamps() == 0
        assert session.peek(F) is None

    def test_no_restamp_when_the_as_set_changes(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        session.compute(F)
        session.mutate(lambda g: (g.remove_link(C, E), g.add_as(99)))
        assert restamps() == 0
        assert session.peek(F) is None

    def test_revert_after_a_restamp_hits_with_no_fill(self, paper_graph):
        session = SimulationSession(paper_graph, parallel=False)
        table = session.compute(F)
        applied = session.mutate(TopologyDelta.link_down(C, E).apply)
        assert session.compute(F) is table
        fills = _CACHE_EVENTS.labels(event="fill").value
        session.mutate(lambda g: applied.revert())
        assert session.compute(F) is table
        assert _CACHE_EVENTS.labels(event="fill").value == fills
        assert session.stats["misses"] == 1

    def test_a_full_cache_restamps_and_evicts_nothing(self, paper_graph):
        session = SimulationSession(
            paper_graph, max_cached_tables=2, parallel=False)
        session.compute_many([F, A])
        session.mutate(TopologyDelta.link_down(C, E).apply)
        assert restamps() == 0
        assert session.stats["evictions"] == 0
        assert session.tables_cached == 2

    def test_aliases_take_only_the_free_slots(self, paper_graph):
        session = SimulationSession(
            paper_graph, max_cached_tables=3, parallel=False)
        session.compute_many([F, A])        # C—E is on neither tree
        session.mutate(TopologyDelta.link_down(C, E).apply)
        assert restamps() == 1
        assert session.stats["evictions"] == 0
        assert session.tables_cached == 3


class TestPersistentPool:
    """The fan-out pool persists across compute_many calls (no per-call
    executor churn), publishes the snapshot once per graph version, and
    tears its workers down deterministically on close()."""

    def _forced(self, graph, **kwargs):
        kwargs.setdefault("max_workers", 2)
        return SimulationSession(graph, parallel=True, **kwargs)

    def test_repeated_same_version_fanouts_reuse_workers(self, small_graph):
        session = self._forced(small_graph)
        try:
            session.compute_many(small_graph.ases[:4])
            executor = session._pool.executor()
            assert executor is not None
            pids = set(executor._processes)
            session.compute_many(small_graph.ases[4:8])
            assert session._pool.executor() is executor
            assert set(executor._processes) == pids
            assert session.stats["parallel_fanouts"] == 2
        finally:
            session.close()

    def test_snapshot_published_once_per_version(self, small_graph):
        from repro.session.pool import _POOL_SHIP_SECONDS

        session = self._forced(small_graph)
        try:
            session.compute_many(small_graph.ases[:4])
            publishes = _POOL_SHIP_SECONDS.count
            session.compute_many(small_graph.ases[4:8])
            # same graph version: no republish, no new executor
            assert _POOL_SHIP_SECONDS.count == publishes
            small_graph.remove_link(*next(small_graph.iter_links())[:2])
            session.clear_cache()
            session.compute_many(small_graph.ases[:4])
            assert _POOL_SHIP_SECONDS.count == publishes + 1
        finally:
            session.close()

    def test_close_leaves_no_children(self, small_graph):
        import multiprocessing

        before = {p.pid for p in multiprocessing.active_children()}
        session = self._forced(small_graph)
        session.compute_many(small_graph.ases[:4])
        assert session.stats["parallel_fanouts"] == 1
        session.close(wait=True)
        after = {p.pid for p in multiprocessing.active_children()}
        # every worker this session spawned has exited; children that
        # predate the session (other tests' unclosed pools) are not ours
        assert after <= before

    def test_session_usable_after_close(self, small_graph):
        session = self._forced(small_graph)
        try:
            first = session.compute_many(small_graph.ases[:4])
            session.close(wait=True)
            session.clear_cache()
            second = session.compute_many(small_graph.ases[:4])
            assert session.stats["parallel_fanouts"] == 2
            for destination in small_graph.ases[:4]:
                assert (
                    dict(first[destination].items())
                    == dict(second[destination].items())
                )
        finally:
            session.close()

    def test_context_manager_closes_pool(self, small_graph):
        with self._forced(small_graph) as session:
            session.compute_many(small_graph.ases[:4])
            assert session._pool.executor() is not None
        assert session._pool.executor() is None

    def test_sharded_fanout_matches_serial_byte_for_byte(self, small_graph):
        import pickle

        destinations = list(small_graph.ases)
        serial = SimulationSession(small_graph, parallel=False)
        serial_tables = serial.compute_many(destinations)
        with self._forced(small_graph) as session:
            pool_tables = session.compute_many(destinations)
            assert session.stats["parallel_fanouts"] == 1
        for destination in destinations:
            assert pickle.dumps(dict(pool_tables[destination].items())) == \
                pickle.dumps(dict(serial_tables[destination].items()))

    def test_default_shards_scale_with_workers(self, small_graph):
        from repro.session import POOL_SHARD_FACTOR

        with self._forced(small_graph, max_workers=2) as session:
            misses = list(small_graph.ases[:40])
            shards = session._pool.shard(misses)
            assert len(shards) == 2 * POOL_SHARD_FACTOR
            # never more shards than misses
            assert len(session._pool.shard(misses[:3])) == 3

    def test_invalid_pool_params_rejected(self, small_graph):
        with pytest.raises(SessionError):
            SimulationSession(small_graph, max_workers=0)


class TestShipAccounting:
    """Regression for the per-fan-out vs per-worker ship accounting bug:
    ship cost is recorded by the worker that actually attaches — once per
    worker per graph version — not once per fan-out in the parent."""

    def _metrics(self):
        import repro.session.pool as pool_module

        return (
            pool_module._POOL_SHIP_BYTES,
            pool_module._POOL_ATTACH_SECONDS,
            pool_module._POOL_ATTACHES,
        )


    def test_shm_ship_is_descriptor_sized_per_attach(self, small_graph):
        ship_bytes, attach_seconds, attaches = self._metrics()
        with SimulationSession(
            small_graph, parallel=True, max_workers=2
        ) as session:
            session.compute_many(small_graph.ases[:8])
            session.compute_many(small_graph.ases[8:16])
            descriptor_bytes = session._pool.ship_bytes
        attached = attaches.value
        # one observation per worker that attached — not one per fan-out,
        # and no re-attach for the second same-version fan-out
        assert 1 <= attached <= 2
        assert ship_bytes.count == attached
        assert attach_seconds.count == attached
        assert ship_bytes.sum == pytest.approx(descriptor_bytes * attached)
        assert descriptor_bytes < 512

    def test_version_advance_reattaches_once_per_worker(self, small_graph):
        ship_bytes, _seconds, attaches = self._metrics()
        with SimulationSession(
            small_graph, parallel=True, max_workers=2
        ) as session:
            session.compute_many(small_graph.ases[:8])
            first = attaches.value
            small_graph.remove_link(*next(small_graph.iter_links())[:2])
            session.clear_cache()
            session.compute_many(small_graph.ases[:8])
            second = attaches.value
        assert first >= 1
        # the new version forces fresh attaches, again at most one per
        # participating worker
        assert first < second <= first + 2
        assert ship_bytes.count == second


def _exploding_executor(*args, **kwargs):
    raise AssertionError("no pool executor may be constructed here")


class TestOneTransport:
    """Shared-memory shards or serial settling — there is no second
    transport: without shared memory a pooled fan-out settles serially."""

    def test_no_shared_memory_means_serial(self, small_graph, monkeypatch):
        import pickle

        import repro.session.pool as pool_module

        monkeypatch.setattr(
            pool_module, "shared_memory_available", lambda: False
        )
        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", _exploding_executor
        )
        destinations = list(small_graph.ases[:12])
        serial = SimulationSession(small_graph, parallel=False)
        expected = serial.compute_many(destinations)
        with SimulationSession(
            small_graph, parallel=True, max_workers=2
        ) as session:
            tables = session.compute_many(destinations)
            info = session.pool_info()
            assert info["alive"] is False
            assert info["shared_memory"] is False
            assert info["published_version"] is None
            assert session.stats["parallel_fanouts"] == 0
            assert session.stats["tables_computed"] == len(destinations)
        for destination in destinations:
            assert pickle.dumps(dict(tables[destination].items())) == \
                pickle.dumps(dict(expected[destination].items()))

    def test_pool_that_cannot_start_means_serial(
        self, small_graph, monkeypatch
    ):
        import repro.session.pool as pool_module

        def refuse(*args, **kwargs):
            raise OSError("spawn refused")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        destinations = list(small_graph.ases[:6])
        with SimulationSession(
            small_graph, parallel=True, max_workers=2
        ) as session:
            tables = session.compute_many(destinations)
            assert session.pool_info()["alive"] is False
            assert session.stats["parallel_fanouts"] == 0
        for destination in destinations:
            assert dict(tables[destination].items()) == dict(
                compute_routes(small_graph, destination).items()
            )


class TestOneFillPath:
    """compute(d) is compute_many([d]) minus the fan-out bookkeeping:
    both move the per-session stats and the process-wide cache events
    identically on a hit, a cold miss and a post-failure derive."""

    EVENTS = ("hit", "miss", "fill", "derive", "coalesced")

    def _observe(self, graph, lookup):
        """Run cold miss, hit, failure, derive through ``lookup`` and
        return the (stats, events) deltas after each step."""
        from repro.session.cache import _CACHE_EVENTS

        def events():
            return {
                e: _CACHE_EVENTS.labels(event=e).value for e in self.EVENTS
            }

        session = SimulationSession(graph, parallel=False)
        trail = []
        before = events()

        def step():
            nonlocal before
            after = events()
            stats = session.stats
            trail.append((
                stats["hits"], stats["misses"], stats["tables_computed"],
                stats["tables_derived"], stats["mean_affected_size"],
                stats["coalesced"], session.tables_cached,
                {e: after[e] - before[e] for e in self.EVENTS},
            ))
            before = after

        lookup(session, F)      # cold miss
        step()
        lookup(session, F)      # hit
        step()
        graph.remove_link(B, E)
        table = lookup(session, F)      # post-failure derive
        step()
        assert table.best(B).path == (B, C, F)
        return trail, session.stats["fanouts"]

    def test_compute_and_compute_many_count_alike(self, paper_graph):
        single, single_fanouts = self._observe(
            paper_graph.copy(), lambda session, d: session.compute(d)
        )
        batch, batch_fanouts = self._observe(
            paper_graph.copy(),
            lambda session, d: session.compute_many([d])[d],
        )
        assert single == batch
        cold, hit, derive = (step[-1] for step in single)
        assert cold == {"hit": 0, "miss": 1, "fill": 1, "derive": 0,
                        "coalesced": 0}
        assert hit == {"hit": 1, "miss": 0, "fill": 0, "derive": 0,
                       "coalesced": 0}
        assert derive == {"hit": 0, "miss": 1, "fill": 1, "derive": 1,
                          "coalesced": 0}
        # a fan-out is a compute_many call, whatever it found
        assert single_fanouts == 0
        assert batch_fanouts == 3


class TestOneTally:
    """Each session event is counted once, into the session's tally and
    the registry child together: ``stats`` and the registry agree."""

    @staticmethod
    def _registry():
        from repro.session.cache import COUNTERS

        return {event: child.value for event, child in COUNTERS.items()}

    @staticmethod
    def _as_stats(counts):
        """The ``stats`` keys each registry event count stands for."""
        return {
            "hits": counts["hit"],
            "misses": counts["miss"],
            "tables_computed": counts["fill"] - counts["derive"],
            "tables_derived": counts["derive"],
            "auto_pruned": counts["prune"],
            "evictions": counts["evict"],
            "coalesced": counts["coalesced"],
            "fanouts": counts["serial"] + counts["parallel"],
            "parallel_fanouts": counts["parallel"],
        }

    def _agrees(self, session, counts):
        stats = session.stats
        assert {key: stats[key] for key in self._as_stats(counts)} == \
            self._as_stats(counts)

    def test_stats_equal_the_registry_counts(self, small_graph):
        graph = small_graph
        destinations = graph.multihomed_stubs()[:4]
        stub = destinations[0]
        provider = graph.neighbors(stub)[0]
        session = SimulationSession(graph, max_cached_tables=8, parallel=False)
        assert self._registry() == dict.fromkeys(self._registry(), 0)

        session.compute_many(destinations)              # cold fan-out
        self._agrees(session, self._registry())
        session.compute_many(destinations)              # warm repeat
        self._agrees(session, self._registry())
        applied = session.mutate(TopologyDelta.link_down(stub, provider).apply)
        session.compute_many(destinations)              # derived lookups
        self._agrees(session, self._registry())
        session.mutate(lambda g: applied.revert())
        session.compute_many(destinations)              # revert: hits
        self._agrees(session, self._registry())
        session.compute_many(graph.ases[:12])           # LRU overflow
        self._agrees(session, self._registry())

        first = self._registry()
        for event in ("hit", "miss", "fill", "derive", "evict", "prune",
                      "restamp", "serial"):
            assert first[event] > 0, event
        assert session.stats["peak_cached_tables"] == 9

        # a second session in the same process: its tally is its own,
        # the registry holds the sum of both
        pooled = shared_memory_available()
        with SimulationSession(graph, parallel=pooled, max_workers=2) as other:
            other.compute_many(graph.ases[:8])
            second = other.stats
            assert second["parallel_fanouts"] == int(pooled)
            assert second["misses"] == 8 and second["hits"] == 0
        total = self._registry()
        self._agrees(session, first)
        assert self._as_stats(total) == {
            key: value + second[key]
            for key, value in self._as_stats(first).items()
        }


class TestCachedTablesGauge:
    """repro_session_cached_tables follows every cache size change, not
    only fills."""

    def _gauge(self):
        from repro.session.cache import _CACHED_TABLES

        return _CACHED_TABLES.value

    def test_gauge_tracks_tables_cached(self, paper_graph):
        from repro.topology import TopologyDelta

        session = SimulationSession(paper_graph, parallel=False)
        session.compute_many([F, E, D])
        assert self._gauge() == session.tables_cached == 3

        session.clear_cache()
        assert self._gauge() == session.tables_cached == 0

        session.adopt(compute_routes(paper_graph, F))
        assert self._gauge() == session.tables_cached == 1

        # version-advance auto-prune: F has a current-version table, so
        # the revert's lookup drops the abandoned branch's entries
        session.compute_many([F, E])
        applied = TopologyDelta.link_down(D, E).apply(paper_graph)
        session.compute(F)
        applied.revert()
        session.compute(F)
        assert session.stats["auto_pruned"] >= 1
        assert self._gauge() == session.tables_cached
