"""Concurrency contract of the SessionCore: single-flight fills, the
mutate writer gate, and shutdown with work in flight.

These tests hammer the core from real threads.  Every join carries a
timeout and asserts the thread actually finished — a deadlock shows up
as a failed assertion, not a hung test run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.bgp.routing import compute_routes_reference
from repro.session import SessionCore, SimulationSession
from repro.session.cache import _CACHE_EVENTS
from repro.topology import generate_topology, SMALL, TINY
from repro.topology.delta import TopologyDelta
from repro.session.pool import _SHARED_SEGMENTS, shared_memory_available

JOIN_TIMEOUT = 60.0


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"threads deadlocked: {alive}"


def fills() -> float:
    return _CACHE_EVENTS.labels(event="fill").value


# ----------------------------------------------------------------------
# single-flight cache fills
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_misses_one_destination_settle_once(self):
        graph = generate_topology(TINY, seed=7)
        destination = graph.ases[0]
        core = SessionCore(graph, parallel=False)
        before = fills()
        tables = [None] * 16

        def lookup(i):
            tables[i] = core.compute(destination)

        run_all([
            threading.Thread(target=lookup, args=(i,), name=f"lookup-{i}")
            for i in range(16)
        ])
        assert fills() - before == 1
        assert all(t is tables[0] for t in tables)
        # one leader missed; every other thread either joined its flight
        # (coalesced) or arrived after the fill landed (hit)
        assert core.stats["misses"] == 1
        assert core.stats["hits"] + core.stats["coalesced"] == 15
        core.close()

    def test_concurrent_compute_many_share_flights(self):
        graph = generate_topology(TINY, seed=7)
        destinations = graph.ases[:12]
        core = SessionCore(graph, parallel=False)
        before = fills()
        results = {}

        def fanout(name):
            results[name] = core.compute_many(destinations)

        run_all([
            threading.Thread(target=fanout, args=(i,), name=f"fanout-{i}")
            for i in range(6)
        ])
        # every destination settled exactly once across all six callers
        assert fills() - before == len(destinations)
        reference = results[0]
        for name, tables in results.items():
            assert set(tables) == set(destinations)
            for destination in destinations:
                assert tables[destination] is reference[destination]
        core.close()

    def test_leader_error_releases_followers(self):
        graph = generate_topology(TINY, seed=7)
        core = SessionCore(graph, parallel=False)
        errors = []

        def lookup():
            try:
                core.compute(987654)  # unknown AS: the settle raises
            except Exception as exc:
                errors.append(type(exc).__name__)

        run_all([
            threading.Thread(target=lookup, name=f"err-{i}")
            for i in range(8)
        ])
        assert len(errors) == 8
        assert core._flights == {}, "failed flights must not linger"
        # and the core still works
        table = core.compute(graph.ases[0])
        assert table.routed_ases()
        core.close()


# ----------------------------------------------------------------------
# the mutate writer gate
# ----------------------------------------------------------------------
class TestMutateGate:
    def test_churn_races_fanouts_without_corruption(self):
        graph = generate_topology(SMALL, seed=42)
        destinations = graph.ases[:8]
        links = [(a, b) for a, b, _ in graph.iter_links()][:4]
        version_before = graph.version
        core = SessionCore(graph, parallel=False)
        stop = threading.Event()
        failures = []

        def reader(i):
            try:
                while not stop.is_set():
                    tables = core.compute_many(destinations)
                    for table in tables.values():
                        # a torn read (table from a half-applied delta)
                        # would produce an unroutable or stale table
                        assert table.routed_ases()
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        def writer():
            try:
                for a, b in links * 3:
                    applied = core.mutate(TopologyDelta.link_down(a, b).apply)
                    core.mutate(lambda g: applied.revert())
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                stop.set()

        run_all([
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(3)
        ] + [threading.Thread(target=writer, name="writer")])
        assert not failures, failures
        assert graph.version == version_before
        core.close()

    def test_tables_served_under_churn_are_the_reference(self):
        """Readers race a writer whose link failures re-stamp the trees
        they leave intact: every table a reader got while no mutation
        completed is the reference walk at that version's link state."""
        graph = generate_topology(SMALL, seed=42)
        destinations = graph.ases[:8]
        links = [(a, b) for a, b, _ in graph.iter_links()][:4]

        def reference_paths():
            tables = {d: compute_routes_reference(graph, d)
                      for d in destinations}
            return {d: {s: t.default_path(s) for s in graph.ases}
                    for d, t in tables.items()}

        expected = {None: reference_paths()}
        for a, b in links:
            applied = TopologyDelta.link_down(a, b).apply(graph)
            expected[(a, b)] = reference_paths()
            applied.revert()
        state = {graph.version: None}
        mutations, reads = [0], [0]
        core = SessionCore(graph, parallel=False)
        stop = threading.Event()
        seen, failures = {}, []

        def reader():
            try:
                while not stop.is_set():
                    count, version = mutations[0], graph.version
                    tables = core.compute_many(destinations)
                    if (mutations[0], graph.version) == (count, version):
                        for d, table in tables.items():
                            seen[(version, d, id(table))] = table
                    reads[0] += 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        def mutate(fn):
            applied = core.mutate(fn)
            mutations[0] += 1
            # let the readers see this state before the next one
            target, deadline = reads[0] + 8, time.monotonic() + JOIN_TIMEOUT
            while reads[0] < target and time.monotonic() < deadline:
                time.sleep(0)
            return applied

        def writer():
            try:
                for a, b in links * 3:
                    applied = mutate(TopologyDelta.link_down(a, b).apply)
                    state[applied.version_after] = (a, b)
                    mutate(lambda g: applied.revert())
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_all([
                threading.Thread(target=reader, name=f"reader-{i}")
                for i in range(4)
            ] + [threading.Thread(target=writer, name="writer")])
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert _CACHE_EVENTS.labels(event="restamp").value > 0
        for (version, d, _), table in seen.items():
            want = expected[state[version]][d]
            assert {s: table.default_path(s) for s in graph.ases} == want

    def test_mutate_waits_for_inflight_fill(self):
        """The writer gate: mutate blocks while a fill holds the floor."""
        graph = generate_topology(TINY, seed=7)
        core = SessionCore(graph, parallel=False)
        order = []
        fill_started = threading.Event()
        release_fill = threading.Event()

        real_settle = core._fill_batch

        def slow_fill(*args, **kwargs):
            fill_started.set()
            assert release_fill.wait(JOIN_TIMEOUT)
            return real_settle(*args, **kwargs)

        core._fill_batch = slow_fill

        def fanout():
            core.compute_many(graph.ases[:4])
            order.append("fill")

        def churn():
            assert fill_started.wait(JOIN_TIMEOUT)
            core.mutate(lambda g: order.append("mutate"))

        threads = [
            threading.Thread(target=fanout, name="fanout"),
            threading.Thread(target=churn, name="churn"),
        ]
        for thread in threads:
            thread.start()
        assert fill_started.wait(JOIN_TIMEOUT)
        time.sleep(0.05)  # give the mutate a chance to (wrongly) jump in
        assert "mutate" not in order, "mutate ran during an in-flight fill"
        release_fill.set()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        assert order.index("fill") < order.index("mutate")
        core.close()


# ----------------------------------------------------------------------
# close() with work in flight
# ----------------------------------------------------------------------
class TestCloseUnderLoad:
    def test_close_during_concurrent_compute_many(self):
        """close() while fanouts run: no deadlock, callers finish."""
        graph = generate_topology(SMALL, seed=42)
        destinations = graph.ases[:10]
        session = SimulationSession(graph, parallel=False)
        started = threading.Event()
        outcomes = []

        def fanout(i):
            started.set()
            try:
                tables = session.compute_many(destinations)
                outcomes.append(len(tables))
            except Exception as exc:
                outcomes.append(repr(exc))

        threads = [
            threading.Thread(target=fanout, args=(i,), name=f"fan-{i}")
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        started.wait(JOIN_TIMEOUT)
        session.close()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        assert outcomes.count(len(destinations)) >= 1

    def test_context_exit_with_inflight_lookups(self):
        graph = generate_topology(TINY, seed=7)
        results = []
        with SimulationSession(graph, parallel=False) as session:
            threads = [
                threading.Thread(
                    target=lambda d=d: results.append(session.compute(d)),
                    name=f"ctx-{d}",
                )
                for d in graph.ases[:6]
            ]
            run_all(threads)
        assert len(results) == 6

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    )
    def test_no_leaked_segments_after_close(self):
        """Every published shm segment is unlinked by close()."""
        published = _SHARED_SEGMENTS.labels(event="publish")
        unlinked = _SHARED_SEGMENTS.labels(event="unlink")
        published_before = published.value
        unlinked_before = unlinked.value
        graph = generate_topology(SMALL, seed=42)
        session = SimulationSession(graph, parallel=True, max_workers=2)
        try:
            session.compute_many(graph.ases[:24])
        finally:
            session.close()
        shipped = published.value - published_before
        assert shipped >= 1, "parallel fan-out should publish a snapshot"
        assert unlinked.value - unlinked_before == shipped

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    )
    @pytest.mark.parametrize("first", ["close", "publish"])
    def test_no_leaked_segments_when_close_races_fanout(
        self, first, monkeypatch
    ):
        """close() leaves the session usable, so a fan-out it overtakes
        republishes afterwards: whichever runs first, once the thread has
        joined and the owner has closed, every segment is unlinked."""
        published = _SHARED_SEGMENTS.labels(event="publish")
        unlinked = _SHARED_SEGMENTS.labels(event="unlink")
        published_before = published.value
        unlinked_before = unlinked.value
        graph = generate_topology(SMALL, seed=42)
        session = SimulationSession(graph, parallel=True, max_workers=2)
        at_ensure = threading.Event()
        closed = threading.Event()
        ensure = session._pool.ensure

        def ordered_ensure(snapshot):
            if first == "close":
                at_ensure.set()
                assert closed.wait(JOIN_TIMEOUT)
                return ensure(snapshot)
            try:
                return ensure(snapshot)
            finally:
                at_ensure.set()

        monkeypatch.setattr(session._pool, "ensure", ordered_ensure)

        def fanout():
            try:
                session.compute_many(graph.ases[:24])
            except Exception:
                pass  # a close() racing the fan-out may abort it

        thread = threading.Thread(target=fanout, name="race-fan")
        thread.start()
        assert at_ensure.wait(JOIN_TIMEOUT)
        session.close()
        closed.set()
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive()
        session.close()
        shipped = published.value - published_before
        assert shipped == 1
        assert unlinked.value - unlinked_before == shipped


# ----------------------------------------------------------------------
# peek
# ----------------------------------------------------------------------
class TestPeek:
    def test_peek_never_settles(self):
        graph = generate_topology(TINY, seed=7)
        core = SessionCore(graph, parallel=False)
        destination = graph.ases[0]
        before = fills()
        assert core.peek(destination) is None
        assert fills() == before
        assert core.stats["misses"] == 0  # peek misses are not session misses
        table = core.compute(destination)
        assert core.peek(destination) is table
        assert core.stats["hits"] >= 1
        core.close()

    def test_peek_respects_version(self):
        graph = generate_topology(TINY, seed=7)
        core = SessionCore(graph, parallel=False)
        destination = graph.ases[0]
        core.compute(destination)
        a, b, _ = next(iter(graph.iter_links()))
        applied = core.mutate(TopologyDelta.link_down(a, b).apply)
        assert core.peek(destination) is None, "stale table served"
        core.mutate(lambda g: applied.revert())
        assert core.peek(destination) is not None
        core.close()
