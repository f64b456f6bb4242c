"""Thread-safety of the metrics registry: exact totals under contention.

Lost updates under racing ``inc``/``observe`` calls are the failure
mode these tests target — before the instrument locks, two threads
could read-modify-write the same float and drop one increment.  Each
test hammers one instrument from many threads and asserts the *exact*
expected total, which an unlocked implementation fails with near
certainty at these iteration counts.
"""

from __future__ import annotations

import threading

from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry

THREADS = 8
ITERATIONS = 5000


def hammer(fn):
    threads = [
        threading.Thread(target=fn, name=f"hammer-{i}")
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(t.is_alive() for t in threads)


class TestCounter:
    def test_concurrent_inc_is_exact(self):
        counter = MetricsRegistry().counter("t_counter_total")

        def work():
            for _ in range(ITERATIONS):
                counter.inc()

        hammer(work)
        assert counter.value == THREADS * ITERATIONS

    def test_concurrent_weighted_inc_is_exact(self):
        counter = MetricsRegistry().counter("t_weighted_total")

        def work():
            for _ in range(ITERATIONS):
                counter.inc(0.5)

        hammer(work)
        assert counter.value == THREADS * ITERATIONS * 0.5

    def test_labeled_children_do_not_cross_talk(self):
        family = MetricsRegistry().counter("t_labeled_total", labels=("t",))

        def work(label):
            child = family.labels(t=label)
            for _ in range(ITERATIONS):
                child.inc()

        threads = [
            threading.Thread(target=work, args=(str(i % 4),))
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        total = sum(
            child.value for _, child in
            family.samples()
        )
        assert total == THREADS * ITERATIONS


class TestGauge:
    def test_concurrent_inc_dec_returns_to_zero(self):
        gauge = MetricsRegistry().gauge("t_gauge")

        def work():
            for _ in range(ITERATIONS):
                gauge.inc()
                gauge.dec()

        hammer(work)
        assert gauge.value == 0.0


class TestHistogram:
    def test_concurrent_observe_keeps_count_and_sum(self):
        histogram = MetricsRegistry().histogram(
            "t_hist_seconds", buckets=(0.1, 1.0, 10.0)
        )

        def work():
            for _ in range(ITERATIONS):
                histogram.observe(0.5)

        hammer(work)
        assert histogram.count == THREADS * ITERATIONS
        assert histogram.sum == THREADS * ITERATIONS * 0.5
        # every observation landed in the 1.0 bucket
        assert histogram.counts[1] == THREADS * ITERATIONS

    def test_quantile_readable_while_observing(self):
        """Quantile reads race observes without deadlock or crash.

        The observer pauses half-way until every reader has read a
        partly filled histogram, so each reader provably runs while
        observations land, however the threads are scheduled.
        """
        histogram = MetricsRegistry().histogram(
            "t_hist_racing_seconds", buckets=(0.01, 0.1, 1.0)
        )
        stop = threading.Event()
        read_midway = [threading.Event(), threading.Event()]
        failures = []

        def observe():
            for i in range(ITERATIONS):
                if i == ITERATIONS // 2 and not all(
                    event.wait(timeout=60) for event in read_midway
                ):
                    failures.append("a reader never read mid-stream")
                histogram.observe(0.05 if i % 2 else 0.5)
            stop.set()

        def read(midway):
            try:
                while True:  # do-while: at least one read after stop
                    done = stop.is_set()
                    seen = histogram.count
                    q = histogram.quantile(0.99)
                    assert 0.0 <= q <= 1.0
                    summary = histogram.quantiles()
                    assert summary["p50"] <= summary["p90"]
                    if 0 < seen < ITERATIONS:
                        midway.set()
                    if done:
                        return
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                midway.set()  # never leave the observer waiting

        threads = [
            threading.Thread(target=read, args=(midway,))
            for midway in read_midway
        ] + [threading.Thread(target=observe)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures
        assert histogram.count == ITERATIONS


class TestRegistryOps:
    def test_snapshot_during_updates_is_consistent_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_snap_total")
        histogram = registry.histogram("t_snap_seconds", buckets=(1.0,))
        stop = threading.Event()
        failures = []

        def update():
            while not stop.is_set():
                counter.inc()
                histogram.observe(0.5)

        def snapshot():
            try:
                for _ in range(200):
                    snap = registry.snapshot()
                    assert "t_snap_total" in snap
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                stop.set()

        threads = [
            threading.Thread(target=update),
            threading.Thread(target=snapshot),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures

    def test_worker_absorb_races_updates(self):
        """drain/absorb (the pool round-trip) is exact under contention."""
        registry = get_registry()
        counter = registry.counter("t_absorb_total")

        def work():
            for _ in range(ITERATIONS):
                counter.inc()

        other = MetricsRegistry()
        other_counter = other.counter("t_absorb_total")
        other_counter.inc(7)
        sample = other.snapshot()

        def absorb():
            for _ in range(50):
                registry.merge(sample)

        threads = [threading.Thread(target=work) for _ in range(4)]
        threads.append(threading.Thread(target=absorb))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert counter.value == 4 * ITERATIONS + 50 * 7
