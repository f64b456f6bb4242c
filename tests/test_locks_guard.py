"""The lock-discipline guard itself, as a tier-1 test.

Mirrors ``tools/check_locks.py`` (the standalone CI entry point): no
settling, pool publication, or job submission may run lexically inside
a ``with self._lock:`` block in :mod:`repro.session.core` — that is the
"nothing slow under the lock" rule the SessionCore docstring promises
and the serving plane's fast path depends on — nor, in
:mod:`repro.miro.runtime`, may a table be settled under the runtime's
lock: ``establish`` runs on the event loop.
"""

import importlib.util
import pathlib
import textwrap

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_locks.py"


def _load_guard():
    spec = importlib.util.spec_from_file_location("check_locks", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_session_core_never_settles_under_the_lock():
    guard = _load_guard()
    assert guard.find_lock_violations() == []


def test_guard_flags_a_settle_under_the_lock():
    guard = _load_guard()
    source = textwrap.dedent("""
        def compute(self, destination):
            with self._lock:
                return compute_routes(self._graph, destination)
    """)
    violations = guard.check_source(source)
    assert [(line, call) for _, line, call in violations] == [
        (4, "compute_routes")
    ]


def test_guard_flags_pool_calls_and_nested_blocks():
    guard = _load_guard()
    source = textwrap.dedent("""
        def fanout(self, snapshot, misses):
            with self._lock:
                if misses:
                    executor, spec = self._pool.ensure(snapshot)
                    for destination in misses:
                        executor.submit(job, destination)
    """)
    flagged = {call for _, _, call in guard.check_source(source)}
    assert flagged == {"ensure", "submit"}


def test_guard_flags_the_pool_fan_out_under_the_lock(tmp_path, monkeypatch):
    """The one call a session makes into the pool publishes, submits and
    waits on workers: planted under the session lock, the tool fails."""
    guard = _load_guard()
    assert "fan_out" in guard.SLOW_CALLS
    planted = tmp_path / "core.py"
    planted.write_text(textwrap.dedent("""
        class SessionCore:
            def _fill_batch(self, snapshot, remaining):
                with self._lock:
                    return self._pool.fan_out(snapshot, remaining)
    """))
    monkeypatch.setattr(guard, "REPO_ROOT", tmp_path)
    assert guard.find_lock_violations(("core.py",), ()) == [
        ("core.py", 5, "fan_out")
    ]
    # main() lints its default file lists: point them at the planted file
    guard.find_lock_violations.__defaults__ = (("core.py",), ())
    assert guard.main() == 1


def test_guard_allows_slow_calls_outside_the_lock():
    guard = _load_guard()
    source = textwrap.dedent("""
        def compute(self, destination):
            with self._lock:
                key = self._key(destination)
                cached = self._cache.get(key)
            if cached is not None:
                return cached
            table = compute_routes(self._graph, destination)
            with self._lock:
                self._cache.put(key, table)
            return table
    """)
    assert guard.check_source(source) == []


def test_guard_allows_fast_work_and_condition_waits():
    guard = _load_guard()
    source = textwrap.dedent("""
        def mutate(self, fn):
            with self._lock:
                while self._fills_active:
                    self._lock.wait()
                result = fn(self._graph)
                self._lock.notify_all()
                return result
    """)
    assert guard.check_source(source) == []


def test_guard_covers_session_core():
    guard = _load_guard()
    assert "src/repro/session/core.py" in guard.GUARDED_FILES
    assert {"compute_routes", "recompute_routes", "settle_many",
            "expand", "snapshot", "submit", "ensure"} \
        <= set(guard.SLOW_CALLS)


def test_guard_covers_the_miro_runtime():
    guard = _load_guard()
    assert "src/repro/miro/runtime.py" in guard.GUARDED_FILES
    assert {"compute", "compute_many"} <= set(guard.SLOW_CALLS)


def test_guard_flags_a_table_settled_under_the_runtime_lock():
    """What the runtime entry is for: a re-check that fetches its tables
    after taking the lock parks every negotiation on the event loop
    behind a settle."""
    guard = _load_guard()
    source = textwrap.dedent("""
        def revalidate(self):
            with self._lock:
                tables = self.session.compute_many(self._by_destination)
                table = self.session.compute(destination)
                removed = self._recheck(tables, changed)
    """)
    assert [(line, call) for _, line, call in guard.check_source(source)] \
        == [(4, "compute_many"), (5, "compute")]


def test_guard_allows_tables_fetched_before_the_runtime_lock():
    guard = _load_guard()
    source = textwrap.dedent("""
        def revalidate(self):
            with self._lock:
                destinations = list(self._by_destination)
            tables = self.session.compute_many(destinations)
            with self._lock:
                removed = self._recheck(tables, changed)
    """)
    assert guard.check_source(source) == []


def test_guard_flags_a_negotiation_under_the_runtime_lock():
    """The exchange reads ``candidates()``, which builds a route per
    neighbour off the tree: ``establish`` must run it before taking the
    lock it installs under."""
    guard = _load_guard()
    source = textwrap.dedent("""
        def _establish(self, requester, responder, destination, policy):
            table = self.session.compute(destination)
            with self._lock:
                via = via_path(table, requester, responder)
                _, chosen = exchange(table, via, policy)
                record = self._install(
                    requester, responder, destination, chosen.path, via
                )
    """)
    assert [(line, call) for _, line, call in guard.check_source(source)] \
        == [(6, "exchange")]


def test_guard_flags_expanding_a_tree_under_lock():
    guard = _load_guard()
    source = textwrap.dedent("""
        def adopt(self, table):
            with self._lock:
                routes = dict(table._tree.expand())
                self._cache.put(self._key(table.destination), table)
    """)
    assert [(line, call) for _, line, call in guard.check_source(source)] \
        == [(4, "expand")]


def test_guard_flags_snapshot_under_lock():
    """The defect this guard entry was added for: ``_fill`` derived the
    post-mutation snapshot (milliseconds) before releasing the lock, so
    every warm ``peek`` queued behind each cold fill."""
    guard = _load_guard()
    source = textwrap.dedent("""
        def _fill(self, ordered):
            with self._lock:
                if leaders:
                    self._fills_active += 1
                    snapshot = self._graph.snapshot()
            return snapshot
    """)
    assert [(line, call) for _, line, call in guard.check_source(source)] \
        == [(6, "snapshot")]


def test_guard_flags_the_affected_set_walk_under_lock():
    """``mutate()`` re-stamps under the lock; the affected-set walk is
    O(n) on a cut tree, so only the per-link probe may run there."""
    guard = _load_guard()
    source = textwrap.dedent("""
        def mutate(self, fn):
            with self._lock:
                result = fn(self._graph)
                for key, table in self._cache.items():
                    if not affected_ases(self._graph, table, changed):
                        self._cache.put(key, table)
                return result
    """)
    assert [(line, call) for _, line, call in guard.check_source(source)] \
        == [(6, "affected_ases")]


def test_guard_allows_the_tree_edge_probe_under_lock():
    guard = _load_guard()
    source = textwrap.dedent("""
        def mutate(self, fn):
            with self._lock:
                for key, table in self._cache.items():
                    if cut_tree_edges(table, changed) == set():
                        self._cache.put(key, table)
    """)
    assert guard.check_source(source) == []


def test_guard_treats_the_cache_module_as_held():
    """The cache takes no lock of its own: every call in it runs under
    the session's, so a slow call anywhere in it is flagged."""
    guard = _load_guard()
    assert "src/repro/session/cache.py" in guard.HELD_FILES
    source = textwrap.dedent("""
        def restamp(self, old, new, changed):
            for key, table in self._entries.items():
                affected_ases(table.graph, table, changed)
    """)
    assert [(line, call) for _, line, call
            in guard.check_source(source, held=True)] \
        == [(4, "affected_ases")]
    assert guard.check_source(source) == []
