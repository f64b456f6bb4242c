"""Concurrent MIRO negotiation: tunnel-table safety and single-flight.

The §4.3 runtime mutates shared tunnel tables (id allocator, both
endpoints' installs, the live-set indexes) — these tests hammer
``establish`` from many threads, against maintenance and against a graph
that keeps changing, and assert the tables stay consistent and identical
concurrent requests share one negotiation.
"""

from __future__ import annotations

import threading

from repro.miro import ExportPolicy, MiroRuntime, RouteConstraint
from repro.topology import generate_topology, SMALL

from conftest import A, B, C, D, E, F

JOIN_TIMEOUT = 60.0


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"threads deadlocked: {alive}"


class TestConcurrentEstablish:
    def test_identical_concurrent_requests_share_one_tunnel(self, paper_graph):
        """Requests arriving while a negotiation is in flight join it.

        The leader's negotiation is blocked on an event so the eleven
        followers deterministically find its flight registered — a bare
        barrier is not enough, a sub-millisecond negotiation finishes
        before the next thread even checks.
        """
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        real_establish = runtime._establish
        entered = threading.Event()
        release = threading.Event()
        negotiations = []

        def slow_establish(*args):
            negotiations.append(args)
            entered.set()
            assert release.wait(JOIN_TIMEOUT)
            return real_establish(*args)

        runtime._establish = slow_establish
        records = []

        def establish():
            records.append(runtime.establish(
                A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,))
            ))

        leader = threading.Thread(target=establish, name="leader")
        leader.start()
        assert entered.wait(JOIN_TIMEOUT)
        followers = [
            threading.Thread(target=establish, name=f"follower-{i}")
            for i in range(11)
        ]
        for thread in followers:
            thread.start()
        import time
        time.sleep(0.05)  # let every follower reach the flight wait
        release.set()
        for thread in [leader, *followers]:
            thread.join(timeout=JOIN_TIMEOUT)
        assert not any(t.is_alive() for t in [leader, *followers])
        assert len(records) == 12
        assert all(r is not None for r in records)
        assert len(negotiations) == 1, "followers must share the flight"
        assert all(r is records[0] for r in records)
        assert len(runtime.live_tunnels()) == 1
        assert runtime.tunnels[A].has(records[0].tunnel.tunnel_id)
        assert runtime.tunnels[B].has(records[0].tunnel.tunnel_id)
        assert runtime._establish_flights == {}

    def test_distinct_pairs_negotiate_independently(self, paper_graph):
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        outcomes = {}

        def establish(name, requester, responder, policy, constraint):
            outcomes[name] = runtime.establish(
                requester, responder, F, policy, constraint
            )

        run_all([
            threading.Thread(
                target=establish,
                args=("a", A, B, ExportPolicy.EXPORT,
                      RouteConstraint(avoid=(E,))),
                name="pair-a",
            ),
            threading.Thread(
                target=establish,
                args=("b", B, C, ExportPolicy.FLEXIBLE, None),
                name="pair-b",
            ),
        ])
        assert outcomes["a"] is not None
        assert outcomes["b"] is not None
        ids = {r.tunnel.tunnel_id for r in outcomes.values()}
        assert len(ids) == 2, "distinct pairs must not share tunnel ids"

    def test_unique_tunnel_ids_under_hammering(self):
        """The id allocator never hands out duplicates across threads."""
        graph = generate_topology(SMALL, seed=42)
        runtime = MiroRuntime(graph, heartbeat_timeout=30.0)
        destinations = graph.ases[:6]
        results = []
        failures = []

        def negotiate(i):
            destination = destinations[i % len(destinations)]
            requester = graph.ases[10 + i]
            path = runtime.session.compute(destination).default_path(
                requester
            )
            if path is None or len(path) < 2:
                return
            try:
                record = runtime.establish(
                    requester, path[1], destination,
                    ExportPolicy.FLEXIBLE,
                )
            except Exception as exc:
                failures.append(repr(exc))
                return
            if record is not None:
                results.append(record)

        run_all([
            threading.Thread(target=negotiate, args=(i,), name=f"neg-{i}")
            for i in range(16)
        ])
        assert not failures, failures
        assert results
        # ids are allocated per responder endpoint: uniqueness holds per
        # (endpoint, id), the invariant the tables themselves rely on
        requester_ids = [(r.requester, r.tunnel.tunnel_id) for r in results]
        responder_ids = [(r.responder, r.tunnel.tunnel_id) for r in results]
        assert len(requester_ids) == len(set(requester_ids))
        assert len(responder_ids) == len(set(responder_ids))
        assert len(runtime.live_tunnels()) == len(results)
        # every installed tunnel is present at both endpoints
        for record in results:
            assert runtime.tunnels[record.requester].has(
                record.tunnel.tunnel_id
            )
            assert runtime.tunnels[record.responder].has(
                record.tunnel.tunnel_id
            )

    def test_failed_negotiation_releases_flight(self, paper_graph):
        from repro.errors import NegotiationError

        runtime = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        errors = []

        def establish(i):
            try:
                # C is not reachable via A's best paths: raises
                runtime.establish(A, C, F, ExportPolicy.FLEXIBLE)
            except NegotiationError:
                errors.append(i)

        run_all([
            threading.Thread(target=establish, args=(i,), name=f"fail-{i}")
            for i in range(6)
        ])
        assert len(errors) == 6
        assert runtime._establish_flights == {}
        # the runtime still negotiates fine afterwards
        record = runtime.establish(
            A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,))
        )
        assert record is not None

    def test_sequential_requests_still_get_separate_tunnels(self, paper_graph):
        """Single-flight must not dedupe *sequential* negotiations."""
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=10.0)
        first = runtime.establish(
            A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,))
        )
        second = runtime.establish(
            A, B, F, ExportPolicy.EXPORT, RouteConstraint(avoid=(E,))
        )
        assert first is not None and second is not None
        assert first.tunnel.tunnel_id != second.tunnel.tunnel_id


class TestConcurrentMaintenance:
    def test_establish_races_revalidate_and_tick(self, paper_graph):
        runtime = MiroRuntime(paper_graph, heartbeat_timeout=1000.0)
        stop = threading.Event()
        failures = []

        def negotiate():
            try:
                while not stop.is_set():
                    runtime.establish(
                        A, B, F, ExportPolicy.EXPORT,
                        RouteConstraint(avoid=(E,)),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        def maintain():
            try:
                for _ in range(300):
                    runtime.revalidate()
                    runtime.tick(0.001)
                    runtime.live_tunnels()
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                stop.set()

        run_all([
            threading.Thread(target=negotiate, name="negotiate"),
            threading.Thread(target=negotiate, name="negotiate-2"),
            threading.Thread(target=maintain, name="maintain"),
        ])
        assert not failures, failures
        # consistency: every live tunnel is installed at both endpoints
        for record in runtime.live_tunnels():
            assert runtime.tunnels[record.requester].has(
                record.tunnel.tunnel_id
            )
            assert runtime.tunnels[record.responder].has(
                record.tunnel.tunnel_id
            )

    def test_establish_races_a_flapping_link(self, paper_graph):
        """Negotiations against a graph another thread keeps changing:
        whatever is live afterwards is sound at the graph as it stands
        (a tunnel negotiated at one version is never installed as
        judged at another)."""
        from repro.session import SimulationSession
        from repro.topology import TopologyDelta
        from repro.verify.invariants import check_tunnel_consistency

        session = SimulationSession(paper_graph, parallel=False)
        runtime = MiroRuntime(
            paper_graph, heartbeat_timeout=1000.0, session=session
        )
        stop = threading.Event()
        failures = []

        def negotiate(requester, responder):
            try:
                while not stop.is_set():
                    runtime.establish(
                        requester, responder, F, ExportPolicy.FLEXIBLE
                    )
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        def flap():
            try:
                for _ in range(150):
                    applied = session.mutate(
                        TopologyDelta.link_down(C, F).apply
                    )
                    runtime.live_tunnels()
                    session.mutate(lambda graph: applied.revert())
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))
            finally:
                stop.set()

        run_all([
            threading.Thread(target=negotiate, args=(A, B), name="via-b"),
            threading.Thread(target=negotiate, args=(D, E), name="via-e"),
            threading.Thread(target=flap, name="flap"),
        ])
        assert not failures, failures
        assert runtime.torn_down
        assert check_tunnel_consistency(runtime) == []
        assert runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        TopologyDelta.link_down(C, F).apply(paper_graph)
        assert check_tunnel_consistency(runtime) == []
        assert runtime.live_tunnels() == []

    def test_install_waits_for_the_version_it_negotiated_at(
        self, paper_graph, monkeypatch
    ):
        """The interleaving the flapping test can only hope for, forced:
        the graph moves, and the live set is re-checked, between a
        negotiation's reads and its install.  The agreed path is stale;
        installing it would file it as judged at the new version."""
        from repro.topology import TopologyDelta
        from repro.verify.invariants import check_tunnel_consistency

        import repro.miro.runtime as runtime_module

        runtime = MiroRuntime(paper_graph)
        exchange = runtime_module.exchange

        def agree_then_the_graph_moves(*args, **kwargs):
            agreed = exchange(*args, **kwargs)
            if paper_graph.has_link(C, F):
                TopologyDelta.link_down(C, F).apply(paper_graph)
                runtime.revalidate()
            return agreed

        monkeypatch.setattr(
            runtime_module, "exchange", agree_then_the_graph_moves
        )
        # B's one alternate toward F was B-C-F: negotiated again at the
        # new version, there is nothing left to offer
        assert runtime.establish(A, B, F, ExportPolicy.FLEXIBLE) is None
        assert runtime.live_tunnels() == []
        assert check_tunnel_consistency(runtime) == []
