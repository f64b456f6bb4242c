"""The serving plane: admission, coalescing, backpressure, protocol.

No pytest-asyncio in the toolchain, so every test drives its own loop
with ``asyncio.run`` — which also keeps each test's service lifecycle
(start → requests → drain) explicit.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import gc
import json
import socket
import threading

import pytest

from repro.errors import ServiceError, ServiceOverloadError, UnknownASError
from repro.service import (
    MiroService,
    ServiceConfig,
    handle_request,
    serve,
)
from repro.bgp.routing import compute_routes_reference
from repro.service import server as server_mod
from repro.service.daemon import (
    RETRY_AFTER,
    _BATCH_SIZE,
    _COALESCED,
    _ENCODED,
    _REQ_SECONDS,
    _REQUESTS,
)
from repro.service.server import MAX_LINE_BYTES
from repro.session import SimulationSession
from repro.session.cache import _CACHE_EVENTS, _FANOUTS_TOTAL
from repro.verify.oracle import DifferentialOracle, first_divergence
from repro.miro.policies import ExportPolicy
from repro.miro.runtime import MiroRuntime
from repro.obs import get_registry
from repro.topology.delta import TopologyDelta
from repro.topology.generator import generate_named
from repro.verify.invariants import check_tunnel_consistency


def fills() -> float:
    return _CACHE_EVENTS.labels(event="fill").value


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_batch >= 1
        assert config.max_pending >= 1

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_pending": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)


# ----------------------------------------------------------------------
# lookups: fast path, coalescing, batching
# ----------------------------------------------------------------------
class TestLookup:
    def test_lookup_returns_routing_table(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    destination = tiny_graph.ases[0]
                    table = await service.lookup(destination)
                    assert table.destination == destination
                    assert table.routed_ases()

        asyncio.run(main())

    def test_warm_lookup_uses_peek_not_queue(self, tiny_graph):
        """A cache hit is answered inline: no future, no batch."""
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    destination = tiny_graph.ases[0]
                    await service.lookup(destination)
                    before = fills()
                    for _ in range(20):
                        await service.lookup(destination)
                    assert fills() == before
                    assert not service._pending
                    assert session.stats["hits"] >= 20

        asyncio.run(main())

    def test_concurrent_same_destination_settles_once(self, tiny_graph):
        """The coalescing proof: N concurrent misses → exactly 1 fill."""
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    destination = tiny_graph.ases[3]
                    before = fills()
                    coalesced_before = _COALESCED.value
                    tables = await asyncio.gather(
                        *[service.lookup(destination) for _ in range(40)]
                    )
                    assert fills() - before == 1
                    assert _COALESCED.value - coalesced_before == 39
                    first = tables[0]
                    assert all(t is first for t in tables)

        asyncio.run(main())

    def test_distinct_misses_are_batched(self, tiny_graph):
        """Distinct destinations asked together land in few batches."""
        async def main():
            config = ServiceConfig(max_batch=64)
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    destinations = tiny_graph.ases[:12]
                    await asyncio.gather(
                        *[service.lookup(d) for d in destinations]
                    )
                    # one compute_many batch (or two if the first miss
                    # went alone), never one settle per destination
                    assert session.stats["fanouts"] <= 2
                    assert session.stats["tables_computed"] + \
                        session.stats["tables_derived"] >= len(destinations)

        asyncio.run(main())

    def test_batches_respect_max_batch(self, tiny_graph):
        async def main():
            config = ServiceConfig(max_batch=4)
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    destinations = tiny_graph.ases[:12]
                    await asyncio.gather(
                        *[service.lookup(d) for d in destinations]
                    )
                    assert session.stats["fanouts"] >= 3

        asyncio.run(main())

    def test_a_lone_miss_is_dispatched_at_once(self, tiny_graph):
        """No admission window: with the batcher idle, a miss is on its
        way to the settle thread within a few event-loop turns, not
        after a timer (which would have taken hundreds of turns)."""
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    before = _BATCH_SIZE.count
                    lookup = asyncio.ensure_future(
                        service.lookup(tiny_graph.ases[0]))
                    turns = 0
                    while _BATCH_SIZE.count == before:
                        assert turns < 20, "the miss is waiting for company"
                        await asyncio.sleep(0)
                        turns += 1
                    await lookup
                    return turns

        assert asyncio.run(main()) <= 4

    def test_misses_queued_behind_a_settle_form_one_batch(
        self, tiny_graph, monkeypatch
    ):
        """While one batch holds the settle thread, the misses that
        arrive queue; when it lands they go together, as the next batch."""
        entered, release = threading.Event(), threading.Event()
        sizes = []
        compute_many = SimulationSession.compute_many

        def blocking(self, destinations, *args, **kwargs):
            destinations = list(destinations)
            sizes.append(len(destinations))
            if len(sizes) == 1:
                entered.set()
                assert release.wait(timeout=30)
            return compute_many(self, destinations, *args, **kwargs)

        monkeypatch.setattr(SimulationSession, "compute_many", blocking)
        first, *rest = tiny_graph.ases[:9]

        async def main():
            loop = asyncio.get_running_loop()
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    lone = asyncio.ensure_future(service.lookup(first))
                    assert await loop.run_in_executor(
                        None, entered.wait, 30)
                    queued = [asyncio.ensure_future(service.lookup(d))
                              for d in rest]
                    for _ in range(10):
                        await asyncio.sleep(0)
                    assert sizes == [1]
                    assert len(service._queue) == len(rest)
                    release.set()
                    tables = await asyncio.gather(lone, *queued)
            return [table.destination for table in tables]

        assert asyncio.run(main()) == [first, *rest]
        assert sizes == [1, len(rest)]

    def test_oracle_service_mode_still_splits_batches(self, tiny_graph):
        """``service-batched`` puts batch boundaries under the oracle's
        contract; with no admission window they must still occur."""
        serial = _FANOUTS_TOTAL.labels(mode="serial")
        destinations = tiny_graph.ases[:12]
        oracle = DifferentialOracle(tiny_graph, destinations)
        before = serial.value
        tables = oracle._service_tables()
        assert serial.value - before >= 2
        for destination in destinations:
            assert first_divergence(
                compute_routes_reference(tiny_graph, destination),
                tables[destination], "service-batched") is None

    def test_lookup_error_propagates_and_clears_pending(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    with pytest.raises(Exception):
                        await service.lookup(999999)  # unknown AS
                    assert not service._pending
                    # the service stays usable afterwards
                    table = await service.lookup(tiny_graph.ases[0])
                    assert table is not None

        asyncio.run(main())

    def test_unknown_destination_fails_only_its_own_request(self, tiny_graph):
        """One bad destination must not poison the batch it would have
        been admitted into: the valid cold lookups around it succeed."""
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    valid = tiny_graph.ases[:5]
                    unknown = 10 ** 9
                    errors = _REQUESTS.labels(op="lookup", outcome="error")
                    errors_before = errors.value
                    results = await asyncio.gather(
                        *[service.lookup(d) for d in valid[:3]],
                        service.lookup(unknown),
                        *[service.lookup(d) for d in valid[3:]],
                        return_exceptions=True,
                    )
                    failure = results.pop(3)
                    assert isinstance(failure, UnknownASError)
                    assert str(unknown) in str(failure)
                    assert [t.destination for t in results] == valid
                    assert errors.value - errors_before == 1
                    assert not service._pending

        asyncio.run(main())


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_overload_sheds_with_retry_after(self, small_graph):
        async def main():
            config = ServiceConfig(max_batch=2, max_pending=3)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    shed_lookups = _REQUESTS.labels(op="lookup", outcome="shed")
                    shed_before = shed_lookups.value
                    results = await asyncio.gather(
                        *[service.lookup(d) for d in small_graph.ases[:30]],
                        return_exceptions=True,
                    )
                    shed = [r for r in results
                            if isinstance(r, ServiceOverloadError)]
                    ok = [r for r in results
                          if not isinstance(r, BaseException)]
                    assert shed, "expected sheds beyond max_pending=3"
                    assert ok, "accepted requests must still complete"
                    assert all(s.retry_after == RETRY_AFTER for s in shed)
                    assert shed_lookups.value - shed_before == len(shed)
                    assert service.info()["shed_total"] == len(shed)

        asyncio.run(main())

    def test_coalesced_joins_do_not_count_against_pending(self, tiny_graph):
        """Same-destination joins ride the existing future — never shed."""
        async def main():
            config = ServiceConfig(max_pending=1)
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    destination = tiny_graph.ases[5]
                    tables = await asyncio.gather(
                        *[service.lookup(destination) for _ in range(25)]
                    )
                    assert len(tables) == 25

        asyncio.run(main())


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_requests_rejected_before_start_and_after_drain(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                service = MiroService(session)
                with pytest.raises(ServiceError):
                    await service.lookup(tiny_graph.ases[0])
                await service.start()
                await service.lookup(tiny_graph.ases[0])
                await service.drain()
                with pytest.raises(ServiceError):
                    await service.lookup(tiny_graph.ases[0])

        asyncio.run(main())

    def test_drain_completes_accepted_requests(self, small_graph):
        async def main():
            with SimulationSession(small_graph, parallel=False) as session:
                service = MiroService(session)
                await service.start()
                pending = [
                    asyncio.ensure_future(service.lookup(d))
                    for d in small_graph.ases[:8]
                ]
                await asyncio.sleep(0)  # let them reach the queue
                await service.drain()
                tables = await asyncio.gather(*pending)
                assert len(tables) == 8
                assert all(t is not None for t in tables)

        asyncio.run(main())

    def test_drain_is_idempotent_and_restartable(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                service = MiroService(session)
                await service.start()
                await service.drain()
                await service.drain()
                await service.start()
                table = await service.lookup(tiny_graph.ases[1])
                assert table is not None
                await service.drain()

        asyncio.run(main())


# ----------------------------------------------------------------------
# churn and negotiation through the service
# ----------------------------------------------------------------------
class TestServiceOps:
    def test_apply_churn_invalidates_served_tables(self, paper_graph):
        from repro.topology.delta import TopologyDelta

        async def main():
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    before = await service.lookup(6)
                    applied = await service.apply_churn(
                        TopologyDelta.link_down(5, 6).apply
                    )
                    after = await service.lookup(6)
                    assert before.default_path(2) != after.default_path(2)
                    await service.apply_churn(lambda g: applied.revert())
                    again = await service.lookup(6)
                    assert again.default_path(2) == before.default_path(2)

        asyncio.run(main())

    def test_failed_churn_counts_an_error_and_the_service_answers_on(
        self, paper_graph
    ):
        """A mutation that raises (A-E is no link) counts one churn error
        and no ok, and the next lookup is answered as before."""
        from repro.errors import TopologyError

        churn = {outcome: _REQUESTS.labels(op="churn", outcome=outcome)
                 for outcome in ("ok", "error")}

        async def main():
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    before = await service.lookup(6)
                    with pytest.raises(TopologyError):
                        await service.apply_churn(
                            TopologyDelta.link_down(1, 5).apply
                        )
                    after = await service.lookup(6)
                    assert after.default_path(1) == before.default_path(1)

        asyncio.run(main())
        assert (churn["ok"].value, churn["error"].value) == (0, 1)

    def test_negotiate_requires_runtime(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    with pytest.raises(ServiceError):
                        await service.negotiate(1, 2, tiny_graph.ases[0])

        asyncio.run(main())

    def test_negotiate_through_runtime(self, paper_graph):
        async def main():
            runtime = MiroRuntime(paper_graph)
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    # B (2) asks C (3) for an alternate toward F (6):
                    # the Fig. 3.1 negotiation
                    record = await service.negotiate(2, 3, 6)
                    assert record is not None
                    assert record.tunnel.path[0] == 3
                    assert record.tunnel.path[-1] == 6

        asyncio.run(main())

    def test_negotiated_tunnel_dies_with_the_link_under_it(self):
        """ISSUE 22's sequence: the service's tables and the runtime's
        used to be two states, and churn only ever reached the first —
        the dead tunnel stayed live and was handed out again."""
        graph = generate_named("small", seed=0)

        def crosses_only_links_the_graph_has(tunnel):
            hops = list(zip(tunnel.via_path, tunnel.via_path[1:]))
            hops += zip(tunnel.path, tunnel.path[1:])
            return all(graph.has_link(a, b) for a, b in hops)

        async def main():
            runtime = MiroRuntime(graph)
            with SimulationSession(graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    assert runtime.session is session
                    first = await service.negotiate(50, 6, 109)
                    assert first.tunnel.path == (6, 1, 2, 18, 109)
                    assert runtime.session.compute(109) is await service.lookup(109)
                    assert check_tunnel_consistency(runtime) == []

                    applied = await service.apply_churn(
                        TopologyDelta.link_down(6, 1).apply)
                    assert runtime.live_tunnels() == []
                    assert runtime.torn_down == [first.tunnel]
                    assert check_tunnel_consistency(runtime) == []

                    second = await service.negotiate(50, 6, 109)
                    assert second.tunnel.path == (6, 4, 2, 18, 109)
                    assert crosses_only_links_the_graph_has(second.tunnel)
                    assert runtime.live_tunnels() == [second]
                    assert check_tunnel_consistency(runtime) == []

                    # the revert's fn returns None: only the graph's
                    # journal can tell the runtime what changed
                    await service.apply_churn(lambda g: applied.revert())
                    assert check_tunnel_consistency(runtime) == []
                    third = await service.negotiate(50, 6, 109)
                    assert third.tunnel.path == first.tunnel.path
                    assert check_tunnel_consistency(runtime) == []

                    # and when nobody is told at all: a bare delta
                    TopologyDelta.link_down(6, 1).apply(graph)
                    fourth = await service.negotiate(50, 6, 109)
                    assert fourth.tunnel.path == second.tunnel.path
                    assert third.tunnel in runtime.torn_down
                    assert check_tunnel_consistency(runtime) == []

        asyncio.run(main())

    def test_negotiate_never_settles_on_the_event_loop(self, small_graph):
        """Misses go through admission; the re-check after churn runs on
        a settle thread — the loop thread only ever peeks."""
        loop_thread = threading.get_ident()
        settled_on_loop = []
        fill = SimulationSession._fill

        def watched(self, *args, **kwargs):
            if threading.get_ident() == loop_thread:
                settled_on_loop.append(args)
            return fill(self, *args, **kwargs)

        destinations = small_graph.multihomed_stubs()[:6]

        async def main():
            runtime = MiroRuntime(small_graph)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    SimulationSession._fill = watched
                    try:
                        for round_ in range(3):
                            for d in destinations:
                                path = compute_routes_reference(
                                    small_graph, d).default_path(
                                        small_graph.ases[round_])
                                if path is None or len(path) < 3:
                                    continue
                                await service.negotiate(path[0], path[1], d)
                            stub = destinations[round_]
                            await service.apply_churn(TopologyDelta.link_down(
                                stub, small_graph.neighbors(stub)[0]).apply)
                    finally:
                        SimulationSession._fill = fill
                    assert runtime.live_tunnels()
                    assert check_tunnel_consistency(runtime) == []
            return runtime

        runtime = asyncio.run(main())
        assert runtime.torn_down
        assert settled_on_loop == []

    def test_negotiate_sheds_and_rejects_like_lookup(self, small_graph):
        config = ServiceConfig(max_batch=1, max_pending=1)

        async def main():
            runtime = MiroRuntime(small_graph)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, config, runtime) as service:
                    with pytest.raises(UnknownASError):
                        await service.negotiate(1, 2, 10 ** 6)
                    a, b = small_graph.ases[:2]
                    results = await asyncio.gather(
                        service.lookup(a), service.negotiate(1, 2, b),
                        return_exceptions=True,
                    )
                    assert isinstance(results[1], ServiceOverloadError)
                    assert _REQUESTS.labels(
                        op="negotiate", outcome="shed").value == 1

        asyncio.run(main())

    def test_an_as_that_joined_through_churn_can_negotiate(self, paper_graph):
        """Used to be answered "AS 7 is not in the topology" — by the
        engine's node table, built from the graph as it first stood."""
        from repro.topology import Relationship

        async def main():
            runtime = MiroRuntime(paper_graph)
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    await service.apply_churn(TopologyDelta.as_up(
                        7, [(2, Relationship.PROVIDER)]).apply)
                    return await handle_request(service, {
                        "op": "negotiate", "requester": 7, "responder": 2,
                        "destination": 6})

        assert asyncio.run(main()) == {
            "ok": True, "established": True, "tunnel_id": 1,
            "path": [2, 3, 6]}

    def test_runtime_over_another_graph_is_rejected(self, tiny_graph):
        with SimulationSession(tiny_graph, parallel=False) as session:
            with pytest.raises(ServiceError):
                MiroService(session, runtime=MiroRuntime(tiny_graph.copy()))

    def test_info_is_json_ready(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    await service.lookup(tiny_graph.ases[0])
                    info = service.info()
                    json.dumps(info)
                    assert info["accepting"] is True
                    assert info["lookup_p50_ms"] >= 0

        asyncio.run(main())

    def test_info_reports_the_session_stats(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    for d in tiny_graph.ases[:3] * 2:
                        await service.lookup(d)
                    info = service.info()
                    assert info["session"] == session.stats
                    assert info["session"]["misses"] == 3
                    assert info["session"]["hits"] >= 3

        asyncio.run(main())

    def test_lookup_outcomes_add_up(self, small_graph):
        """Every lookup is counted once: ok, shed or error."""
        def counts():
            return {outcome: _REQUESTS.labels(op="lookup",
                                              outcome=outcome).value
                    for outcome in ("ok", "shed", "error")}

        async def main():
            config = ServiceConfig(max_batch=2, max_pending=3)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    before = counts()
                    results = await asyncio.gather(
                        *[service.lookup(d) for d in small_graph.ases[:30]],
                        service.lookup(10 ** 9),
                        return_exceptions=True,
                    )
                    after = counts()
            return results, {k: after[k] - before[k] for k in after}

        results, delta = asyncio.run(main())
        shed = sum(isinstance(r, ServiceOverloadError) for r in results)
        unknown = sum(isinstance(r, UnknownASError) for r in results)
        assert shed and unknown == 1
        assert delta == {"ok": len(results) - shed - 1, "shed": shed,
                         "error": 1}

    def test_declined_and_established_negotiations_both_count_ok(
        self, paper_graph
    ):
        ok = _REQUESTS.labels(op="negotiate", outcome="ok")

        async def main():
            runtime = MiroRuntime(paper_graph)
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    before = ok.value
                    # under /s, C (3) learned no alternate to F (6) in the
                    # class of its customer route C–F, so it declines
                    declined = await service.negotiate(
                        2, 3, 6, ExportPolicy.STRICT)
                    established = await service.negotiate(2, 3, 6)
                    return declined, established, ok.value - before, runtime

        declined, established, counted, runtime = asyncio.run(main())
        assert declined is None
        assert established is not None
        assert counted == 2
        assert runtime.live_tunnels() == [established]

    def test_a_negotiation_over_a_warm_table_counts_one_hit(self, tiny_graph):
        """The service's peek is the request's one cache read: the
        runtime's staleness check of the table it was handed counts
        nothing, in the session tally or the registry."""
        reference = compute_routes_reference(tiny_graph, tiny_graph.ases[0])
        pairs = [
            path[:2] for path in (
                reference.default_path(s) for s in tiny_graph.ases[1:]
            ) if path is not None and len(path) >= 3
        ]
        assert len(pairs) >= 5
        destination = reference.destination
        hit = _CACHE_EVENTS.labels(event="hit")

        async def main():
            runtime = MiroRuntime(tiny_graph)
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    # warm the table and the runtime's validation
                    await service.negotiate(*pairs[0], destination)
                    hits, registry_hits = session.stats["hits"], hit.value
                    for requester, responder in pairs:
                        await service.negotiate(
                            requester, responder, destination)
                    return (session.stats["hits"] - hits,
                            hit.value - registry_hits)

        assert asyncio.run(main()) == (len(pairs), len(pairs))


# ----------------------------------------------------------------------
# the JSON protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def run(self, graph, requests, runtime=None, config=None):
        async def main():
            with SimulationSession(graph, parallel=False) as session:
                async with MiroService(
                    session, config, runtime=runtime
                ) as service:
                    return [
                        await handle_request(service, request)
                        for request in requests
                    ]

        return asyncio.run(main())

    def test_lookup_all_paths(self, paper_graph):
        [response] = self.run(
            paper_graph, [{"op": "lookup", "destination": 6}]
        )
        assert isinstance(response, bytes)      # the encoded body
        response = json.loads(response)
        assert response["ok"] is True
        assert response["paths"]["2"] == [2, 5, 6]

    def test_lookup_single_source(self, paper_graph):
        [response] = self.run(
            paper_graph,
            [{"op": "lookup", "destination": 6, "source": 1}],
        )
        assert response == {"ok": True, "destination": 6,
                            "path": [1, 2, 5, 6]}

    def test_stats_op(self, tiny_graph):
        [response] = self.run(tiny_graph, [{"op": "stats"}])
        assert response["ok"] is True
        assert "session" in response["stats"]

    def test_unknown_op_and_bad_request(self, tiny_graph):
        responses = self.run(tiny_graph, [
            {"op": "bogus"},
            {"op": "lookup"},
            {"op": "lookup", "destination": "not-a-number"},
        ])
        assert all(r["ok"] is False for r in responses)

    @pytest.mark.parametrize("request_", [
        {"op": "lookup", "destination": 2.9},
        {"op": "lookup", "destination": True},
        {"op": "lookup", "destination": "6"},
        {"op": "lookup", "destination": 6, "source": True},
        {"op": "lookup", "destination": 6, "source": 1.5},
        {"op": "negotiate", "requester": 2.5, "responder": 3,
         "destination": 6},
        {"op": "negotiate", "requester": 2, "responder": False,
         "destination": 6},
    ])
    def test_non_integer_as_numbers_are_bad_requests(
        self, paper_graph, request_
    ):
        """``int()`` used to answer 2.9 for AS 2 and ``true`` for AS 1."""
        [response] = self.run(
            paper_graph, [request_], runtime=MiroRuntime(paper_graph)
        )
        assert response["ok"] is False
        assert response["error"].startswith("bad request")

    def test_integral_numbers_are_as_numbers(self, paper_graph):
        responses = self.run(paper_graph, [
            {"op": "lookup", "destination": 6, "source": 1},
            {"op": "lookup", "destination": 6.0, "source": 1.0},
        ])
        assert responses[0] == responses[1]
        assert responses[0]["path"] == [1, 2, 5, 6]

    def test_negotiate_op(self, paper_graph):
        runtime = MiroRuntime(paper_graph)
        [response] = self.run(
            paper_graph,
            [{"op": "negotiate", "requester": 2, "responder": 3,
              "destination": 6, "policy": "flexible"}],
            runtime=runtime,
        )
        assert response["ok"] is True
        assert response["established"] is True
        assert response["path"][-1] == 6

    def test_declined_negotiate_op(self, paper_graph):
        runtime = MiroRuntime(paper_graph)
        [response] = self.run(
            paper_graph,
            [{"op": "negotiate", "requester": 2, "responder": 3,
              "destination": 6, "policy": "/s"}],
            runtime=runtime,
        )
        assert response == {"ok": True, "established": False}
        assert runtime.live_tunnels() == []

    def test_negotiate_op_errors(self, paper_graph):
        responses = self.run(paper_graph, [
            {"op": "negotiate", "requester": 2, "responder": 3,
             "destination": 6, "policy": "bogus"},
            {"op": "negotiate", "requester": 2, "responder": 3,
             "destination": 10 ** 9},
        ], runtime=MiroRuntime(paper_graph))
        assert [r["ok"] for r in responses] == [False, False]
        assert "unknown export policy label 'bogus'" in responses[0]["error"]
        assert str(10 ** 9) in responses[1]["error"]

    def test_negotiate_op_without_runtime(self, paper_graph):
        [response] = self.run(paper_graph, [
            {"op": "negotiate", "requester": 2, "responder": 3,
             "destination": 6},
        ])
        assert response == {"ok": False,
                            "error": "service has no MIRO runtime configured"}

    def test_overload_is_a_response_not_an_exception(self, small_graph):
        config = ServiceConfig(max_batch=1, max_pending=1)

        async def main():
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    requests = [
                        handle_request(
                            service, {"op": "lookup", "destination": d}
                        )
                        for d in small_graph.ases[:20]
                    ]
                    return await asyncio.gather(*requests)

        # whole-table answers that were admitted come back encoded
        responses = [
            json.loads(r) if isinstance(r, bytes) else r
            for r in asyncio.run(main())
        ]
        overloaded = [r for r in responses if r.get("error") == "overloaded"]
        assert overloaded
        assert all(r["retry_after"] == RETRY_AFTER for r in overloaded)


# ----------------------------------------------------------------------
# TCP server
# ----------------------------------------------------------------------
class TestServer:
    def test_round_trip_over_tcp(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    ready = asyncio.get_running_loop().create_future()
                    endpoint = asyncio.get_running_loop().create_task(
                        serve(service, "127.0.0.1", 0, ready=ready)
                    )
                    port = await ready
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    destination = tiny_graph.ases[0]
                    source = tiny_graph.ases[-1]
                    for i, request in enumerate([
                        {"op": "lookup", "destination": destination,
                         "source": source},
                        {"op": "stats"},
                    ]):
                        writer.write(
                            (json.dumps(dict(request, id=i)) + "\n").encode()
                        )
                    writer.write(b"garbage\n")
                    await writer.drain()
                    responses = [
                        json.loads(await reader.readline()) for _ in range(3)
                    ]
                    writer.close()
                    await writer.wait_closed()
                    endpoint.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await endpoint
                    return responses

        responses = asyncio.run(main())
        by_id = {r.get("id"): r for r in responses}
        assert by_id[0]["ok"] is True
        assert isinstance(by_id[0]["path"], list)
        assert by_id[1]["ok"] is True
        assert by_id[None]["ok"] is False

    def test_overlong_line_is_answered_before_the_close(self, tiny_graph):
        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    ready = asyncio.get_running_loop().create_future()
                    endpoint = asyncio.get_running_loop().create_task(
                        serve(service, "127.0.0.1", 0, ready=ready)
                    )
                    port = await ready
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(b"x" * (MAX_LINE_BYTES + 100) + b"\n")
                    await writer.drain()
                    answer = await reader.readline()
                    rest = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    endpoint.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await endpoint
                    return answer, rest

        answer, rest = asyncio.run(main())
        assert json.loads(answer) == {
            "ok": False, "error": "request line too long",
        }
        assert rest == b""  # then the server closed the connection

    def test_pipelined_lookups_match_the_reference(self, tiny_graph):
        """Two hundred requests on one socket, none awaited before the
        next is sent: every one is answered, by id, with the path the
        reference walk selects."""
        destinations = tiny_graph.ases[:8]
        sources = tiny_graph.ases[-25:]
        requests = [(d, s) for d in destinations for s in sources]

        async def main():
            async with tcp_service(tiny_graph) as (_, reader, writer):
                writer.write(b"".join(
                    (json.dumps({"op": "lookup", "destination": d,
                                 "source": s, "id": i}) + "\n").encode()
                    for i, (d, s) in enumerate(requests)
                ))
                await writer.drain()
                return [json.loads(await reader.readline())
                        for _ in requests]

        by_id = {r["id"]: r for r in asyncio.run(main())}
        assert sorted(by_id) == list(range(len(requests)))
        tables = {d: compute_routes_reference(tiny_graph, d)
                  for d in destinations}
        for i, (d, s) in enumerate(requests):
            path = tables[d].default_path(s)
            assert by_id[i] == {
                "ok": True, "destination": d, "id": i,
                "path": list(path) if path is not None else None,
            }

    def test_connections_are_answered_separately(self, tiny_graph):
        """Concurrent clients each get exactly their own answers."""
        clients, per_client = 4, 20

        async def client(port, c):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=MAX_LINE_BYTES)
            for i in range(per_client):
                request = {"op": "lookup", "id": [c, i],
                           "destination": tiny_graph.ases[i % 10]}
                writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            answers = [json.loads(await reader.readline())
                       for _ in range(per_client)]
            writer.close()
            await writer.wait_closed()
            return answers

        async def main():
            with SimulationSession(tiny_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    ready = asyncio.get_running_loop().create_future()
                    endpoint = asyncio.get_running_loop().create_task(
                        serve(service, "127.0.0.1", 0, ready=ready)
                    )
                    port = await ready
                    answers = await asyncio.gather(
                        *[client(port, c) for c in range(clients)])
                    endpoint.cancel()
                    await asyncio.gather(endpoint, return_exceptions=True)
                    return answers

        for c, answers in enumerate(asyncio.run(main())):
            assert sorted(a["id"] for a in answers) == [
                [c, i] for i in range(per_client)]
            for a in answers:
                assert a["ok"] is True
                assert a["destination"] == tiny_graph.ases[a["id"][1] % 10]

    def test_half_closed_client_gets_every_answer(self, small_graph):
        """A client that stops sending still gets the answers to what it
        sent — cold lookups included — before the server closes."""
        destinations = small_graph.ases[:30]

        async def main():
            async with tcp_service(small_graph) as (_, reader, writer):
                for i, d in enumerate(destinations):
                    writer.write((json.dumps({"op": "lookup", "id": i,
                                              "destination": d}) + "\n").encode())
                writer.write_eof()
                await writer.drain()
                return (await reader.read()).splitlines()

        lines = asyncio.run(main())
        answers = sorted((json.loads(line) for line in lines),
                         key=lambda a: a["id"])
        assert [a["destination"] for a in answers] == destinations
        assert all(a["ok"] is True for a in answers)

    def test_cancelling_the_endpoint_closes_its_connections(
        self, tiny_graph
    ):
        """``repro serve``'s Ctrl-C: an idle client neither keeps the
        endpoint from ending nor is left connected."""
        async def main():
            async with serving(tiny_graph) as (_, port, endpoint):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                send(writer, {"op": "stats", "id": 1})
                await answer(reader)
                endpoint.cancel()
                await asyncio.wait_for(
                    asyncio.gather(endpoint, return_exceptions=True), 10)
                rest = await asyncio.wait_for(reader.read(), 10)
                writer.close()
                return rest

        assert asyncio.run(main()) == b""

    def test_negotiate_over_tcp(self, paper_graph):
        runtime = MiroRuntime(paper_graph)

        async def main():
            answers = []
            async with tcp_service(paper_graph, runtime) as (_, reader, writer):
                for i, policy in enumerate(("strict", "flexible")):
                    writer.write((json.dumps({
                        "op": "negotiate", "requester": 2, "responder": 3,
                        "destination": 6, "policy": policy, "id": i,
                    }) + "\n").encode())
                    await writer.drain()
                    answers.append(json.loads(await reader.readline()))
            return answers

        declined, established = asyncio.run(main())
        assert declined == {"ok": True, "established": False, "id": 0}
        assert established["established"] is True
        assert established["path"][0] == 3 and established["path"][-1] == 6
        [live] = runtime.live_tunnels()
        assert live.tunnel.tunnel_id == established["tunnel_id"]


# ----------------------------------------------------------------------
# one connection: eager lines, batched writes, backpressure
# ----------------------------------------------------------------------
def send(writer, *requests):
    """Write ``requests`` as JSON lines in one ``write``."""
    writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))


async def answer(reader):
    return json.loads(await asyncio.wait_for(reader.readline(), 10))


def on_connect(monkeypatch, hook):
    """Run ``hook(reader, writer)`` on the server's side of each new
    connection before the server serves it."""
    real = server_mod._serve_connection

    async def hooked(service, reader, writer):
        hook(reader, writer)
        await real(service, reader, writer)

    monkeypatch.setattr(server_mod, "_serve_connection", hooked)


def settle_after(monkeypatch, event):
    """Hold every settle batch until ``event`` is set; returns the list
    of ``event.wait`` outcomes, one per batch."""
    real = SimulationSession.compute_many
    waited = []

    def held(self, *args, **kwargs):
        waited.append(event.wait(10))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SimulationSession, "compute_many", held)
    return waited


class TestConnection:
    def test_a_hit_is_not_held_behind_a_cold_miss(self, small_graph):
        warm, cold = small_graph.ases[:2]
        source = small_graph.ases[-1]

        async def main():
            async with tcp_service(small_graph) as (_, reader, writer):
                send(writer, {"op": "lookup", "destination": warm,
                              "source": source, "id": 0})
                await answer(reader)
                send(writer,
                     {"op": "lookup", "destination": cold, "id": 1},
                     {"op": "lookup", "destination": warm,
                      "source": source, "id": 2})
                return [(await answer(reader))["id"] for _ in range(2)]

        assert asyncio.run(main()) == [2, 1]

    def test_unread_answers_stay_within_the_high_water_mark(
        self, small_graph, monkeypatch
    ):
        """Two hundred whole-table lookups, twenty of them misses, from a
        client that reads nothing: the server stops writing once its
        transport buffer is over the high-water mark, and every answer
        arrives once the client reads."""
        buffered, limits = [], []

        def small_socket_and_watched_writes(reader, writer):
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            transport = writer.transport
            limits.append(transport.get_write_buffer_limits())
            write = writer.write

            def watched(data):
                write(data)
                buffered.append(transport.get_write_buffer_size())

            writer.write = watched

        on_connect(monkeypatch, small_socket_and_watched_writes)
        destinations = small_graph.ases[:20]
        count = 200

        async def main():
            async with serving(small_graph) as (_, port, _):
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", port))
                reader, writer = await asyncio.open_connection(
                    sock=sock, limit=MAX_LINE_BYTES)
                send(writer, *({"op": "lookup", "id": i,
                                "destination": destinations[i % 20]}
                               for i in range(count)))
                await writer.drain()
                # until the server stops writing
                seen = -1
                while seen != len(buffered):
                    seen = len(buffered)
                    await asyncio.sleep(0.2)
                stalled = max(buffered)
                lines = [await asyncio.wait_for(reader.readline(), 10)
                         for _ in range(count)]
                writer.close()
                await writer.wait_closed()
                return stalled, lines

        stalled, lines = asyncio.run(main())
        [(_, high)] = limits
        assert stalled > high      # the client's refusal did reach it
        assert max(buffered) <= high + max(map(len, lines))
        answers = [json.loads(line) for line in lines]
        assert sorted(a["id"] for a in answers) == list(range(count))
        assert all(a["ok"] and a["destination"] == destinations[a["id"] % 20]
                   for a in answers)

    def test_suspended_request_is_answered_before_the_close(
        self, small_graph, monkeypatch
    ):
        eof = threading.Event()

        def watch_for_eof(reader, writer):
            readline = reader.readline

            async def watched():
                raw = await readline()
                if not raw:
                    eof.set()
                return raw

            reader.readline = watched

        on_connect(monkeypatch, watch_for_eof)
        waited = settle_after(monkeypatch, eof)

        async def main():
            async with tcp_service(small_graph) as (_, reader, writer):
                send(writer, {"op": "lookup", "id": 7,
                              "destination": small_graph.ases[3]})
                writer.write_eof()
                return await asyncio.wait_for(reader.read(), 10)

        [line] = asyncio.run(main()).splitlines()
        assert waited == [True]       # the settle began after the EOF
        answer_ = json.loads(line)
        assert answer_["id"] == 7 and answer_["ok"] is True

    def test_each_line_runs_in_its_own_context(self, small_graph, monkeypatch):
        """A ``ContextVar`` token a line sets before it suspends on a miss
        resets after it, as the benchmark's span recorder does, and a
        variable one line sets and leaves is not seen by the next."""
        scoped = contextvars.ContextVar("scoped")
        left = contextvars.ContextVar("left", default=None)
        seen = []
        real = server_mod.handle_request

        async def traced(service, request):
            seen.append(left.get())
            left.set(request.get("id"))
            token = scoped.set(request.get("id"))
            try:
                return await real(service, request)
            finally:
                scoped.reset(token)

        monkeypatch.setattr(server_mod, "handle_request", traced)
        destinations = small_graph.ases[:3]

        async def main():
            async with tcp_service(small_graph) as (_, reader, writer):
                send(writer, *({"op": "lookup", "destination": d, "id": i}
                               for i, d in enumerate(destinations * 2)))
                return [await answer(reader) for _ in range(6)]

        answers = asyncio.run(main())
        assert sorted(a["id"] for a in answers) == list(range(6))
        assert all(a["ok"] for a in answers)
        assert seen == [None] * 6


    def test_a_failing_line_is_reported_and_the_connection_goes_on(
        self, tiny_graph, monkeypatch
    ):
        """A line whose handling raises — at once, or after it waited on a
        miss — goes to the loop's exception handler; the lines after it
        are still answered."""
        real = server_mod.handle_request

        async def broken(service, request):
            if request["id"] == "late":
                await asyncio.sleep(0)
            if request["id"] in ("early", "late"):
                raise RuntimeError(request["id"])
            return await real(service, request)

        monkeypatch.setattr(server_mod, "handle_request", broken)
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context))
            async with tcp_service(tiny_graph) as (_, reader, writer):
                send(writer, *({"op": "stats", "id": i}
                               for i in ("early", "late", "fine")))
                return await answer(reader)

        assert asyncio.run(main())["id"] == "fine"
        assert sorted(str(c["exception"]) for c in reported) == [
            "early", "late"]
        assert {c["message"] for c in reported} == {"request line failed"}


class TestInlineAccounting:
    def test_a_line_after_drain_starts_is_refused_as_in_process(
        self, small_graph, monkeypatch
    ):
        gate = threading.Event()
        settle_after(monkeypatch, gate)
        refused = _REQUESTS.labels(op="lookup", outcome="error")
        cold, other = small_graph.ases[:2]

        async def main():
            async with tcp_service(small_graph) as (service, reader, writer):
                send(writer, {"op": "lookup", "destination": cold, "id": 0})
                for _ in range(1000):
                    if service.info()["pending_fills"]:
                        break
                    await asyncio.sleep(0.01)
                draining = asyncio.get_running_loop().create_task(
                    service.drain())
                await asyncio.sleep(0)    # drain() stops admission first
                counts = [refused.value]
                send(writer, {"op": "lookup", "destination": other, "id": 1})
                over_tcp = await answer(reader)
                counts.append(refused.value)
                in_process = await handle_request(
                    service, {"op": "lookup", "destination": other})
                counts.append(refused.value)
                gate.set()
                await draining
                return over_tcp, in_process, counts, await answer(reader)

        over_tcp, in_process, counts, admitted = asyncio.run(main())
        assert over_tcp == dict(in_process, id=1) == {
            "ok": False, "error": "service is not accepting requests",
            "id": 1}
        assert [b - a for a, b in zip(counts, counts[1:])] == [1, 1]
        assert admitted["id"] == 0 and admitted["ok"] is True

    def test_lookup_accounting_moves_once_per_answer(self, small_graph):
        ok = _REQUESTS.labels(op="lookup", outcome="ok")
        seconds = _REQ_SECONDS.labels(op="lookup")
        destinations = small_graph.ases[:10]
        source = small_graph.ases[-1]
        requests = [{"op": "lookup", "destination": d, "id": i}
                    for i, d in enumerate(destinations * 2)]
        requests += [{"op": "lookup", "destination": d, "source": source,
                      "id": len(requests) + i}
                     for i, d in enumerate(destinations)]

        async def main():
            async with tcp_service(small_graph) as (_, reader, writer):
                before = (ok.value, seconds.count)
                send(writer, *requests)
                answers = [await answer(reader) for _ in requests]
                return before, (ok.value, seconds.count), answers

        before, after, answers = asyncio.run(main())
        assert all(a["ok"] for a in answers)
        assert [b - a for a, b in zip(before, after)] == [len(requests)] * 2

    def test_json_that_is_not_an_object_is_refused(self, tiny_graph):
        async def main():
            async with tcp_service(tiny_graph) as (_, reader, writer):
                writer.write(b'null\n[1]\n3\n"x"\n{\n')
                return [await answer(reader) for _ in range(5)]

        not_object = {"ok": False, "error": "request must be a JSON object"}
        assert asyncio.run(main()) == [not_object] * 4 + [
            {"ok": False, "error": "invalid JSON"}]


# ----------------------------------------------------------------------
# the encoded whole-table answer
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def serving(graph, runtime=None, **session_options):
    """A ``MiroService`` served on a free port: ``(service, port,
    endpoint)``, the last the task running :func:`serve`."""
    with SimulationSession(
        graph, parallel=False, **session_options
    ) as session:
        async with MiroService(session, runtime=runtime) as service:
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            endpoint = loop.create_task(
                serve(service, "127.0.0.1", 0, ready=ready)
            )
            try:
                yield service, await ready, endpoint
            finally:
                endpoint.cancel()
                await asyncio.gather(endpoint, return_exceptions=True)


@contextlib.asynccontextmanager
async def tcp_service(graph, runtime=None, **session_options):
    """A served ``MiroService`` and one client connection to it."""
    async with serving(graph, runtime, **session_options) as (
        service, port, _
    ):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES
        )
        try:
            yield service, reader, writer
        finally:
            writer.close()
            await writer.wait_closed()


def reference_answer(graph, destination):
    """The whole-table payload, built from the reference walk the way
    the server built it per request before it kept the bytes."""
    table = compute_routes_reference(graph, destination)
    paths = {str(asn): list(route.path) for asn, route in table.items()}
    return {"ok": True, "destination": destination, "paths": paths}


def encoded(outcome: str) -> float:
    return _ENCODED.labels(outcome=outcome).value


def materialized() -> float:
    return get_registry().counter(
        "repro_routing_tables_materialized_total", ""
    ).value


class TestEncodedAnswer:
    def test_wire_line_is_byte_equal_to_dumps_with_id(self, tiny_graph):
        destination = tiny_graph.ases[0]
        absent = object()
        ids = [7, 'q"uo\u00e9', [1, "x", None], {"k": [1, 2]}, None, absent]

        async def main():
            async with tcp_service(tiny_graph) as (service, reader, writer):
                service.core.compute_many([destination])    # prefill
                lines = []
                for request_id in ids:
                    request = {"op": "lookup", "destination": destination}
                    if request_id is not absent:
                        request["id"] = request_id
                    writer.write(json.dumps(request).encode() + b"\n")
                    lines.append(await reader.readline())
                return lines

        lines = asyncio.run(main())
        payload = reference_answer(tiny_graph, destination)
        for request_id, line in zip(ids, lines):
            if request_id is not None and request_id is not absent:
                expected = dict(payload, id=request_id)
            else:
                expected = payload                          # no id member
            assert line == (
                json.dumps(expected, separators=(",", ":")) + "\n"
            ).encode("utf-8")
        assert encoded("build") == 1
        assert encoded("hit") == len(ids) - 1

    def test_answer_follows_the_table_through_churn(self, small_graph):
        """link down → answer → revert → answer: each is the reference
        at that link state, never the body of the table before it."""
        provider, stub, _ = next(
            (a, b, rel) for a, b, rel in small_graph.iter_links()
            if len(small_graph.neighbors(b)) > 1
        )
        destination = stub

        async def main():
            async with tcp_service(small_graph) as (service, reader, writer):
                async def ask():
                    writer.write(json.dumps(
                        {"op": "lookup", "destination": destination}
                    ).encode() + b"\n")
                    return json.loads(await reader.readline())

                seen = []
                up = await ask()
                assert up == reference_answer(small_graph, destination)
                seen.append(service.info()["encoded_tables"])
                applied = await service.apply_churn(
                    TopologyDelta.link_down(provider, stub).apply)
                down = await ask()
                assert down == reference_answer(small_graph, destination)
                assert down != up
                seen.append(service.info()["encoded_tables"])
                await service.apply_churn(lambda graph: applied.revert())
                assert await ask() == up
                assert up == reference_answer(small_graph, destination)
                gc.collect()
                info = service.info()
                seen.append(info["encoded_tables"])
                assert info["encoded_bytes"] == len(
                    json.dumps(up, separators=(",", ":")))
                assert info["session"]["auto_pruned"] >= 1
                return seen

        # the pre-failure table stays cached as the derivation parent
        # while the link is down and is current again after the revert;
        # the table derived for the down state is pruned, body and all
        assert asyncio.run(main()) == [1, 2, 1]
        assert encoded("build") == 2
        assert encoded("hit") == 1

    def test_off_tree_flap_answers_from_the_kept_body(self, paper_graph):
        """C—E is on no route toward F: its failure re-stamps F's table,
        so the next whole-table answer is the body kept for it."""
        async def main():
            with SimulationSession(paper_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    request = {"op": "lookup", "destination": 6}
                    up = await handle_request(service, request)
                    counts = encoded("hit"), encoded("build")
                    await service.apply_churn(
                        TopologyDelta.link_down(3, 5).apply)
                    down = await handle_request(service, request)
                    return up, down, counts

        up, down, (hits, builds) = asyncio.run(main())
        assert down is up
        assert json.loads(down) == reference_answer(paper_graph, 6)
        assert (encoded("hit"), encoded("build")) == (hits + 1, builds)

    def test_derived_answer_is_byte_equal_to_a_fresh_service(self):
        """The wire is deterministic in the graph state, not in how the
        table came to be: after a link on the destination's tree goes
        down, the derived table's answer is, byte for byte, what a
        service started at that state gives (key order included — it is
        the table's ``items()`` order)."""
        graph = generate_named("tiny", seed=0)
        destination, cut = 7, (1, 2)
        request = json.dumps(
            {"op": "lookup", "destination": destination}
        ).encode() + b"\n"

        async def ask(graph, churn=None):
            async with tcp_service(graph) as (service, reader, writer):
                if churn is not None:
                    writer.write(request)       # the derivation parent
                    await reader.readline()
                    await service.apply_churn(churn)
                writer.write(request)
                return await reader.readline(), service.info()

        derived, info = asyncio.run(
            ask(graph, TopologyDelta.link_down(*cut).apply))
        assert info["session"]["tables_derived"] == 1
        assert info["session"]["mean_affected_size"] > 0
        fresh, _ = asyncio.run(ask(graph.copy()))
        assert derived == fresh
        assert json.loads(derived) == reference_answer(graph, destination)

    def test_bodies_are_bounded_by_the_table_cache(self, tiny_graph):
        async def main():
            async with tcp_service(
                tiny_graph, max_cached_tables=2
            ) as (service, reader, writer):
                held = []
                for destination in tiny_graph.ases[:10]:
                    writer.write(json.dumps(
                        {"op": "lookup", "destination": destination}
                    ).encode() + b"\n")
                    answer = json.loads(await reader.readline())
                    assert answer["destination"] == destination
                    del answer
                    gc.collect()
                    held.append(service.info()["encoded_tables"])
                return held

        held = asyncio.run(main())
        assert max(held) <= 2
        assert encoded("build") == 10

    def test_pipelined_requests_encode_once(self, tiny_graph):
        destination = tiny_graph.ases[3]

        async def main():
            async with tcp_service(tiny_graph) as (service, reader, writer):
                writer.write(b"".join(
                    json.dumps({"op": "lookup", "destination": destination,
                                "id": i}).encode() + b"\n"
                    for i in range(4)
                ))
                answers = [
                    json.loads(await reader.readline()) for _ in range(4)
                ]
                return answers, service.info()

        answers, info = asyncio.run(main())
        assert sorted(a.pop("id") for a in answers) == [0, 1, 2, 3]
        assert all(a == answers[0] for a in answers)
        assert answers[0] == reference_answer(tiny_graph, destination)
        assert (encoded("build"), encoded("hit")) == (1, 3)
        assert info["encoded_tables"] == 1

    def test_warm_answers_are_session_hits(self, tiny_graph):
        """The bytes sit behind ``lookup`` → ``peek``, not in front."""
        destination = tiny_graph.ases[0]

        async def main():
            async with tcp_service(tiny_graph) as (service, reader, writer):
                service.core.compute_many([destination])
                before = service.core.stats["hits"]
                for _ in range(5):
                    writer.write(json.dumps(
                        {"op": "lookup", "destination": destination}
                    ).encode() + b"\n")
                    await reader.readline()
                return service.core.stats["hits"] - before

        assert asyncio.run(main()) == 5
        assert _REQUESTS.labels(op="lookup", outcome="ok").value == 5

    def test_source_lookups_encode_nothing(self, tiny_graph):
        async def main():
            async with tcp_service(tiny_graph) as (service, reader, writer):
                writer.write(json.dumps(
                    {"op": "lookup", "destination": tiny_graph.ases[0],
                     "source": tiny_graph.ases[-1]}
                ).encode() + b"\n")
                await reader.readline()
                return service.info()

        info = asyncio.run(main())
        assert info["encoded_tables"] == info["encoded_bytes"] == 0

    def test_negotiations_over_warm_tables_expand_nothing(self, small_graph):
        """Negotiations read ``best()`` / ``candidates()`` off the trees:
        however many run over warm tables, no tree expands; each
        whole-table answer the service encodes expands its table once."""
        destinations = small_graph.ases[:4]
        requests = []
        for destination in destinations:
            reference = compute_routes_reference(small_graph, destination)
            requests += [
                {"op": "negotiate", "requester": path[0],
                 "responder": path[1], "destination": destination}
                for path in map(reference.default_path, small_graph.ases)
                if path is not None and len(path) >= 3
            ][:10]
        assert len(requests) >= 30

        async def main():
            runtime = MiroRuntime(small_graph)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    session.compute_many(destinations)
                    for request in requests + requests:
                        answer = await handle_request(service, request)
                        assert answer["ok"], answer
                    assert materialized() == 0
                    for destination in destinations + destinations:
                        await handle_request(
                            service, {"op": "lookup",
                                      "destination": destination})
                    assert materialized() == len(destinations)

        asyncio.run(main())

    def test_only_a_whole_table_answer_materializes(self, small_graph):
        """N ``source`` lookups over N cold destinations walk N trees and
        expand none; a whole-table answer expands its table, once."""
        destinations = small_graph.ases[:12]
        source = small_graph.ases[-1]

        async def main():
            async with tcp_service(small_graph) as (service, reader, writer):
                async def ask(**request):
                    writer.write(json.dumps(
                        dict(request, op="lookup")).encode() + b"\n")
                    return json.loads(await reader.readline())

                before = fills()
                for destination in destinations:
                    answer = await ask(destination=destination, source=source)
                    assert answer["path"] == list(compute_routes_reference(
                        small_graph, destination).default_path(source))
                assert fills() - before == len(destinations)
                assert materialized() == 0
                for _ in range(3):
                    await ask(destination=destinations[0])
                assert materialized() == 1
                await ask(destination=destinations[0], source=source)
                assert materialized() == 1

        asyncio.run(main())


# ----------------------------------------------------------------------
# concurrency: event loop + the settle thread + churn writer
# ----------------------------------------------------------------------
class TestServiceConcurrency:
    def test_lookups_and_churn_interleaved(self, small_graph):
        """Lookups racing topology churn neither deadlock nor corrupt."""
        from repro.topology.delta import TopologyDelta

        async def main():
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    destinations = small_graph.ases[:10]
                    links = [
                        (a, b) for a, b, _ in small_graph.iter_links()
                    ][:3]

                    async def churn_loop():
                        for a, b in links:
                            applied = await service.apply_churn(
                                TopologyDelta.link_down(a, b).apply
                            )
                            await service.apply_churn(
                                lambda g, ap=applied: ap.revert()
                            )

                    lookups = [
                        service.lookup(destinations[i % len(destinations)])
                        for i in range(60)
                    ]
                    results = await asyncio.gather(
                        churn_loop(), *lookups
                    )
                    for table in results[1:]:
                        assert table.routed_ases()

        asyncio.run(main())

    def test_mixed_traffic_restores_the_topology(self, small_graph):
        """Lookups, negotiations and link flaps gathered on one service:
        nothing fails, no live tunnel crosses a dead link, and the graph
        ends where it started — links and version."""
        version_before = small_graph.version
        links_before = sorted(small_graph.iter_links())
        destinations = small_graph.multihomed_stubs()[:4]
        triples = []
        for d in destinations:
            table = compute_routes_reference(small_graph, d)
            for source in small_graph.ases[:40]:
                path = table.default_path(source)
                if (path is not None and len(path) >= 3
                        and source not in destinations):
                    triples.append((path[0], path[1], d))
        # every link of each stub goes down and comes back, one at a time;
        # no requester is a stub, so none loses its link to the responder
        flaps = [(d, p) for d in destinations
                 for p in small_graph.neighbors(d)]
        rounds = 2 * len(flaps)

        async def main():
            runtime = MiroRuntime(small_graph)
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session, runtime=runtime) as service:
                    records = []

                    async def traffic(churn, round_):
                        applied, *results = await asyncio.gather(
                            service.apply_churn(churn),
                            *[service.lookup(d) for d in destinations],
                            *[service.negotiate(*t)
                              for t in triples[round_::rounds]],
                        )
                        records.extend(results[len(destinations):])
                        return applied

                    for i, (a, b) in enumerate(flaps):
                        applied = await traffic(
                            TopologyDelta.link_down(a, b).apply, 2 * i)
                        await traffic(
                            lambda g, ap=applied: ap.revert(), 2 * i + 1)
                    assert check_tunnel_consistency(runtime) == []

                    # whether a gathered flap tore a tunnel down depends
                    # on how the negotiations interleaved; one sequential
                    # flap settles it: a tunnel across the failed link
                    # goes at the next negotiation's §4.3 re-check
                    for triple in triples:
                        record = await service.negotiate(*triple)
                        if record is not None:
                            break
                    path = record.tunnel.path
                    applied = await service.apply_churn(
                        TopologyDelta.link_down(path[-2], path[-1]).apply)
                    await service.negotiate(*triple)
                    assert record.tunnel in runtime.torn_down
                    await service.apply_churn(lambda g: applied.revert())
                    assert check_tunnel_consistency(runtime) == []
            return runtime, records

        runtime, records = asyncio.run(main())
        assert len(records) == len(triples)
        assert any(r is not None for r in records)
        assert runtime.torn_down
        assert small_graph.version == version_before
        assert sorted(small_graph.iter_links()) == links_before

    def test_external_thread_compute_against_service(self, small_graph):
        """Direct core access from another thread coexists with serving."""
        async def main():
            with SimulationSession(small_graph, parallel=False) as session:
                async with MiroService(session) as service:
                    destination = small_graph.ases[7]
                    outcome = {}

                    def hammer():
                        outcome["table"] = session.compute(destination)

                    thread = threading.Thread(target=hammer)
                    thread.start()
                    table = await service.lookup(destination)
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                    assert outcome["table"].destination == destination
                    assert table.destination == destination

        asyncio.run(main())
