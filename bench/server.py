"""The program under test, as the benchmark starts it: one process.

``repro.service.serve`` over a ``MiroService`` over a
``SimulationSession``, built from the public constructors with the
program's own defaults (``ServiceConfig()``, default kernel).  The
session is built with ``parallel=False``: no fan-out pool, no shared
memory, no resource tracker — this process never has a child.

The runner talks to it over two channels: the JSON-lines TCP socket on
host loopback (the measured path) and a control channel on
stdin/stdout (phase-boundary counters, link flaps, tracing).

The process ends itself by three independent means: the parent-death
signal (set by the runner before exec, re-checked here), EOF on the
control pipe, and a hard lifetime cap (``SIGALRM``, default action).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent

#: Registry families the runner reads at phase boundaries.
FAMILIES = (
    "repro_routing_settle_seconds",
    "repro_topology_snapshot_builds_total",
    "repro_session_cache_events_total",
    "repro_service_batch_destinations",
    "repro_service_requests_total",
    "repro_miro_tunnels_established_total",
)


def install_tracing(recorder) -> None:
    """Wrap the public callables at each layer boundary, from outside.

    Every patch point is looked up at call time by the program (a class
    attribute, or a module global of the calling module), so wrapping
    works on an already running service and no file under ``src/``
    changes.
    """
    from repro.bgp import kernels
    from repro.bgp.engine import EventDrivenBGP
    from repro.bgp.routing import RoutingTable
    from repro.miro.runtime import MiroRuntime
    from repro.service import server as server_mod
    from repro.service.daemon import MiroService
    from repro.session import core as core_mod
    from repro.session.core import SessionCore
    from repro.topology.delta import AppliedDelta, TopologyDelta
    from repro.topology.graph import ASGraph

    sync, coro = recorder.sync, recorder.coro

    class TracedJson:
        loads = staticmethod(
            recorder.decode(json.loads, "decode", "service.server"))
        dumps = staticmethod(sync(json.dumps, "encode", "service.server"))

    server_mod.json = TracedJson
    server_mod.handle_request = coro(
        server_mod.handle_request, "handle_request", "service.server")

    MiroService.lookup = coro(
        MiroService.lookup, "lookup", "service.daemon",
        key=lambda self, destination: ("lookup", destination))
    MiroService.negotiate = coro(
        MiroService.negotiate, "negotiate", "service.daemon",
        key=lambda self, requester, responder, destination, *rest:
            ("negotiate", requester, responder, destination))
    MiroService.apply_churn = coro(
        MiroService.apply_churn, "apply_churn", "service.daemon",
        key=lambda self, fn: "mutate")

    SessionCore.peek = sync(SessionCore.peek, "peek", "session.core")
    SessionCore.compute_many = sync(
        SessionCore.compute_many, "compute_many", "session.core",
        key=lambda self, destinations, *rest, **kw:
            [("lookup", d) for d in destinations])
    SessionCore.mutate = sync(
        SessionCore.mutate, "mutate", "session.core",
        key=lambda self, fn: ["mutate"])

    kernels.settle_many = sync(
        kernels.settle_many, "settle_many", "bgp.kernels")
    RoutingTable.__init__ = sync(
        RoutingTable.__init__, "RoutingTable", "bgp.routing")
    RoutingTable.default_path = sync(
        RoutingTable.default_path, "default_path", "bgp.routing")
    RoutingTable.items = sync(RoutingTable.items, "items", "bgp.routing")
    core_mod.recompute_routes = sync(
        core_mod.recompute_routes, "recompute_routes", "bgp.routing")
    core_mod.affected_ases = sync(
        core_mod.affected_ases, "affected_ases", "bgp.routing")

    ASGraph.snapshot = sync(ASGraph.snapshot, "snapshot", "topology.snapshot")
    TopologyDelta.apply = sync(TopologyDelta.apply, "apply", "topology.delta")
    AppliedDelta.revert = sync(
        AppliedDelta.revert, "revert", "topology.delta")

    MiroRuntime.establish = sync(
        MiroRuntime.establish, "establish", "miro.runtime",
        key=lambda self, requester, responder, destination, *rest:
            [("negotiate", requester, responder, destination)])
    EventDrivenBGP.originate = sync(
        EventDrivenBGP.originate, "originate", "bgp.engine")
    EventDrivenBGP.run = sync(EventDrivenBGP.run, "run", "bgp.engine")


class Control:
    """The stdin/stdout command loop, one command at a time."""

    def __init__(self, service, session, runtime, flap_link) -> None:
        self.service = service
        self.session = session
        self.runtime = runtime
        self.flap_link = flap_link
        self.applied = None          # the AppliedDelta while the link is down
        self.flaps = 0
        self.recorder = None

    async def handle(self, command: dict) -> dict:
        name = command.get("cmd")
        if name == "info":
            return self.info()
        if name == "flap":
            return await self.flap()
        if name == "trace_on":
            from spans import Recorder

            self.recorder = Recorder()
            install_tracing(self.recorder)
            return {}
        if name == "trace_dump":
            spans = self.recorder.spans
            with open(command["path"], "w") as out:
                json.dump(spans, out)
            return {"spans": len(spans)}
        return {"error": f"unknown command {name!r}"}

    def info(self) -> dict:
        from repro.obs import get_registry

        registry = get_registry().snapshot()
        families = {}
        for name in FAMILIES:
            samples = registry.get(name, {}).get("samples", [])
            families[name] = [
                {k: s[k] for k in ("labels", "value", "sum", "count")
                 if k in s}
                for s in samples
            ]
        live = len(self.runtime.live_tunnels()) if self.runtime else 0
        return {
            "service": self.service.info(),
            "tables": self.session.tables_cached,
            "families": families,
            "live_tunnels": live,
            "flaps": self.flaps,
        }

    async def flap(self) -> dict:
        from repro.topology.delta import TopologyDelta

        self.flaps += 1
        if self.recorder is not None:
            self.recorder.set_request(f"flap:{self.flaps}")
        if self.applied is None:
            delta = TopologyDelta.link_down(*self.flap_link)
            self.applied = await self.service.apply_churn(delta.apply)
            return {"state": "down"}
        applied, self.applied = self.applied, None
        await self.service.apply_churn(lambda graph: applied.revert())
        return {"state": "up"}


async def serve_until_eof(config: dict, session, runtime, timing: dict) -> None:
    from repro.miro.policies import ExportPolicy
    from repro.service import MiroService, ServiceConfig, serve

    loop = asyncio.get_running_loop()
    mark = perf_counter_ns()
    async with MiroService(session, ServiceConfig(), runtime=runtime) as service:
        for requester, responder, destination in config["originate"]:
            await service.negotiate(
                requester, responder, destination, ExportPolicy.FLEXIBLE)
        timing["originate_s"] = (perf_counter_ns() - mark) / 1e9

        mark = perf_counter_ns()
        ready = loop.create_future()
        endpoint = loop.create_task(serve(service, "127.0.0.1", 0, ready))
        port = await ready
        stdin = asyncio.StreamReader(limit=1 << 20)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
        timing["listen_s"] = (perf_counter_ns() - mark) / 1e9
        reply({"ready": True, "port": port, **timing})

        control = Control(service, session, runtime, config["flap_link"])
        try:
            while True:
                line = await stdin.readline()
                if not line:
                    break                      # EOF: the runner is gone
                command = json.loads(line)
                answer = await control.handle(command)
                reply({"id": command.get("id"), **answer})
        finally:
            endpoint.cancel()
            await asyncio.gather(endpoint, return_exceptions=True)


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    started = perf_counter_ns()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, help="JSON set-up inputs")
    parser.add_argument("--parent", type=int, required=True,
                        help="pid of the runner; exit if it is not our parent")
    parser.add_argument("--lifetime", type=int, required=True,
                        help="hard cap on this process's life, seconds")
    args = parser.parse_args(argv)

    signal.alarm(args.lifetime)
    if os.getppid() != args.parent:
        return 3        # the runner died between fork and here
    config = json.loads(args.config)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.miro.runtime import MiroRuntime
    from repro.session import SimulationSession
    from repro.topology.generator import generate_named

    timing = {"started_ns": started, "imported_ns": perf_counter_ns()}

    def timed(name: str, fn):
        mark = perf_counter_ns()
        result = fn()
        timing[name] = (perf_counter_ns() - mark) / 1e9
        return result

    graph = timed("generate_s", lambda: generate_named(
        config["profile"], seed=config["topology_seed"]))
    timed("snapshot_s", graph.snapshot)
    options = {}
    if config["max_cached_tables"] is not None:
        options["max_cached_tables"] = config["max_cached_tables"]
    session = SimulationSession(graph, parallel=False, **options)
    timed("prefill_s", lambda: session.compute_many(config["prefill"]))
    runtime = MiroRuntime(graph) if config["originate"] else None

    try:
        asyncio.run(serve_until_eof(config, session, runtime, timing))
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
