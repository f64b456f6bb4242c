"""What the latency-ledger benchmark assumes of ``src/``, held in tier 1.

``bench/`` may not change in a PR that claims a gain, and it reaches
into the program from outside: ``bench/server.py::install_tracing``
swaps ``repro.service.server.json`` for an object with only ``loads``
and ``dumps`` and wraps some twenty callables by name, and
``bench/loadgen.py`` cuts the request id off the end of each answer.
A refactor under ``src/`` that renames a patch point, stops calling it
through the patched attribute, reaches for another ``json`` member or
moves the ``id`` breaks the ledger 50 s into ``pytest bench``; this
test breaks first.  The same holds for the counts the runner derives
from ``service.info()`` and ``repro_session_cache_events_total``, read
here before and after the requests as the runner reads them.

The patches are process-wide class and module attributes, so the
exercise runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXERCISE = r'''
import asyncio, importlib.util, json, sys

spec = importlib.util.spec_from_file_location("bench_server", sys.argv[1])
bench_server = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_server)

from repro.miro.runtime import MiroRuntime
from repro.obs import get_registry
from repro.service import MiroService, serve
from repro.service import server as server_mod
from repro.session import SimulationSession
from repro.topology.delta import TopologyDelta
from repro.topology.generator import generate_named


class StubRecorder:
    """Counts calls per patch point; runs each ``key`` against the real
    arguments, as the real recorder does, so a changed signature shows."""

    def __init__(self):
        self.calls = {}

    def _wrap(self, fn, name, layer, key, is_coro):
        point = f"{layer}:{name}"
        self.calls[point] = 0

        def enter(args, kwargs):
            self.calls[point] += 1
            if key is not None:
                key(*args, **kwargs)

        if is_coro:
            async def traced(*args, **kwargs):
                enter(args, kwargs)
                return await fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                enter(args, kwargs)
                return fn(*args, **kwargs)
        return traced

    def sync(self, fn, name, layer, key=None):
        return self._wrap(fn, name, layer, key, False)

    def coro(self, fn, name, layer, key=None):
        return self._wrap(fn, name, layer, key, True)

    def decode(self, loads, name, layer):
        return self._wrap(loads, name, layer, None, False)


async def main():
    graph = generate_named("tiny", seed=1)
    provider, stub = next(
        (a, b) for a, b, rel in graph.iter_links()
        if len(graph.neighbors(b)) > 1
    )
    requester, responder = graph.neighbors(stub)[:2]
    recorder = StubRecorder()
    lines = []
    counters = {}

    def read_counters(service, when):
        """What the runner reads before and after its rounds."""
        family = get_registry().snapshot()["repro_session_cache_events_total"]
        counters[when] = {
            "info": service.info(),
            "events": {sample["labels"]["event"]: sample["value"]
                       for sample in family["samples"]},
        }
    with SimulationSession(graph, parallel=False) as session:
        runtime = MiroRuntime(graph)
        async with MiroService(session, runtime=runtime) as service:
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            endpoint = loop.create_task(serve(service, "127.0.0.1", 0, ready))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", await ready, limit=1 << 20)
            # on a running service, as the traced run installs it
            bench_server.install_tracing(recorder)

            async def ask(request):
                request["id"] = len(lines) + 1
                writer.write(json.dumps(request).encode() + b"\n")
                lines.append((await reader.readline()).decode())

            table = {"op": "lookup", "destination": stub}
            negotiate = {"op": "negotiate", "requester": requester,
                         "responder": responder, "destination": stub}
            read_counters(service, "before")
            await ask(dict(table))                        # cold: a fill
            await ask(dict(table))                        # warm: the kept body
            await ask(dict(table, source=provider))
            await ask(dict(negotiate))
            read_counters(service, "flap")
            applied = await service.apply_churn(
                TopologyDelta.link_down(provider, stub).apply)
            await ask(dict(table))                        # derived table
            await ask(dict(negotiate))                    # at a new version
            await service.apply_churn(lambda graph: applied.revert())
            read_counters(service, "after")
            writer.close()
            await writer.wait_closed()
            endpoint.cancel()
            await asyncio.gather(endpoint, return_exceptions=True)
    json_members = sorted(
        name for name in vars(server_mod.json) if not name.startswith("_"))
    print(json.dumps({"calls": recorder.calls, "lines": lines,
                      "json_members": json_members, "counters": counters}))


asyncio.run(main())
'''


#: The ``service.info()`` keys ``bench/run.py`` derives its counts from.
INFO_KEYS = (
    "session.hits", "session.misses", "session.tables_computed",
    "session.tables_derived", "session.mean_affected_size",
    "session.coalesced", "session.evictions", "session.auto_pruned",
    "coalesced_total", "shed_total", "pool.alive",
)


def _read(info, dotted):
    for part in dotted.split("."):
        info = info[part]
    return info


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", EXERCISE, str(ROOT / "bench" / "server.py")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracing_patch_points_and_answer_framing(report):
    # the server reached for nothing of ``json`` but what tracing left it
    assert report["json_members"] == ["dumps", "loads"]

    # every patch point resolved (install_tracing returned) and the
    # program still goes through it — but for the protocol engine, which
    # no request reaches any more: the runtime reads the session's tables
    calls = report["calls"]
    assert len(calls) >= 20
    assert [point for point, count in calls.items() if not count] == [
        "bgp.engine:originate", "bgp.engine:run"]
    answers = len(report["lines"])
    assert calls["service.server:handle_request"] == answers
    assert calls["service.server:decode"] == answers
    # each negotiation finds its table cached by the lookup before it; the
    # second, at a new graph version, is refused once (the re-check of
    # live tunnels is due, and runs off the loop) and asked again
    assert calls["miro.runtime:establish"] == 1 + 2
    assert calls["service.daemon:negotiate"] == 2
    # all encoding is inside the traced ``dumps``: three dict answers, two
    # table bodies (the fill and the derived table; the warm answer
    # reuses the first) and the id of each of the three table answers
    assert calls["service.server:encode"] == 3 + 2 + 3

    # id last, compact, one line: what loadgen's rfind/int cut relies on
    for number, line in enumerate(report["lines"], start=1):
        assert line.endswith("\n") and line.count("\n") == 1
        raw = line[:-1].encode()
        cut = raw.rfind(b',"id":')
        assert cut > 0 and int(raw[cut + 6:-1]) == number
        assert json.loads(raw)["ok"] is True


def test_the_counts_the_runner_reads(report):
    counters = report["counters"]
    for reading in counters.values():
        for key in INFO_KEYS:
            _read(reading["info"], key)

    def moved(key, since="before"):
        return (_read(counters["after"]["info"], key)
                - _read(counters[since]["info"], key))

    # the link-down's lookup derived its table from the pre-flap one
    assert moved("session.tables_derived", since="flap") >= 1
    # every fill is a table computed or derived: nothing else moves it
    fills = counters["after"]["events"]["fill"] - \
        counters["before"]["events"].get("fill", 0)
    assert fills == moved("session.tables_computed") + \
        moved("session.tables_derived") > 0
    assert _read(counters["after"]["info"], "shed_total") == 0
    assert _read(counters["after"]["info"], "pool.alive") is False
