"""Newline-delimited-JSON TCP front end for :class:`MiroService`.

One request per line, one response per line, concurrent requests per
connection.  Each line starts at once, in the connection's own loop
turn and its own context: a cache hit is answered before the next line
is read, and only a line that must wait (a miss in admission, a paused
transport) becomes a task, so a slow settle does not head-of-line-block
a warm lookup on the same socket.  Answers ready in one loop turn leave
in one write; one at the transport's low-water mark or over it (a
whole-table answer) leaves at once.  The protocol is deliberately
minimal — this is an experiment harness endpoint, not a production RPC
layer:

* ``{"op": "lookup", "destination": 42}`` →
  ``{"ok": true, "destination": 42, "paths": {"7": [7, 3, 42], ...}}``
  (selected AS path per routed AS; pass ``"source": 7`` for just one).
  The whole-table answer is encoded once per cached table and served as
  bytes after that (:meth:`MiroService.encoded_answer`).
* ``{"op": "negotiate", "requester": 7, "responder": 3,
  "destination": 42, "policy": "flexible"}`` →
  ``{"ok": true, "established": true, "tunnel_id": 1, "path": [...]}``
  or ``"established": false`` when the responder declines.
* ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}`` (service
  :meth:`~MiroService.info`, session stats, pool state).

Overload is an application-level response, not a closed socket:
``{"ok": false, "error": "overloaded", "retry_after": 0.05}`` — the
``Retry-After`` idiom, so load generators can back off and count sheds.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import types
from typing import Coroutine, Dict, List, Optional, Set, Union

from ..bgp.routing import RoutingTable
from ..errors import ReproError, ServiceOverloadError
from ..miro.policies import ExportPolicy
from ..obs import get_logger
from .daemon import MiroService

_LOG = get_logger("service.server")

#: Cap on one request line; a line longer than this is a protocol error.
MAX_LINE_BYTES = 1 << 20


def _error(message: str, **extra: object) -> Dict[str, object]:
    out: Dict[str, object] = {"ok": False, "error": message}
    out.update(extra)
    return out


def _asn(request: Dict[str, object], field: str) -> int:
    """``request[field]`` as an AS number.  ``int()`` would answer
    ``true`` for AS 1 and ``2.9`` for AS 2; those are bad requests."""
    value = request[field]
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _encode_table(table: RoutingTable) -> bytes:
    paths = {str(asn): list(route.path) for asn, route in table.items()}
    payload = {"ok": True, "destination": table.destination, "paths": paths}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


async def handle_request(
    service: MiroService, request: Dict[str, object]
) -> Union[Dict[str, object], bytes]:
    """Dispatch one decoded request dict to the service (protocol core).

    Shared by the TCP server and any in-process test driving the
    protocol without sockets.  Never raises: every failure becomes an
    ``{"ok": false, ...}`` response.

    A whole-table lookup returns the answer already encoded — the
    compact JSON object as ``bytes``, the one the service keeps beside
    the cached table — and every other request a dict; an in-process
    caller that wants the dict calls ``json.loads`` on the bytes.
    """
    op = request.get("op")
    try:
        if op == "lookup":
            destination = _asn(request, "destination")
            table = await service.lookup(destination)
            if "source" in request:
                path = table.default_path(_asn(request, "source"))
                return {
                    "ok": True,
                    "destination": destination,
                    "path": list(path) if path is not None else None,
                }
            return service.encoded_answer(table, _encode_table)
        if op == "negotiate":
            policy = ExportPolicy.from_label(
                str(request.get("policy", "flexible"))
            )
            record = await service.negotiate(
                _asn(request, "requester"),
                _asn(request, "responder"),
                _asn(request, "destination"),
                policy,
            )
            if record is None:
                return {"ok": True, "established": False}
            return {
                "ok": True,
                "established": True,
                "tunnel_id": record.tunnel.tunnel_id,
                "path": list(record.tunnel.path),
            }
        if op == "stats":
            return {"ok": True, "stats": service.info()}
        return _error(f"unknown op {op!r}")
    except ServiceOverloadError as exc:
        return _error("overloaded", retry_after=exc.retry_after)
    except (KeyError, TypeError, ValueError) as exc:
        return _error(f"bad request: {exc}")
    except ReproError as exc:
        return _error(str(exc))


def _line(
    request_id: object, payload: Union[Dict[str, object], bytes]
) -> bytes:
    """One answer line: ``payload`` with ``request_id`` as its last member."""
    if isinstance(payload, bytes):
        # an encoded whole-table answer: the id goes in as the last
        # member, as dumps(dict(payload, id=...)) would put it, and the
        # body is copied once, into the line
        if request_id is None:
            return payload + b"\n"
        tag = json.dumps(request_id, separators=(",", ":"))
        return b"".join((memoryview(payload)[:-1], b',"id":',
                         tag.encode("utf-8"), b"}\n"))
    if request_id is not None:
        payload = dict(payload, id=request_id)
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


class _Outbox:
    """A connection's answers, sent together at the end of a loop turn.

    Lines collect in one list and go out as one ``write`` when the turn
    ends, or at once when they reach the transport's low-water mark —
    so an answer of that size or more (a whole table) leaves in the
    write it completes, without waiting for the turn or a copy into a
    bigger one.  :meth:`full` is the backpressure test: the transport's
    buffer plus what is pending is over its high-water mark, and
    :meth:`room` waits that out, so the buffer never holds more than
    the mark plus one answer.
    """

    __slots__ = ("_writer", "_transport", "_loop", "_low", "_high",
                 "_lines", "_size", "_scheduled", "_draining")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._transport = writer.transport
        self._loop = asyncio.get_running_loop()
        self._low, self._high = self._transport.get_write_buffer_limits()
        self._lines: List[bytes] = []
        self._size = 0
        self._scheduled = False
        # one drain() at a time: early 3.10 releases assert one waiter
        self._draining = asyncio.Lock()

    def send(self, line: bytes) -> None:
        self._lines.append(line)
        self._size += len(line)
        if self._size >= self._low:
            self.flush()
        elif not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._turn_ended)

    def _turn_ended(self) -> None:
        self._scheduled = False
        self.flush()

    def flush(self) -> None:
        if self._lines:
            self._writer.write(b"".join(self._lines))
            self._lines.clear()
            self._size = 0

    def full(self) -> bool:
        return (self._transport.get_write_buffer_size() + self._size
                > self._high)

    async def room(self) -> None:
        async with self._draining:
            while self.full():
                self.flush()
                await self._writer.drain()


@types.coroutine
def _steps(coro: Coroutine, ctx: contextvars.Context, signal: object):
    """Hand ``signal`` — what ``coro`` suspended on — to the running
    task, then run each later step of ``coro`` in ``ctx``."""
    while True:
        try:
            yield signal
        except BaseException as exc:  # thrown in by the task: cancellation
            step, arg = coro.throw, exc
        else:
            step, arg = coro.send, None
        try:
            signal = ctx.run(step, arg)
        except StopIteration as stop:
            return stop.value


async def _resume(
    coro: Coroutine, ctx: contextvars.Context, signal: object
) -> object:
    """The rest of a coroutine started eagerly, as a task.

    The steps run in ``ctx``, the context the first one ran in, and not
    in the copy ``create_task`` would make: a ``ContextVar`` token set
    before the suspension can still be reset after it.
    """
    return await _steps(coro, ctx, signal)


async def _serve_connection(
    service: MiroService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    peer = writer.get_extra_info("peername")
    _LOG.debug("client_connected", peer=str(peer))
    loop = asyncio.get_running_loop()
    outbox = _Outbox(writer)
    tasks = set()

    async def one(raw: bytes) -> None:
        request_id = None
        try:
            request = json.loads(raw)
        except ValueError:
            response = _error("invalid JSON")
        else:
            if isinstance(request, dict):
                response = await handle_request(service, request)
                request_id = request.get("id")
            else:
                response = _error("request must be a JSON object")
        if outbox.full():
            await outbox.room()
        outbox.send(_line(request_id, response))

    def failed(exc: BaseException) -> None:
        # one line's failure, reported with its traceback; the
        # connection goes on.  A peer that went away is no failure.
        if not isinstance(exc, ConnectionError):
            loop.call_exception_handler({
                "message": "request line failed", "exception": exc,
                "peer": peer,
            })

    def start(raw: bytes) -> None:
        # the line's first step runs here, in its own context; only a
        # line that suspends (a miss, a paused transport) becomes a task
        coro = one(raw)
        ctx = contextvars.copy_context()
        try:
            signal = ctx.run(coro.send, None)
        except StopIteration:
            return
        except Exception as exc:  # noqa: BLE001 - one line, not the socket
            failed(exc)
            return
        task = loop.create_task(_resume(coro, ctx, signal))
        tasks.add(task)
        task.add_done_callback(settled)

    def settled(task: asyncio.Task) -> None:
        tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            failed(task.exception())

    try:
        while True:
            if outbox.full():
                await outbox.room()
            try:
                raw = await reader.readline()
            except ValueError:  # the reader's limit is MAX_LINE_BYTES
                outbox.send(_line(None, _error("request line too long")))
                break
            if not raw:
                break
            start(raw)
    except ConnectionError:
        pass  # peer reset
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        outbox.flush()
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
        _LOG.debug("client_disconnected", peer=str(peer))


async def serve(
    service: MiroService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "Optional[asyncio.Future[int]]" = None,
) -> None:
    """Run the TCP endpoint until cancelled (the ``repro serve`` loop).

    Binds ``host:port`` (port 0 picks a free port), resolves ``ready``
    with the bound port once accepting, then serves forever.
    Cancellation closes the listener and every open connection (from
    Python 3.12 a closing server waits for its connections, and an idle
    client would hold it forever); draining the service is the caller's
    job (the CLI does it on the way out).
    """
    connections: Set[asyncio.StreamWriter] = set()

    async def connected(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connections.add(writer)
        try:
            await _serve_connection(service, reader, writer)
        finally:
            connections.discard(writer)

    server = await asyncio.start_server(
        connected, host=host, port=port, limit=MAX_LINE_BYTES,
    )
    bound = server.sockets[0].getsockname()
    _LOG.info("listening", host=bound[0], port=bound[1])
    if ready is not None and not ready.done():
        ready.set_result(bound[1])
    async with server:
        try:
            await asyncio.get_running_loop().create_future()  # until cancelled
        finally:
            for writer in connections:
                writer.close()
