"""Newline-delimited-JSON TCP front end for :class:`MiroService`.

One request per line, one response per line, concurrent requests per
connection (each line spawns a task, so a slow settle does not
head-of-line-block a warm lookup on the same socket).  The protocol is
deliberately minimal — this is an experiment harness endpoint, not a
production RPC layer:

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
import json
from typing import Dict, Optional, Union

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


async def _serve_connection(
    service: MiroService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    peer = writer.get_extra_info("peername")
    _LOG.debug("client_connected", peer=str(peer))
    write_lock = asyncio.Lock()
    tasks = set()

    async def answer(
        request_id: object, payload: Union[Dict[str, object], bytes]
    ) -> None:
        if isinstance(payload, bytes):
            # an encoded whole-table answer: the id goes in as the last
            # member, as dumps(dict(payload, id=...)) would put it, and
            # the body is copied once, into the line
            if request_id is None:
                line = payload + b"\n"
            else:
                tag = json.dumps(request_id, separators=(",", ":"))
                line = b"".join((memoryview(payload)[:-1], b',"id":',
                                 tag.encode("utf-8"), b"}\n"))
        else:
            if request_id is not None:
                payload = dict(payload, id=request_id)
            line = (json.dumps(payload, separators=(",", ":")) + "\n").encode(
                "utf-8")
        async with write_lock:
            writer.write(line)
            await writer.drain()

    async def one(raw: bytes) -> None:
        try:
            request = json.loads(raw)
        except ValueError:
            await answer(None, _error("invalid JSON"))
            return
        if not isinstance(request, dict):
            await answer(None, _error("request must be a JSON object"))
            return
        response = await handle_request(service, request)
        await answer(request.get("id"), response)

    try:
        while True:
            try:
                raw = await reader.readline()
            except ValueError:  # the reader's limit is MAX_LINE_BYTES
                await answer(None, _error("request line too long"))
                break
            if not raw:
                break
            task = asyncio.get_running_loop().create_task(one(raw))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except ConnectionError:
        pass  # peer reset
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
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
    Cancellation closes the listener; draining the service is the
    caller's job (the CLI does it on the way out).
    """
    server = await asyncio.start_server(
        lambda r, w: _serve_connection(service, r, w),
        host=host,
        port=port,
        limit=MAX_LINE_BYTES,
    )
    bound = server.sockets[0].getsockname()
    _LOG.info("listening", host=bound[0], port=bound[1])
    if ready is not None and not ready.done():
        ready.set_result(bound[1])
    async with server:
        await server.serve_forever()
