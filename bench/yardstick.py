"""The yardstick: a fixed JSON-lines server that is not the program.

This machine's speed is not constant: a neighbour slows the virtual CPU
by up to 1.7x for seconds or minutes at a time.  A time measured on the
program then says as much about the neighbour as about the program.  The
yardstick is measured the very same way (same generator, same loops,
same core, same framing over host loopback), in rounds that alternate
with the program's, and every end-to-end time is reported relative to
the yardstick round next to it — the machine's speed cancels, the
program's does not.

The yardstick shares no code with the program and never changes with
it.  A request ``{"work": w, "size": n, "id": i}`` costs ``w`` turns of a
fixed pure-Python loop (dict, tuple and heap traffic, like a settling
kernel) and answers with ``n`` fixed paths (serializer traffic, like a
table lookup); each workload names the mix that resembles its own
request (``workloads.py``).

It ends like the server does: parent-death signal, EOF on stdin, a hard
lifetime cap.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import signal
import sys

PATHS = {str(asn): [asn, asn // 2 + 1, asn // 7 + 1, 1] for asn in range(1, 2001)}


def work(turns: int) -> int:
    best = {}
    heap = []
    for turn in range(turns):
        key = (turn % 61, turn % 53)
        heapq.heappush(heap, (turn * 7919 % 1009, key))
        if len(heap) > 32:
            cost, seen = heapq.heappop(heap)
            if best.get(seen, 1 << 30) > cost:
                best[seen] = cost
    return len(best)


async def connection(reader, writer) -> None:
    """One task per request line, answers serialized by a write lock:
    the event-loop traffic of a JSON-lines server that pipelines."""
    slices = {}
    lock = asyncio.Lock()
    tasks = set()

    async def one(line: bytes) -> None:
        request = json.loads(line)
        size = request["size"]
        if size not in slices:
            slices[size] = dict(list(PATHS.items())[:size])
        answer = {
            "ok": True, "done": work(request["work"]),
            "paths": {k: list(v) for k, v in slices[size].items()},
            "id": request["id"],
        }
        data = (json.dumps(answer, separators=(",", ":")) + "\n").encode()
        async with lock:
            writer.write(data)
            await writer.drain()

    while True:
        line = await reader.readline()
        if not line:
            break
        task = asyncio.get_running_loop().create_task(one(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    writer.close()


#: Turns of :func:`work` at start-up, so that the yardstick's set-up
#: time is, like the program's, mostly the interpreter computing.
SETUP_TURNS = 400_000


async def main(parent: int) -> None:
    loop = asyncio.get_running_loop()
    work(SETUP_TURNS)
    server = await asyncio.start_server(connection, "127.0.0.1", 0, limit=1 << 20)
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    print(json.dumps({"ready": True, "port": server.sockets[0].getsockname()[1]}),
          flush=True)
    async with server:
        await stdin.read()                 # returns at EOF: the runner is gone


if __name__ == "__main__":
    signal.alarm(int(sys.argv[2]))
    if os.getppid() == int(sys.argv[1]):
        asyncio.run(main(int(sys.argv[1])))
