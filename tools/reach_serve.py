#!/usr/bin/env python
"""A short ``repro serve`` session for the reach ledger (``tools/reach.py``).

Starts the daemon on a free port, asks it for a whole table, one path,
a negotiation, its stats and one malformed request, then stops it with
Ctrl-C (SIGINT), the way an operator does.  Exits with the daemon's
status.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys

REQUESTS = (
    {"op": "lookup", "destination": 6},
    {"op": "lookup", "destination": 6, "source": 34},
    {"op": "negotiate", "requester": 34, "responder": 7, "destination": 6},
    {"op": "stats"},
    {"op": "no-such-op"},
)


def main() -> int:
    # a shell's background job ignores SIGINT; the daemon must not
    daemon = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--profile", "tiny",
         "--seed", "0", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        banner = daemon.stdout.readline()          # "serving N ASes on host:port ..."
        port = int(banner.split()[4].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            stream = sock.makefile("rwb")
            for number, request in enumerate(REQUESTS, 1):
                stream.write(json.dumps(dict(request, id=number)).encode() + b"\n")
                stream.flush()
                print(stream.readline()[:120].decode())
    finally:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            raise
    return daemon.returncode


if __name__ == "__main__":
    sys.exit(main())
