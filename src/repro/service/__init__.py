"""The MIRO serving plane: asyncio query daemon and its wire protocol.

``repro.service`` turns a thread-safe :class:`~repro.session.SessionCore`
into a long-running query service — the operational shape MIRO argues
for, where alternate routes are *asked for on demand* rather than
precomputed.  Two layers:

* :mod:`~repro.service.daemon` — :class:`MiroService`, the asyncio
  admission pipeline (peek fast path, per-destination coalescing,
  batched ``compute_many`` fills, bounded-queue backpressure,
  graceful drain).
* :mod:`~repro.service.server` — the newline-delimited-JSON TCP front
  end behind ``repro serve``.

Load is generated outside the package: ``bench/`` runs :func:`serve`
over a :class:`MiroService` in a child process, drives it over
loopback and checks every answer against ``compute_routes_reference``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "daemon": ("MiroService", "ServiceConfig"),
    "server": ("handle_request", "serve"),
})
