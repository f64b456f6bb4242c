"""The scalar kernel backend — index-space settling in pure Python.

A thin registry adapter around
:func:`repro.bgp.routing.compute_routes_snapshot`, which settles an
un-pinned table as parent pointers in wave order (a
:class:`~repro.bgp.routing.RouteTree`) and a pinned one by the heap
walk.  The kernel keeps living in :mod:`repro.bgp.routing` (its wave
loop is also what :func:`~repro.bgp.routing.recompute_routes` restarts
from a parent table's tree); this module only gives it a registry
identity and its capability flags.  It is the default
backend, the fallback for unavailable ones, and the backend pinned-route
requests are rerouted to.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..route import Route
from ..routing import compute_routes_snapshot
from . import KernelBackend, register

__all__ = ["BACKEND", "settle_scalar"]


def settle_scalar(
    snapshot,
    destination: int,
    pinned: Optional[Dict[int, Route]] = None,
) -> Mapping[int, Route]:
    """Settle via :func:`~repro.bgp.routing.compute_routes_snapshot`."""
    return compute_routes_snapshot(snapshot, destination, pinned)


BACKEND = register(
    KernelBackend(
        name="scalar",
        settle=settle_scalar,
        description=(
            "Index-space wave settling over the CSR snapshot; heap walk "
            "for pinned requests (pure Python, no dependencies)"
        ),
        pinned=True,
        pool=True,
    )
)
