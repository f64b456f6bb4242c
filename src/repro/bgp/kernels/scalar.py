"""The scalar kernel backend — index-space settling in pure Python.

Registers :func:`repro.bgp.routing.compute_routes_snapshot`, which
settles a table as parent pointers in wave order (a
:class:`~repro.bgp.routing.RouteTree`).  The kernel keeps living in
:mod:`repro.bgp.routing` (its wave loop is also what
:func:`~repro.bgp.routing.recompute_routes` restarts from a parent
table's tree); this module only gives it a registry identity.  It is the
default backend and the fallback for unavailable ones.
"""

from __future__ import annotations

from ..routing import compute_routes_snapshot
from . import KernelBackend, register

__all__ = ["BACKEND"]

BACKEND = register(
    KernelBackend(
        name="scalar",
        settle=compute_routes_snapshot,
        description=(
            "Index-space wave settling over the CSR snapshot "
            "(pure Python, no dependencies)"
        ),
    )
)
