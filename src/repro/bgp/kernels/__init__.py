"""Stable-state route settling: two kernels behind one dispatcher.

A *kernel* settles the full un-pinned Gao–Rexford table of many
destinations on a frozen
:class:`~repro.topology.snapshot.TopologySnapshot`:

    ``settle_many(snapshot, destinations) -> {destination: RouteTree}``

Two ship, in the fixed table :data:`KERNELS`:

* ``scalar`` — the index-space kernel
  (:func:`repro.bgp.routing.compute_routes_snapshot`, looped): parent
  pointers settled in wave order, pure Python; no dependencies.
* ``batched`` — the vectorized wave kernel
  (:mod:`repro.bgp.kernels.batched`): whole frontier waves settled as
  numpy operations over the snapshot's flat CSR arrays, many
  destinations per call.  Requires numpy.

Every consumer — :func:`repro.bgp.routing.compute_routes`, the session's
serial fan-out and its pool workers, and
:class:`repro.verify.oracle.DifferentialOracle`, which holds each
available kernel byte-equal to the reference walk — settles through
:func:`settle_many`.

Selection precedence (first match wins):

1. an explicit ``kernel=`` argument at the call site,
2. the ``REPRO_KERNEL`` environment variable,
3. :data:`DEFAULT_KERNEL` (``"scalar"``).

An unavailable kernel (``batched`` without numpy — the ``[accel]``
extra) falls back to ``scalar`` with a one-time warning instead of
failing, so ``REPRO_KERNEL=batched`` is safe to export machine-wide.

Kernels settle un-pinned tables only: the pinned what-if tables of §5.4
are settled by :func:`repro.bgp.routing.compute_routes` itself.
Re-deriving a table after link failures
(:func:`repro.bgp.routing.recompute_routes`) restarts the scalar wave
loop from either kernel's tree; only its full-settle fallbacks come
through :func:`settle_many`.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from ...errors import KernelError
from ...obs import get_logger, get_registry, get_tracer
from ..routing import RouteTree, compute_routes_snapshot
from . import batched

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...topology.snapshot import TopologySnapshot

_LOG = get_logger("kernels")
_SETTLE_SECONDS = get_registry().histogram(
    "repro_routing_settle_seconds",
    "Wall-clock seconds per settle_many dispatch, by kernel",
    labels=("backend",),
)

#: The kernel used when nothing else is selected, and the fallback.
DEFAULT_KERNEL = "scalar"

#: Environment variable naming the default kernel for the process.
KERNEL_ENV_VAR = "REPRO_KERNEL"


def _settle_scalar(snapshot, destinations: Iterable[int]) -> Dict[int, RouteTree]:
    out: Dict[int, RouteTree] = {}
    for destination in destinations:
        if destination not in out:
            out[destination] = compute_routes_snapshot(snapshot, destination)
    return out


#: name -> ``(settle_many, available)``, scalar first: the order the
#: oracle checks them in.  ``available`` is probed at every resolution,
#: so numpy may appear or disappear without touching the table.
KERNELS = {
    DEFAULT_KERNEL: (_settle_scalar, lambda: True),
    "batched": (batched.settle_many, batched.numpy_available),
}

_FALLBACK_WARNED: set = set()


def resolve(name: Optional[str] = None) -> str:
    """The kernel a settle should run on, per selection precedence.

    Unknown names raise :class:`KernelError`; an unavailable kernel
    degrades to :data:`DEFAULT_KERNEL` with a one-time warning.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    if name not in KERNELS:
        raise KernelError(
            f"unknown kernel backend {name!r}; known: {', '.join(KERNELS)}"
        )
    if not KERNELS[name][1]():
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            _LOG.warning("kernel_unavailable", backend=name,
                         fallback=DEFAULT_KERNEL)
        return DEFAULT_KERNEL
    return name


def available() -> List[str]:
    """Names of the kernels that can run in this process, scalar first."""
    return [name for name, (_, ok) in KERNELS.items() if ok()]


def settle_many(
    snapshot: "TopologySnapshot",
    destinations: Iterable[int],
    kernel: Optional[str] = None,
) -> Dict[int, RouteTree]:
    """Settle every destination on the resolved kernel.

    Returns ``{destination: tree}`` with duplicates computed once, and
    lands the call's wall-clock cost in ``repro_routing_settle_seconds``
    under the kernel's name — one observation per call, however many
    destinations it settled.
    """
    name = resolve(kernel)
    requested = list(destinations)
    start = time.perf_counter()
    with get_tracer().span(
        "settle_many", backend=name, destinations=len(requested)
    ):
        out = KERNELS[name][0](snapshot, requested)
    _SETTLE_SECONDS.labels(backend=name).observe(time.perf_counter() - start)
    return out


def describe() -> Dict[str, Any]:
    """JSON-ready view of the kernels, for exports and ``repro stats``."""
    return {
        "active": resolve(),
        "default": DEFAULT_KERNEL,
        "env": os.environ.get(KERNEL_ENV_VAR),
        "backends": [
            {"name": name, "available": ok()}
            for name, (_, ok) in KERNELS.items()
        ],
    }
