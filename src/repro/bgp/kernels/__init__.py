"""Pluggable kernel-backend registry for stable-state route settling.

Before this package existed the repo had grown six hand-wired ways to
produce a routing table — the legacy dict walk, the snapshot kernel,
incremental recompute, the session cache, pool workers, and the verify
oracle — each call site naming its computation function directly.  Every
new kernel meant touching all of them.  The registry inverts that: a
*kernel backend* is one implementation of the settling semantics

    ``settle(snapshot, destination) -> RouteTree``

registered under a name, and every consumer —
:func:`repro.bgp.routing.compute_routes`,
:meth:`repro.session.SimulationSession.compute_many` pool workers, and
:class:`repro.verify.oracle.DifferentialOracle` — resolves the backend it
runs through this module.  The oracle *enumerates* the registry, so any
newly registered backend automatically becomes a differential-oracle path
held byte-equal to the reference walk under fault campaigns.

Selection precedence (first match wins):

1. an explicit ``kernel=`` argument at the call site,
2. the ``REPRO_KERNEL`` environment variable,
3. :data:`DEFAULT_KERNEL` (``"scalar"``).

A backend whose dependencies are missing (e.g. ``batched`` without
numpy — the ``[accel]`` extra) stays registered but unavailable;
resolving it falls back to the scalar backend with a warning instead of
failing, so ``REPRO_KERNEL=batched`` is safe to export machine-wide.

Two backends ship in-tree, registered by this package's import:

* ``scalar`` — the index-space kernel
  (:func:`repro.bgp.routing.compute_routes_snapshot`): parent pointers
  settled in wave order, pure Python; no dependencies.
* ``batched`` — the vectorized wave kernel
  (:mod:`repro.bgp.kernels.batched`): whole frontier waves settled as
  numpy operations over the snapshot's flat CSR arrays, many
  destinations per call.  Requires numpy.

Both return a :class:`~repro.bgp.routing.RouteTree` — a ``Mapping[int,
Route]`` that answers path reads from parent pointers and builds its
dict on first use.  Kernels settle un-pinned tables only: the pinned
what-if tables of §5.4 are settled by
:func:`repro.bgp.routing.compute_routes` itself.  Re-deriving a table
after link failures (:func:`repro.bgp.routing.recompute_routes`)
restarts the scalar wave loop from any backend's tree; only its
full-settle fallbacks come through :func:`settle`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ...errors import KernelError
from ...obs import get_logger, get_registry, get_tracer
from ..route import Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...topology.snapshot import TopologySnapshot

_LOG = get_logger("kernels")
_SETTLE_SECONDS = get_registry().histogram(
    "repro_routing_settle_seconds",
    "Wall-clock seconds per full table settling, by kernel backend",
    labels=("backend",),
)

#: The backend used when nothing else is selected.
DEFAULT_KERNEL = "scalar"

#: Environment variable naming the default backend for the process.
KERNEL_ENV_VAR = "REPRO_KERNEL"

SettleFn = Callable[..., Mapping[int, Route]]


def _always_available() -> bool:
    return True


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """One registered settling implementation.

    ``settle(snapshot, destination)`` computes the full un-pinned stable
    state for one destination on a frozen
    :class:`~repro.topology.snapshot.TopologySnapshot` and returns it as
    a :class:`~repro.bgp.routing.RouteTree`, byte-identical to
    :func:`repro.bgp.routing.compute_routes_reference` — the registry
    contract the differential oracle enforces for every backend.  Every
    backend may run inside process-pool workers.

    ``available`` is probed at resolution time so an optional dependency
    (numpy for ``batched``) can appear or disappear without
    re-registration.
    """

    name: str
    settle: SettleFn
    description: str = ""
    requires: Tuple[str, ...] = ()
    available: Callable[[], bool] = field(default=_always_available)
    #: Optional sweep entry point ``settle_many(snapshot, destinations)
    #: -> {destination: best}``; backends that can amortize work across a
    #: whole destination sweep provide it, everyone else is looped.
    settle_many: Optional[Callable] = None

    def is_available(self) -> bool:
        return bool(self.available())


#: Registration order is meaningful: the oracle enumerates in this order,
#: and the scalar backend registers first.
_REGISTRY: "Dict[str, KernelBackend]" = {}
_FALLBACK_WARNED: set = set()


def register(backend: KernelBackend, replace: bool = False) -> KernelBackend:
    """Register ``backend`` under its name; returns it for chaining.

    Re-registering an existing name raises unless ``replace`` — a silent
    shadow of a builtin backend would bypass the oracle's guarantees.
    """
    if not backend.name:
        raise KernelError("kernel backends need a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise KernelError(
            f"kernel backend {backend.name!r} is already registered"
        )
    _REGISTRY[backend.name] = backend
    return backend


def unregister(name: str) -> None:
    """Remove a registered backend (unknown names raise)."""
    if name not in _REGISTRY:
        raise KernelError(f"unknown kernel backend {name!r}")
    if name == DEFAULT_KERNEL:
        raise KernelError("the scalar fallback backend cannot be unregistered")
    del _REGISTRY[name]


def get(name: str) -> KernelBackend:
    """The backend registered as ``name`` (raises :class:`KernelError`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def backends(available_only: bool = False) -> List[KernelBackend]:
    """Registered backends in registration order (scalar first)."""
    found = list(_REGISTRY.values())
    if available_only:
        found = [b for b in found if b.is_available()]
    return found


def kernel_names(available_only: bool = False) -> List[str]:
    return [backend.name for backend in backends(available_only)]


def resolve(name: Optional[str] = None) -> KernelBackend:
    """The backend a settle call should run on, per selection precedence.

    Unknown names raise; a known-but-unavailable backend (missing
    optional dependency) degrades to the scalar backend with a one-time
    warning — the graceful-fallback contract that makes ``REPRO_KERNEL``
    safe to set unconditionally.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    backend = get(name)
    if not backend.is_available():
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            _LOG.warning(
                "kernel_unavailable", backend=name,
                requires=",".join(backend.requires), fallback=DEFAULT_KERNEL,
            )
        return get(DEFAULT_KERNEL)
    return backend


def active() -> KernelBackend:
    """The backend currently selected by ``REPRO_KERNEL`` or the default."""
    return resolve()


def settle(
    snapshot: "TopologySnapshot",
    destination: int,
    kernel: Optional[str] = None,
) -> Mapping[int, Route]:
    """Dispatch one full-table settling through the registry.

    Resolves the backend (see :func:`resolve`) and lands the wall-clock
    cost in the per-backend ``repro_routing_settle_seconds`` histogram.
    """
    backend = resolve(kernel)
    start = time.perf_counter()
    best = backend.settle(snapshot, destination)
    _SETTLE_SECONDS.labels(backend=backend.name).observe(
        time.perf_counter() - start
    )
    return best


def settle_many(
    snapshot: "TopologySnapshot",
    destinations,
    kernel: Optional[str] = None,
) -> Dict[int, Mapping[int, Route]]:
    """Dispatch a whole destination sweep through the registry.

    Uses the resolved backend's ``settle_many`` batch entry point when it
    has one (the batched kernel settles the sweep's waves jointly), and
    falls back to looping :func:`settle` otherwise — same tables either
    way, duplicates computed once.
    """
    backend = resolve(kernel)
    requested = list(destinations)
    start = time.perf_counter()
    with get_tracer().span(
        "settle_many", backend=backend.name, destinations=len(requested)
    ):
        if backend.settle_many is not None:
            out = backend.settle_many(snapshot, requested)
        else:
            out = {}
            for destination in requested:
                if destination not in out:
                    out[destination] = backend.settle(snapshot, destination)
    _SETTLE_SECONDS.labels(backend=backend.name).observe(
        time.perf_counter() - start
    )
    return out


@contextmanager
def temporary_kernel(backend: KernelBackend) -> Iterator[KernelBackend]:
    """Register ``backend`` for the enclosed block (a test helper;
    ``REPRO_KERNEL`` activates it) and unregister it on exit, whatever
    happens inside."""
    register(backend)
    try:
        yield backend
    finally:
        if backend.name in _REGISTRY:
            unregister(backend.name)


def describe() -> Dict[str, Any]:
    """JSON-ready view of the registry, for exports and ``repro stats``."""
    return {
        "active": active().name,
        "default": DEFAULT_KERNEL,
        "env": os.environ.get(KERNEL_ENV_VAR),
        "backends": [
            {
                "name": backend.name,
                "available": backend.is_available(),
                "batch": backend.settle_many is not None,
                "requires": list(backend.requires),
                "description": backend.description,
            }
            for backend in backends()
        ],
    }


# ----------------------------------------------------------------------
# built-in backends register on package import (the parent repro.bgp
# package imports this module after repro.bgp.routing is initialized, so
# the submodules can import the settling implementations cycle-free).
# ----------------------------------------------------------------------
from . import scalar as _scalar  # noqa: E402,F401  (registers "scalar")
from . import batched as _batched  # noqa: E402,F401  (registers "batched")
