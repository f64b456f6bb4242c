"""Differential oracle: all route-computation paths must agree.

The repo produces a routing table many ways — every kernel in
:data:`repro.bgp.kernels.KERNELS` that can run here (the scalar
index-space settling, the vectorized batched wave kernel), the legacy
dict walk :func:`~repro.bgp.routing.compute_routes_reference`,
incremental :func:`~repro.bgp.routing.recompute_routes` from a
pre-mutation table, :class:`~repro.session.SimulationSession` serial
(cache + derivation), the session's sharded shared-memory
process-pool fan-out (mode ``session-pool-sharded``, split into
several destination-range shards per worker, so the shard boundaries
themselves are under the contract), and the asyncio query daemon's batched
admission path (mode ``service-batched``, with ``max_batch`` forced
below the destination count so coalescing and batch splits are under
the contract too).  The
paper's numbers are only credible if they are interchangeable, so the
oracle computes every destination via every path and reports the first
divergence as a concrete ``(mode, destination, asn, expected, actual)``
tuple.

The kernel paths are **enumerated from the table**, not hand-listed:
every available kernel faces every fault campaign the oracle drives
(mode ``kernel:<name>``), each settling the whole destination set in one
:func:`~repro.bgp.kernels.settle_many` sweep — the byte-equality
contract enforced rather than assumed.  Kernels settle un-pinned tables only; the pinned heap walk
:func:`~repro.bgp.routing.compute_routes` runs for §5.4's what-if tables
is held to the reference's pinned walk on one pin per check (mode
``pinned``).

The legacy dict walk is the reference: it is the direct transcription of
the three-phase stable-state construction, shares no hot-path code with
the snapshot kernel or the wave loop ``recompute_routes`` restarts, and
is the one the randomized differential tests pin against the
event-driven simulator.  Everything else must match it byte for byte:
paths compared exactly, not just preference-equivalent, and ``items()``
in the same order — a whole-table answer serializes insertion order, so
order reaches the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bgp import kernels
from ..bgp.routing import (
    RoutingTable,
    compute_routes,
    compute_routes_reference,
    recompute_routes,
)
from ..obs import get_logger, get_registry
from ..session import SimulationSession
from ..topology.graph import ASGraph

_LOG = get_logger("verify")
_ORACLE_CHECKS = get_registry().counter(
    "repro_verify_oracle_checks_total",
    "Differential table comparisons, by computation mode",
    labels=("mode",),
)
_ORACLE_DIVERGENCES = get_registry().counter(
    "repro_verify_oracle_divergences_total",
    "Differential comparisons that found a mismatch, by computation mode",
    labels=("mode",),
)

#: Workers of the pooled mode's session: two are enough to split the
#: destinations into several shards and to put shard boundaries under
#: the contract.
POOL_WORKERS = 2


def table_paths(table: RoutingTable) -> Dict[int, Tuple[int, ...]]:
    """Canonical comparable form of a table: ``{asn: selected path}``."""
    return {asn: route.path for asn, route in table.items()}


def graph_digest(graph: ASGraph) -> str:
    """A canonical hash of ``graph``: its ASes in order and each AS's
    neighbours in order, with relationships — all a table read depends
    on, so the state one version may name."""
    digest = hashlib.blake2b(digest_size=16)
    for asn in graph.iter_ases():
        row = [(nbr, graph.relationship(asn, nbr).value)
               for nbr in graph.neighbors(asn)]
        digest.update(repr((asn, row)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Divergence:
    """First point where one computation path disagrees with the oracle."""

    mode: str
    destination: int
    asn: int
    expected: Optional[Tuple[int, ...]]
    actual: Optional[Tuple[int, ...]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "destination": self.destination,
            "asn": self.asn,
            "expected": list(self.expected) if self.expected else None,
            "actual": list(self.actual) if self.actual else None,
        }

    def __str__(self) -> str:
        return (
            f"[{self.mode}] dest={self.destination} asn={self.asn}: "
            f"expected {self.expected}, got {self.actual}"
        )


def first_divergence(
    reference: RoutingTable,
    candidate: RoutingTable,
    mode: str,
    per_as: bool = True,
) -> Optional[Divergence]:
    """Compare two tables AS by AS; None when byte-identical.

    The candidate is read every way a table can be, for every AS of its
    graph: ``best()`` and ``candidates()`` (in order: a revert restores
    the adjacency order they follow), ``default_path`` (on a tree the
    parent walk), then
    ``items()``, whose order must be the reference's too (equal mappings
    listed differently diverge where ``expected`` and ``actual`` start
    with different holders).  A per-AS divergence names the first
    differing route's paths, so a class-only fault shows two equal paths.

    ``best()`` and ``candidates()`` are functions of the graph and a
    tree's columns, which the walk and ``items()`` hold in full, so they
    are read on a tree-backed candidate only, and ``per_as=False`` skips
    them for a table no reader is served (a kernel's bare tree, the
    oracle's own re-derivations).
    """
    _ORACLE_CHECKS.labels(mode=mode).inc()
    ases = sorted(candidate.graph.iter_ases())

    def diverged(asn, expected_path, actual_path) -> Divergence:
        _ORACLE_DIVERGENCES.labels(mode=mode).inc()
        return Divergence(
            mode, reference.destination, asn, expected_path, actual_path
        )

    def path_of(route) -> Optional[Tuple[int, ...]]:
        return None if route is None else route.path

    for asn in ases if per_as and candidate._tree is not None else ():
        for want, got in zip_longest(
            [reference.best(asn), *reference.candidates(asn)],
            [candidate.best(asn), *candidate.candidates(asn)],
        ):
            if want != got:
                return diverged(asn, path_of(want), path_of(got))
    expected = table_paths(reference)
    walked = {
        asn: path for asn in ases
        if (path := candidate.default_path(asn)) is not None
    }
    listed = table_paths(candidate)
    for actual in (walked, listed):
        for asn in sorted(expected.keys() | actual.keys()):
            if expected.get(asn) != actual.get(asn):
                return diverged(asn, expected.get(asn), actual.get(asn))
    for (asn, path), (holder, actual_path) in zip(
        expected.items(), listed.items()
    ):
        if holder != asn:
            return diverged(asn, path, actual_path)
    return None


@dataclass
class OracleCheck:
    """One :meth:`DifferentialOracle.check` round's output.

    ``references`` are the fresh full-computation tables — callers feed
    them to the invariant checkers so reference work is never done twice.
    """

    divergences: List[Divergence]
    references: Dict[int, RoutingTable]

    @property
    def ok(self) -> bool:
        return not self.divergences


class DifferentialOracle:
    """Cross-checks every computation path on one graph, statefully.

    The oracle owns a serial :class:`SimulationSession` (so the cache /
    derivation path is exercised with real history across mutations) and
    remembers the last few tables it verified per destination — the
    session's, tree-backed, because a dict-backed ancestor would turn
    every re-derivation into a full settle; each :meth:`check`
    recomputes incrementally *from every remembered ancestor* whose
    change window the version journal still bounds.  Call
    :meth:`check` after every topology event; the graph mutates in place
    between calls.

    Each check also hashes the graph (:func:`graph_digest`) and holds the
    version to the first digest seen at it: a version that comes back
    naming another graph is a divergence of mode ``digest@v<version>``,
    since every cache keyed on it would serve the wrong graph's tables.
    """

    def __init__(
        self,
        graph: ASGraph,
        destinations: Sequence[int],
        max_ancestors: int = 4,
    ) -> None:
        self.graph = graph
        self.destinations = list(destinations)
        self.max_ancestors = max_ancestors
        self.session = SimulationSession(graph, parallel=False)
        self.checks = 0
        self._history: Dict[int, List[Tuple[int, RoutingTable]]] = {
            destination: [] for destination in self.destinations
        }
        self._digests: Dict[int, str] = {}

    def check(
        self, include_pool: bool = False, include_service: bool = False
    ) -> OracleCheck:
        """Compare all paths for every destination.

        Stops at the first divergence per destination (later ASes of a
        diverged table are noise), but still reports independent
        divergences of different destinations/modes.
        """
        self.checks += 1
        divergences: List[Divergence] = []
        references: Dict[int, RoutingTable] = {}
        version, digest = self.graph.version, graph_digest(self.graph)
        _ORACLE_CHECKS.labels(mode="digest").inc()
        if self._digests.setdefault(version, digest) != digest:
            _ORACLE_DIVERGENCES.labels(mode="digest").inc()
            _LOG.warning("oracle_divergence", mode="digest", version=version)
            # no AS to name: the graph as a whole is not the one it was
            divergences.append(Divergence(
                f"digest@v{version}", self.destinations[0], -1, None, None
            ))
        serial = self.session.compute_many(self.destinations)
        service_tables: Optional[Dict[int, RoutingTable]] = None
        if include_service:
            service_tables = self._service_tables()
        pool_tables: Optional[Dict[int, RoutingTable]] = None
        if include_pool:
            # the sharded shared-memory fan-out: several destination-range
            # shards per worker, so shard boundaries themselves are under
            # the byte-equality contract
            with SimulationSession(
                self.graph, parallel=True, max_workers=POOL_WORKERS,
            ) as pool_session:
                pool_tables = pool_session.compute_many(self.destinations)
        # the production paths first: every available kernel against the
        # legacy dict walk it must reproduce byte for byte
        snapshot = self.graph.snapshot()
        swept = {
            name: kernels.settle_many(snapshot, self.destinations, kernel=name)
            for name in kernels.available()
        }
        for destination in self.destinations:
            reference = compute_routes_reference(self.graph, destination)
            references[destination] = reference
            found = None
            for name, trees in swept.items():
                candidate = RoutingTable(
                    self.graph, destination, trees[destination]
                )
                found = first_divergence(
                    reference, candidate, f"kernel:{name}", per_as=False
                )
                if found is not None:
                    break
            if found is None:
                found = first_divergence(
                    reference, serial[destination], "session-serial"
                )
            if found is None:
                for version, ancestor in self._history[destination]:
                    changed = self.graph.changed_links_since(version)
                    if changed is None:
                        continue
                    incremental = recompute_routes(
                        self.graph, ancestor, changed
                    )
                    found = first_divergence(
                        reference, incremental, f"incremental@v{version}",
                        per_as=False,
                    )
                    if found is not None:
                        break
            if found is None and pool_tables is not None:
                found = first_divergence(
                    reference, pool_tables[destination],
                    "session-pool-sharded",
                )
            if found is None and service_tables is not None:
                found = first_divergence(
                    reference, service_tables[destination],
                    "service-batched",
                )
            if found is None and destination == self.destinations[0]:
                found = self._check_pinned(reference)
            if found is not None:
                _LOG.warning("oracle_divergence", mode=found.mode,
                             destination=found.destination, asn=found.asn)
                divergences.append(found)
            # an ancestor must be right for the next round's
            # ``incremental@v…`` checks to mean anything
            self._remember(
                destination,
                serial[destination] if found is None else reference,
            )
        return OracleCheck(divergences, references)

    def _check_pinned(self, reference: RoutingTable) -> Optional[Divergence]:
        """The pinned walk against the reference's, on one pin: the
        lowest-ASN AS that learns a route other than its best, pinned to
        the first such route (None when no AS has an alternate)."""
        destination = reference.destination
        for asn in reference.routed_ases():
            best = reference.best(asn)
            alternate = next(
                (r for r in reference.candidates(asn) if r != best), None
            )
            if alternate is not None:
                pinned = {asn: alternate}
                return first_divergence(
                    compute_routes_reference(self.graph, destination, pinned),
                    compute_routes(self.graph, destination, pinned),
                    "pinned",
                )
        return None

    def _service_tables(self) -> Dict[int, RoutingTable]:
        """Every destination served through the daemon's batched path.

        A fresh cold session behind a :class:`~repro.service.MiroService`
        answers all destinations as concurrent lookups, with ``max_batch``
        forced below the destination count so the admission queue splits
        the work across several ``compute_many`` batches — the batch
        boundaries themselves are under the byte-equality contract.
        """
        import asyncio

        from ..service import MiroService, ServiceConfig

        config = ServiceConfig(max_batch=max(1, len(self.destinations) // 2))

        async def run() -> Dict[int, RoutingTable]:
            with SimulationSession(self.graph, parallel=False) as session:
                async with MiroService(session, config) as service:
                    tables = await asyncio.gather(
                        *[service.lookup(d) for d in self.destinations]
                    )
            return dict(zip(self.destinations, tables))

        return asyncio.run(run())

    def _remember(self, destination: int, table: RoutingTable) -> None:
        history = self._history[destination]
        version = self.graph.version
        history[:] = [(v, t) for v, t in history if v != version]
        history.append((version, table))
        del history[: -self.max_ancestors]


@dataclass
class OracleReport:
    """Aggregate of one run of differential checks."""

    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "checks": self.checks,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }
