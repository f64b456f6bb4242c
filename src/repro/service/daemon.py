"""The asyncio MIRO query service: batched admission over a SessionCore.

MIRO's operational story is on-demand negotiation — an AS that wants an
alternate path asks for one when traffic needs it (§3.3), which makes
the evaluation workload a *query-serving* workload: heavy streams of
route lookups punctuated by negotiation requests and topology churn.
:class:`MiroService` is that serving plane, built directly on the
thread-safe :class:`~repro.session.core.SessionCore`:

* **Fast path.**  A lookup first probes the core's cache
  (:meth:`SessionCore.peek` — microseconds under the session lock, no
  settling), so a warm working set is answered entirely on the event
  loop.
* **Coalescing.**  A miss registers one future per destination in
  ``_pending``; every later request for the same destination awaits
  that future instead of queueing again.  Combined with the core's own
  single-flight fills, N concurrent misses on one destination settle
  exactly once (``repro_session_cache_events_total{event="fill"}``
  moves by 1).
* **Batched admission, no timer.**  Distinct missed destinations join a
  queue the batcher drains one batch at a time, on the one settle
  thread: a miss that finds it idle goes at once, and up to
  ``max_batch`` that queue meanwhile go next, together — batches grow
  with load by themselves.  A batch is one :meth:`SessionCore.compute_many`
  (one ``settle_many`` sweep or pool fan-out), not N scalar settles.
* **Backpressure.**  Admission is bounded: when ``max_pending``
  distinct destinations are already in flight, new misses are *shed*
  with :class:`~repro.errors.ServiceOverloadError` carrying a
  ``Retry-After``-style hint, so overload degrades into fast failures
  instead of unbounded queues.
* **Encoded answers.**  The front end's whole-table answer is encoded
  once per cached table and kept only as long as the session keeps
  that table (:meth:`MiroService.encoded_answer`).
* **Graceful drain.**  :meth:`drain` stops admission, lets every
  accepted request finish, stops the batcher, and shuts the executor
  down — nothing accepted is dropped.

SLO instrumentation (all in the process registry, so they land in the
bench trajectory): ``repro_service_request_seconds{op}`` latency
histograms, ``repro_service_requests_total{op,outcome}``,
``repro_service_batch_destinations``, ``repro_service_queue_depth``,
``repro_service_encoded_answers_total{outcome}``.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Optional

from ..bgp.routing import RoutingTable
from ..errors import ServiceError, ServiceOverloadError, UnknownASError
from ..miro.policies import ExportPolicy
from ..miro.runtime import EstablishedTunnel, MiroRuntime, StaleTable
from ..obs import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    get_logger,
    get_registry,
)
from ..session import SessionCore

_LOG = get_logger("service")

_REQ_SECONDS = get_registry().histogram(
    "repro_service_request_seconds",
    "End-to-end request latency at the service, by operation",
    labels=("op",),
    buckets=DEFAULT_TIME_BUCKETS,
)
_REQUESTS = get_registry().counter(
    "repro_service_requests_total",
    "Service requests by operation and outcome (ok/shed/error)",
    labels=("op", "outcome"),
)
_BATCH_SIZE = get_registry().histogram(
    "repro_service_batch_destinations",
    "Distinct destinations per admitted settle batch",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_QUEUE_DEPTH = get_registry().gauge(
    "repro_service_queue_depth",
    "Destinations waiting in the admission queue",
)
_PENDING = get_registry().gauge(
    "repro_service_pending_fills",
    "Distinct destinations with an in-flight service fill",
)
_COALESCED = get_registry().counter(
    "repro_service_coalesced_total",
    "Requests that joined another request's in-flight fill",
)
_ENCODED = get_registry().counter(
    "repro_service_encoded_answers_total",
    "Whole-table answers served from the kept body (hit) or encoded (build)",
    labels=("outcome",),
)
_LOOKUP_OK = _REQUESTS.labels(op="lookup", outcome="ok")
_LOOKUP_SHED = _REQUESTS.labels(op="lookup", outcome="shed")
_LOOKUP_ERROR = _REQUESTS.labels(op="lookup", outcome="error")
_LOOKUP_SECONDS = _REQ_SECONDS.labels(op="lookup")
_NEGOTIATE_OK = _REQUESTS.labels(op="negotiate", outcome="ok")
_NEGOTIATE_SHED = _REQUESTS.labels(op="negotiate", outcome="shed")
_NEGOTIATE_ERROR = _REQUESTS.labels(op="negotiate", outcome="error")
_NEGOTIATE_SECONDS = _REQ_SECONDS.labels(op="negotiate")
_CHURN_OK = _REQUESTS.labels(op="churn", outcome="ok")
_CHURN_SECONDS = _REQ_SECONDS.labels(op="churn")
_ENCODED_HIT = _ENCODED.labels(outcome="hit")
_ENCODED_BUILD = _ENCODED.labels(outcome="build")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for the admission pipeline.

    ``max_batch`` caps the distinct misses one settle batch takes from
    the queue; nothing waits for a batch to fill — a batch is whatever
    queued while the previous one settled.  ``max_pending`` bounds the
    number of distinct destinations with fills in flight (queued +
    settling); beyond it new misses are shed with ``retry_after`` as
    the back-off hint.
    """

    max_batch: int = 64
    max_pending: int = 1024
    retry_after: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )


class MiroService:
    """Asyncio route-lookup / MIRO-negotiation daemon over one core.

    Construct from a :class:`SessionCore` (a ``SimulationSession``);
    use as an async context manager or call :meth:`start` /
    :meth:`drain` explicitly.  All request
    methods must be called from the event loop the service was started
    on.  A ``runtime`` is pointed at the same core: one routing state.
    """

    def __init__(
        self,
        session: SessionCore,
        config: Optional[ServiceConfig] = None,
        runtime: Optional[MiroRuntime] = None,
    ) -> None:
        self.core = session
        self.config = config or ServiceConfig()
        if runtime is not None:
            if runtime.graph is not session.graph:
                raise ServiceError(
                    "runtime and session are bound to different graphs"
                )
            runtime.attach(session)
        self.runtime = runtime
        self._pending: Dict[int, asyncio.Future] = {}
        self._queue: Deque[int] = deque()
        self._wake = asyncio.Event()
        self._batcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._started = False
        # encoded whole-table answers, one per table object and only
        # while the session's cache (or a request) keeps that table
        self._encoded: "weakref.WeakKeyDictionary[RoutingTable, bytes]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MiroService":
        if self._started:
            raise ServiceError("service already started")
        self._loop = asyncio.get_running_loop()
        # one settle thread: batches, churn and the §4.3 re-check take
        # turns on it
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service",
        )
        self._batcher = self._loop.create_task(
            self._batch_loop(), name="repro-service-batcher"
        )
        self._started = True
        self._draining = False
        _LOG.info("service_started", max_batch=self.config.max_batch,
                  max_pending=self.config.max_pending)
        return self

    async def drain(self) -> None:
        """Stop admission, finish every accepted request, shut down.

        Idempotent.  After drain the service rejects new requests with
        :class:`ServiceError`; a fresh :meth:`start` re-arms it.
        """
        if not self._started:
            return
        self._draining = True
        self._wake.set()
        # every accepted fill resolves (the batcher keeps draining the
        # queue until it is empty), then the batcher exits
        if self._batcher is not None:
            await self._batcher
            self._batcher = None
        pending = [f for f in self._pending.values() if not f.done()]
        if pending:
            await asyncio.wait(pending)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False
        _LOG.info("service_drained")

    async def __aenter__(self) -> "MiroService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    def _check_accepting(self, op: str) -> None:
        if not self._started or self._draining:
            _REQUESTS.labels(op=op, outcome="error").inc()
            raise ServiceError("service is not accepting requests")

    # ------------------------------------------------------------------
    # route lookups
    # ------------------------------------------------------------------
    async def lookup(self, destination: int) -> RoutingTable:
        """The stable-state routing table for ``destination``.

        Cache hits are answered inline on the event loop; misses are
        coalesced per destination and batched into the admission queue.
        Raises :class:`ServiceOverloadError` when admission is full and
        :class:`UnknownASError` for a destination outside the topology.
        """
        start = time.perf_counter()
        self._check_accepting("lookup")
        try:
            table = self.core.peek(destination)
            if table is None:
                table = await self._admit(destination)
        except ServiceOverloadError:
            _LOOKUP_SHED.inc()
            raise
        except ServiceError:
            raise
        except BaseException:
            _LOOKUP_ERROR.inc()
            raise
        _LOOKUP_OK.inc()
        _LOOKUP_SECONDS.observe(time.perf_counter() - start)
        return table

    async def _admit(self, destination: int) -> RoutingTable:
        """Join the in-flight fill for ``destination`` or queue a new one."""
        # rejected here, not in the batch: a settle error fails every
        # request admitted alongside the bad destination
        if destination not in self.core.graph:
            raise UnknownASError(destination)
        future = self._pending.get(destination)
        if future is not None:
            _COALESCED.inc()
            return await asyncio.shield(future)
        if len(self._pending) >= self.config.max_pending:
            raise ServiceOverloadError(self.config.retry_after)
        future = self._loop.create_future()
        self._pending[destination] = future
        _PENDING.set(len(self._pending))
        self._queue.append(destination)
        _QUEUE_DEPTH.set(len(self._queue))
        self._wake.set()
        return await asyncio.shield(future)

    def encoded_answer(
        self, table: RoutingTable, encode: Callable[[RoutingTable], bytes]
    ) -> bytes:
        """``encode(table)``, run once per table object and kept with it.

        The front end's whole-table answer.  The body is keyed by the
        table's identity and held weakly, so invalidation is the
        session's: a table the LRU evicts, :meth:`SessionCore.mutate`
        prunes or a derived table supersedes takes its body with it,
        and a lookup at a new graph version gets a new table from
        :meth:`lookup` and with it a new body — unless the change left
        the table intact and the session re-stamped it, when the kept
        body is still the answer.  Event loop only.
        """
        body = self._encoded.get(table)
        if body is None:
            body = self._encoded[table] = encode(table)
            _ENCODED_BUILD.inc()
        else:
            _ENCODED_HIT.inc()
        return body

    # ------------------------------------------------------------------
    # the batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            # wait for work only when the queue is actually empty — a
            # batch can leave a remainder behind, and sleeping on the
            # (possibly already-cleared) wake event with queued
            # destinations would strand their futures forever
            while not self._queue:
                if self._draining:
                    return
                await self._wake.wait()
                self._wake.clear()
            # one batch settles at a time and no timer sizes it: a miss
            # that finds the batcher idle goes at once, and what queues
            # while a batch settles goes next, together
            size = min(self.config.max_batch, len(self._queue))
            batch = [self._queue.popleft() for _ in range(size)]
            _QUEUE_DEPTH.set(len(self._queue))
            await self._settle_batch(batch)

    async def _settle_batch(self, batch: list) -> None:
        """One admitted batch: settle off-loop, resolve the futures."""
        _BATCH_SIZE.observe(len(batch))
        try:
            tables = await self._loop.run_in_executor(
                self._executor,
                partial(self.core.compute_many, batch),
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            _LOG.warning("batch_failed", destinations=len(batch),
                         error=type(exc).__name__)
            for destination in batch:
                future = self._pending.pop(destination, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
            _PENDING.set(len(self._pending))
            if not isinstance(exc, Exception):
                raise  # cancelled: the batcher stops with it
            return
        for destination in batch:
            future = self._pending.pop(destination, None)
            if future is not None and not future.done():
                future.set_result(tables[destination])
        _PENDING.set(len(self._pending))

    # ------------------------------------------------------------------
    # MIRO negotiation
    # ------------------------------------------------------------------
    async def negotiate(
        self,
        requester: int,
        responder: int,
        destination: int,
        policy: ExportPolicy = ExportPolicy.FLEXIBLE,
    ) -> Optional[EstablishedTunnel]:
        """Negotiate a MIRO tunnel through the live runtime.

        Requires the service to have been constructed with a
        :class:`MiroRuntime`.  The destination's table comes through the
        admission path :meth:`lookup` uses; the establish runs on the
        event loop against that table and never settles there.  When the
        graph moved — before the request, or under it — the §4.3 re-check
        of live tunnels runs on a settle thread and the request starts
        over.
        """
        start = time.perf_counter()
        runtime = self.runtime
        if runtime is None:
            _NEGOTIATE_ERROR.inc()
            raise ServiceError("service has no MIRO runtime configured")
        try:
            while True:
                self._check_accepting("negotiate")
                table = self.core.peek(destination)
                if table is None:
                    table = await self._admit(destination)
                try:
                    record = runtime.establish(
                        requester, responder, destination, policy, None, table
                    )
                    break
                except StaleTable:
                    await self._loop.run_in_executor(
                        self._executor, runtime.revalidate
                    )
        except ServiceOverloadError:
            _NEGOTIATE_SHED.inc()
            raise
        except ServiceError:
            raise
        except BaseException:
            _NEGOTIATE_ERROR.inc()
            raise
        _NEGOTIATE_OK.inc()
        _NEGOTIATE_SECONDS.observe(time.perf_counter() - start)
        return record

    # ------------------------------------------------------------------
    # topology churn
    # ------------------------------------------------------------------
    async def apply_churn(self, fn) -> object:
        """Apply a topology mutation through the core's writer gate.

        ``fn(graph)`` runs once every in-flight fill has landed (see
        :meth:`SessionCore.mutate`); typically a
        :meth:`~repro.topology.delta.TopologyDelta.apply` or an
        :meth:`~repro.topology.delta.AppliedDelta.revert`.
        """
        start = time.perf_counter()
        self._check_accepting("churn")
        result = await self._loop.run_in_executor(
            self._executor, partial(self.core.mutate, fn)
        )
        _CHURN_OK.inc()
        _CHURN_SECONDS.observe(time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, object]:
        """JSON-ready service state, for the protocol's ``stats`` op."""
        quantile = _LOOKUP_SECONDS
        bodies = list(self._encoded.values())
        return {
            "accepting": self._started and not self._draining,
            "queue_depth": len(self._queue),
            "pending_fills": len(self._pending),
            "max_batch": self.config.max_batch,
            "max_pending": self.config.max_pending,
            "shed_total": _LOOKUP_SHED.value + _NEGOTIATE_SHED.value,
            "coalesced_total": _COALESCED.value,
            "encoded_tables": len(bodies),
            "encoded_bytes": sum(map(len, bodies)),
            "lookup_p50_ms": quantile.quantile(0.5) * 1000.0,
            "lookup_p99_ms": quantile.quantile(0.99) * 1000.0,
            "session": self.core.stats,
            "pool": self.core.pool_info(),
        }
