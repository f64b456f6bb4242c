"""Exception hierarchy for the repro (MIRO) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Invalid topology construction or query (unknown AS, bad link, ...)."""


class UnknownASError(TopologyError):
    """An AS number was referenced that is not present in the graph."""

    def __init__(self, asn: int) -> None:
        super().__init__(f"AS {asn} is not in the topology")
        self.asn = asn


class DuplicateLinkError(TopologyError):
    """A link was added twice between the same pair of ASes."""


class RoutingError(ReproError):
    """Route computation failed or was queried inconsistently."""


class KernelError(RoutingError):
    """An unknown kernel name, or the batched kernel run without numpy."""


class SessionError(ReproError):
    """Simulation-session misuse (e.g. a session bound to another graph)."""


class NegotiationError(ReproError):
    """A MIRO negotiation was used incorrectly (bad state transition, ...)."""


class TunnelError(ReproError):
    """Tunnel table misuse (duplicate id, unknown tunnel, ...)."""


class PolicyError(ReproError):
    """Invalid routing-policy configuration."""


class PolicySyntaxError(PolicyError):
    """The extended route-map configuration text could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


class ConvergenceError(ReproError):
    """Convergence-simulation misuse (e.g. querying an unfinished run)."""


class EventError(ReproError):
    """Discrete-event scheduler misuse (past timestamps, unknown kinds)."""


class ExperimentError(ReproError):
    """An experiment was configured with unusable parameters."""


class DataPlaneError(ReproError):
    """Packet forwarding failed (no FIB entry, bad encapsulation, ...)."""


class ObservabilityError(ReproError):
    """Instrumentation misuse (bad metric name, label mismatch, ...)."""


class ServiceError(ReproError):
    """Query-service misuse or unavailability (draining, no runtime, ...)."""


class ServiceOverloadError(ServiceError):
    """The service shed a request because its admission queue is full.

    ``retry_after`` is the suggested back-off in seconds — the
    ``Retry-After`` of the JSON protocol's overload response.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"service overloaded; retry after {retry_after:.3f}s"
        )
        self.retry_after = retry_after
