"""Packets and IP-in-IP encapsulation (§3.5, §4.2).

A :class:`Packet` carries a stack of IP headers; entering a MIRO tunnel
wraps a new outer header (optionally carrying the tunnel identifier),
leaving strips it.  "A data packet can be encapsulated in several layers of
IP headers, resulting in a 'tunnel inside another tunnel'" — the header
stack models exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..errors import DataPlaneError


@dataclass(frozen=True)
class IPHeader:
    """One IP header: source/destination addresses plus the MIRO tunnel id
    (carried, e.g., in an option or shim when the header encapsulates a
    tunnelled packet)."""

    source: int
    destination: int
    tunnel_id: Optional[int] = None


@dataclass(frozen=True)
class FlowKey:
    """The fields traffic classifiers match on (§3.5): addresses, ports,
    protocol, and type-of-service bits."""

    src_port: int = 0
    dst_port: int = 0
    protocol: int = 6
    tos: int = 0


@dataclass(frozen=True)
class Packet:
    """A data packet: payload plus a stack of IP headers (outermost last)."""

    headers: Tuple[IPHeader, ...]
    flow: FlowKey = field(default_factory=FlowKey)
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not self.headers:
            raise DataPlaneError("a packet needs at least one IP header")

    @classmethod
    def make(
        cls,
        source: int,
        destination: int,
        flow: Optional[FlowKey] = None,
        payload: bytes = b"",
    ) -> "Packet":
        return cls(
            headers=(IPHeader(source, destination),),
            flow=flow or FlowKey(),
            payload=payload,
        )

    @property
    def outer(self) -> IPHeader:
        """The outermost header — what routers forward on."""
        return self.headers[-1]

    @property
    def inner(self) -> IPHeader:
        """The original (innermost) header."""
        return self.headers[0]

    @property
    def encapsulated(self) -> bool:
        return len(self.headers) > 1

    @property
    def encapsulation_depth(self) -> int:
        return len(self.headers) - 1

    def encapsulate(
        self, source: int, destination: int, tunnel_id: Optional[int] = None
    ) -> "Packet":
        """Wrap a new outer IP header (entering a tunnel)."""
        outer = IPHeader(source, destination, tunnel_id=tunnel_id)
        return replace(self, headers=self.headers + (outer,))

    def decapsulate(self) -> "Packet":
        """Strip the outer header (leaving a tunnel)."""
        if not self.encapsulated:
            raise DataPlaneError("packet is not encapsulated")
        return replace(self, headers=self.headers[:-1])

    def rewrite_outer_destination(self, destination: int) -> "Packet":
        """Rewrite the outer destination (the §4.2 one-reserved-address
        scheme rewrites at the ingress router)."""
        new_outer = replace(self.outer, destination=destination)
        return replace(self, headers=self.headers[:-1] + (new_outer,))
