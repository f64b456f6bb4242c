"""Tunnel state for the MIRO data plane (§3.5, §4.3).

After a successful negotiation, the downstream AS assigns a tunnel
identifier — unique only within that AS — and both ends install state.  A
tunnel remains active until torn down, either *actively* (a route it relies
on changed) or *passively* via soft state: both ends exchange keep-alives
and destroy the tunnel when the heartbeat timer expires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..errors import TunnelError


@dataclass
class Tunnel:
    """One negotiated tunnel.

    ``path`` is the AS path the tunnel carries traffic along, starting at
    the downstream (responding) AS and ending at the destination AS;
    ``via_path`` is the path the *upstream* AS uses to reach the downstream
    AS (its default BGP path), recorded so the tunnel can be torn down when
    that path changes (§4.3).
    """

    tunnel_id: int
    upstream: int
    downstream: int
    destination: int
    path: Tuple[int, ...]
    via_path: Tuple[int, ...]
    price: int = 0
    last_heartbeat: float = 0.0
    active: bool = True

    def __post_init__(self) -> None:
        if self.path[0] != self.downstream:
            raise TunnelError(
                f"tunnel path {self.path} must start at the downstream "
                f"AS {self.downstream}"
            )
        if self.path[-1] != self.destination:
            raise TunnelError(
                f"tunnel path {self.path} must end at the destination "
                f"AS {self.destination}"
            )
        if self.via_path and (
            self.via_path[0] != self.upstream or self.via_path[-1] != self.downstream
        ):
            raise TunnelError(
                f"via path {self.via_path} must run from the upstream "
                f"AS {self.upstream} to the downstream AS {self.downstream}"
            )

    @property
    def end_to_end_path(self) -> Tuple[int, ...]:
        """Upstream→destination path: the via segment plus the tunnel path.

        ASes may repeat across the two segments — packets inside the tunnel
        are encapsulated, so such "loops" are legal (§7.1.1).
        """
        return self.via_path + self.path[1:]


class TunnelTable:
    """Per-AS tunnel store with identifier allocation and soft state.

    The downstream AS allocates identifiers; they "do not need to be
    globally unique, only unique in the downstream AS" (§3.5).
    """

    def __init__(self, asn: int, heartbeat_timeout: float = 90.0) -> None:
        if heartbeat_timeout <= 0:
            raise TunnelError("heartbeat timeout must be positive")
        self.asn = asn
        self.heartbeat_timeout = heartbeat_timeout
        self._tunnels: Dict[int, Tunnel] = {}
        self._next_id = itertools.count(1)

    def __len__(self) -> int:
        return len(self._tunnels)

    def __iter__(self) -> Iterator[Tunnel]:
        return iter(list(self._tunnels.values()))

    def allocate_id(self) -> int:
        """A fresh identifier, unique within this AS."""
        return next(self._next_id)

    def install(self, tunnel: Tunnel, now: float = 0.0) -> None:
        """Install tunnel state (either end calls this after the handshake)."""
        if tunnel.tunnel_id in self._tunnels:
            raise TunnelError(
                f"tunnel id {tunnel.tunnel_id} already installed at AS {self.asn}"
            )
        tunnel.last_heartbeat = now
        self._tunnels[tunnel.tunnel_id] = tunnel

    def get(self, tunnel_id: int) -> Tunnel:
        tunnel = self._tunnels.get(tunnel_id)
        if tunnel is None:
            raise TunnelError(f"no tunnel {tunnel_id} at AS {self.asn}")
        return tunnel

    def has(self, tunnel_id: int) -> bool:
        return tunnel_id in self._tunnels

    def remove(self, tunnel_id: int) -> Tunnel:
        """Active teardown."""
        tunnel = self.get(tunnel_id)
        del self._tunnels[tunnel_id]
        tunnel.active = False
        return tunnel

    def heartbeat(self, tunnel_id: int, now: float) -> None:
        """Record a keep-alive for the soft-state protocol (§4.3)."""
        self.get(tunnel_id).last_heartbeat = now

    def expire(self, now: float) -> List[Tunnel]:
        """Destroy tunnels whose heartbeat timer lapsed; return them."""
        expired = [
            t for t in self._tunnels.values()
            if now - t.last_heartbeat > self.heartbeat_timeout
        ]
        for tunnel in expired:
            del self._tunnels[tunnel.tunnel_id]
            tunnel.active = False
        return expired

    def invalidate_on_route_change(
        self, changed_path: Tuple[int, ...]
    ) -> List[Tunnel]:
        """Tear down tunnels that relied on a now-changed AS path.

        The upstream AS tears a tunnel down when its path to the
        downstream AS changes; the downstream AS when the tunnel's own
        path to the destination changes (§4.3).  ``changed_path`` is the
        stale path; any tunnel using it as its via or tunnel path goes.
        """
        stale = [
            t for t in self._tunnels.values()
            if t.via_path == tuple(changed_path) or t.path == tuple(changed_path)
        ]
        for tunnel in stale:
            del self._tunnels[tunnel.tunnel_id]
            tunnel.active = False
        return stale

    def tunnels_to(self, destination: int) -> List[Tunnel]:
        """Active tunnels toward a destination AS."""
        return [t for t in self._tunnels.values() if t.destination == destination]
