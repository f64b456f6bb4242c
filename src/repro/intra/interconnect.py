"""Router-level interdomain BGP across multiple ASes (Ch. 4 end to end).

:class:`Internetwork` wires :class:`~repro.intra.network.ASNetwork`
instances together: an eBGP session joins two named exit links, routers
learn routes over those sessions, and each AS runs its internal full-mesh
iBGP between rounds.  This is the router-granularity counterpart of the
AS-level simulations — the environment in which the Fig. 4.1 phenomena
(different border routers selecting different AS paths) arise naturally
from real session layouts rather than hand-fed RIBs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..bgp.decision import RouterRoute, SessionType
from ..errors import RoutingError, TopologyError
from .network import ASNetwork


@dataclass(frozen=True)
class EBGPSession:
    """One eBGP session joining an exit link of each AS."""

    asn_a: int
    router_a: str
    link_a: str
    asn_b: int
    router_b: str
    link_b: str

    def end(self, asn: int) -> Tuple[int, str, str]:
        """(peer asn, local router, local link) from one side's view."""
        if asn == self.asn_a:
            return self.asn_b, self.router_a, self.link_a
        if asn == self.asn_b:
            return self.asn_a, self.router_b, self.link_b
        raise TopologyError(f"AS {asn} is not an endpoint of {self}")


class Internetwork:
    """A set of router-level ASes joined by eBGP sessions."""

    def __init__(self) -> None:
        self._networks: Dict[int, ASNetwork] = {}
        self._sessions: List[EBGPSession] = []
        #: per (prefix, session, direction) — the route currently
        #: advertised, so re-advertisements replace rather than pile up
        self._advertised: Dict[Tuple[str, int, int], Tuple[int, ...]] = {}
        #: prefix -> the ASes originating it
        self._origins: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_network(self, network: ASNetwork) -> None:
        if network.asn in self._networks:
            raise TopologyError(f"AS {network.asn} already added")
        self._networks[network.asn] = network

    def network(self, asn: int) -> ASNetwork:
        if asn not in self._networks:
            raise TopologyError(f"AS {asn} is not in the internetwork")
        return self._networks[asn]

    def connect(
        self, asn_a: int, link_a: str, asn_b: int, link_b: str
    ) -> EBGPSession:
        """Join exit link ``link_a`` of ``asn_a`` with ``link_b`` of
        ``asn_b`` into an eBGP session.  The links' declared neighbour
        ASes must match the session's endpoints."""
        net_a, net_b = self.network(asn_a), self.network(asn_b)
        exit_a, exit_b = net_a.exit_link(link_a), net_b.exit_link(link_b)
        if exit_a.neighbor_as != asn_b:
            raise TopologyError(
                f"link {link_a!r} points at AS {exit_a.neighbor_as}, "
                f"not AS {asn_b}"
            )
        if exit_b.neighbor_as != asn_a:
            raise TopologyError(
                f"link {link_b!r} points at AS {exit_b.neighbor_as}, "
                f"not AS {asn_a}"
            )
        session = EBGPSession(
            asn_a, exit_a.router, link_a, asn_b, exit_b.router, link_b
        )
        self._sessions.append(session)
        return session

    @property
    def sessions(self) -> List[EBGPSession]:
        return list(self._sessions)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def originate(self, asn: int, prefix: str) -> None:
        """The AS originates the prefix: its border routers advertise the
        null path over every session (captured on the first run round)."""
        self.network(asn)  # existence check
        self._origins.setdefault(prefix, set()).add(asn)

    def run(self, prefix: str, max_rounds: int = 30) -> None:
        """Alternate iBGP and eBGP exchange until nothing changes."""
        origins = self._origins.get(prefix, set())
        if not origins:
            raise RoutingError(f"nobody originates {prefix}")
        for _ in range(max_rounds):
            changed = False
            # internal convergence first
            best: Dict[int, Dict[str, RouterRoute]] = {}
            for asn, network in self._networks.items():
                best[asn] = network.run_ibgp(prefix)
            # then one eBGP exchange round over every session
            for session in self._sessions:
                for local_asn in (session.asn_a, session.asn_b):
                    peer_asn, local_router, _ = session.end(local_asn)
                    _, peer_router, _ = session.end(peer_asn)
                    route = self._session_advertisement(
                        local_asn, local_router, prefix, peer_asn,
                        best.get(local_asn, {}), origins,
                    )
                    if self._deliver(
                        session, local_asn, peer_asn, peer_router,
                        prefix, route,
                    ):
                        changed = True
            if not changed:
                return
        raise RoutingError(
            f"interdomain routing did not stabilise within {max_rounds} rounds"
        )

    def _session_advertisement(
        self,
        asn: int,
        router: str,
        prefix: str,
        peer_asn: int,
        best: Dict[str, RouterRoute],
        origins,
    ) -> Optional[Tuple[int, ...]]:
        """The AS path ``router`` advertises to ``peer_asn``, or None."""
        if asn in origins:
            return (asn,)
        route = best.get(router)
        if route is None:
            return None
        as_path = (asn,) + route.as_path
        if peer_asn in as_path:
            return None  # poison-reverse: receiver would loop anyway
        return as_path

    def _deliver(
        self,
        session: EBGPSession,
        sender_asn: int,
        receiver_asn: int,
        receiver_router: str,
        prefix: str,
        as_path: Optional[Tuple[int, ...]],
    ) -> bool:
        """Install/replace/withdraw the session's advertisement at the
        receiver; True if the receiver's RIB changed."""
        key = (prefix, id(session), sender_asn)
        previous = self._advertised.get(key)
        if as_path == previous:
            return False
        receiver = self.network(receiver_asn)
        if previous is not None:
            receiver.withdraw_ebgp(receiver_router, previous, prefix)
        if as_path is not None:
            receiver.learn_ebgp(
                receiver_router,
                RouterRoute(
                    prefix=prefix,
                    as_path=as_path,
                    session=SessionType.EBGP,
                    router_id=sender_asn,  # stands in for the peer's id
                ),
            )
            self._advertised[key] = as_path
        else:
            self._advertised.pop(key, None)
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def best(self, asn: int, router: str, prefix: str) -> Optional[RouterRoute]:
        return self.network(asn).best(router)

    def as_path(self, asn: int, router: str, prefix: str) -> Optional[Tuple[int, ...]]:
        route = self.best(asn, router, prefix)
        return None if route is None else route.as_path
