"""AS-level routes.

A :class:`Route` is an AS path held by the AS at ``path[0]`` toward the
destination AS ``path[-1]`` (the paper writes these as e.g. ``ABEF``).  Each
route carries its :class:`RouteClass` — the business class that determines
local preference and exportability (§2.2.1/§2.2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import RoutingError


class RouteClass(enum.Enum):
    """Business class of a route, after sibling resolution (§2.2.1).

    Sibling routes are resolved to the class of the first non-sibling link
    on the path; an all-sibling path counts as a customer route.  ``ORIGIN``
    marks the null path at the destination AS itself.
    """

    ORIGIN = 4
    CUSTOMER = 3
    PEER = 2
    PROVIDER = 1

    @property
    def preference_rank(self) -> int:
        """Higher rank = preferred (customer > peer > provider, §2.2.1)."""
        return self.value

    @property
    def local_pref(self) -> int:
        """Conventional local-preference band for this class (§2.2.2)."""
        return _LOCAL_PREF[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RouteClass.{self.name}"


_LOCAL_PREF = {
    RouteClass.ORIGIN: 1000,
    RouteClass.CUSTOMER: 400,
    RouteClass.PEER: 200,
    RouteClass.PROVIDER: 100,
}


@dataclass(frozen=True, slots=True)
class Route:
    """An AS-level route: ``path[0]`` holds it, ``path[-1]`` originates it.

    Slotted: simulations hold one ``Route`` per (AS, destination) pair, so
    at verify-500 scale a routing campaign keeps hundreds of thousands of
    live instances — dropping the per-instance ``__dict__`` is a real
    memory win (measured in ``benchmarks/test_snapshot_memory.py``).
    """

    path: Tuple[int, ...]
    route_class: RouteClass

    def __post_init__(self) -> None:
        if not self.path:
            raise RoutingError("a route needs a non-empty AS path")
        if len(set(self.path)) != len(self.path):
            raise RoutingError(f"AS path contains a loop: {self.path}")
        if self.route_class is RouteClass.ORIGIN and len(self.path) != 1:
            raise RoutingError("ORIGIN routes must have a single-AS path")

    @classmethod
    def _trusted(cls, path: Tuple[int, ...], route_class: RouteClass) -> "Route":
        """Construct without validation.

        Only for callers that guarantee the invariants by construction —
        the settling kernel never extends a path with an AS already on it,
        so re-checking loop-freedom on every emitted route would just tax
        the hot path.  Everyone else goes through the normal constructor.
        """
        route = object.__new__(cls)
        object.__setattr__(route, "path", path)
        object.__setattr__(route, "route_class", route_class)
        return route

    @property
    def holder(self) -> int:
        """The AS that holds (selected/learned) this route."""
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]

    @property
    def next_hop(self) -> Optional[int]:
        """The next-hop AS, or None for the origin's null route."""
        return self.path[1] if len(self.path) > 1 else None

    @property
    def length(self) -> int:
        """Number of AS hops (origin route has length 0)."""
        return len(self.path) - 1

    @property
    def local_pref(self) -> int:
        return self.route_class.local_pref

    def contains(self, asn: int) -> bool:
        """True iff ``asn`` appears anywhere on the path."""
        return asn in self.path

    def preference_key(self) -> Tuple:
        """Sort key: greater = preferred.

        Preference follows the paper's selection process: class (local
        pref) first, then shorter AS path; final deterministic tie-break on
        the path itself (stands in for the router-id steps of Table 2.1).
        """
        return (
            self.route_class.preference_rank,
            -self.length,
            tuple(-p for p in self.path),
        )

    def __str__(self) -> str:
        return "-".join(str(a) for a in self.path)
