"""The router-level BGP decision process (Table 2.1).

Eight steps, applied in order until one candidate remains:

1. highest local preference,
2. shortest AS path,
3. lowest origin type (IGP < EGP < INCOMPLETE),
4. lowest MED among routes from the same next-hop AS,
5. eBGP-learned over iBGP-learned,
6. lowest IGP distance to the egress point,
7. lowest advertising router id,
8. lowest advertising interface IP address.

This is the machinery the intra-AS architecture of Ch. 4 relies on: it is
what makes different routers inside one AS pick different AS paths (the
R1/R2/R3 example of Fig. 4.1 is reproduced in the tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import RoutingError


class OriginType(enum.IntEnum):
    """BGP origin attribute; lower is preferred (step 3)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class SessionType(enum.Enum):
    """Whether a route was learned over an eBGP or iBGP session (step 5)."""

    EBGP = "ebgp"
    IBGP = "ibgp"


@dataclass(frozen=True, slots=True)
class RouterRoute:
    """A candidate route as seen inside one router.

    ``as_path`` excludes the local AS (it is the path attribute as received).
    ``egress_router`` identifies the border router at which the path exits
    the AS; ``igp_distance`` is the IGP metric from the deciding router to
    that egress.
    """

    prefix: str
    as_path: Tuple[int, ...]
    local_pref: int = 100
    origin: OriginType = OriginType.IGP
    med: int = 0
    session: SessionType = SessionType.EBGP
    igp_distance: int = 0
    router_id: int = 0
    peer_address: Tuple[int, int, int, int] = (0, 0, 0, 0)
    egress_router: Optional[str] = None

    @property
    def next_hop_as(self) -> Optional[int]:
        return self.as_path[0] if self.as_path else None


#: Human-readable names of the decision steps, in order (Table 2.1).
DECISION_STEPS = (
    "highest local preference",
    "shortest AS path",
    "lowest origin type",
    "lowest MED (same next-hop AS)",
    "eBGP over iBGP",
    "lowest IGP distance to egress",
    "lowest router id",
    "lowest peer address",
)


def decide(
    candidates: Sequence[RouterRoute],
) -> Tuple[RouterRoute, int]:
    """Run the decision process; return (winner, index of deciding step).

    The deciding step index is 0-based into :data:`DECISION_STEPS` (e.g. 0
    means local preference alone settled it); a single candidate decides at
    step -1.  Raises :class:`RoutingError` on an empty candidate set or
    mixed prefixes.
    """
    if not candidates:
        raise RoutingError("decision process needs at least one candidate")
    prefixes = {c.prefix for c in candidates}
    if len(prefixes) != 1:
        raise RoutingError(f"candidates span multiple prefixes: {prefixes}")
    remaining = list(candidates)
    if len(remaining) == 1:
        return remaining[0], -1

    filters = (
        lambda rs: _keep_max(rs, lambda r: r.local_pref),
        lambda rs: _keep_min(rs, lambda r: len(r.as_path)),
        lambda rs: _keep_min(rs, lambda r: int(r.origin)),
        _med_filter,
        lambda rs: _keep_min(rs, lambda r: 0 if r.session is SessionType.EBGP else 1),
        lambda rs: _keep_min(rs, lambda r: r.igp_distance),
        lambda rs: _keep_min(rs, lambda r: r.router_id),
        lambda rs: _keep_min(rs, lambda r: r.peer_address),
    )
    for step, keep in enumerate(filters):
        remaining = keep(remaining)
        if len(remaining) == 1:
            return remaining[0], step
    # Identical on every attribute: deterministic fallback on the AS path.
    remaining.sort(key=lambda r: r.as_path)
    return remaining[0], len(filters) - 1


def _keep_max(routes: List[RouterRoute], key) -> List[RouterRoute]:
    top = max(key(r) for r in routes)
    return [r for r in routes if key(r) == top]


def _keep_min(routes: List[RouterRoute], key) -> List[RouterRoute]:
    low = min(key(r) for r in routes)
    return [r for r in routes if key(r) == low]


def _med_filter(routes: List[RouterRoute]) -> List[RouterRoute]:
    """Step 4: MED compares only among routes from the same next-hop AS."""
    kept: List[RouterRoute] = []
    for route in routes:
        same_as = [r for r in routes if r.next_hop_as == route.next_hop_as]
        lowest = min(r.med for r in same_as)
        if route.med == lowest:
            kept.append(route)
    return kept
