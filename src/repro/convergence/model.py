"""Abstract model for MIRO convergence (§7.1).

The model follows the dissertation's extension of the Gao–Rexford
framework: a clustered graph with BGP edges and tunnel edges, per-AS
ranking functions, export filters, and *activations* that make an AS
re-run its route selection.  One speaker per AS (activating an AS
activates all its speakers simultaneously, as in the proofs).

Selections live on two layers:

* the **BGP layer** — the pure path-vector route, never influenced by
  tunnels (this is what Guideline B calls the lower layer);
* the **effective layer** — what the AS actually uses, possibly a tunnel
  route.

The :class:`GuidelineMode` controls how the layers interact: whether
tunnels leak into advertisements (the unrestricted, divergent case), stay
strictly above BGP (Guideline B, §7.3.1), are advertised only to leaf
nodes (Guideline C, §7.3.2), or follow the same-class "strict policy" with
a per-AS partial order (Guideline D) or the no-tunnel-on-tunnel rule
(Guideline E, §7.3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..bgp.policy import classify_path
from ..bgp.route import RouteClass
from ..errors import ConvergenceError, TopologyError
from ..topology.graph import ASGraph

Path = Tuple[int, ...]


class GuidelineMode(enum.Enum):
    """Which Ch. 7 guideline governs tunnel handling."""

    UNRESTRICTED = "unrestricted"    # no guideline: divergence possible
    GUIDELINE_B = "B"                # tunnels strictly above BGP (§7.3.1)
    GUIDELINE_C = "C"                # tunnels advertised only to leaves (§7.3.2)
    GUIDELINE_D = "D"                # strict policy + per-AS partial order (§7.3.3)
    GUIDELINE_E = "E"                # strict policy + no tunnel-on-tunnel (§7.3.3)


@dataclass(frozen=True, slots=True)
class Selection:
    """One selected route: the path, and how it came to be."""

    path: Path
    is_tunnel: bool = False
    #: the responding AS of the tunnel (``first_downstream`` in §7.3.3)
    first_downstream: Optional[int] = None

    @property
    def holder(self) -> int:
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]


@dataclass(frozen=True, slots=True)
class TunnelDemand:
    """A standing wish: ``requester`` negotiates with ``responder`` for
    routes toward ``destination`` (§7.1.2's tunnel edge set E')."""

    requester: int
    destination: int
    responder: int


class Ranker:
    """Base ranking function interface (§7.1.1's per-AS ``f``).

    ``rank(asn, destination, path)`` returns a comparable score (higher is
    better) or None when the path is unacceptable to that AS.
    """

    def rank(self, asn: int, destination: int, path: Path):
        raise NotImplementedError

    def best(
        self, asn: int, destination: int, paths: Sequence[Selection]
    ) -> Optional[Selection]:
        """The most preferred acceptable selection (deterministic ties)."""
        ranked = []
        for selection in paths:
            score = self.rank(asn, destination, selection.path)
            if score is None:
                continue
            ranked.append((score, not selection.is_tunnel, selection.path, selection))
        if not ranked:
            return None
        # higher score wins; prefer plain BGP on equal score; then lexicographic
        ranked.sort(key=lambda item: (item[0], item[1], tuple(-p for p in item[2])))
        return ranked[-1][3]


class ExplicitRanker(Ranker):
    """Rankings given as explicit per-(AS, destination) preference lists —
    exactly how the Fig. 7.1 / 7.2 counterexamples are specified.

    Paths absent from an AS's list are unacceptable to it; ASes without a
    list fall back to ``default`` (or accept nothing).
    """

    def __init__(
        self,
        preferences: Dict[Tuple[int, int], Sequence[Path]],
        default: Optional[Ranker] = None,
    ) -> None:
        self._prefs = {
            key: {tuple(p): len(paths) - i for i, p in enumerate(paths)}
            for key, paths in preferences.items()
        }
        self._default = default

    def rank(self, asn: int, destination: int, path: Path):
        table = self._prefs.get((asn, destination))
        if table is None:
            if self._default is not None:
                return self._default.rank(asn, destination, path)
            return None
        return table.get(tuple(path))


class GaoRexfordRanker(Ranker):
    """Guideline A's preference rule: customer routes over peer routes over
    provider routes, then shorter paths (§7.2)."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph

    def rank(self, asn: int, destination: int, path: Path):
        return (path_class_rank(self._graph, path), -len(path))


def path_class_rank(graph: ASGraph, path: Path) -> int:
    """Sibling-resolved class rank of a whole path (§2.2.1):
    :func:`repro.bgp.policy.classify_path`'s :class:`RouteClass` value.

    One difference: a non-adjacent hop before the first non-sibling link,
    which a tunnel path can hold, ranks as a provider route.
    """
    try:
        return classify_path(graph, path).value
    except TopologyError:  # the hop has no relationship to read
        return RouteClass.PROVIDER.value


@dataclass(slots=True)
class PartialOrder:
    """The per-AS strict partial order ≺ of Guideline D.

    ``allows(first_downstream, destination)`` answers whether the AS may
    prefer a tunnel through ``first_downstream`` over its BGP routes to
    ``destination``.  The order is given as explicit pairs and checked for
    cycles on construction (it must be a *strict partial* order).
    """

    pairs: Tuple[Tuple[int, int], ...]
    _closure: FrozenSet[Tuple[int, int]] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self) -> None:
        # transitive closure + irreflexivity check
        closure = set(self.pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        if any(a == b for a, b in closure):
            raise ConvergenceError(
                "the Guideline-D relation contains a cycle and is not a "
                "strict partial order"
            )
        self._closure = frozenset(closure)

    def allows(self, first_downstream: int, destination: int) -> bool:
        return (first_downstream, destination) in self._closure
