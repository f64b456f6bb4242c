"""Source-routing baseline (§2.1.2, Table 5.2).

Under source routing the sender may use *any* loop-free path in the
topology, with no regard for business relationships.  For the avoid-an-AS
application the question is simply whether the destination stays reachable
when the offending AS is removed — the paper runs "a depth-first search
algorithm on the graph to identify those nodes" whose removal disconnects
the pair (§5.3.1).

A valley-free-constrained variant is included for comparison: it answers
whether *any policy-compliant* path avoiding the AS exists, which is the
theoretical ceiling for MIRO's flexible policy.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set, Tuple

from ..bgp.policy import valley_free_step
from ..errors import UnknownASError
from ..topology.graph import ASGraph


def reachable_avoiding(
    graph: ASGraph, source: int, destination: int, avoid: int
) -> bool:
    """Can ``source`` reach ``destination`` on any path that skips ``avoid``?

    This is the source-routing success criterion of Table 5.2.
    """
    for asn in (source, destination, avoid):
        if asn not in graph:
            raise UnknownASError(asn)
    if source == avoid or destination == avoid:
        return False
    if source == destination:
        return True
    seen: Set[int] = {source, avoid}
    stack = [source]
    while stack:
        node = stack.pop()
        for neighbor in graph.neighbors(node):
            if neighbor == destination:
                return True
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return False


def reachable_set_avoiding(
    graph: ASGraph, destination: int, avoid: int
) -> Set[int]:
    """All ASes that can reach ``destination`` avoiding ``avoid``.

    One traversal answers the Table 5.2 question for every source at once,
    which is how the experiment harness amortises the DFS.
    """
    for asn in (destination, avoid):
        if asn not in graph:
            raise UnknownASError(asn)
    if destination == avoid:
        return set()
    seen: Set[int] = {destination, avoid}
    queue = deque([destination])
    reachable = {destination}
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                reachable.add(neighbor)
                queue.append(neighbor)
    reachable.discard(avoid)
    return reachable


def valley_free_reachable_avoiding(
    graph: ASGraph, source: int, destination: int, avoid: int
) -> bool:
    """Is there a *valley-free* path from source to destination avoiding
    ``avoid``?

    Search over (AS, phase) states, the phases of
    :func:`repro.bgp.policy.valley_free_step`.
    """
    for asn in (source, destination, avoid):
        if asn not in graph:
            raise UnknownASError(asn)
    if source == avoid or destination == avoid:
        return False
    if source == destination:
        return True
    seen: Set[Tuple[int, int]] = {(source, 0)}
    stack: List[Tuple[int, int]] = [(source, 0)]
    while stack:
        node, phase = stack.pop()
        for neighbor in graph.neighbors(node):
            if neighbor == avoid:
                continue
            rel = graph.relationship(node, neighbor)
            next_phase = valley_free_step(phase, rel)
            if next_phase is None:
                continue
            if neighbor == destination:
                return True
            state = (neighbor, next_phase)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def cut_vertices_for_pair(
    graph: ASGraph, source: int, destination: int
) -> Set[int]:
    """ASes whose removal disconnects source from destination.

    These are the triples no routing scheme — not even source routing —
    can satisfy (§5.3.1: "if the AS-to-avoid lies on every path to the
    destination, then no policy can successfully circumvent the AS").
    """
    blockers: Set[int] = set()
    for candidate in graph.iter_ases():
        if candidate in (source, destination):
            continue
        if not reachable_avoiding(graph, source, destination, candidate):
            blockers.add(candidate)
    return blockers
