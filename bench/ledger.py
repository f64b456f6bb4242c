"""The ledger: where a traced request's time went, layer by layer.

Input is the span list of ``bench/spans.py`` plus one client-side root
span per request (layer ``loopback``: send to receipt, as the load
generator saw it).  Spans form trees: a span's parent is the one its
recorder named, or — for the top-level spans of a server task and for
spans recorded on an executor thread — the innermost span of the same
request that contains it in time.

A span's **self time** is its duration minus the part of that interval
its children cover.  Self times of a request's tree add up to its round
trip exactly when children nest inside parents; :func:`build` checks
how well they do on the requests between the 40th and 60th latency
percentile, where the parts must meet the traced ``p50``
(``gap_share``).

``layers_us`` is the per-request mean over *all* traced requests and
control operations (total self time of the layer / requests): the flap
operations of ``churn`` are amortized over the lookups they interleave
with, which is what throughput pays.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

LAYERS = (
    "loopback", "service.server", "service.daemon", "session.core",
    "bgp.kernels", "bgp.routing", "topology.snapshot", "topology.delta",
    "miro.runtime", "bgp.engine",
)

ID, NAME, LAYER, START, END, PARENT, REQUEST = range(7)


def _requests_of(span) -> Sequence:
    request = span[REQUEST]
    if request is None:
        return ()
    return request if isinstance(request, list) else (request,)


def _link(spans: List[list]) -> Dict[int, List[list]]:
    """children-by-parent-id, adopting parentless spans by containment."""
    by_request: Dict[object, List[list]] = defaultdict(list)
    for span in spans:
        for request in _requests_of(span):
            by_request[request].append(span)
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if not parent and span[LAYER] != "loopback":
            best = None
            for request in _requests_of(span):
                for other in by_request[request]:
                    if (
                        other is not span
                        and other[START] <= span[START]
                        and other[END] >= span[END]
                        and (best is None or other[START] > best[START])
                    ):
                        best = other
            parent = span[PARENT] = best[ID] if best is not None else 0
        if parent:
            children[parent].append(span)
    return children


def _self_ns(span, children: Dict[int, List[list]]) -> int:
    covered, upto = 0, span[START]
    for child in sorted(children.get(span[ID], ()), key=lambda c: c[START]):
        start = max(child[START], upto)
        end = min(child[END], span[END])
        if end > start:
            covered += end - start
            upto = end
    return span[END] - span[START] - covered


def _admission_wait_ns(span, children: Dict[int, List[list]]) -> int:
    """Inside a ``lookup`` span: end of the cache probe to the start of
    the batch fill that answered it (queueing + the batching window +
    the hand-off to a settle thread)."""
    kids = sorted(children.get(span[ID], ()), key=lambda c: c[START])
    for at, child in enumerate(kids):
        if child[NAME] == "compute_many":
            since = kids[at - 1][END] if at else span[START]
            return max(0, child[START] - since)
    return 0


def build(spans: List[list], roots: List[list]) -> Dict[str, object]:
    """Per-layer self times and the gap between parts and whole.

    ``roots`` are the client-side spans, one per traced request, with
    ids disjoint from the server's.
    """
    spans = [list(span) for span in spans] + roots
    children = _link(spans)
    self_ns = {span[ID]: _self_ns(span, children) for span in spans}
    wait_ns = {
        span[ID]: _admission_wait_ns(span, children)
        for span in spans if span[NAME] == "lookup"
    }

    def add(totals, span) -> None:
        own = self_ns[span[ID]]
        waited = wait_ns.get(span[ID], 0)
        totals[span[LAYER]] += own - waited
        totals["admission_wait"] += waited

    # every span once, per request sent
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        add(totals, span)
    count = len(roots)
    layers_us = {name: total / count / 1e3 for name, total in totals.items()}

    # the p50 band: do the parts add up to the whole?
    ordered = sorted(roots, key=lambda root: root[END] - root[START])
    p50_ns = ordered[len(ordered) // 2][END] - ordered[len(ordered) // 2][START]
    band = ordered[int(0.4 * len(ordered)): max(int(0.6 * len(ordered)), 1)]
    band_totals: Dict[str, float] = defaultdict(float)
    for root in band:
        stack = [root]
        while stack:
            span = stack.pop()
            add(band_totals, span)
            stack.extend(children.get(span[ID], ()))
    band_us = {name: total / len(band) / 1e3
               for name, total in band_totals.items()}
    parts_us = sum(band_us.values())
    p50_us = p50_ns / 1e3
    return {
        "requests": count,
        "spans": len(spans),
        "p50_us": p50_us,
        "layers_us": layers_us,
        "band_us": band_us,
        "band_parts_us": parts_us,
        "gap_share": abs(p50_us - parts_us) / p50_us,
    }
