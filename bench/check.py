"""Answer checker: every response, after the clock stops.

The reference is ``compute_routes_reference`` — the legacy dict walk
that shares no hot-path code with the kernels — run on the runner's own
copy of the workload's graph, never on anything the server sent.

* ``warm_path`` / ``churn``: the named path equals the reference path.
  On ``churn`` an answer may equal the reference at either link state
  that could have been current between its send and its receipt.
* ``warm_table``: the whole table equals the reference table.
* ``cold_scan``: every path starts at the source, ends at the
  destination, is link-valid and valley-free; the answers for a seeded
  budget of 64 destinations are compared with the reference in full.
* ``negotiate``: a declined negotiation is a valid answer; an
  established tunnel's path starts at the responder, ends at the
  destination, is loop-free and link-valid and avoids the requester.

A request that got no answer, an ``ok: false`` answer (refused, shed,
error) or a wrong answer counts as failed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.bgp.routing import compute_routes_reference

#: cold_scan destinations whose answers are compared with the reference.
SCAN_BUDGET = 64


class Checker:
    def __init__(self, workload, graph) -> None:
        self.kind = workload.kind
        self.graph = graph
        self.states = {"up": graph}
        self._tables: Dict[Tuple[str, int], object] = {}
        self._full: Dict[Tuple[str, int], dict] = {}
        self.scan_budget = set()
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def expect(self, inputs) -> None:
        """Learn from the run's inputs which link flaps and which scan
        destinations are compared in full."""
        if inputs.flap_link:
            down = self.graph.copy()
            down.remove_link(*inputs.flap_link)
            self.states["down"] = down
        if self.kind == "scan":
            self.scan_budget = set(
                inputs.rng.sample(inputs.population, SCAN_BUDGET)
                if len(inputs.population) > SCAN_BUDGET else inputs.population
            )

    # -- reference ----------------------------------------------------------
    def _table(self, destination: int, state: str = "up"):
        key = (state, destination)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = compute_routes_reference(
                self.states[state], destination)
        return table

    def reference_path(self, destination: int, source: int, state: str = "up"):
        path = self._table(destination, state).default_path(source)
        return list(path) if path is not None else None

    def _reference_paths(self, destination: int) -> dict:
        key = ("up", destination)
        if key not in self._full:
            self._full[key] = {
                str(asn): list(route.path)
                for asn, route in self._table(destination).items()
            }
        return self._full[key]

    # -- one answer -----------------------------------------------------------
    def _wrong(self, key, answer: dict, states: List[str]) -> Optional[str]:
        """Why ``answer`` is not a correct response to ``key`` (or None)."""
        if answer.get("ok") is not True:
            return f"refused: {answer}"
        if key[0] == "table":
            destination = key[1]
            if answer.get("destination") != destination:
                return "answer names another destination"
            if answer.get("paths") != self._reference_paths(destination):
                return "table differs from the reference"
            return None
        if key[0] == "path":
            _, destination, source = key
            path = answer.get("path")
            if answer.get("destination") != destination:
                return "answer names another destination"
            if self.kind == "scan":
                graph = self.graph
                if (
                    not path or path[0] != source or path[-1] != destination
                    or not graph.path_exists(path)
                    or not graph.is_valley_free(tuple(path))
                ):
                    return f"invalid path {path}"
                if destination not in self.scan_budget:
                    return None
            allowed = [
                self.reference_path(destination, source, s) for s in states
            ]
            if path not in allowed:
                return f"path {path} is not the reference {allowed}"
            return None
        _, requester, responder, destination = key
        if answer.get("established") is False:
            return None
        path = answer.get("path")
        if (
            answer.get("established") is not True
            or not isinstance(answer.get("tunnel_id"), int)
            or not path or path[0] != responder or path[-1] != destination
            or len(set(path)) != len(path) or requester in path
            or not self.graph.path_exists(path)
        ):
            return f"invalid tunnel {answer}"
        return None

    # -- one phase ---------------------------------------------------------------
    def check(self, phase, keys: list) -> None:
        """Count every request of ``phase`` as attempted, and failed if
        unanswered, refused or wrong."""
        parsed: Dict[int, object] = {}
        verdicts: Dict[tuple, Optional[str]] = {}
        epochs = _epochs(phase.flaps)
        for index, key in enumerate(keys):
            self.attempted += 1
            slot = phase.answer[index]
            if slot < 0:
                self._fail(f"request {phase.first_id + index} got no answer")
                continue
            states = _states_during(
                epochs, phase.sent_ns[index], phase.recv_ns[index])
            memo = (slot, key, tuple(states))
            if memo not in verdicts:
                if slot not in parsed:
                    try:
                        parsed[slot] = json.loads(phase.bodies[slot] + b"}")
                    except ValueError:
                        parsed[slot] = None
                answer = parsed[slot]
                verdicts[memo] = (
                    self._wrong(key, answer, states)
                    if isinstance(answer, dict) else "answer is not JSON"
                )
            problem = verdicts[memo]
            if problem is not None:
                self._fail(f"request {phase.first_id + index} {key}: {problem}")

    def _fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why


def _epochs(flaps) -> List[Tuple[int, float, str]]:
    """``(earliest start, latest end, state)`` of each link state.

    A flap takes effect somewhere between its send and its ack, so the
    state it ends may last until the ack and the state it starts may
    begin at the send.
    """
    epochs = []
    state, begins = "up", 0
    for sent_ns, acked_ns, after in flaps:
        epochs.append((begins, acked_ns, state))
        state, begins = after, sent_ns
    epochs.append((begins, float("inf"), state))
    return epochs


def _states_during(epochs, sent_ns: int, recv_ns: int) -> List[str]:
    """Link states that could have been current while a request was out."""
    return sorted({
        state for begins, ends, state in epochs
        if sent_ns < ends and recv_ns > begins
    })
