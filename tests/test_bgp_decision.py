"""Tests for the router-level BGP decision process (Table 2.1)."""

import pytest

from repro.bgp import (
    DECISION_STEPS,
    OriginType,
    RouterRoute,
    SessionType,
    decide,
)
from repro.errors import RoutingError


def route(**overrides):
    base = dict(
        prefix="12.34.0.0/16",
        as_path=(7, 8),
        local_pref=100,
        origin=OriginType.IGP,
        med=0,
        session=SessionType.EBGP,
        igp_distance=0,
        router_id=1,
        peer_address=(10, 0, 0, 1),
    )
    base.update(overrides)
    return RouterRoute(**base)


class TestSteps:
    def test_empty_candidates_rejected(self):
        with pytest.raises(RoutingError):
            decide([])

    def test_mixed_prefixes_rejected(self):
        with pytest.raises(RoutingError):
            decide([route(), route(prefix="5.6.0.0/16")])

    def test_single_candidate_step_minus_one(self):
        winner, step = decide([route()])
        assert step == -1

    def test_step1_local_pref(self):
        low = route(local_pref=100)
        high = route(local_pref=200, as_path=(1, 2, 3, 4))  # longer but wins
        winner, step = decide([low, high])
        assert winner is high
        assert step == 0
        assert DECISION_STEPS[step] == "highest local preference"

    def test_step2_as_path_length(self):
        short = route(as_path=(7,))
        long = route(as_path=(8, 9))
        winner, step = decide([short, long])
        assert winner is short and step == 1

    def test_step3_origin(self):
        igp = route(origin=OriginType.IGP)
        egp = route(origin=OriginType.EGP, router_id=9)
        winner, step = decide([igp, egp])
        assert winner is igp and step == 2

    def test_step4_med_same_next_hop_only(self):
        a = route(med=10, as_path=(7, 9))
        b = route(med=20, as_path=(7, 8))   # same next-hop AS 7: loses
        c = route(med=99, as_path=(6, 8), router_id=3)  # different AS: kept
        winner, step = decide([a, b, c])
        assert b is not winner
        assert step >= 3

    def test_step5_ebgp_over_ibgp(self):
        ebgp = route(session=SessionType.EBGP, router_id=5)
        ibgp = route(session=SessionType.IBGP, router_id=1)
        winner, step = decide([ebgp, ibgp])
        assert winner is ebgp and step == 4

    def test_step6_igp_distance(self):
        near = route(session=SessionType.IBGP, igp_distance=5, router_id=5)
        far = route(session=SessionType.IBGP, igp_distance=9, router_id=1)
        winner, step = decide([near, far])
        assert winner is near and step == 5

    def test_step7_router_id(self):
        lo = route(router_id=1)
        hi = route(router_id=2)
        winner, step = decide([lo, hi])
        assert winner is lo and step == 6

    def test_step8_peer_address(self):
        lo = route(peer_address=(10, 0, 0, 1))
        hi = route(peer_address=(10, 0, 0, 2))
        winner, step = decide([lo, hi])
        assert winner is lo and step == 7

    def test_identical_routes_deterministic(self):
        a = route(as_path=(7, 8))
        b = route(as_path=(7, 9))
        winner, _ = decide([a, b])
        winner2, _ = decide([b, a])
        assert winner.as_path == winner2.as_path == (7, 8)

    def test_winner_always_among_candidates(self):
        candidates = [route(router_id=i, med=i % 3) for i in range(1, 6)]
        winner, _ = decide(candidates)
        assert winner in candidates
