"""Tests for the bilateral negotiation protocol (Fig. 4.2)."""

import pytest

from repro.bgp import compute_routes
from repro.errors import NegotiationError
from repro.miro import (
    ExportPolicy,
    ResponderConfig,
    RouteConstraint,
    exchange,
    negotiate,
    via_path,
)

from conftest import A, B, C, D, E, F


@pytest.fixture
def table(paper_graph):
    return compute_routes(paper_graph, F)


class TestConstraint:
    def test_avoid(self, table):
        constraint = RouteConstraint(avoid=(E,))
        bef = table.best(B)
        assert not constraint.satisfied_by(bef)
        bcf = [r for r in table.candidates(B) if r.path == (B, C, F)][0]
        assert constraint.satisfied_by(bcf)

    def test_max_length(self, table):
        constraint = RouteConstraint(max_length=2)
        assert constraint.satisfied_by(table.best(B))
        assert not constraint.satisfied_by(table.best(A))

    def test_require_transit(self, table):
        constraint = RouteConstraint(require_transit=(C,))
        assert not constraint.satisfied_by(table.best(B))


def _established(outcome, requester):
    """The outcome carries a tunnel that does not loop back through its
    requester."""
    assert outcome.established
    assert requester not in outcome.tunnel.path
    return outcome.tunnel


class TestFullExchange:
    def test_fig_3_1_scenario(self, table):
        """AS A negotiates with B to avoid E (Fig. 3.1), export policy."""
        tunnel = _established(negotiate(
            table, A, B, ExportPolicy.EXPORT,
            constraint=RouteConstraint(avoid=(E,)),
        ), A)
        assert tunnel.path == (B, C, F)
        assert tunnel.via_path == (A, B)
        assert tunnel.end_to_end_path == (A, B, C, F)
        assert tunnel.upstream == A
        assert tunnel.downstream == B

    def test_strict_policy_fails_fig_3_1(self, table):
        outcome = negotiate(
            table, A, B, ExportPolicy.STRICT,
            constraint=RouteConstraint(avoid=(E,)),
        )
        assert not outcome.established
        assert outcome.tunnel is None

    def test_tunnel_id_allocated(self, table):
        tunnel = _established(negotiate(table, A, B, ExportPolicy.FLEXIBLE), A)
        assert tunnel.tunnel_id == 1

    def test_max_price_filters(self, table):
        config = ResponderConfig(price_for=lambda route: 500)
        outcome = negotiate(
            table, A, B, ExportPolicy.FLEXIBLE,
            responder_config=config, max_price=100,
        )
        assert not outcome.established
        assert outcome.offered_count == 0

    def test_price_accepted_when_affordable(self, table):
        config = ResponderConfig(price_for=lambda route: 50)
        tunnel = _established(negotiate(
            table, A, B, ExportPolicy.FLEXIBLE,
            responder_config=config, max_price=100,
        ), A)
        assert tunnel.price == 50

    def test_offer_priced_exactly_at_max_price_is_kept(self, table):
        offered, adopted = exchange(
            table, (A, B), ExportPolicy.FLEXIBLE,
            price_for=lambda route: 100, max_price=100,
        )
        assert [route.path for route in offered] == [(B, C, F)]
        assert adopted.path == (B, C, F)

    def test_non_adjacent_negotiation_over_default_path(self, table):
        """A negotiates with E (two hops away on A's default path)."""
        tunnel = _established(negotiate(table, A, E, ExportPolicy.FLEXIBLE), A)
        # E's only alternate to F is via C
        assert tunnel.via_path == (A, B, E)

    def test_responder_off_path_and_non_adjacent(self, table):
        # C is neither adjacent to A nor on A's default path (A,B,E,F), so
        # the convenience driver cannot resolve a via path.
        with pytest.raises(NegotiationError):
            negotiate(table, A, C, ExportPolicy.FLEXIBLE)

    def test_explicit_via_path_enables_remote_responder(self, table):
        # §3.3: A could negotiate with C using the path ABC through B.
        tunnel = _established(negotiate(
            table, A, C, ExportPolicy.FLEXIBLE, via=(A, B, C),
        ), A)
        assert tunnel.end_to_end_path[0] == A
        assert tunnel.downstream == C

    def test_offer_through_the_requester_is_declined(self, table):
        """A's one alternate toward F is A-D-E-F: offered to D, it would
        carry D's traffic back through D, so D does not adopt it."""
        outcome = negotiate(table, D, A, ExportPolicy.FLEXIBLE)
        assert not outcome.established
        assert outcome.offered_count == 1
        assert outcome.reason == "no offered route satisfies the requester"


class TestResponderRules:
    def test_firewall(self, table):
        config = ResponderConfig(accept_from={D})
        outcome = negotiate(
            table, A, B, ExportPolicy.FLEXIBLE, responder_config=config
        )
        assert not outcome.established
        assert "not accepted" in outcome.reason
        # the whitelisted requester is served
        _established(negotiate(
            table, D, E, ExportPolicy.FLEXIBLE, responder_config=config
        ), D)

    def test_tunnel_limit(self, table):
        config = ResponderConfig(max_tunnels=0)
        outcome = negotiate(
            table, A, B, ExportPolicy.FLEXIBLE, responder_config=config
        )
        assert not outcome.established
        assert "limit" in outcome.reason

    def test_responder_applies_constraint(self, table):
        outcome = negotiate(
            table, A, B, ExportPolicy.FLEXIBLE,
            constraint=RouteConstraint(avoid=(C,)),
        )
        assert not outcome.established  # only alternate goes via C
        assert outcome.offered_count == 0
        assert outcome.reason == "no candidate routes satisfy the request"


class TestExchange:
    def test_via_path_truncates_the_default_path(self, table):
        assert via_path(table, A, E) == (A, B, E)

    def test_via_path_falls_back_to_the_direct_link(self, table):
        assert via_path(table, A, D) == (A, D)

    def test_via_path_needs_a_known_path(self, table):
        with pytest.raises(NegotiationError):
            via_path(table, A, C)

    def test_offers_and_adoption(self, table):
        offered, chosen = exchange(table, (A, B), ExportPolicy.FLEXIBLE)
        assert [r.path for r in offered] == [(B, C, F)]
        assert chosen.path == (B, C, F)

    def test_accept_narrows_the_choice_not_the_offer(self, table):
        offered, chosen = exchange(
            table, (A, B), ExportPolicy.FLEXIBLE,
            accept=lambda route: not route.contains(C),
        )
        assert len(offered) == 1
        assert chosen is None

    def test_rank_picks_among_priced_offers(self, table):
        def price_for(route):
            return 10 if route.contains(E) else 20

        def exchange_ranked(**rank):
            return exchange(
                table, (A, B), ExportPolicy.FLEXIBLE, include_default=True,
                price_for=price_for, **rank,
            )

        offered, cheapest = exchange_ranked()
        assert [r.path for r in offered] == [(B, E, F), (B, C, F)]
        assert cheapest.path == (B, E, F)
        _, dearest = exchange_ranked(rank=lambda offer: -offer.price)
        assert dearest.path == (B, C, F)
