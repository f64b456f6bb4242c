"""End-to-end integration tests spanning multiple subsystems.

Each scenario mirrors one of the paper's walk-throughs:

* Fig. 2.1 — BGP table formation;
* Fig. 3.1 — A avoids E via negotiation with B, tunnel bound in the data
  plane (§3.5, Fig. 4.2);
* §6.3 — the extended route-map policy drives a negotiation end to end;
* §4.1/§4.2 — AS-level negotiation resolves to router-level tunnel state
  and packets traverse it;
* full pipeline — generate topology, route, infer relationships, evaluate.
"""


from repro.bgp import RouterRoute, compute_routes
from repro.dataplane import FlowKey, Classifier, MatchRule, Packet, parse_ipv4
from repro.intra import ASNetwork, ReservedAddressScheme, RoutingControlPlatform
from repro.miro import (
    ExportPolicy,
    MiroRuntime,
    RouteConstraint,
    miro_attempt,
    negotiate,
)
from repro.policylang import parse_config
from repro.topology import SMALL, generate_topology, infer_gao, inference_accuracy

from conftest import A, B, C, D, E, F


class TestFig21TableFormation:
    """The step-by-step BGP table formation of Fig. 2.1."""

    def test_final_tables(self, paper_graph):
        table = compute_routes(paper_graph, F)
        expected = {
            F: (F,),
            C: (C, F),
            E: (E, F),
            B: (B, E, F),
            D: (D, E, F),
            A: (A, B, E, F),
        }
        for asn, path in expected.items():
            assert table.best(asn).path == path

    def test_d_keeps_candidate_but_not_selected(self, paper_graph):
        table = compute_routes(paper_graph, F)
        d_candidates = {r.path for r in table.candidates(D)}
        # D hears A's provider route?  No: A may not export provider routes
        # to D.  D's candidates are only via E.
        assert d_candidates == {(D, E, F)}


class TestFig31EndToEnd:
    """Fig. 3.1 + Fig. 4.2: negotiation, tunnel id 7-style binding, and
    §3.5 traffic splitting at the upstream AS."""

    def test_negotiation_and_data_plane(self, paper_graph):
        table = compute_routes(paper_graph, F)

        # 1. control plane: A negotiates with B to avoid E
        outcome = negotiate(
            table, A, B, ExportPolicy.EXPORT,
            constraint=RouteConstraint(avoid=(E,)),
        )
        assert outcome.established
        tunnel = outcome.tunnel
        assert tunnel.path == (B, C, F)

        # 2. upstream classifier: real-time traffic into the tunnel,
        #    best-effort on the default path (§3.5)
        classifier = Classifier(default_action="default")
        classifier.add(MatchRule(tos=46), f"tunnel-{tunnel.tunnel_id}")
        realtime = Packet.make(
            parse_ipv4("10.1.0.1"), parse_ipv4("10.6.0.1"),
            flow=FlowKey(tos=46),
        )
        besteffort = Packet.make(
            parse_ipv4("10.1.0.1"), parse_ipv4("10.6.0.1"),
        )
        assert classifier.classify(realtime) == f"tunnel-{tunnel.tunnel_id}"
        assert classifier.classify(besteffort) == "default"

        # 3. encapsulation into the tunnel and decapsulation at B
        encapsulated = realtime.encapsulate(
            parse_ipv4("10.1.0.254"), parse_ipv4("10.2.0.100"),
            tunnel_id=tunnel.tunnel_id,
        )
        assert encapsulated.outer.tunnel_id == tunnel.tunnel_id
        delivered = encapsulated.decapsulate()
        assert delivered == realtime

    def test_teardown_on_route_change(self, paper_graph):
        """§4.3: A tears the tunnel down when its path to B changes."""
        runtime = MiroRuntime(paper_graph)
        record = runtime.establish(A, B, F, ExportPolicy.EXPORT,
                                   RouteConstraint(avoid=(E,)))
        assert runtime.fail_link(A, B) == [record.tunnel]
        assert len(runtime.tunnels[A]) == len(runtime.tunnels[B]) == 0


class TestPolicyDrivenNegotiation:
    """Ch. 6: the extended route-map config drives the whole exchange."""

    REQUESTER = f"""
router bgp 1
route-map AVOID_AS permit 10
 match empty path 200
 try negotiation NEG
ip as-path access-list 200 deny _{E}_
negotiation NEG
 match avoid {E}
 start negotiation with maximum cost 250
"""

    RESPONDER = """
router bgp 2
accept negotiation from any
 when tunnel_number < 1000
negotiation filter FILTER-1
 filter permit local_pref > 300
  set tunnel_cost 120
 filter permit local_pref > 100
  set tunnel_cost 180
"""

    def test_config_to_tunnel(self, paper_graph):
        table = compute_routes(paper_graph, F)
        requester_policy = parse_config(self.REQUESTER).requester
        responder_policy = parse_config(self.RESPONDER).responder

        # the trigger fires because all of A's candidates traverse E
        spec = requester_policy.should_negotiate(table.candidates(A))
        assert spec is not None

        outcome = negotiate(
            table, A, B, ExportPolicy.EXPORT,
            constraint=spec.constraint(),
            max_price=spec.max_cost,
            responder_config=responder_policy.as_responder_config(),
        )
        assert outcome.established
        # B's alternate BCF is a peer route (local_pref 200) priced at 180
        assert outcome.tunnel.price == 180
        assert outcome.tunnel.path == (B, C, F)

    def test_price_ceiling_can_kill_the_deal(self, paper_graph):
        table = compute_routes(paper_graph, F)
        responder_policy = parse_config(self.RESPONDER).responder
        outcome = negotiate(
            table, A, B, ExportPolicy.EXPORT,
            constraint=RouteConstraint(avoid=(E,)),
            max_price=150,  # below the 180 asking price
            responder_config=responder_policy.as_responder_config(),
        )
        assert not outcome.established


class TestASLevelToRouterLevel:
    """§4.1/§4.2: the AS-level outcome drives router-level tunnel state."""

    def test_tunnel_bound_to_egress_and_packets_flow(self, paper_graph):
        # AS-level: A avoids E through B; the alternate exits B via C.
        table = compute_routes(paper_graph, F)
        attempt = miro_attempt(table, A, E, ExportPolicy.EXPORT)
        assert attempt.success and attempt.responder == B

        # Router-level AS B: edge routers toward E and C.
        network = ASNetwork(asn=B)
        network.add_router("B1", router_id=1, is_edge=True)  # link to A
        network.add_router("B2", router_id=2, is_edge=True)  # links to C, E
        network.add_intra_link("B1", "B2", cost=1)
        network.add_exit_link("B2", C, "B-C")
        network.add_exit_link("B2", E, "B-E")
        prefix = "10.6.0.0/16"
        network.learn_ebgp("B2", RouterRoute(
            prefix=prefix, as_path=(E, F), local_pref=400, router_id=50))
        network.learn_ebgp("B2", RouterRoute(
            prefix=prefix, as_path=(C, F), local_pref=200, router_id=51))
        network.run_ibgp(prefix)
        assert network.best("B1").as_path == (E, F)  # default follows BEF

        # RCP offers the hidden CF path and installs the tunnel.
        scheme = ReservedAddressScheme(network, parse_ipv4("10.2.255.100"))
        rcp = RoutingControlPlatform(network, scheme)
        offers = rcp.handle_request(upstream_as=A, prefix=prefix, avoid=(E,))
        assert ((C, F), "B2") in offers
        tunnel = rcp.create_tunnel(A, prefix, (C, F), "B2")

        # Data plane: packet from AS A enters at B1 and leaves via B-C.
        packet = Packet.make(
            parse_ipv4("10.1.0.1"), parse_ipv4("10.6.0.1"),
        ).encapsulate(
            parse_ipv4("10.1.0.254"), scheme.reserved_address,
            tunnel_id=tunnel.tunnel_id,
        )
        delivery = scheme.deliver(packet, "B1")
        assert delivery.exit_link.link_name == "B-C"
        assert not delivery.packet.encapsulated


class TestFullPipeline:
    """Topology → routing → inference → evaluation, like the paper's §5.1."""

    def test_generate_route_infer_evaluate(self):
        graph = generate_topology(SMALL, seed=99)

        # route everywhere, collect paths
        corpus = []
        for dest in graph.ases[:40]:
            table = compute_routes(graph, dest)
            corpus.extend(
                table.best(a).path
                for a in table.routed_ases()
                if table.best(a).length >= 1
            )

        # infer relationships from the corpus, check plausibility
        inferred = infer_gao(corpus)
        assert inference_accuracy(graph, inferred) > 0.6

        # run the avoid-AS evaluation on the *inferred* topology, as the
        # paper does on RouteViews-inferred graphs
        from repro.experiments import run_success_rates

        if inferred.is_hierarchical() and inferred.is_connected():
            rates = run_success_rates(
                inferred, "inferred", n_destinations=4,
                sources_per_destination=5, seed=1,
            )
            assert rates.single_path <= rates.multi_flexible
