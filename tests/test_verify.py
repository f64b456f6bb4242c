"""Tests for the route-equivalence verification harness (repro.verify).

Covers the invariant checkers (clean tables pass, corrupted tables are
flagged with the right invariant name), the differential oracle (all
computation paths agree; planted differences are localized), the
fault-injection campaign driver (deterministic replay, clean runs on
generated topologies), and the headline satellite: a seeded campaign
with a planted incremental-path bug whose divergence the oracle
minimizes down to the exact event and destination.
"""

import json

import pytest

from repro.bgp import compute_routes
from repro.bgp.route import Route, RouteClass
from repro.bgp.kernels.scalar import compute_routes_snapshot
from repro.bgp.routing import (
    RoutingTable,
    affected_ases,
    compute_routes_reference,
)
from repro.obs import get_registry
from repro.session import SimulationSession
from repro.session.pool import shared_memory_available
from repro.topology import ASGraph, TopologyDelta, generate_named
from repro.verify import (
    CampaignEvent,
    DifferentialOracle,
    audit_session,
    check_fixed_point,
    check_forwarding_tree,
    check_table,
    check_tunnel_consistency,
    check_valley_free,
    execute_event,
    first_divergence,
    minimize_events,
    replay_divergence,
    run_campaign,
    run_campaigns,
    run_tunnel_campaign,
    table_paths,
)
import repro.verify.campaign as campaign_module
import repro.verify.oracle as oracle_module

from conftest import A, B, C, D, E, F


def _corrupt(table, best):
    """A RoutingTable like ``table`` but with ``best`` as its mapping."""
    return RoutingTable(table.graph, table.destination, best)


class TestInvariants:
    def test_clean_tables_pass(self, paper_graph):
        for destination in paper_graph.ases:
            table = compute_routes(paper_graph, destination)
            assert check_table(table) == []

    def test_clean_tables_pass_after_failure(self, paper_graph):
        paper_graph.remove_link(B, E)
        assert check_table(compute_routes(paper_graph, F)) == []

    def test_valley_free_flags_wrong_holder(self, paper_graph):
        table = compute_routes(paper_graph, F)
        best = dict(table.items())
        best[A] = best[B]  # A "selects" a route held by B
        violations = check_valley_free(_corrupt(table, best))
        assert violations
        assert violations[0].invariant == "valley-free"
        assert violations[0].asn == A

    def test_valley_free_flags_removed_link(self, paper_graph):
        table = compute_routes(paper_graph, F)
        paper_graph.remove_link(B, E)  # B's selected path now uses a ghost
        violations = check_valley_free(table)
        assert any(v.asn == B for v in violations)

    def test_valley_free_flags_a_valley(self, paper_graph):
        """B -> A descends, A -> D climbs: every link exists, the path is
        a valley, and only that clause can name it."""
        table = compute_routes(paper_graph, F)
        best = dict(table.items())
        best[B] = Route((B, A, D, E, F), RouteClass.CUSTOMER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_valley_free(_corrupt(table, best))
        ] == [("valley-free", B,
               f"path {(B, A, D, E, F)} has a valley (illegal export chain)")]

    def test_forwarding_tree_flags_a_forbidden_export(self, paper_graph):
        """D's next hop A holds the tail A-B-E-F, a provider route, which
        A may not advertise to its provider D."""
        table = compute_routes(paper_graph, F)
        assert table.best(A).path == (A, B, E, F)
        best = dict(table.items())
        best[D] = Route((D, A, B, E, F), RouteClass.CUSTOMER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_forwarding_tree(_corrupt(table, best))
        ] == [("forwarding-tree", D,
               f"export rules forbid {A} advertising its 1 route to {D}")]

    def test_checkers_report_rather_than_crash_on_stale_table(self):
        """A table audited against a mutated graph must yield violations,
        not a TopologyError from relationship lookups on dead links."""
        graph = generate_named("tiny", seed=3)
        table = compute_routes(graph, graph.ases[1])
        link = next((a, b) for a, b, _ in graph.iter_links())
        graph.remove_link(*link)
        violations = check_table(table)
        assert violations
        assert any("absent from the topology" in v.detail for v in violations)

    def test_forwarding_tree_flags_missing_next_hop(self, paper_graph):
        table = compute_routes(paper_graph, F)
        best = dict(table.items())
        del best[E]  # every route via E now dangles
        violations = check_forwarding_tree(_corrupt(table, best))
        assert violations
        assert all(v.invariant == "forwarding-tree" for v in violations)
        assert any("next hop" in v.detail for v in violations)

    def test_forwarding_tree_flags_a_degenerate_path(self, paper_graph):
        """A stub claims a one-AS path to F: no route at all, only the
        degenerate-path clause can name it (nobody routes through A)."""
        table = compute_routes(paper_graph, F)
        best = dict(table.items())
        best[A] = Route((A,), RouteClass.CUSTOMER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_forwarding_tree(_corrupt(table, best))
        ] == [("forwarding-tree", A,
               f"non-destination AS holds degenerate path {(A,)}")]

    def test_forwarding_tree_flags_a_next_hop_off_the_tail(self, paper_graph):
        """A claims A-B-C-F, but its next hop B selected B-E-F."""
        table = compute_routes(paper_graph, F)
        assert table.best(B).path == (B, E, F)
        best = dict(table.items())
        best[A] = Route((A, B, C, F), RouteClass.PROVIDER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_forwarding_tree(_corrupt(table, best))
        ] == [("forwarding-tree", A,
               f"next hop {B} selected {(B, E, F)}, "
               f"not the tail of {(A, B, C, F)}")]

    def test_forwarding_tree_flags_a_first_hop_that_is_no_link(
        self, paper_graph
    ):
        """A claims A-E-F: E holds exactly the tail E-F, but A and E share
        no link."""
        table = compute_routes(paper_graph, F)
        best = dict(table.items())
        best[A] = Route((A, E, F), RouteClass.PROVIDER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_forwarding_tree(_corrupt(table, best))
        ] == [("forwarding-tree", A,
               f"first hop {A}-{E} of path {(A, E, F)} "
               f"is not a link in the graph")]

    def test_fixed_point_flags_a_route_nobody_exports(self, paper_graph):
        """A loses both its links, so nothing reaches it, and has no
        neighbour to offer its planted route to: only the "nobody
        exports" clause applies."""
        paper_graph.remove_link(A, B)
        paper_graph.remove_link(A, D)
        table = compute_routes(paper_graph, F)
        assert table.best(A) is None
        best = dict(table.items())
        best[A] = Route((A, B, E, F), RouteClass.PROVIDER)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_fixed_point(_corrupt(table, best))
        ] == [("fixed-point", A,
               f"selected {(A, B, E, F)} but no neighbour exports "
               f"anything to this AS")]

    def test_fixed_point_flags_suboptimal_selection(self, paper_graph):
        table = compute_routes(paper_graph, F)
        selected = table.best(B)
        worse = [
            r for r in table.candidates(B)
            if r.preference_key() != selected.preference_key()
        ]
        assert worse, "paper graph should offer B a non-best candidate"
        best = dict(table.items())
        best[B] = worse[0]
        violations = check_fixed_point(_corrupt(table, best))
        assert any(
            v.invariant == "fixed-point" and v.asn == B for v in violations
        )

    def test_fixed_point_flags_phantom_route(self, paper_graph):
        # F unreachable for everyone except a phantom entry at B
        paper_graph.remove_link(B, E)
        paper_graph.remove_link(C, F)
        paper_graph.remove_link(D, E)
        paper_graph.remove_link(E, F)
        table = compute_routes(paper_graph, F)
        assert table.best(B) is None
        # fabricate: B claims the old (B, E, F) route nobody exports
        best = dict(table.items())
        best[B] = Route((B, E, F), RouteClass.CUSTOMER)
        violations = check_table(_corrupt(table, best))
        assert violations  # flagged by valley-free and/or fixed-point


class TestTunnelConsistency:
    def test_clean_runtime_passes_under_failures(self, small_graph):
        established, violations = run_tunnel_campaign(
            small_graph, seed=7, n_destinations=2, n_pairs=4, n_failures=3
        )
        assert established > 0
        assert violations == []

    def test_half_removed_tunnel_is_flagged(self, small_graph):
        from repro.miro.policies import ExportPolicy
        from repro.miro.runtime import MiroRuntime

        runtime = MiroRuntime(small_graph)
        destination = small_graph.ases[0]
        record = None
        reference = compute_routes_reference(small_graph, destination)
        for asn in small_graph.ases:
            path = reference.default_path(asn)
            if path is None or len(path) < 3:
                continue
            record = runtime.establish(
                asn, path[1], destination, ExportPolicy.FLEXIBLE
            )
            if record is not None:
                break
        assert record is not None
        # corrupt: drop the responder's half behind the runtime's back
        runtime.tunnels[record.responder].remove(record.tunnel.tunnel_id)
        violations = check_tunnel_consistency(runtime)
        assert any(
            v.invariant == "tunnel-consistency"
            and v.asn == record.responder for v in violations
        )

    @pytest.fixture
    def kept_tunnel(self, paper_graph, monkeypatch):
        """The Fig. 3.1 tunnel (A asks B for an alternate route: BCF) on
        a runtime whose own §4.3 rule keeps every tunnel, whatever the
        graph does: a tunnel wrongly kept, for the outside check to find."""
        from repro.miro.policies import ExportPolicy
        from repro.miro.runtime import MiroRuntime

        monkeypatch.setattr(MiroRuntime, "_tunnel_still_valid",
                            lambda self, record, table: True)
        runtime = MiroRuntime(paper_graph)
        record = runtime.establish(A, B, F, ExportPolicy.FLEXIBLE)
        assert record.tunnel.path == (B, C, F)
        assert check_tunnel_consistency(runtime) == []
        return runtime, record

    def test_tunnel_over_a_failed_link_is_flagged(self, kept_tunnel):
        runtime, record = kept_tunnel
        runtime.graph.remove_link(*record.tunnel.path[1:])    # C-F
        details = [v.detail for v in check_tunnel_consistency(runtime)
                   if v.asn == record.responder]
        assert f"tunnel path {record.tunnel.path} uses a failed link" in details

    def test_tunnel_path_the_responder_no_longer_learns_is_flagged(
        self, kept_tunnel
    ):
        """Every link of BCF stays up, but F turns from C's customer into
        its provider: C's route to F is then a provider route, which C
        exports to no peer, so B no longer learns BCF."""
        runtime, record = kept_tunnel
        graph = runtime.graph
        _, c, f = record.tunnel.path
        graph.remove_link(c, f)
        graph.add_customer_link(f, c)
        assert [v.detail for v in check_tunnel_consistency(runtime)] == [
            f"responder no longer learns tunnel path {record.tunnel.path}"]

    def test_via_segment_off_the_requester_route_is_flagged(
        self, kept_tunnel
    ):
        """A-B fails: A now routes A-D-E-F, and the via segment A-B is
        neither a prefix of it nor a live direct link.  B-C-F stands."""
        runtime, record = kept_tunnel
        runtime.graph.remove_link(A, B)
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_tunnel_consistency(runtime)
        ] == [("tunnel-consistency", A,
               f"via segment {(A, B)} no longer matches the requester's "
               f"route {(A, D, E, F)}")]

    def test_tunnel_that_outlived_its_requester_is_flagged(
        self, kept_tunnel
    ):
        """AS 7 joins as a second customer of B and D, gets the same
        tunnel A got, and leaves the graph again (the join reverted)."""
        from repro.miro.policies import ExportPolicy
        from repro.topology.relationships import Relationship

        runtime, _ = kept_tunnel
        joined = TopologyDelta.as_up(
            7, [(B, Relationship.PROVIDER), (D, Relationship.PROVIDER)]
        ).apply(runtime.graph)
        record = runtime.establish(7, B, F, ExportPolicy.FLEXIBLE)
        assert record.tunnel.path == (B, C, F)
        joined.revert()
        assert 7 not in runtime.graph
        assert [
            (v.invariant, v.asn, v.detail)
            for v in check_tunnel_consistency(runtime)
        ] == [("tunnel-consistency", 7,
               f"tunnel {record.tunnel.tunnel_id} outlived AS 7")]

    def test_requester_side_ids_never_collide(self, small_graph):
        """Regression for the bug the tunnel campaign found: a requester
        granted tunnels by several responders (each allocating from its
        own id space) must not see install() collide."""
        established, violations = run_tunnel_campaign(
            small_graph, seed=5, n_destinations=3, n_pairs=8, n_failures=0
        )
        assert established > 0
        assert violations == []


class TestOracle:
    def test_table_paths_canonical(self, paper_graph):
        table = compute_routes(paper_graph, F)
        paths = table_paths(table)
        assert paths[B] == (B, E, F)
        assert paths[F] == (F,)

    def test_identical_tables_have_no_divergence(self, paper_graph):
        reference = compute_routes(paper_graph, F)
        again = compute_routes(paper_graph, F)
        assert first_divergence(reference, again, "test") is None

    def test_divergence_reports_smallest_asn(self, paper_graph):
        reference = compute_routes(paper_graph, F)
        best = dict(reference.items())
        dropped = sorted(asn for asn in best if asn != F)[:2]
        for asn in dropped:
            del best[asn]
        found = first_divergence(reference, _corrupt(reference, best), "test")
        assert found is not None
        assert found.asn == dropped[0]
        assert found.actual is None
        assert found.expected is not None
        assert found.mode == "test"

    def test_same_routes_in_another_order_diverge(self, paper_graph):
        """Insertion order is what a whole-table answer serializes, so
        an equal mapping listed differently is a divergence: reported at
        the first position that holds another AS's route."""
        reference = compute_routes_reference(paper_graph, F)
        best = dict(reference.items())
        moved = list(best)[2]
        best[moved] = best.pop(moved)       # same mapping, listed last
        assert best == dict(reference.items())
        found = first_divergence(reference, _corrupt(reference, best), "test")
        assert found is not None and found.asn == moved
        assert found.expected[0] == moved and found.actual[0] != moved

    def test_candidate_is_read_every_way(self, paper_graph):
        """The parent-pointer walk, the per-AS routes and the expansion
        are separate reads of a tree-backed table; a fault in any one
        diverges, and a clean table keeps no route it built."""
        reference = compute_routes_reference(paper_graph, F)
        snapshot = paper_graph.snapshot()
        a, b, d = (snapshot.index_of(asn) for asn in (A, B, D))

        fresh = RoutingTable(paper_graph, F, compute_routes_snapshot(snapshot, F))
        assert first_divergence(reference, fresh, "test") is None
        assert fresh._routes is None

        tree = compute_routes_snapshot(snapshot, F)
        assert tree.parent[a] == b
        tree.parent[a] = d                  # the walk now says A-D-E-F
        found = first_divergence(
            reference, RoutingTable(paper_graph, F, tree), "test")
        assert found is not None and found.asn == A
        assert found.expected == (A, B, E, F) and found.actual == (A, D, E, F)

        tree = compute_routes_snapshot(snapshot, F)
        table = RoutingTable(paper_graph, F, tree)
        assert table.best(A).route_class is RouteClass.PROVIDER
        slices = bytearray(tree._slices)
        slices[a] = 1                       # best(A) now reads CUSTOMER
        object.__setattr__(tree, "_slices", bytes(slices))
        assert table_paths(table) == table_paths(reference)
        found = first_divergence(reference, table, "test")
        assert (found.asn, found.expected, found.actual) == (
            A, (A, B, E, F), (A, B, E, F))

    def test_all_paths_agree_across_mutations(self, small_graph):
        destinations = small_graph.ases[:4]
        oracle = DifferentialOracle(small_graph, destinations)
        assert oracle.check().ok
        applied = TopologyDelta.link_down(
            *next(
                (a, b) for a, b, _ in small_graph.iter_links()
            )
        ).apply(small_graph)
        assert oracle.check().ok  # incremental ancestors now exercised
        applied.revert()
        assert oracle.check(include_pool=False).ok

    def test_ancestors_are_tree_backed_so_rederivation_runs(self, small_graph):
        """A dict-backed ancestor would make every ``incremental@v…``
        check a full settle in disguise: the oracle remembers the
        session's tables, and the restarted wave loop is what it runs."""
        rederived = get_registry().counter(
            "repro_routing_tables_total", "", labels=("mode",)
        ).labels(mode="incremental")
        destinations = small_graph.ases[:4]
        oracle = DifferentialOracle(small_graph, destinations)
        assert oracle.check().ok
        for history in oracle._history.values():
            assert all(table._tree is not None for _, table in history)
        a, b = next(
            (a, b) for a, b, _ in small_graph.iter_links()
            if not {a, b} & set(destinations)
        )
        TopologyDelta.link_down(a, b).apply(small_graph)
        before = rederived.value
        assert oracle.check().ok
        # per destination: the session's own derivation, and the
        # oracle's from the one remembered ancestor
        assert rederived.value == before + 2 * len(destinations)

    def test_check_returns_reference_tables(self, paper_graph):
        oracle = DifferentialOracle(paper_graph, [F, E])
        result = oracle.check()
        assert set(result.references) == {F, E}
        assert result.references[F].best(B).path == (B, E, F)

    def test_pinned_mode_runs_once_per_check(self, paper_graph):
        checks = oracle_module._ORACLE_CHECKS.labels(mode="pinned")
        before = checks.value
        assert DifferentialOracle(paper_graph, [F, E]).check().ok
        assert checks.value == before + 1

    def test_pinned_walk_fault_is_caught_as_pinned(
        self, paper_graph, monkeypatch
    ):
        """The pinned heap walk is no kernel, so no ``kernel:`` mode sees
        it: a walk that loses one route must surface as mode ``pinned``
        (A, the lowest ASN with an alternate, pinned to A-D-E-F)."""
        from repro.bgp.kernels import scalar

        settle_pinned = scalar.settle_pinned
        pins = []

        def drop_one(graph, destination, pinned):
            pins.append(pinned)
            best = settle_pinned(graph, destination, pinned)
            del best[next(
                a for a in best if a not in pinned and a != destination
            )]
            return best

        monkeypatch.setattr(scalar, "settle_pinned", drop_one)
        result = DifferentialOracle(paper_graph, [F, E]).check()
        assert [(d.mode, d.destination) for d in result.divergences] == [
            ("pinned", F)
        ]
        assert [
            {asn: route.path for asn, route in pinned.items()}
            for pinned in pins
        ] == [{A: (A, D, E, F)}]


    def test_a_version_naming_another_graph_is_caught(
        self, small_graph, monkeypatch
    ):
        """A revert that skips one saved row brings the version back but
        not the graph.  Here the row is an AS the apply created, left
        behind isolated: every table still agrees, and only the digest
        check names the version."""
        oracle = DifferentialOracle(small_graph, small_graph.ases[:2])
        version = small_graph.version
        assert oracle.check().ok
        new = max(small_graph.ases) + 1
        applied = TopologyDelta.as_up(new, []).apply(small_graph)
        assert oracle.check().ok
        restore = ASGraph._restore

        def skip_one(graph, saved, version):
            restore(graph, dict(list(saved.items())[:-1]), version)

        monkeypatch.setattr(ASGraph, "_restore", skip_one)
        applied.revert()
        assert small_graph.version == version and new in small_graph
        result = oracle.check()
        assert [d.mode for d in result.divergences] == [f"digest@v{version}"]

class TestCampaignEvents:
    def test_json_roundtrip(self):
        events = [
            CampaignEvent("link-down", links=((1, 2),)),
            CampaignEvent("compound", links=((1, 2), (3, 4))),
            CampaignEvent("as-down", asn=9),
            CampaignEvent("revert"),
            CampaignEvent("reapply"),
        ]
        for event in events:
            assert CampaignEvent.from_dict(event.to_dict()) == event

    def test_impossible_events_are_noops(self, paper_graph):
        version = paper_graph.version
        stack, last = [], None
        last = execute_event(
            paper_graph, stack, last, CampaignEvent("revert")
        )
        last = execute_event(
            paper_graph, stack, last, CampaignEvent("reapply")
        )
        last = execute_event(
            paper_graph, stack, last,
            CampaignEvent("link-down", links=((A, F),)),  # no such link
        )
        assert paper_graph.version == version
        assert stack == [] and last is None

    def test_event_stream_replays_deterministically(self):
        make = lambda: generate_named("tiny", seed=11)
        outcome = run_campaign(
            make, seed=3, n_events=10, n_destinations=3, include_pool=False
        )
        assert outcome.ok

        def replay():
            graph = make()
            stack, last = [], None
            for event in outcome.events:
                last = execute_event(graph, stack, last, event)
            return graph

        first, second = replay(), replay()
        assert first.version == second.version
        assert (
            sorted(first.iter_links()) == sorted(second.iter_links())
        )


class TestCampaigns:
    def test_clean_campaign_on_generated_topology(self):
        make = lambda: generate_named("tiny", seed=5)
        rederived = get_registry().counter(
            "repro_routing_tables_total", "", labels=("mode",)
        ).labels(mode="incremental")
        before = rederived.value
        outcome = run_campaign(
            make, seed=0, n_events=6, n_destinations=3, include_pool=False
        )
        assert outcome.ok
        assert rederived.value > before  # or the PASS re-derived nothing
        assert outcome.steps == 6
        assert outcome.checks == 7  # baseline + one per event
        assert outcome.reproduction is None

    def test_run_campaigns_aggregates(self):
        make = lambda: generate_named("tiny", seed=5)
        report = run_campaigns(
            make, seed=0, campaigns=2, n_events=4, n_destinations=2,
            include_pool=False, tunnel_campaigns=1, topology="tiny",
        )
        assert report.ok
        assert report.steps == 8
        assert report.tunnels_checked > 0
        assert "PASS" in report.render()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["campaigns"] == 2


class TestPlantedIncrementalBug:
    """Satellite: the oracle must localize a planted incremental-path bug
    to the exact event and destination, with a minimized reproduction."""

    @pytest.fixture
    def planted(self, monkeypatch):
        """Make the oracle's incremental path silently drop one routed AS
        from every recomputed table (the classic affected-set-too-small
        failure mode)."""
        real = oracle_module.recompute_routes

        def buggy(graph, table, changed, affected=None):
            result = real(graph, table, changed, affected=affected)
            best = dict(result.items())
            victims = [
                asn for asn in sorted(best) if asn != result.destination
            ]
            if victims:
                del best[victims[-1]]
                return RoutingTable(graph, result.destination, best)
            return result

        monkeypatch.setattr(oracle_module, "recompute_routes", buggy)
        return buggy

    def test_campaign_reports_resettled_ases_listed_last(self, monkeypatch):
        """The order the deleted dict-walk engine produced — kept routes
        first, re-settled ones appended — is the same mapping as the
        reference's; the oracle holds order too, so it is a divergence
        of the incremental path."""
        real = oracle_module.recompute_routes

        def reordering(graph, table, changed, affected=None):
            result = real(graph, table, changed, affected=affected)
            best = dict(result.items())
            for asn in affected_ases(graph, table, changed) or ():
                if asn in best:
                    best[asn] = best.pop(asn)
            return RoutingTable(graph, result.destination, best)

        monkeypatch.setattr(oracle_module, "recompute_routes", reordering)
        outcome = run_campaign(
            lambda: generate_named("tiny", seed=5),
            seed=0, n_events=6, n_destinations=3, include_pool=False,
        )
        assert not outcome.ok
        first = outcome.divergences[0]
        assert first.mode.startswith("incremental@v")
        assert first.expected[0] == first.asn != first.actual[0]

    def test_campaign_localizes_planted_bug(self, planted):
        make = lambda: generate_named("tiny", seed=5)
        outcome = run_campaign(
            make, seed=0, n_events=6, n_destinations=3, include_pool=False
        )
        assert not outcome.ok
        assert outcome.divergences
        first = outcome.divergences[0]
        assert first.mode.startswith("incremental@v")
        assert first.actual is None  # the dropped AS
        assert first.expected is not None

        repro = outcome.reproduction
        assert repro is not None
        assert repro.destination == first.destination
        # minimized to the single event that makes the incremental path
        # run at all (the campaign stops at the first divergence, so the
        # stream was already short; minimization must not lose the bug)
        assert 1 <= len(repro.events) <= len(outcome.events)
        assert len(repro.events) == 1
        assert repro.divergence.mode.startswith("incremental@v")
        assert repro.divergence.destination == repro.destination

    def test_minimize_keeps_only_the_event_the_divergence_needs(
        self, monkeypatch
    ):
        """Five events, of which the divergence needs the third alone:
        the stream shrinks to exactly that event."""
        events = [CampaignEvent("link-down", ((1, n),)) for n in range(2, 7)]
        needed = events[2]

        def replay(make_graph, trial, destination):
            return "diverged" if needed in trial else None

        monkeypatch.setattr(campaign_module, "replay_divergence", replay)
        assert minimize_events(lambda: None, events, 6) == [needed]

    def test_minimized_stream_reproduces_and_empty_does_not(self, planted):
        make = lambda: generate_named("tiny", seed=5)
        outcome = run_campaign(
            make, seed=0, n_events=6, n_destinations=3, include_pool=False
        )
        repro = outcome.reproduction
        assert repro is not None
        assert replay_divergence(make, repro.events, repro.destination)
        assert replay_divergence(make, [], repro.destination) is None

    def test_report_renders_reproduction(self, planted):
        make = lambda: generate_named("tiny", seed=5)
        report = run_campaigns(
            make, seed=0, campaigns=3, n_events=6, n_destinations=3,
            include_pool=False, tunnel_campaigns=0, topology="tiny",
        )
        assert not report.ok
        # the run stops at the diverging campaign
        assert len(report.outcomes) <= 3
        text = report.render()
        assert "minimized reproduction" in text
        assert "FAIL" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["divergence_count"] >= 1


class TestAudit:
    def test_clean_session_audit_passes(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute_many(paper_graph.ases)
        result = audit_session(session)
        assert result.ok
        assert result.tables_checked > 0
        assert "PASS" in result.render()

    def test_audit_catches_adopted_corruption(self, paper_graph):
        session = SimulationSession(paper_graph)
        snapshot = paper_graph.snapshot()
        tree = compute_routes_snapshot(snapshot, F)
        tree.parent[snapshot.index_of(A)] = snapshot.index_of(D)  # A-D-E-F
        session.adopt(RoutingTable(paper_graph, F, tree))
        result = audit_session(session, destinations=[F])
        assert not result.ok
        assert result.divergences
        assert result.divergences[0].asn == A
        assert "FAIL" in result.render()

    def test_audit_survives_mutations(self, paper_graph):
        session = SimulationSession(paper_graph)
        session.compute_many(paper_graph.ases)
        paper_graph.remove_link(B, E)
        session.compute(F)  # derived from the pre-failure table
        assert audit_session(session).ok


class TestVerifyCli:
    def test_verify_command_passes_and_writes_report(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "verify-report.json"
        code = main([
            "verify", "--profile", "tiny", "--seed", "0",
            "--campaigns", "1", "--events", "3", "--destinations", "2",
            "--tunnel-campaigns", "1", "--no-pool", "--quiet",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["campaigns"] == 1
        assert payload["topology"] == "tiny"

    def test_experiment_all_verify_flag(self, capsys):
        from repro.cli import main

        code = main([
            "experiment", "all", "--profile", "tiny", "--seed", "0",
            "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "route-table audit:" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("which", ["all", "table5.2"])
    def test_experiment_verify_fails_on_a_planted_violation(
        self, which, monkeypatch, capsys
    ):
        """A failed audit is exit code 1, after one section or all."""
        from repro.cli import main
        from repro.verify import audit as audit_module
        from repro.verify.invariants import Violation

        planted = Violation("planted", None, None, "test violation")
        monkeypatch.setattr(audit_module, "check_table",
                            lambda table: [planted])
        code = main([
            "experiment", which, "--profile", "tiny", "--seed", "1",
            "--verify",
        ])
        out = capsys.readouterr().out
        assert "result: FAIL" in out
        assert code == 1


class TestShardedPoolOracle:
    """The sharded shared-memory fan-out is an enumerated oracle path:
    mode ``session-pool-sharded`` runs the pool on two workers, which
    split the destinations into several destination-range shards, so
    shard boundaries themselves are under the byte-equality contract,
    under a real seeded fault campaign."""

    def test_campaign_exercises_sharded_pool_mode(self):
        from repro.obs import reset

        reset()
        make = lambda: generate_named("small", seed=7)
        outcome = run_campaign(
            make, seed=1, n_events=4, n_destinations=6, include_pool=True
        )
        assert outcome.ok
        checks = oracle_module._ORACLE_CHECKS
        sharded = checks.labels(mode="session-pool-sharded").value
        # one pool comparison per destination, on the final state
        assert sharded == 6
        divergences = oracle_module._ORACLE_DIVERGENCES
        assert divergences.labels(mode="session-pool-sharded").value == 0

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    )
    def test_pooled_check_settles_in_several_shards(self, small_graph):
        """No shard override: four shards per worker, never more than
        the misses, so six destinations on two workers go out as more
        than one job."""
        from repro.session.pool import _POOL_SHARD_SIZE

        assert oracle_module.POOL_WORKERS == 2
        oracle = DifferentialOracle(small_graph, small_graph.ases[:6])
        jobs = _POOL_SHARD_SIZE.count
        assert oracle.check(include_pool=True).ok
        assert _POOL_SHARD_SIZE.count - jobs >= 2

    def test_sharded_pool_divergence_is_attributed(
        self, small_graph, monkeypatch
    ):
        destinations = small_graph.ases[:4]
        poisoned = destinations[-1]

        class PoisonedSession(SimulationSession):
            """Corrupts the pool path only: a parallel session's
            compute_many drops the last entry of one destination's table."""

            def compute_many(self, dests):
                tables = super().compute_many(dests)
                if self._pool.parallel is True and poisoned in tables:
                    table = tables[poisoned]
                    best = dict(list(table.items())[:-1])
                    tables[poisoned] = RoutingTable(
                        table.graph, table.destination, best
                    )
                return tables

        monkeypatch.setattr(
            oracle_module, "SimulationSession", PoisonedSession
        )
        oracle = DifferentialOracle(small_graph, destinations)
        result = oracle.check(include_pool=True)
        assert not result.ok
        modes = {d.mode for d in result.divergences}
        assert modes == {"session-pool-sharded"}
        assert {d.destination for d in result.divergences} == {poisoned}


class TestServiceOracle:
    """The asyncio daemon's batched admission is an enumerated
    oracle path: mode ``service-batched`` serves every destination
    through :class:`~repro.service.MiroService` with ``max_batch``
    forced below the destination count, so coalescing and batch splits
    are under the byte-equality contract."""

    def test_check_exercises_service_mode(self, small_graph):
        destinations = small_graph.ases[:6]
        oracle = DifferentialOracle(small_graph, destinations)
        before = oracle_module._ORACLE_CHECKS.labels(
            mode="service-batched"
        ).value
        result = oracle.check(include_service=True)
        assert result.ok
        checks = oracle_module._ORACLE_CHECKS.labels(
            mode="service-batched"
        ).value
        # one service comparison per destination
        assert checks - before == len(destinations)
        assert oracle_module._ORACLE_DIVERGENCES.labels(
            mode="service-batched"
        ).value == 0

    def test_service_mode_survives_mutation(self, small_graph):
        destinations = small_graph.ases[:4]
        oracle = DifferentialOracle(small_graph, destinations)
        applied = TopologyDelta.link_down(
            *next((a, b) for a, b, _ in small_graph.iter_links())
        ).apply(small_graph)
        assert oracle.check(include_service=True).ok
        applied.revert()
        assert oracle.check(include_service=True).ok

    def test_service_divergence_is_attributed(
        self, small_graph, monkeypatch
    ):
        destinations = small_graph.ases[:4]
        poisoned = destinations[-1]
        oracle = DifferentialOracle(small_graph, destinations)
        real = DifferentialOracle._service_tables

        def poisoned_tables(self):
            tables = real(self)
            table = tables[poisoned]
            best = dict(list(table.items())[:-1])
            tables[poisoned] = RoutingTable(
                table.graph, table.destination, best
            )
            return tables

        monkeypatch.setattr(
            DifferentialOracle, "_service_tables", poisoned_tables
        )
        result = oracle.check(include_service=True)
        assert not result.ok
        modes = {d.mode for d in result.divergences}
        assert modes == {"service-batched"}
        assert {d.destination for d in result.divergences} == {poisoned}

    def test_campaign_exercises_service_mode(self):
        from repro.obs import reset

        reset()
        make = lambda: generate_named("small", seed=7)
        outcome = run_campaign(
            make, seed=2, n_events=3, n_destinations=5,
            include_service=True,
        )
        assert outcome.ok
        checks = oracle_module._ORACLE_CHECKS
        batched = checks.labels(mode="service-batched").value
        # one service comparison per destination, on the final state
        assert batched == 5
        divergences = oracle_module._ORACLE_DIVERGENCES
        assert divergences.labels(mode="service-batched").value == 0
