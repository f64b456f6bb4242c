"""Package exports bind on first use, and nothing else changed.

Every ``repro`` package resolves its public names lazily (PEP 562, see
:mod:`repro._lazy`).  Two guards: the served program's imports leave the
evaluation, oracle and Ch. 4–7 layers unloaded; and every name a
package exported when it imported all its submodules eagerly still
resolves — by attribute, by ``from pkg import *`` and in ``dir`` — to
the very object its defining module holds.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

#: package -> {defining submodule: names} for every name each package
#: exported when its ``__init__`` imported its submodules eagerly, less
#: the dead functions removed since.
#: ``""`` lists submodules exported as themselves; ``"."`` names the
#: package defines itself.
EXPORTS = {
    "repro": {
        "": (
            "topology", "bgp", "miro", "sourcerouting", "intra", "dataplane",
            "policylang", "convergence", "experiments",
        ),
        "session": ("SimulationSession", "RouteTableCache", "ensure_session"),
        "errors": (
            "ReproError", "TopologyError", "UnknownASError", "RoutingError",
            "SessionError", "NegotiationError", "TunnelError", "PolicyError",
            "PolicySyntaxError", "ConvergenceError", "DataPlaneError",
        ),
        ".": ("__version__",),
    },
    "repro.bgp": {
        "": ("kernels",),
        "route": ("Route", "RouteClass"),
        "policy": (
            "classify_path", "make_route", "may_export", "exportable_route",
            "select_best",
        ),
        "routing": (
            "RoutingTable", "compute_routes", "recompute_routes",
            "affected_ases",
        ),
        "decision": (
            "RouterRoute", "OriginType", "SessionType", "decide",
            "DECISION_STEPS",
        ),
        "engine": ("EventDrivenBGP", "BGPNode", "Update"),
    },
    "repro.topology": {
        "graph": ("ASGraph", "link_key"),
        "snapshot": ("TopologySnapshot",),
        "delta": (
            "TopologyDelta", "TimedDelta", "AppliedDelta", "DeltaOp",
            "DeltaOpKind",
        ),
        "relationships": ("LinkType", "Relationship"),
        "generator": (
            "TopologyProfile", "generate_topology", "generate_named",
            "PROFILES", "GAO_2000", "GAO_2003", "GAO_2005", "AGARWAL_2004",
            "APRIL_2009", "SMALL", "TINY", "INTERNET_10K",
        ),
        "inference": ("infer_gao", "infer_agarwal", "inference_accuracy"),
        "serialization": ("dump", "dumps", "load", "loads"),
        "stats": (
            "TopologySummary", "summarize", "degree_sequence",
            "degree_ccdf", "mean_degree", "top_degree_ases",
            "bottom_degree_ases",
        ),
    },
    "repro.miro": {
        "policies": (
            "ExportPolicy", "all_policies", "alternate_routes",
            "offered_routes",
        ),
        "negotiation": (
            "RouteConstraint", "OfferedRoute", "NegotiationOutcome",
            "ResponderConfig", "exchange", "via_path", "negotiate",
            "HANDSHAKE_MESSAGES", "handshake_delay",
        ),
        "tunnels": ("Tunnel", "TunnelTable"),
        "avoidance": (
            "NegotiationScope", "ContactOrder", "AvoidanceAttempt",
            "single_path_attempt", "miro_attempt", "negotiation_targets",
        ),
        "diversity": ("available_paths", "count_available_paths"),
        "traffic": (
            "IngressProfile", "ingress_profile", "ingress_of",
            "switchable_routes", "PowerNodeOption", "power_node_options",
            "convert_all_moved_fraction",
            "independent_selection_moved_fraction",
            "community_forced_moved_fraction", "StubControlResult",
            "best_control_for_stub",
        ),
        "runtime": ("MiroRuntime", "EstablishedTunnel"),
        "economics": (
            "PricingModel", "ClassBasedPricing", "PerHopPricing",
            "PremiumPricing", "utility_rank", "Ledger", "LedgerEntry",
            "MarketOutcome", "evaluate_pricing",
        ),
        "monitor": ("PolicyMonitor", "MonitorEvent"),
        "splicing": ("SplicedForwarding", "SpliceTrace", "recovery_rate"),
    },
    "repro.session": {
        "core": ("SessionCore", "SimulationSession", "ensure_session"),
        "pool": ("AUTO_PARALLEL_THRESHOLD", "POOL_SHARD_FACTOR"),
        "cache": ("RouteTableCache",),
    },
    "repro.service": {
        "daemon": ("MiroService", "ServiceConfig"),
        "server": ("handle_request", "serve"),
    },
    "repro.experiments": {
        "datasets": (
            "Dataset", "DATASETS", "SMALL_DATASET", "table_5_1_rows",
        ),
        "degree": (
            "DegreeDistribution", "degree_distribution", "heavy_tail_summary",
            "PathLengthStats", "path_length_stats",
        ),
        "diversity": ("DiversitySeries", "run_diversity"),
        "failures": ("FailureEvent", "FailureSweep", "run_failure_sweep"),
        "avoidance": (
            "SuccessRates", "NegotiationCost", "run_success_rates",
            "run_negotiation_state", "MultiHopGain", "run_multihop_gain",
            "valley_free_source_routing_rate",
        ),
        "deployment": (
            "DeploymentCurve", "DeploymentPoint", "DEFAULT_FRACTIONS",
            "run_incremental_deployment",
        ),
        "traffic": (
            "TrafficControlCurve", "TrafficControlResult", "PowerNodeProfile",
            "DEFAULT_THRESHOLDS", "run_traffic_control",
        ),
        "convergence": (
            "CounterexampleOutcome", "SweepOutcome", "run_counterexamples",
            "run_guideline_sweep",
        ),
        "churn": (
            "ChurnRun", "ChurnSweep", "flap_storm_schedule",
            "rolling_deployment_schedule", "negotiation_race_schedule",
            "run_churn_sweep",
        ),
        "sampling": (
            "PairSample", "TripleSample", "sample_pairs", "sample_triples",
            "fraction_at_least",
        ),
        "report": ("render_table", "render_series", "percent"),
        "overhead": (
            "OverheadComparison", "run_overhead_comparison",
            "bgp_message_count", "push_all_message_count",
        ),
        "suite": ("SECTIONS", "full_report", "export_results", "to_jsonable"),
    },
    "repro.convergence": {
        "model": (
            "GuidelineMode", "Selection", "TunnelDemand", "Ranker",
            "ExplicitRanker", "GaoRexfordRanker", "PartialOrder",
            "path_class_rank",
        ),
        "simulator": (
            "MiroConvergenceSystem", "ConvergenceResult", "proof_schedule",
            "proof_schedule_guideline_b", "proof_schedule_guideline_c",
            "proof_schedule_strict",
        ),
        "examples": (
            "fig_7_1_graph", "fig_7_1_system", "fig_7_2_graph",
            "fig_7_2_system", "bad_gadget_bgp_system",
        ),
        "eventsim": ("ChurnResult", "run_on_events", "run_churn"),
    },
    "repro.dataplane": {
        "prefix": (
            "IPv4Prefix", "PrefixTable", "parse_ipv4", "format_ipv4",
            "prefix_for_as",
        ),
        "packet": ("IPHeader", "FlowKey", "Packet"),
        "classifier": (
            "MatchRule", "ClassifierEntry", "Classifier", "HashSplitter",
            "flow_hash",
        ),
        "forwarding": (
            "ASLevelForwarder", "ForwardingTrace", "address_in_as",
        ),
    },
    "repro.intra": {
        "network": ("ASNetwork", "Router", "ExitLink"),
        "tunneling": (
            "Delivery", "DirectedForwardingTable", "ExitLinkAddressing",
            "EgressRouterAddressing", "TunnelIngressFilter",
            "ReservedAddressScheme",
        ),
        "rcp": ("RoutingControlPlatform", "ManagedTunnel"),
        "relay": ("RouterNegotiationRelay", "RelayedOffer", "RelayedTunnel"),
        "interconnect": ("Internetwork", "EBGPSession"),
    },
    "repro.policylang": {
        "routemap": (
            "compile_aspath_regex", "path_to_string", "AccessListEntry",
            "AsPathAccessList", "PolicyRoute", "MatchAsPath", "SetLocalPref",
            "RouteMapClause", "RouteMap",
        ),
        "config": (
            "parse_config", "MiroConfig", "NegotiationSpec", "TriggerRule",
            "FilterRule", "RequesterPolicy", "ResponderPolicy",
        ),
    },
    "repro.sourcerouting": {
        "reachability": (
            "reachable_avoiding", "reachable_set_avoiding",
            "valley_free_reachable_avoiding", "cut_vertices_for_pair",
        ),
    },
    "repro.verify": {
        "audit": ("AuditResult", "audit_session"),
        "campaign": (
            "CampaignEvent", "CampaignOutcome", "MinimizedReproduction",
            "VerifyReport", "execute_event", "minimize_events",
            "replay_divergence", "run_campaign", "run_campaigns",
            "run_tunnel_campaign",
        ),
        "oracle": (
            "DifferentialOracle", "Divergence", "OracleCheck", "OracleReport",
            "first_divergence", "table_paths",
        ),
        "invariants": (
            "InvariantReport", "Violation", "check_fixed_point",
            "check_forwarding_tree", "check_table", "check_tunnel_consistency",
            "check_valley_free",
        ),
    },
    "repro.events": {
        "engine": ("Event", "EventScheduler"),
        "timers": ("MraiTimer", "DelayModel", "SYNCHRONOUS"),
    },
    "repro.obs": {
        "bench": (
            "BenchRecord", "BenchReporter", "CompareReport", "detect_git_sha",
            "load_trajectory",
        ),
        "profile": (
            "PhaseStat", "collapsed_stacks", "render_rollup", "rollup",
            "write_collapsed",
        ),
        "metrics": (
            "Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
            "DEFAULT_TIME_BUCKETS", "DEFAULT_SIZE_BUCKETS",
            "DEFAULT_BYTE_BUCKETS", "DEFAULT_SIM_TIME_BUCKETS",
        ),
        "tracing": ("Tracer", "Span", "NullSpan", "NULL_SPAN"),
        "log": (
            "StructLogger", "StructuredFormatter", "configure_logging",
            "get_logger",
        ),
        ".": (
            "get_registry", "get_tracer", "reset", "worker_state",
            "configure_worker", "drain_worker", "absorb_worker",
        ),
    },
}

#: What the served program imports (``bench/server.py`` and ``repro
#: serve`` import no more than this).
SERVING = (
    "import repro.service, repro.session, repro.miro.runtime, "
    "repro.topology.generator\n"
    "from repro.service import MiroService, ServiceConfig, serve\n"
)

#: Modules the served program must never load.
NOT_SERVED = (
    "repro.bgp.engine",
    "repro.experiments",
    "repro.convergence",
    "repro.dataplane",
    "repro.intra",
    "repro.policylang",
    "repro.sourcerouting",
    "repro.verify",
    "repro.obs.bench",
    "repro.obs.profile",
    "multiprocessing",
)

#: Runs in a fresh interpreter: bind every export of every package the
#: way ``argv[1]`` says (``getattr`` or ``star``), then report each name
#: that is unbound, missing from ``dir`` or not its defining module's.
CHECK = """
import importlib, json, sys

exports, how = json.loads(sys.argv[1]), sys.argv[2]
problems = []
for package, table in exports.items():
    module = importlib.import_module(package)
    if how == "star":
        bound = {}
        exec(f"from {package} import *", bound)
    else:
        bound = {name: getattr(module, name)
                 for names in table.values() for name in names}
    listing = dir(module)
    for sub, names in table.items():
        for name in names:
            if sub == ".":
                home = module
            elif sub == "":
                home = None
            else:
                home = importlib.import_module(f"{package}.{sub}")
            expected = (importlib.import_module(f"{package}.{name}")
                        if home is None else getattr(home, name))
            if name not in bound:
                problems.append(f"{package}.{name}: not bound by {how}")
            elif bound[name] is not expected:
                problems.append(f"{package}.{name}: not {sub}'s object")
            if getattr(module, name) is not expected:
                problems.append(f"{package}.{name}: attribute differs")
            if name not in listing:
                problems.append(f"{package}.{name}: missing from dir()")
print(json.dumps(problems))
"""


def run_fresh(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestServingImports:
    def test_the_served_program_loads_only_what_it_runs(self):
        loaded = json.loads(run_fresh(
            SERVING + "import json, sys\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        assert [name for name in NOT_SERVED if name in loaded] == []
        served = [name for name in loaded
                  if name == "repro" or name.startswith("repro.")]
        assert len(served) <= 35, served


class TestExportCompleteness:
    @pytest.mark.parametrize("how", ["getattr", "star"])
    def test_every_export_resolves_to_its_defining_object(self, how):
        problems = json.loads(run_fresh(CHECK, json.dumps(EXPORTS), how))
        assert problems == []

    def test_all_lists_every_export_once(self):
        for package, table in EXPORTS.items():
            names = [name for names in table.values() for name in names]
            exported = importlib.import_module(package).__all__
            assert sorted(exported) == sorted(names), package

    @pytest.mark.parametrize("package", sorted(EXPORTS))
    def test_an_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            module.no_such_name
        assert not hasattr(module, "__no_such_dunder__")

    def test_submodules_resolve_as_attributes(self):
        import repro

        assert repro.bgp.routing is importlib.import_module("repro.bgp.routing")
        assert repro.obs.profile is importlib.import_module("repro.obs.profile")
