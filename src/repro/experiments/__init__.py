"""Experiment harness: one module per table/figure of the paper."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "datasets": ("Dataset", "DATASETS", "SMALL_DATASET", "table_5_1_rows"),
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
        "OverheadComparison", "run_overhead_comparison", "bgp_message_count",
        "push_all_message_count",
    ),
    "suite": ("SECTIONS", "full_report", "export_results", "to_jsonable"),
})
