"""Experiment harness: one module per table/figure of the paper."""

from .avoidance import (
    MultiHopGain,
    NegotiationCost,
    SuccessRates,
    run_multihop_gain,
    run_negotiation_state,
    run_success_rates,
    valley_free_source_routing_rate,
)
from .churn import (
    ChurnRun,
    ChurnSweep,
    flap_storm_schedule,
    negotiation_race_schedule,
    rolling_deployment_schedule,
    run_churn_sweep,
)
from .convergence import (
    CounterexampleOutcome,
    SweepOutcome,
    run_counterexamples,
    run_guideline_sweep,
)
from .datasets import DATASETS, Dataset, SMALL_DATASET, table_5_1_rows
from .degree import (
    DegreeDistribution,
    PathLengthStats,
    degree_distribution,
    heavy_tail_summary,
    path_length_stats,
)
from .deployment import (
    DEFAULT_FRACTIONS,
    DeploymentCurve,
    DeploymentPoint,
    run_incremental_deployment,
)
from .diversity import DiversitySeries, run_diversity
from .failures import FailureEvent, FailureSweep, run_failure_sweep
from .overhead import (
    OverheadComparison,
    bgp_message_count,
    push_all_message_count,
    run_overhead_comparison,
)
from .report import percent, render_series, render_table
from .sampling import (
    PairSample,
    TripleSample,
    ccdf_points,
    cdf_points,
    fraction_at_least,
    sample_pairs,
    sample_triples,
)
from .suite import SECTIONS, export_results, full_report, to_jsonable
from .traffic import (
    DEFAULT_THRESHOLDS,
    PowerNodeProfile,
    TrafficControlCurve,
    TrafficControlResult,
    run_traffic_control,
)

__all__ = [
    "Dataset",
    "DATASETS",
    "SMALL_DATASET",
    "table_5_1_rows",
    "DegreeDistribution",
    "degree_distribution",
    "heavy_tail_summary",
    "PathLengthStats",
    "path_length_stats",
    "DiversitySeries",
    "run_diversity",
    "FailureEvent",
    "FailureSweep",
    "run_failure_sweep",
    "SuccessRates",
    "NegotiationCost",
    "run_success_rates",
    "run_negotiation_state",
    "DeploymentCurve",
    "DeploymentPoint",
    "DEFAULT_FRACTIONS",
    "run_incremental_deployment",
    "TrafficControlCurve",
    "TrafficControlResult",
    "PowerNodeProfile",
    "DEFAULT_THRESHOLDS",
    "run_traffic_control",
    "CounterexampleOutcome",
    "SweepOutcome",
    "run_counterexamples",
    "run_guideline_sweep",
    "ChurnRun",
    "ChurnSweep",
    "flap_storm_schedule",
    "rolling_deployment_schedule",
    "negotiation_race_schedule",
    "run_churn_sweep",
    "PairSample",
    "TripleSample",
    "sample_pairs",
    "sample_triples",
    "cdf_points",
    "ccdf_points",
    "fraction_at_least",
    "render_table",
    "render_series",
    "percent",
    "OverheadComparison",
    "run_overhead_comparison",
    "bgp_message_count",
    "push_all_message_count",
    "SECTIONS",
    "full_report",
    "export_results",
    "to_jsonable",
    "MultiHopGain",
    "run_multihop_gain",
    "valley_free_source_routing_rate",
]
