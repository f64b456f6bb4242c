"""JSON export of experiment results, for downstream plotting.

The in-package reports are plain text; anyone regenerating the paper's
figures with an actual plotting stack needs machine-readable series.
:func:`export_results` runs the whole evaluation on one topology and
returns (or writes) a JSON document with one entry per artifact; every
dataclass result is converted field-by-field, enums by value.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..miro.policies import ExportPolicy
from ..obs import get_registry
from ..topology.graph import ASGraph
from ..topology.stats import summarize
from .avoidance import run_negotiation_state, run_success_rates
from .churn import run_churn_sweep
from .convergence import run_counterexamples, run_guideline_sweep
from .degree import degree_distribution, path_length_stats
from .deployment import run_incremental_deployment
from .diversity import run_diversity
from .failures import run_failure_sweep
from .overhead import run_overhead_comparison
from .sampling import (
    DEFAULT_N_DESTINATIONS,
    DEFAULT_N_STUBS,
    DEFAULT_SOURCES_PER_DESTINATION,
)
from .traffic import run_traffic_control


def to_jsonable(value: Any) -> Any:
    """Recursively convert results (dataclasses/enums/tuples) to JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {_key(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return value


def _key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        return str(key.value)
    if isinstance(key, tuple):
        return "/".join(str(_key(k)) for k in key)
    return str(key)


def _failure_sweep_entry(sweep) -> Dict[str, Any]:
    """Failure-sweep fields plus the derived recovery rates."""
    entry = to_jsonable(sweep)
    entry["bgp_recovery_rate"] = sweep.bgp_recovery_rate
    entry["miro_recovery_rates"] = {
        policy.label: sweep.miro_recovery_rate(policy)
        for policy in ExportPolicy
    }
    entry["mean_affected_fraction"] = sweep.mean_affected_fraction
    return entry


def _churn_entry(sweep) -> Dict[str, Any]:
    """Churn-sweep runs plus the derived recovery-time distribution."""
    entry = to_jsonable(sweep)
    entry["converged_runs"] = sweep.converged_runs
    entry["recovery_times"] = sweep.recoveries()
    entry["mean_recovery"] = sweep.mean_recovery()
    return entry


def export_results(
    graph: ASGraph,
    name: str = "topology",
    seed: int = 0,
    n_destinations: int = DEFAULT_N_DESTINATIONS,
    sources_per_destination: int = DEFAULT_SOURCES_PER_DESTINATION,
    n_stubs: int = DEFAULT_N_STUBS,
    path: Optional[Union[str, Path]] = None,
    session=None,
) -> Dict[str, Any]:
    """Run every experiment and return (optionally write) a JSON document.

    All experiments share one :class:`~repro.session.SimulationSession`;
    its telemetry counters are exported under ``"session_stats"``.
    """
    from ..session import ensure_session

    session = ensure_session(graph, session)
    diversity = run_diversity(
        graph, n_destinations=n_destinations,
        sources_per_destination=sources_per_destination, seed=seed,
        session=session,
    )
    deployment = run_incremental_deployment(
        graph, n_destinations=n_destinations,
        sources_per_destination=sources_per_destination, seed=seed,
        session=session,
    )
    traffic = run_traffic_control(graph, n_stubs=n_stubs, seed=seed,
                                  session=session)
    document: Dict[str, Any] = {
        "name": name,
        "seed": seed,
        "table_5_1": to_jsonable(summarize(graph, name)),
        "fig_5_1": to_jsonable(degree_distribution(graph, name)),
        "path_lengths": to_jsonable(
            path_length_stats(graph, n_destinations=n_destinations, seed=seed,
                              session=session)
        ),
        "fig_5_2": {
            label: to_jsonable(series)
            for label, series in diversity.items()
        },
        "table_5_2": to_jsonable(run_success_rates(
            graph, name, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )),
        "table_5_3": to_jsonable(run_negotiation_state(
            graph, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )),
        "fig_5_4": {
            policy.value: deployment.series(policy)
            for policy in ExportPolicy
        },
        "fig_5_6": {
            f"{policy}/{model}": curve.points()
            for (policy, model), curve in traffic.curves.items()
        },
        "power_nodes": to_jsonable(traffic.profile),
        "failure_sweep": _failure_sweep_entry(run_failure_sweep(
            graph, name, n_destinations=min(5, n_destinations), seed=seed,
            session=session,
        )),
        "fig_7_counterexamples": to_jsonable(run_counterexamples()),
        "guideline_sweep": to_jsonable(run_guideline_sweep(
            n_topologies=3, demands_per_topology=5, seed=seed,
        )),
        "churn": _churn_entry(run_churn_sweep(
            n_topologies=2, demands_per_topology=4, seed=seed,
        )),
        "overhead": to_jsonable(run_overhead_comparison(
            graph, n_destinations=min(6, n_destinations),
            sources_per_destination=sources_per_destination, seed=seed,
            max_push_path_length=5, session=session,
        )),
    }
    from ..bgp import kernels

    document["kernel"] = kernels.describe()
    document["session_stats"] = session.stats.to_dict()
    document["metrics"] = get_registry().snapshot()
    if path is not None:
        Path(path).write_text(json.dumps(document, indent=2))
    return document
