"""The evaluation as one ordered list of sections.

Each :class:`Section` of :data:`SECTIONS` is one paper artifact (Table
5.1 … §3.2 overhead): how it runs on the shared :class:`Inputs`, its
text, and its JSON entries.  :func:`full_report` joins the texts,
:func:`export_results` merges the entries (for downstream plotting), and
``repro experiment <name>`` runs one section (``all`` runs them all), so
the three show the same numbers.  Sample sizes are deliberately modest;
the per-figure benchmarks under ``benchmarks/`` are the canonical,
assertion-carrying versions.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..miro import ExportPolicy
from ..obs import get_logger, get_registry, get_tracer
from ..session import SimulationSession, ensure_session
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
from .report import render_series, render_table
from .sampling import (
    DEFAULT_N_DESTINATIONS,
    DEFAULT_N_STUBS,
    DEFAULT_SOURCES_PER_DESTINATION,
)
from .traffic import run_traffic_control

# each section run is one span and one histogram sample, so a --trace
# run shows where the evaluation budget goes
_TRACER = get_tracer()
_LOG = get_logger("experiments")
_SECTION_SECONDS = get_registry().histogram(
    "repro_experiment_seconds",
    "Wall time per experiment section of the evaluation",
    labels=("experiment",),
)


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


@dataclass(frozen=True)
class Inputs:
    """What every section runs on: one graph, one seed, one session."""

    graph: ASGraph
    name: str
    seed: int
    session: SimulationSession
    n_destinations: int = DEFAULT_N_DESTINATIONS
    sources_per_destination: int = DEFAULT_SOURCES_PER_DESTINATION
    n_stubs: int = DEFAULT_N_STUBS

    @property
    def sample(self) -> Dict[str, Any]:
        """The keyword arguments of the destination-sampled experiments."""
        return dict(
            n_destinations=self.n_destinations,
            sources_per_destination=self.sources_per_destination,
            seed=self.seed, session=self.session,
        )


@dataclass(frozen=True)
class Section:
    """One paper artifact: its name, how to compute it, how to show it."""

    name: str  #: the ``repro experiment`` choice and the metric label
    compute: Callable[[Inputs], Any]
    text: Callable[[Any], str]
    entries: Callable[[Any], Dict[str, Any]]

    def run(self, inputs: Inputs) -> Any:
        """Compute the result, timed into the histogram and the trace."""
        with _TRACER.span("experiment_section", experiment=self.name):
            start = time.perf_counter()
            try:
                return self.compute(inputs)
            finally:
                elapsed = time.perf_counter() - start
                _SECTION_SECONDS.labels(experiment=self.name).observe(elapsed)
                _LOG.debug("experiment_section_done", experiment=self.name,
                           seconds=round(elapsed, 6))


def _fig_5_6_text(traffic) -> str:
    rows = []
    for (policy, model), curve in sorted(traffic.curves.items()):
        points = dict(curve.points((0.10, 0.25)))
        rows.append((f"{policy} {model}", f"{points[0.10]:.0%}",
                     f"{points[0.25]:.0%}"))
    return render_table(
        ["Policy/model", ">= 10%", ">= 25%"], rows,
        title=f"Fig 5.6/5.7: inbound control ({traffic.n_stubs} stubs)",
    )


def failures_text(sweep) -> str:
    """The recovery table of a failure sweep (also ``repro failure-sweep``)."""
    return render_table(
        ["Recovery scheme", "Recovered"], sweep.as_rows(),
        title=f"failure sweep on {sweep.name}: {sweep.n_link_events} link / "
              f"{sweep.n_as_events} AS failures, "
              f"{sweep.disrupted_sources} disrupted sources",
    )


def _failures_entries(sweep) -> Dict[str, Any]:
    """Failure-sweep fields plus the derived recovery rates."""
    entry = to_jsonable(sweep)
    entry["bgp_recovery_rate"] = sweep.bgp_recovery_rate
    entry["miro_recovery_rates"] = {
        policy.label: sweep.miro_recovery_rate(policy)
        for policy in ExportPolicy
    }
    entry["mean_affected_fraction"] = sweep.mean_affected_fraction
    return {"failure_sweep": entry}


def churn_text(sweep) -> str:
    """The per-run table of a churn sweep (also ``repro churn``)."""
    return render_table(
        ["Scenario", "Seed", "Converged", "Deltas", "Activations",
         "Sim time", "Recovery"],
        [
            (run.scenario, str(run.topology_seed),
             "yes" if run.converged else "NO",
             str(run.injections), str(run.activations),
             f"{run.sim_time:.2f}", f"{run.max_recovery:.2f}")
            for run in sweep.runs
        ],
        title=f"churn sweep: {len(sweep.runs)} runs, "
              f"{sweep.converged_runs} converged",
    )


def _churn_entries(sweep) -> Dict[str, Any]:
    """Churn-sweep runs plus the derived recovery-time distribution."""
    entry = to_jsonable(sweep)
    entry["converged_runs"] = sweep.converged_runs
    entry["recovery_times"] = sweep.recoveries()
    entry["mean_recovery"] = sweep.mean_recovery()
    return {"churn": entry}


#: The evaluation, in report order.  Names are the ``repro experiment``
#: choices; sample sizes come from :class:`Inputs` alone.
SECTIONS: Tuple[Section, ...] = (
    Section(
        "table5.1",
        lambda c: summarize(c.graph, c.name),
        lambda summary: render_table(
            ["Name", "# Nodes", "# Edges", "P/C links", "Peering", "Sibling"],
            [summary.as_row()], title="Table 5.1: topology attributes",
        ),
        lambda summary: {"table_5_1": to_jsonable(summary)},
    ),
    Section(
        "fig5.1",
        lambda c: degree_distribution(c.graph, c.name),
        lambda dist: render_series("Fig 5.1 degree CCDF", dist.ccdf),
        lambda dist: {"fig_5_1": to_jsonable(dist)},
    ),
    Section(
        "paths",
        lambda c: path_length_stats(c.graph, n_destinations=c.n_destinations,
                                    seed=c.seed, session=c.session),
        lambda stats: render_series(
            f"AS-path lengths (mean {stats.mean:.2f}, max {stats.max_length})",
            sorted(stats.histogram.items()),
        ),
        lambda stats: {"path_lengths": to_jsonable(stats)},
    ),
    Section(
        "fig5.2",
        lambda c: run_diversity(c.graph, **c.sample),
        lambda series: render_table(
            ["Scenario", "no-alternate", "median", "p95"],
            [(label, f"{s.fraction_no_alternate:.1%}", f"{s.median:.0f}",
              f"{s.quantile(0.95):.0f}") for label, s in sorted(series.items())],
            title="Fig 5.2/5.3: available routes",
        ),
        lambda series: {"fig_5_2": to_jsonable(series)},
    ),
    Section(
        "table5.2",
        lambda c: run_success_rates(c.graph, c.name, **c.sample),
        lambda rates: render_table(
            ["Name", "Single", "Multi/s", "Multi/e", "Multi/a", "Source"],
            [rates.as_row()], title="Table 5.2: avoid-an-AS success rates",
        ),
        lambda rates: {"table_5_2": to_jsonable(rates)},
    ),
    Section(
        "table5.3",
        lambda c: run_negotiation_state(c.graph, **c.sample),
        lambda state: render_table(
            ["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"],
            [r.as_row() for r in state], title="Table 5.3: negotiation state",
        ),
        lambda state: {"table_5_3": to_jsonable(state)},
    ),
    Section(
        "fig5.4",
        lambda c: run_incremental_deployment(c.graph, **c.sample),
        lambda curve: "\n".join(
            render_series(f"Fig 5.4 top-degree {p.value}", curve.series(p))
            for p in ExportPolicy
        ),
        lambda curve: {"fig_5_4": {p.value: curve.series(p) for p in ExportPolicy}},
    ),
    Section(
        "fig5.6",
        lambda c: run_traffic_control(c.graph, n_stubs=c.n_stubs, seed=c.seed,
                                      session=c.session),
        _fig_5_6_text,
        lambda traffic: {
            "fig_5_6": {
                f"{policy}/{model}": curve.points()
                for (policy, model), curve in traffic.curves.items()
            },
            "power_nodes": to_jsonable(traffic.profile),
        },
    ),
    Section(
        "failures",
        lambda c: run_failure_sweep(c.graph, c.name, seed=c.seed,
                                    n_destinations=min(5, c.n_destinations),
                                    session=c.session),
        failures_text,
        _failures_entries,
    ),
    Section(
        "ch7",
        lambda c: run_counterexamples(),
        lambda outcomes: render_table(
            ["Figure", "Mode", "Converged", "Rounds"],
            [(o.figure, o.mode.value, o.converged, o.rounds) for o in outcomes],
            title="Fig 7.1/7.2: convergence",
        ),
        lambda outcomes: {"fig_7_counterexamples": to_jsonable(outcomes)},
    ),
    Section(
        "guidelines",
        lambda c: run_guideline_sweep(n_topologies=3, demands_per_topology=5,
                                      seed=c.seed),
        lambda sweep: render_table(
            ["Guideline", "Runs", "Converged"],
            [(o.mode.value, o.runs, o.converged_runs) for o in sweep],
            title="Ch. 7 guideline sweep",
        ),
        lambda sweep: {"guideline_sweep": to_jsonable(sweep)},
    ),
    Section(
        "churn",
        lambda c: run_churn_sweep(n_topologies=2, demands_per_topology=4,
                                  seed=c.seed),
        churn_text,
        _churn_entries,
    ),
    Section(
        "overhead",
        lambda c: run_overhead_comparison(
            c.graph, n_destinations=min(6, c.n_destinations),
            sources_per_destination=c.sources_per_destination, seed=c.seed,
            max_push_path_length=5, session=c.session,
        ),
        lambda overhead: render_table(
            ["Protocol", "Messages", "vs BGP"], overhead.as_rows(),
            title="Control-plane overhead (§3.2)",
        ),
        lambda overhead: {"overhead": to_jsonable(overhead)},
    ),
)


def full_report(
    graph: ASGraph,
    name: str = "topology",
    seed: int = 0,
    n_destinations: int = DEFAULT_N_DESTINATIONS,
    sources_per_destination: int = DEFAULT_SOURCES_PER_DESTINATION,
    n_stubs: int = DEFAULT_N_STUBS,
    session: Optional[SimulationSession] = None,
) -> str:
    """Every section's text on one topology, as one report.

    One :class:`~repro.session.SimulationSession` threads through every
    section, so the routing tables Table 5.2 computes are the ones
    Table 5.3 and the figures read back from cache.
    """
    inputs = Inputs(graph, name, seed, ensure_session(graph, session),
                    n_destinations, sources_per_destination, n_stubs)
    return "\n\n".join(s.text(s.run(inputs)) for s in SECTIONS)


def export_results(
    graph: ASGraph,
    name: str = "topology",
    seed: int = 0,
    n_destinations: int = DEFAULT_N_DESTINATIONS,
    sources_per_destination: int = DEFAULT_SOURCES_PER_DESTINATION,
    n_stubs: int = DEFAULT_N_STUBS,
    path: Optional[Union[str, Path]] = None,
    session: Optional[SimulationSession] = None,
) -> Dict[str, Any]:
    """Every section's JSON entries, returned and optionally written.

    Beside them: the session's telemetry under ``"session_stats"``, the
    active kernel under ``"kernel"`` and the registry under ``"metrics"``.
    """
    from ..bgp import kernels

    session = ensure_session(graph, session)
    inputs = Inputs(graph, name, seed, session,
                    n_destinations, sources_per_destination, n_stubs)
    document: Dict[str, Any] = {"name": name, "seed": seed}
    for section in SECTIONS:
        document.update(section.entries(section.run(inputs)))
    document["kernel"] = kernels.describe()
    document["session_stats"] = session.stats
    document["metrics"] = get_registry().snapshot()
    if path is not None:
        Path(path).write_text(json.dumps(document, indent=2))
    return document
