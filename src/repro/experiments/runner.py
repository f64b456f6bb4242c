"""Run the whole evaluation and render one text report.

``full_report(graph)`` regenerates every paper artifact on one topology —
what the ``repro experiment all`` CLI command and the EXPERIMENTS.md
refresh use.  Sample sizes are deliberately modest; the per-figure
benchmarks under ``benchmarks/`` are the canonical, assertion-carrying
versions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional

from ..miro import ExportPolicy
from ..obs import get_logger, get_registry, get_tracer
from ..session import SimulationSession, ensure_session
from ..topology.graph import ASGraph
from ..topology.stats import summarize
from .avoidance import run_negotiation_state, run_success_rates
from .convergence import run_counterexamples, run_guideline_sweep
from .degree import degree_distribution
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

# ----------------------------------------------------------------------
# instrumentation (repro.obs): each full_report section gets a wall-time
# histogram sample and a span, so one --trace run shows where the
# evaluation budget goes (Table 5.1 … §3.2 overhead).
# ----------------------------------------------------------------------
_TRACER = get_tracer()
_LOG = get_logger("experiments")
_SECTION_SECONDS = get_registry().histogram(
    "repro_experiment_seconds",
    "Wall time per experiment section of the full report",
    labels=("experiment",),
)


@contextmanager
def _section(name: str):
    """Time one report section into the histogram and the trace."""
    with _TRACER.span("experiment_section", experiment=name):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            _SECTION_SECONDS.labels(experiment=name).observe(elapsed)
            _LOG.debug("experiment_section_done", experiment=name,
                       seconds=round(elapsed, 6))


def full_report(
    graph: ASGraph,
    name: str = "topology",
    seed: int = 0,
    n_destinations: int = DEFAULT_N_DESTINATIONS,
    sources_per_destination: int = DEFAULT_SOURCES_PER_DESTINATION,
    n_stubs: int = DEFAULT_N_STUBS,
    session: Optional[SimulationSession] = None,
    include_stats: bool = True,
    verify: bool = False,
) -> str:
    """Every table and figure on one topology, as one text report.

    One :class:`~repro.session.SimulationSession` threads through every
    experiment, so the routing tables Table 5.2 computes are the ones
    Table 5.3 and the figures read back from cache; the closing telemetry
    section reports what that sharing saved.  With ``verify`` the report
    closes with a route-table audit: the session's tables — the exact
    mix of cached, derived, and pool-computed state the figures consumed
    — are checked against the routing invariants and fresh full
    computations (see :func:`repro.verify.audit_session`).
    """
    session = ensure_session(graph, session)
    sections: List[str] = []

    with _section("table_5_1_topology"):
        summary = summarize(graph, name)
        sections.append(render_table(
            ["Name", "# Nodes", "# Edges", "P/C links", "Peering", "Sibling"],
            [summary.as_row()],
            title="Table 5.1: topology attributes",
        ))

    with _section("fig_5_1_degree"):
        dist = degree_distribution(graph, name)
        sections.append(render_series("Fig 5.1 degree CCDF", dist.ccdf))

    with _section("fig_5_2_diversity"):
        series = run_diversity(
            graph, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )
        sections.append(render_table(
            ["Scenario", "no-alternate", "median", "p95"],
            [
                (label, f"{s.fraction_no_alternate:.1%}", f"{s.median:.0f}",
                 f"{s.quantile(0.95):.0f}")
                for label, s in sorted(series.items())
            ],
            title="Fig 5.2/5.3: available routes",
        ))

    with _section("table_5_2_success_rates"):
        rates = run_success_rates(
            graph, name, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )
        sections.append(render_table(
            ["Name", "Single", "Multi/s", "Multi/e", "Multi/a", "Source"],
            [rates.as_row()],
            title="Table 5.2: avoid-an-AS success rates",
        ))

    with _section("table_5_3_negotiation_state"):
        state = run_negotiation_state(
            graph, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )
        sections.append(render_table(
            ["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"],
            [r.as_row() for r in state],
            title="Table 5.3: negotiation state",
        ))

    with _section("fig_5_4_deployment"):
        deployment = run_incremental_deployment(
            graph, n_destinations=n_destinations,
            sources_per_destination=sources_per_destination, seed=seed,
            session=session,
        )
        lines = [
            render_series(
                f"Fig 5.4 top-degree {policy.value}", deployment.series(policy)
            )
            for policy in ExportPolicy
        ]
        sections.append("\n".join(lines))

    with _section("fig_5_6_traffic"):
        traffic = run_traffic_control(graph, n_stubs=n_stubs, seed=seed,
                                      session=session)
        sections.append(render_table(
            ["Policy/model", ">= 10%", ">= 25%"],
            [
                (
                    f"{policy} {model}",
                    f"{dict(curve.points((0.10, 0.25)))[0.10]:.0%}",
                    f"{dict(curve.points((0.10, 0.25)))[0.25]:.0%}",
                )
                for (policy, model), curve in sorted(traffic.curves.items())
            ],
            title=f"Fig 5.6/5.7: inbound control ({traffic.n_stubs} stubs)",
        ))

    with _section("failure_sweep"):
        failures = run_failure_sweep(
            graph, name, n_destinations=min(5, n_destinations), seed=seed,
            session=session,
        )
        sections.append(render_table(
            ["Recovery scheme", "Recovered"],
            failures.as_rows(),
            title=(
                f"§7 failure sweep: {failures.n_link_events} link / "
                f"{failures.n_as_events} AS failures, "
                f"{failures.disrupted_sources} disrupted sources"
            ),
        ))

    with _section("fig_7_counterexamples"):
        counterexamples = run_counterexamples()
        sections.append(render_table(
            ["Figure", "Mode", "Converged", "Rounds"],
            [
                (o.figure, o.mode.value, o.converged, o.rounds)
                for o in counterexamples
            ],
            title="Fig 7.1/7.2: convergence",
        ))

    with _section("guideline_sweep"):
        sweep = run_guideline_sweep(n_topologies=3, demands_per_topology=5,
                                    seed=seed)
        sections.append(render_table(
            ["Guideline", "Runs", "Converged"],
            [(o.mode.value, o.runs, o.converged_runs) for o in sweep],
            title="Ch. 7 guideline sweep",
        ))

    with _section("overhead_comparison"):
        overhead = run_overhead_comparison(
            graph, n_destinations=min(6, n_destinations),
            sources_per_destination=sources_per_destination, seed=seed,
            max_push_path_length=5, session=session,
        )
        sections.append(render_table(
            ["Protocol", "Messages", "vs BGP"],
            overhead.as_rows(),
            title="Control-plane overhead (§3.2)",
        ))

    if verify:
        from ..verify import audit_session

        with _section("verify_audit"):
            audit = audit_session(session)
            sections.append(audit.render())

    if include_stats:
        sections.append(session.stats.render())

    return "\n\n".join(sections)
