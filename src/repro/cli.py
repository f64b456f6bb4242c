"""Command-line interface.

Eleven commands::

    repro topology       generate a topology, print its Table 5.1
                         attributes, optionally dump it in CAIDA format
    repro route          compute and print routes toward one destination
    repro avoid          run the avoid-an-AS application for one triple
    repro experiment     regenerate one section of the evaluation (a paper
                         table/figure), or all of them, on a chosen profile
    repro failure-sweep  measure BGP vs MIRO recovery from sampled failures
    repro verify         fault-injection campaigns cross-checking every
                         route-computation path and routing invariant
    repro converge       run Ch. 7 convergence under a delay model: fair
                         rounds at zero delays, else arrival-driven on
                         the discrete-event engine (delays, MRAI, jitter)
    repro churn          seeded churn scenarios (flap storms, rolling
                         deployment, negotiation races) on the event engine
    repro stats          run a small instrumented workload and export the
                         metrics snapshot (json / prom / text)
    repro serve          run the asyncio MIRO query daemon (route lookups,
                         negotiations, stats) as JSON lines over TCP
    repro bench compare  compare two BENCH_<sha>.json trajectories (what
                         ``pytest benchmarks`` writes) and fail on
                         hot-path regressions

The serving path is loaded and measured by ``bench/`` (``python3
bench/run.py``), not by a command here.

Commands that read a topology take ``--profile``/``--seed`` (or
``--topology FILE`` to load a CAIDA-format dump) so runs are
reproducible, and all but ``bench compare`` take the observability
flags ``--trace FILE`` (write a chrome://tracing span dump) and
``--log-level LEVEL`` (enable structured logging on stderr).  The
settling kernel is chosen by the ``REPRO_KERNEL`` environment variable
alone (:mod:`repro.bgp.kernels`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .bgp import kernels
from .errors import ReproError
from .experiments import run_churn_sweep, run_failure_sweep, to_jsonable
from .experiments.suite import SECTIONS, Inputs, churn_text, failures_text
from .miro import ExportPolicy, miro_attempt, single_path_attempt
from .obs import configure_logging, get_registry, get_tracer
from .session import SimulationSession
from .sourcerouting import reachable_avoiding
from .topology import PROFILES, dump, generate_named, load, summarize


def _add_topology_args(
    parser: argparse.ArgumentParser, default_profile: str = "gao-2005"
) -> None:
    parser.add_argument(
        "--profile", default=default_profile, choices=sorted(PROFILES),
        help=f"generator profile (default: {default_profile})",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--topology", metavar="FILE",
        help="load a CAIDA-format topology instead of generating one",
    )


def _obs_parser() -> argparse.ArgumentParser:
    """The observability flags, a parent of every command that runs."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record spans and write a chrome://tracing JSON dump here",
    )
    parser.add_argument(
        "--flamegraph", metavar="FILE",
        help="record spans and write a collapsed-stack flamegraph file "
             "here (feed to flamegraph.pl / speedscope); a per-phase "
             "self-vs-cumulative rollup is printed on stderr",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        help="emit structured logs at this level on stderr",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="render structured logs as JSON lines instead of key=value "
             "(implies --log-level warning when no level is given)",
    )
    return parser


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats", action="store_true",
        help="print routing-cost telemetry (cache hits, tables computed, "
             "wall-clock) after the command",
    )
    _add_pool_args(parser)


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", choices=["auto", "on", "off"], default="auto",
        help="route-table fan-out across the persistent worker pool "
             "(default: auto)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool worker processes (default: one per CPU)",
    )


def _build_graph(args: argparse.Namespace):
    if args.topology:
        return load(args.topology)
    return generate_named(args.profile, seed=args.seed)


def _build_session(args: argparse.Namespace, graph) -> SimulationSession:
    parallel = {"auto": "auto", "on": True, "off": False}[
        getattr(args, "parallel", "auto")
    ]
    return SimulationSession(
        graph, parallel=parallel,
        max_workers=getattr(args, "workers", None),
    )


def _render_section(header: str, values: dict) -> str:
    """``header`` and one indented ``key: value`` line per entry."""
    return "\n".join([header] + [
        f"  {key}: {value:.6g}" if isinstance(value, float)
        else f"  {key}: {value}"
        for key, value in values.items()
    ])


def _maybe_print_stats(args: argparse.Namespace, session: SimulationSession) -> None:
    if getattr(args, "stats", False):
        print()
        print(_render_section("routing-cost telemetry:", session.stats))
        print()
        print(get_registry().render_text())


def _cmd_topology(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    summary = summarize(graph, args.topology or args.profile)
    print(f"name:               {summary.name}")
    print(f"ASes:               {summary.n_ases}")
    print(f"links:              {summary.n_links}")
    print(f"customer-provider:  {summary.n_customer_provider}")
    print(f"peering:            {summary.n_peering}")
    print(f"sibling:            {summary.n_sibling}")
    print(f"stub ASes:          {summary.n_stubs}")
    print(f"multi-homed ASes:   {summary.n_multihomed}")
    snapshot = graph.snapshot()
    print(f"snapshot:           {snapshot.n} indices, "
          f"{snapshot.num_directed_edges} directed edges")
    print(f"kernel:             {kernels.resolve()} "
          f"(available: {', '.join(kernels.available())})")
    if args.out:
        dump(graph, args.out)
        print(f"wrote topology to {args.out}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    session = _build_session(args, graph)
    table = session.compute(args.destination)
    if args.source is not None:
        route = table.best(args.source)
        if route is None:
            print(f"AS {args.source} has no route to AS {args.destination}")
            return 1
        print(" -> ".join(map(str, route.path)),
              f"[{route.route_class.name.lower()}]")
        for candidate in table.candidates(args.source):
            if candidate.path != route.path:
                print("alternate:", " -> ".join(map(str, candidate.path)),
                      f"[{candidate.route_class.name.lower()}]")
        _maybe_print_stats(args, session)
        return 0
    for asn in table.routed_ases()[: args.limit]:
        print(f"{asn:>6}: {' -> '.join(map(str, table.best(asn).path))}")
    _maybe_print_stats(args, session)
    return 0


def _cmd_avoid(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    session = _build_session(args, graph)
    table = session.compute(args.destination)
    default = table.default_path(args.source)
    if default is None:
        print(f"AS {args.source} cannot reach AS {args.destination} at all")
        return 1
    print("default path:", " -> ".join(map(str, default)))
    plain = single_path_attempt(table, args.source, args.avoid)
    print(f"single-path BGP: {'ok via ' + '-'.join(map(str, plain.full_path)) if plain.success else 'cannot avoid'}")
    policy = ExportPolicy.from_label(args.policy)
    attempt = miro_attempt(
        table, args.source, args.avoid, policy,
        max_depth=args.max_depth,
    )
    if attempt.success:
        print(
            f"MIRO {policy.value}: success ({attempt.method}) via "
            f"{' -> '.join(map(str, attempt.full_path))} "
            f"[{attempt.negotiations} negotiations, "
            f"{attempt.paths_received} paths received]"
        )
    else:
        print(
            f"MIRO {policy.value}: failed after {attempt.negotiations} "
            f"negotiations"
        )
    reachable = reachable_avoiding(
        graph, args.source, args.destination, args.avoid
    )
    print(f"source routing: {'possible' if reachable else 'impossible'}")
    _maybe_print_stats(args, session)
    return 0 if attempt.success else 2


def _cmd_failure_sweep(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    session = _build_session(args, graph)
    sweep = run_failure_sweep(
        graph, args.topology or args.profile, n_events=args.events,
        as_failure_fraction=args.as_fraction,
        n_destinations=args.destinations, seed=args.seed, session=session,
    )
    print(failures_text(sweep))
    print(f"mean affected-set fraction: {sweep.mean_affected_fraction:.1%}")
    _maybe_print_stats(args, session)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """One section of the evaluation, or ``all`` of them in order."""
    graph = _build_graph(args)
    session = _build_session(args, graph)
    inputs = Inputs(graph, args.topology or args.profile, args.seed, session)
    sections = [s for s in SECTIONS if args.which in ("all", s.name)]
    print("\n\n".join(s.text(s.run(inputs)) for s in sections))
    code = 0
    if args.verify:
        from .verify import audit_session

        audit = audit_session(session)
        print()
        print(audit.render())
        code = 0 if audit.ok else 1
    _maybe_print_stats(args, session)
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the route-equivalence verification harness (``repro verify``).

    Seeded fault-injection campaigns cross-check every route-computation
    path (full / incremental / session-serial / session-pool-sharded /
    service-batched) and the stable-state invariants after every injected
    event; exit code 1 when anything diverges or violates.
    """
    from .verify import run_campaigns

    def make_graph():
        return _build_graph(args)

    def progress(campaign: int, outcome) -> None:
        state = "ok" if outcome.ok else "FAIL"
        print(
            f"campaign {campaign + 1}/{args.campaigns}: "
            f"{outcome.steps} events, {outcome.checks} checks [{state}]",
            file=sys.stderr,
        )

    report = run_campaigns(
        make_graph,
        seed=args.seed,
        campaigns=args.campaigns,
        n_events=args.events,
        n_destinations=args.destinations,
        include_pool=not args.no_pool,
        include_service=not args.no_service,
        tunnel_campaigns=args.tunnel_campaigns,
        topology=args.topology or args.profile,
        progress=progress if not args.quiet else None,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote verify report to {args.out}")
    return 0 if report.ok else 1


def _mode_from(label: str):
    from .convergence import GuidelineMode

    for mode in GuidelineMode:
        if mode.value == label:
            return mode
    raise ReproError(f"unknown guideline mode {label!r}")


def _delays_from(args: argparse.Namespace):
    from .events import DelayModel

    return DelayModel(
        link_delay=args.link_delay,
        link_jitter=args.link_jitter,
        negotiation_delay=args.negotiation_delay,
        mrai=args.mrai,
        activation_jitter=args.activation_jitter,
    )


def _add_delay_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--link-delay", type=float, default=0.0,
                        help="per-link propagation delay in simulated "
                             "seconds (default 0)")
    parser.add_argument("--link-jitter", type=float, default=0.0,
                        help="uniform extra per-delivery delay (default 0)")
    parser.add_argument("--negotiation-delay", type=float, default=0.0,
                        help="responder-to-requester update delay (default 0)")
    parser.add_argument("--mrai", type=float, default=1.0,
                        help="per-AS MRAI / activation interval (default 1)")
    parser.add_argument("--activation-jitter", type=float, default=0.0,
                        help="uniform initial-activation offset (default 0)")


def _cmd_converge(args: argparse.Namespace) -> int:
    """Ch. 7 convergence under the delay flags (``repro converge``)."""
    from .convergence import GuidelineMode, fig_7_1_system, fig_7_2_system

    factory = {"7.1": fig_7_1_system, "7.2": fig_7_2_system}[args.figure]
    modes = (
        list(GuidelineMode) if args.mode == "all" else [_mode_from(args.mode)]
    )
    delays = _delays_from(args)
    for mode in modes:
        result = factory(mode).run_events(
            delays=delays, max_rounds=args.max_rounds, seed=args.run_seed,
        )
        state = (
            "converged" if result.converged
            else "OSCILLATES" if result.oscillating
            else "exhausted"
        )
        print(f"fig {args.figure} {mode.value:>12}: {state} "
              f"({result.rounds} rounds) sim_time={result.sim_time:g} "
              f"activations={result.activations}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    """Seeded churn scenarios on the event engine (``repro churn``)."""
    scenario_map = {
        "flap-storm": "flap_storm",
        "rolling": "rolling",
        "negotiation-race": "negotiation_race",
    }
    scenarios = (
        tuple(scenario_map.values()) if args.scenario == "all"
        else (scenario_map[args.scenario],)
    )
    delays = _delays_from(args)
    sweep = run_churn_sweep(
        n_topologies=args.topologies,
        demands_per_topology=args.demands,
        seed=args.seed,
        mode=_mode_from(args.mode),
        delays=delays,
        max_rounds=args.max_rounds,
        scenarios=scenarios,
    )
    print(churn_text(sweep))
    print(f"mean recovery time: {sweep.mean_recovery():.2f} sim-seconds")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(to_jsonable(sweep), handle, indent=2)
            handle.write("\n")
        print(f"wrote churn results to {args.out}")
    return 0 if sweep.converged_runs == len(sweep.runs) else 2


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a small instrumented workload and export the metrics snapshot.

    The workload exercises every instrumented subsystem — route
    computation (twice, so the cache-hit counters move), and one
    negotiation-state experiment (so the §3.3 message counters move) —
    then renders the registry in the requested format.
    """
    from .experiments import run_negotiation_state

    graph = _build_graph(args)
    session = _build_session(args, graph)
    destinations = graph.ases[: args.destinations]
    session.compute_many(destinations)
    session.compute_many(destinations)  # replay: every table is a cache hit
    run_negotiation_state(
        graph, n_destinations=min(3, args.destinations),
        sources_per_destination=4, seed=args.seed, session=session,
    )
    registry = get_registry()
    pool = session.pool_info()
    session.close()
    if args.format == "json":
        payload = json.dumps(
            {
                "kernel": kernels.describe(),
                "metrics": registry.snapshot(),
                "session_stats": session.stats,
                "pool": pool,
            },
            indent=2, sort_keys=True,
        )
    elif args.format == "prom":
        payload = registry.render_prometheus()
    else:
        payload = (
            f"active kernel: {kernels.resolve()}\n\n"
            + _render_section("routing-cost telemetry:", session.stats)
            + "\n\n" + _render_section("fan-out pool:", pool)
            + "\n\n" + registry.render_text()
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.format} metrics snapshot to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Gate the current trajectory against a baseline (``bench compare``)."""
    from .obs.bench import compare, load_trajectory

    report = compare(
        load_trajectory(args.baseline),
        load_trajectory(args.current),
        threshold_pct=args.threshold,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote compare report to {args.out}")
    return 0 if report.ok else 1


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-batch", type=int, default=64,
                        help="distinct destinations per settle batch "
                             "(default 64)")
    parser.add_argument("--max-pending", type=int, default=1024,
                        help="in-flight fills before shedding (default 1024)")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio MIRO query daemon on a TCP port."""
    import asyncio

    from .miro.runtime import MiroRuntime
    from .service import MiroService, ServiceConfig, serve

    config = ServiceConfig(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
    )
    graph = _build_graph(args)
    session = _build_session(args, graph)
    runtime = MiroRuntime(graph)

    async def run() -> None:
        async with MiroService(session, config, runtime=runtime) as service:
            ready = asyncio.get_running_loop().create_future()
            endpoint = asyncio.get_running_loop().create_task(
                serve(service, args.host, args.port, ready=ready)
            )
            port = await ready
            print(f"serving {len(graph)} ASes on {args.host}:{port} "
                  "(Ctrl-C to stop)")
            try:
                await endpoint
            finally:
                endpoint.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\ndraining... done")
    finally:
        _maybe_print_stats(args, session)
        session.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIRO: multi-path interdomain routing — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command but ``bench compare`` takes the observability flags
    command = functools.partial(sub.add_parser, parents=[_obs_parser()])

    topology = command("topology", help="generate/inspect a topology")
    _add_topology_args(topology)
    topology.add_argument("--out", help="dump CAIDA-format topology here")
    topology.set_defaults(func=_cmd_topology)

    route = command("route", help="compute BGP routes")
    _add_topology_args(route)
    _add_session_args(route)
    route.add_argument("--destination", type=int, required=True)
    route.add_argument("--source", type=int)
    route.add_argument("--limit", type=int, default=20,
                       help="rows to print without --source")
    route.set_defaults(func=_cmd_route)

    avoid = command("avoid", help="avoid-an-AS application")
    _add_topology_args(avoid)
    _add_session_args(avoid)
    avoid.add_argument("--source", type=int, required=True)
    avoid.add_argument("--destination", type=int, required=True)
    avoid.add_argument("--avoid", type=int, required=True)
    avoid.add_argument("--policy", default="/e",
                       help="export policy: /s, /e, or /a (default /e)")
    avoid.add_argument("--max-depth", type=int, default=1,
                       help="negotiation depth (2 enables §3.3 recursion)")
    avoid.set_defaults(func=_cmd_avoid)

    experiment = command("experiment", help="regenerate a result")
    _add_topology_args(experiment)
    _add_session_args(experiment)
    experiment.add_argument(
        "which", choices=[s.name for s in SECTIONS] + ["all"],
    )
    experiment.add_argument(
        "--verify", action="store_true",
        help="audit the session's routing tables after the experiment "
             "(invariants + fresh-computation equivalence; exit 1 on FAIL)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    failures = command(
        "failure-sweep",
        help="BGP vs MIRO recovery from sampled link/AS failures",
    )
    _add_topology_args(failures)
    _add_session_args(failures)
    failures.add_argument("--events", type=int, default=12,
                          help="failure events to sample (default 12)")
    failures.add_argument("--as-fraction", type=float, default=0.25,
                          help="fraction of events failing a whole AS "
                               "instead of one link (default 0.25)")
    failures.add_argument("--destinations", type=int, default=5,
                          help="destinations scored per event (default 5)")
    failures.set_defaults(func=_cmd_failure_sweep)

    verify = command(
        "verify",
        help="route-equivalence verification: fault-injection campaigns "
             "cross-checking every computation path + invariants",
    )
    _add_topology_args(verify, default_profile="verify-500")
    verify.add_argument("--campaigns", type=int, default=25,
                        help="fault-injection campaigns to run (default 25)")
    verify.add_argument("--events", type=int, default=8,
                        help="fault events per campaign (default 8)")
    verify.add_argument("--destinations", type=int, default=6,
                        help="destinations cross-checked per campaign "
                             "(default 6)")
    verify.add_argument("--tunnel-campaigns", type=int, default=2,
                        help="tunnel-consistency sub-campaigns (default 2)")
    verify.add_argument("--no-pool", action="store_true",
                        help="skip the process-pool comparison path")
    verify.add_argument("--no-service", action="store_true",
                        help="skip the query-daemon batched comparison path")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-campaign progress on stderr")
    verify.add_argument("--out", metavar="FILE",
                        help="write the full JSON report here")
    verify.set_defaults(func=_cmd_verify)

    converge = command(
        "converge",
        help="Ch. 7 convergence: fair rounds at zero delays, the "
             "discrete-event engine under real ones",
    )
    _add_delay_args(converge)
    converge.add_argument("--figure", choices=["7.1", "7.2"], default="7.1",
                          help="counterexample system to run (default 7.1)")
    converge.add_argument("--mode",
                          choices=["unrestricted", "B", "C", "D", "E", "all"],
                          default="all",
                          help="guideline mode (default: all five)")
    converge.add_argument("--max-rounds", type=int, default=200)
    converge.add_argument("--run-seed", type=int, default=None,
                          help="seed for activation shuffles and jitter")
    converge.set_defaults(func=_cmd_converge)

    churn = command(
        "churn",
        help="seeded churn scenarios (flap storms, rolling deployment, "
             "negotiation races) on the event-driven simulator",
    )
    _add_delay_args(churn)
    churn.add_argument("--scenario",
                       choices=["flap-storm", "rolling", "negotiation-race",
                                "all"],
                       default="all",
                       help="churn scenario to drive (default: all)")
    churn.add_argument("--mode",
                       choices=["unrestricted", "B", "C", "D", "E"],
                       default="B", help="guideline mode (default B)")
    churn.add_argument("--seed", type=int, default=0,
                       help="sweep seed (topologies, demands, schedules)")
    churn.add_argument("--topologies", type=int, default=3,
                       help="random topologies per scenario (default 3)")
    churn.add_argument("--demands", type=int, default=5,
                       help="tunnel demands per topology (default 5)")
    churn.add_argument("--max-rounds", type=int, default=200)
    churn.add_argument("--out", metavar="FILE",
                       help="write the JSON results here")
    churn.set_defaults(func=_cmd_churn)

    stats = command(
        "stats",
        help="run a small instrumented workload and export metrics",
    )
    _add_topology_args(stats)
    _add_pool_args(stats)
    stats.add_argument("--destinations", type=int, default=4,
                       help="destinations in the workload (default 4)")
    stats.add_argument("--format", choices=["json", "prom", "text"],
                       default="text",
                       help="snapshot format (default: text)")
    stats.add_argument("--out", metavar="FILE",
                       help="write the snapshot here instead of stdout")
    stats.set_defaults(func=_cmd_stats)

    serve = command(
        "serve",
        help="run the asyncio MIRO query daemon (JSON-lines over TCP)",
    )
    _add_topology_args(serve)
    _add_session_args(serve)
    _add_service_args(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7547,
                       help="TCP port; 0 picks a free one (default 7547)")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench",
        help="gate a benchmark trajectory against a baseline",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare two trajectory files; exit 1 when a gated hot-path "
             "metric regressed past the threshold",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("current", help="current BENCH_*.json")
    bench_compare.add_argument("--threshold", type=float, default=10.0,
                               help="regression threshold in percent "
                                    "(default 10)")
    bench_compare.add_argument("--out", metavar="FILE",
                               help="write the JSON compare report here")
    bench_compare.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = get_tracer()
    trace_path = getattr(args, "trace", None)
    flame_path = getattr(args, "flamegraph", None)
    if trace_path or flame_path:
        tracer.enable()
    if getattr(args, "log_level", None) or getattr(args, "log_json", False):
        configure_logging(
            getattr(args, "log_level", None) or "warning",
            json_lines=getattr(args, "log_json", False),
        )
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if flame_path:
            from .obs import profile as obs_profile

            stacks = obs_profile.write_collapsed(
                flame_path, tracer.events()
            )
            print(obs_profile.render_rollup(tracer.events()),
                  file=sys.stderr)
            print(f"wrote {stacks} collapsed stacks to {flame_path}",
                  file=sys.stderr)
        if trace_path:
            tracer.write(trace_path)
        if trace_path or flame_path:
            tracer.disable()
        if trace_path:
            print(f"wrote chrome://tracing dump to {trace_path}",
                  file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
