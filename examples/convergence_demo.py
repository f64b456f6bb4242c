#!/usr/bin/env python3
"""Convergence demo (Ch. 7): the two counterexamples and the guidelines.

Without restrictions, both Fig. 7.1 (tunnels leaking into route selection)
and Fig. 7.2 (tunnels riding on tunnels under the strict policy) oscillate
forever.  Each of the four guidelines restores convergence, and each
converges within the phases of its proof's activation order (§7.2).
Without Guideline A even plain BGP can diverge (BAD GADGET, §2.2.3).

The second half re-runs the systems under a delay model: all-zero delays
are the same fair rounds with a simulated clock; propagation delays,
MRAI timers, and a link flap injected mid-run go through the
discrete-event engine and settle on the same state.

Run:  python examples/convergence_demo.py
"""

from repro.convergence import (
    GuidelineMode,
    bad_gadget_bgp_system,
    fig_7_1_system,
    fig_7_2_system,
    proof_schedule,
    proof_schedule_guideline_b,
    proof_schedule_guideline_c,
    proof_schedule_strict,
    run_churn,
)
from repro.events import DelayModel
from repro.experiments import render_table, run_guideline_sweep
from repro.topology import TimedDelta, TopologyDelta

NAMES = {1: "A", 2: "B", 3: "C", 4: "D"}


def pretty(path) -> str:
    return "".join(NAMES[asn] for asn in path)


def show(figure: str, factory) -> None:
    print(f"\nFigure {figure}:")
    rows = []
    for mode in GuidelineMode:
        result = factory(mode).run(max_rounds=100)
        rows.append((
            mode.value,
            "converged" if result.converged else "OSCILLATES",
            result.rounds,
        ))
    print(render_table(["Mode", "Outcome", "Rounds"], rows))


def main() -> None:
    print("MIRO convergence (Ch. 7)")
    show("7.1 (A, B, C prefer tunnels through their peers)", fig_7_1_system)
    show("7.2 (D's tunnels ride on D's routes to the responders)",
         fig_7_2_system)

    print("\nStable state of Fig. 7.2 under Guideline E "
          "(all three tunnels coexist):")
    result = fig_7_2_system(GuidelineMode.GUIDELINE_E).run()
    for dest in (1, 2, 3):
        selection = result.selection(4, dest)
        kind = "tunnel" if selection.is_tunnel else "bgp"
        print(f"    D -> {NAMES[dest]}: {pretty(selection.path)} ({kind})")

    print("\nStable state under Guideline D "
          "(the partial order forbids the cyclic third tunnel):")
    result = fig_7_2_system(GuidelineMode.GUIDELINE_D).run()
    for dest in (1, 2, 3):
        selection = result.selection(4, dest)
        kind = "tunnel" if selection.is_tunnel else "bgp"
        print(f"    D -> {NAMES[dest]}: {pretty(selection.path)} ({kind})")

    print("\nThe proofs' activation orders (§7.2): phases, then rounds "
          "to quiescence")
    for name, factory, mode, schedule_of in (
        ("7.1", fig_7_1_system, GuidelineMode.GUIDELINE_B, proof_schedule),
        ("7.1", fig_7_1_system, GuidelineMode.GUIDELINE_B,
         proof_schedule_guideline_b),
        ("7.1", fig_7_1_system, GuidelineMode.GUIDELINE_C,
         proof_schedule_guideline_c),
        ("7.2", fig_7_2_system, GuidelineMode.GUIDELINE_D,
         proof_schedule_strict),
        ("7.2", fig_7_2_system, GuidelineMode.GUIDELINE_E,
         proof_schedule_strict),
    ):
        system = factory(mode)
        schedule = schedule_of(system.graph)
        result = system.run(max_rounds=10, schedule=schedule)
        state = "converged" if result.converged else "OSCILLATES"
        print(f"    fig {name} {mode.value}, {schedule_of.__name__}: "
              f"{len(schedule)} phases, {state} in {result.rounds} rounds")

    result = bad_gadget_bgp_system().run(max_rounds=50)
    print("\nBAD GADGET, plain BGP with peer routes ranked over customer "
          f"routes: {'converged' if result.converged else 'OSCILLATES'} "
          f"({result.rounds} rounds)")

    print("\nRandom-topology sweep (Theorems 2-4 by simulation):")
    outcomes = run_guideline_sweep(n_topologies=4, demands_per_topology=6,
                                   seed=11)
    print(render_table(
        ["Guideline", "Runs", "Converged", "Mean rounds"],
        [(o.mode.value, o.runs, o.converged_runs, f"{o.mean_rounds:.1f}")
         for o in outcomes],
    ))

    print("\nZero delays are fair rounds on a clock (one wave per MRAI):")
    for mode in GuidelineMode:
        result = fig_7_1_system(mode).run_events()
        state = "converged" if result.converged else "OSCILLATES"
        print(f"    fig 7.1 {mode.value:>12}: {state} "
              f"({result.rounds} rounds) at t={result.sim_time:g}s")

    print("\nEvent engine: Fig. 7.1/B with 100 ms links and 1 s MRAI:")
    delays = DelayModel(link_delay=0.1, mrai=1.0)
    expected = fig_7_1_system(GuidelineMode.GUIDELINE_B).run().final_state
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run_events(
        delays=delays
    )
    same = "the" if result.final_state == expected else "NOT the"
    print(f"    quiescent at t={result.sim_time:g}s after "
          f"{result.activations} activations, in {same} fair-round state")

    print("\nChurn: flap the A—D link while convergence is in flight:")
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    repair = TopologyDelta.link_restore(system.graph, 1, 4)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4)),
         TimedDelta(5.0, repair)],
        delays=delays,
    )
    print(f"    {churn.injections} injections, quiescent at "
          f"t={churn.sim_time:g}s, max recovery "
          f"{churn.max_recovery:g}s after injection")


if __name__ == "__main__":
    main()
