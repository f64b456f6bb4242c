"""Convergence model and simulator for MIRO (Ch. 7): guideline modes,
activation sequences, oscillation detection, and the counterexamples —
runnable as classic fair rounds (:meth:`MiroConvergenceSystem.run`) or
under a delay model (:meth:`MiroConvergenceSystem.run_events`,
:mod:`repro.convergence.eventsim`): all-zero delays are the same fair
rounds with a clock; real delays, MRAI timers, and topology churn run
arrival-driven on the discrete-event engine."""

from .eventsim import ChurnResult, run_churn, run_on_events
from .examples import (
    bad_gadget_bgp_system,
    fig_7_1_graph,
    fig_7_1_system,
    fig_7_2_graph,
    fig_7_2_system,
)
from .model import (
    ExplicitRanker,
    GaoRexfordRanker,
    GuidelineMode,
    PartialOrder,
    Ranker,
    Selection,
    TunnelDemand,
    path_class_rank,
    route_class_rank,
)
from .simulator import (
    ConvergenceResult,
    MiroConvergenceSystem,
    proof_schedule,
    proof_schedule_guideline_b,
    proof_schedule_guideline_c,
    proof_schedule_strict,
)

__all__ = [
    "GuidelineMode",
    "Selection",
    "TunnelDemand",
    "Ranker",
    "ExplicitRanker",
    "GaoRexfordRanker",
    "PartialOrder",
    "route_class_rank",
    "path_class_rank",
    "MiroConvergenceSystem",
    "ConvergenceResult",
    "proof_schedule",
    "proof_schedule_guideline_b",
    "proof_schedule_guideline_c",
    "proof_schedule_strict",
    "fig_7_1_graph",
    "fig_7_1_system",
    "fig_7_2_graph",
    "fig_7_2_system",
    "bad_gadget_bgp_system",
    "ChurnResult",
    "run_on_events",
    "run_churn",
]
