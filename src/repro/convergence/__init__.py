"""Convergence model and simulator for MIRO (Ch. 7): guideline modes,
activation sequences, oscillation detection, and the counterexamples —
runnable as classic fair rounds (:meth:`MiroConvergenceSystem.run`) or
under a delay model (:meth:`MiroConvergenceSystem.run_events`,
:mod:`repro.convergence.eventsim`): all-zero delays are the same fair
rounds with a clock; real delays, MRAI timers, and topology churn run
arrival-driven on the discrete-event engine."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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
        "fig_7_1_graph", "fig_7_1_system", "fig_7_2_graph", "fig_7_2_system",
        "bad_gadget_bgp_system",
    ),
    "eventsim": ("ChurnResult", "run_on_events", "run_churn"),
})
