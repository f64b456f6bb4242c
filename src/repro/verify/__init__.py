"""Route-equivalence verification harness.

The standing oracle for the whole reproduction: every way the repo can
produce a routing table — full computation, incremental recomputation,
session cache (serial or process pool) — must agree byte for byte, and
every table must satisfy the Gao–Rexford stable-state invariants, under
arbitrary failure/recovery event streams.  Three layers:

* :mod:`~repro.verify.invariants` — per-table and per-runtime checkers
  (valley-free legality, forwarding-tree consistency, stable-state fixed
  point, tunnel-table consistency);
* :mod:`~repro.verify.oracle` — the differential oracle comparing all
  computation paths, reporting the first divergence;
* :mod:`~repro.verify.campaign` — seeded fault-injection campaigns with
  divergence minimization (``repro verify`` on the CLI);
* :mod:`~repro.verify.audit` — post-hoc session audits for experiment
  runs (``--verify`` on ``repro experiment``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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
})
