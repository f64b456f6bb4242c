"""AS-level topology substrate: graph, generation, inference, statistics."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graph": ("ASGraph", "link_key"),
    "snapshot": ("TopologySnapshot",),
    "delta": (
        "TopologyDelta", "TimedDelta", "AppliedDelta", "DeltaOp",
        "DeltaOpKind",
    ),
    "relationships": ("LinkType", "Relationship"),
    "generator": (
        "TopologyProfile", "generate_topology", "generate_named", "PROFILES",
        "GAO_2000", "GAO_2003", "GAO_2005", "AGARWAL_2004", "APRIL_2009",
        "SMALL", "TINY", "INTERNET_10K",
    ),
    "inference": ("infer_gao", "infer_agarwal", "inference_accuracy"),
    "serialization": ("dump", "dumps", "load", "loads"),
    "stats": (
        "TopologySummary", "summarize", "degree_sequence", "degree_ccdf",
        "mean_degree", "top_degree_ases", "bottom_degree_ases",
    ),
})
