"""AS-level topology substrate: graph, generation, inference, statistics."""

from .graph import ASGraph, link_key
from .snapshot import TopologySnapshot
from .delta import (
    AppliedDelta,
    DeltaOp,
    DeltaOpKind,
    TimedDelta,
    TopologyDelta,
    apply_each,
)
from .relationships import LinkType, Relationship, local_pref_for
from .generator import (
    AGARWAL_2004,
    APRIL_2009,
    GAO_2000,
    GAO_2003,
    GAO_2005,
    INTERNET_10K,
    PROFILES,
    SMALL,
    TINY,
    TopologyProfile,
    generate_named,
    generate_topology,
)
from .inference import infer_agarwal, infer_gao, inference_accuracy
from .serialization import dump, dumps, load, loads
from .visualize import (
    render_adjacency,
    render_path,
    render_routing_tree,
    render_tiers,
)
from .stats import (
    TopologySummary,
    bottom_degree_ases,
    degree_ccdf,
    degree_histogram,
    degree_sequence,
    mean_degree,
    summarize,
    top_degree_ases,
)

__all__ = [
    "ASGraph",
    "link_key",
    "TopologySnapshot",
    "TopologyDelta",
    "TimedDelta",
    "AppliedDelta",
    "DeltaOp",
    "DeltaOpKind",
    "apply_each",
    "LinkType",
    "Relationship",
    "local_pref_for",
    "TopologyProfile",
    "generate_topology",
    "generate_named",
    "PROFILES",
    "GAO_2000",
    "GAO_2003",
    "GAO_2005",
    "AGARWAL_2004",
    "APRIL_2009",
    "SMALL",
    "TINY",
    "INTERNET_10K",
    "infer_gao",
    "infer_agarwal",
    "inference_accuracy",
    "dump",
    "dumps",
    "load",
    "loads",
    "TopologySummary",
    "summarize",
    "degree_sequence",
    "degree_histogram",
    "degree_ccdf",
    "mean_degree",
    "top_degree_ases",
    "bottom_degree_ases",
    "render_adjacency",
    "render_tiers",
    "render_routing_tree",
    "render_path",
]
