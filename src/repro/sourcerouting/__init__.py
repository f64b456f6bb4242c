"""Source-routing baseline used in the Table 5.2 comparison."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "reachability": (
        "reachable_avoiding", "reachable_set_avoiding",
        "valley_free_reachable_avoiding", "cut_vertices_for_pair",
    ),
})
