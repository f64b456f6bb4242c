"""Data plane: prefixes, longest-prefix match, packets, encapsulation,
classifiers, and hash-based flow splitting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "prefix": (
        "IPv4Prefix", "PrefixTable", "parse_ipv4", "format_ipv4",
        "prefix_for_as",
    ),
    "packet": ("IPHeader", "FlowKey", "Packet"),
    "classifier": (
        "MatchRule", "ClassifierEntry", "Classifier", "HashSplitter",
        "flow_hash",
    ),
    "forwarding": ("ASLevelForwarder", "ForwardingTrace", "address_in_as"),
})
