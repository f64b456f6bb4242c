"""Property-based tests (hypothesis) on the core data structures and
invariants: longest-prefix match, route preference, topology round-trips,
valley-freeness of computed routes, decision determinism, and flow-hash
stability."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp import (
    OriginType,
    Route,
    RouteClass,
    RouterRoute,
    SessionType,
    compute_routes,
    decide,
)
from repro.bgp.policy import is_valley_free
from repro.dataplane import (
    FlowKey,
    HashSplitter,
    IPv4Prefix,
    Packet,
    PrefixTable,
    flow_hash,
)
from repro.policylang import compile_aspath_regex, path_to_string
from repro.topology import ASGraph, dumps, loads

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=2 ** 32 - 1)
prefix_lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw):
    address = draw(addresses)
    length = draw(prefix_lengths)
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return IPv4Prefix(address & mask, length)


@st.composite
def random_hierarchies(draw):
    """A random hierarchical AS graph: links only from lower- to
    higher-numbered ASes, so the customer→provider relation is acyclic;
    AS 1 ultimately connects everyone (each AS links to someone below)."""
    n = draw(st.integers(min_value=2, max_value=14))
    graph = ASGraph()
    graph.add_as(1)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    for asn in range(2, n + 1):
        provider = rng.randint(1, asn - 1)
        graph.add_customer_link(provider, asn)
        # occasionally add a peer link inside the same "generation"
        if asn >= 3 and rng.random() < 0.3:
            other = rng.randint(2, asn - 1)
            if other != asn and not graph.has_link(other, asn):
                graph.add_peer_link(other, asn)
    return graph


# ---------------------------------------------------------------------------
# longest-prefix match
# ---------------------------------------------------------------------------

@given(st.lists(prefixes(), min_size=1, max_size=20), addresses)
@settings(max_examples=60)
def test_lpm_matches_bruteforce(prefix_list, address):
    table = PrefixTable()
    values = {}
    for i, prefix in enumerate(prefix_list):
        table.insert(prefix, i)
        values[prefix] = i  # later insert replaces earlier
    hit = table.lookup(address)
    matching = [p for p in values if p.contains(address)]
    if not matching:
        assert hit is None
    else:
        longest = max(matching, key=lambda p: p.length)
        assert hit is not None
        assert hit[0].length == longest.length
        assert hit[1] == values[longest]


@given(st.lists(prefixes(), min_size=1, max_size=20, unique=True))
@settings(max_examples=40)
def test_prefix_table_items_round_trip(prefix_list):
    table = PrefixTable()
    for i, prefix in enumerate(prefix_list):
        table.insert(prefix, i)
    assert {p for p, _ in table.items()} == set(prefix_list)
    assert len(table) == len(prefix_list)


# ---------------------------------------------------------------------------
# route preference is a strict weak order
# ---------------------------------------------------------------------------

route_classes = st.sampled_from(
    [RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER]
)


@st.composite
def as_routes(draw):
    length = draw(st.integers(min_value=2, max_value=6))
    path = tuple(draw(st.permutations(range(1, 20)))[:length])
    return Route(path, draw(route_classes))


@given(as_routes(), as_routes(), as_routes())
@settings(max_examples=60)
def test_preference_transitive(a, b, c):
    if a.preference_key() >= b.preference_key() >= c.preference_key():
        assert a.preference_key() >= c.preference_key()


@given(as_routes(), as_routes())
@settings(max_examples=60)
def test_preference_antisymmetric(a, b):
    if a.preference_key() == b.preference_key():
        # keys are injective up to (class, length, path)
        assert a.path == b.path and a.route_class is b.route_class


# ---------------------------------------------------------------------------
# topology round-trips and routing invariants
# ---------------------------------------------------------------------------

@given(random_hierarchies())
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
def test_serialization_round_trip(graph):
    assert sorted(loads(dumps(graph)).iter_links()) == sorted(graph.iter_links())


@given(random_hierarchies())
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
def test_routes_valley_free_and_consistent(graph):
    destination = 1
    table = compute_routes(graph, destination)
    assert len(table.routed_ases()) == len(graph)  # AS 1 reaches everyone
    for asn, route in table.items():
        assert graph.path_exists(route.path)
        assert is_valley_free(graph, route.path)
        if route.length > 0:
            nxt = table.best(route.path[1])
            assert nxt.path == route.path[1:]


@given(random_hierarchies())
@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
def test_candidates_contain_best(graph):
    table = compute_routes(graph, 1)
    for asn in graph.iter_ases():
        best = table.best(asn)
        assert best is not None
        assert best.path in {c.path for c in table.candidates(asn)}


# ---------------------------------------------------------------------------
# decision process determinism
# ---------------------------------------------------------------------------

@st.composite
def router_routes(draw):
    return RouterRoute(
        prefix="10.0.0.0/8",
        as_path=tuple(draw(st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=4,
            unique=True,
        ))),
        local_pref=draw(st.sampled_from([100, 200, 400])),
        origin=draw(st.sampled_from(list(OriginType))),
        med=draw(st.integers(min_value=0, max_value=3)),
        session=draw(st.sampled_from(list(SessionType))),
        igp_distance=draw(st.integers(min_value=0, max_value=5)),
        router_id=draw(st.integers(min_value=1, max_value=9)),
        peer_address=(10, 0, 0, draw(st.integers(min_value=1, max_value=9))),
    )


@given(st.lists(router_routes(), min_size=1, max_size=8))
@settings(max_examples=60)
def test_decision_deterministic_and_sound(candidates):
    winner1, _ = decide(candidates)
    winner2, _ = decide(list(reversed(candidates)))
    assert winner1 == winner2
    assert winner1 in candidates
    # nothing beats the winner on local-pref
    assert winner1.local_pref == max(c.local_pref for c in candidates)


# ---------------------------------------------------------------------------
# hash splitting
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
)
@settings(max_examples=40)
def test_flow_hash_stable_per_flow(src_port, dst_port):
    flow = FlowKey(src_port=src_port, dst_port=dst_port)
    splitter = HashSplitter([("a", 1.0), ("b", 1.0), ("c", 1.0)])
    packets = [Packet.make(1, 2, flow=flow) for _ in range(3)]
    assert len({flow_hash(p) for p in packets}) == 1
    assert len({splitter.pick(p) for p in packets}) == 1


# ---------------------------------------------------------------------------
# AS-path regex boundary semantics
# ---------------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=1, max_value=999), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=999),
)
@settings(max_examples=60)
def test_aspath_underscore_matches_exact_member(path, target):
    regex = compile_aspath_regex(f"_{target}_")
    assert bool(regex.search(path_to_string(path))) == (target in path)
