"""Property-based tests for the live MIRO runtime under random failures.

Invariant: after any sequence of link failures/restorations, every
*live* tunnel is still sound — its via segment is consistent with the
upstream's current route and its path is still learnable at the
downstream AS — as ``check_tunnel_consistency`` judges it, from the live
graph and ``compute_routes_reference`` alone.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NegotiationError
from repro.miro import ExportPolicy, MiroRuntime
from repro.session import SimulationSession
from repro.topology import ASGraph, TopologyDelta
from repro.verify.invariants import check_tunnel_consistency


@st.composite
def scenarios(draw):
    """A random hierarchy + a random failure/restore schedule."""
    n = draw(st.integers(min_value=4, max_value=10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    graph = ASGraph()
    graph.add_as(1)
    for asn in range(2, n + 1):
        # one provider, often two: a single-homed hierarchy has no
        # alternate route anywhere, hence nothing to negotiate
        count = 2 if asn >= 3 and rng.random() < 0.6 else 1
        for provider in rng.sample(range(1, asn), count):
            graph.add_customer_link(provider, asn)
        if asn >= 3 and rng.random() < 0.4:
            other = rng.randint(2, asn - 1)
            if other != asn and not graph.has_link(other, asn):
                graph.add_peer_link(other, asn)
    n_events = draw(st.integers(min_value=1, max_value=4))
    return graph, rng.randrange(10 ** 6), n_events


def _negotiate_some(runtime, graph, destination):
    """A tunnel from every source, negotiated with its next hop."""
    table = runtime.session.compute(destination)
    for source in list(graph.iter_ases()):
        path = table.default_path(source)
        if path is None or len(path) < 3:
            continue
        try:
            runtime.establish(
                source, path[1], destination, ExportPolicy.FLEXIBLE
            )
        except NegotiationError:
            continue


@given(scenarios())
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
def test_live_tunnels_always_sound(scenario):
    graph, seed, n_events = scenario
    rng = random.Random(seed)
    runtime = MiroRuntime(graph)
    _negotiate_some(runtime, graph, 1)

    links = list(graph.iter_links())
    down = []
    for _ in range(n_events):
        if down and rng.random() < 0.4:
            a, b, _ = down.pop()
            runtime.restore_link(a, b)
        else:
            candidates = [l for l in links if l not in down]
            if not candidates:
                continue
            link = rng.choice(candidates)
            down.append(link)
            runtime.fail_link(link[0], link[1])
        # the invariant: every surviving tunnel is still valid
        assert check_tunnel_consistency(runtime) == []


@given(scenarios())
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
def test_sound_when_the_graph_changes_behind_the_runtime(scenario):
    """The same schedules, but nobody tells the runtime: the events go
    through a session's ``mutate`` or a bare ``TopologyDelta.apply``,
    and ``live_tunnels()`` is only read afterwards."""
    graph, seed, n_events = scenario
    rng = random.Random(seed)
    session = SimulationSession(graph, parallel=False)
    runtime = MiroRuntime(graph, session=session)
    _negotiate_some(runtime, graph, 1)
    before = len(runtime.live_tunnels())

    links = list(graph.iter_links())
    down = []
    for _ in range(n_events):
        if down and rng.random() < 0.4:
            down.pop().revert()
            continue
        candidates = [l for l in links if graph.has_link(l[0], l[1])]
        if not candidates:
            continue
        a, b, _ = rng.choice(candidates)
        delta = TopologyDelta.link_down(a, b)
        if rng.random() < 0.5:
            down.append(session.mutate(delta.apply))
        else:
            down.append(delta.apply(graph))
        if rng.random() < 0.5:
            continue    # let several events pile up before anyone looks
        assert check_tunnel_consistency(runtime) == []
    assert check_tunnel_consistency(runtime) == []
    assert len(runtime.live_tunnels()) + len(runtime.torn_down) == before
