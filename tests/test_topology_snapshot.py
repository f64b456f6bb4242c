"""TopologySnapshot: CSR fidelity, memoization, invalidation, shipping.

The snapshot is the hot-path representation every consumer (settling
kernel, pool fan-out, re-derivation, oracle) reads, so
these tests pin three contracts:

* **fidelity** — the per-node class tuples (and the flat arrays they
  are built from) reproduce the mutable graph's per-class adjacency
  exactly, order included, as ``customers``/``providers``/… expose it;
* **memoization** — ``ASGraph.snapshot()`` derives once per graph
  version: identity-stable across calls, invalidated by every mutation
  path (``add_link``, ``remove_link``, delta revert/reapply), and shared
  structurally by ``copy()``;
* **shipping** — pickling and the shared-memory segment carry only the
  three core arrays; the receiving side rebuilds the derived index and
  the per-node neighbour tuples, and an attach keeps no mapping open.
"""

import operator
import os
import pickle
import subprocess
import sys

import pytest

from repro.errors import TopologyError, UnknownASError
from repro.obs import get_registry
from repro.topology import (
    ASGraph,
    TopologyDelta,
    TopologySnapshot,
    generate_named,
)
from repro.topology.relationships import Relationship
from repro.topology.snapshot import ARRAY_TYPECODE, PHASE_CLASSES


def small_graph() -> ASGraph:
    return generate_named("small", seed=3)


# ---------------------------------------------------------------------------
# CSR fidelity
# ---------------------------------------------------------------------------

def test_asns_sorted_and_index_dense():
    graph = small_graph()
    snapshot = graph.snapshot()
    assert list(snapshot.asns) == sorted(graph.ases)
    assert snapshot.n == len(graph) == len(snapshot)
    for i, asn in enumerate(snapshot.asns):
        assert snapshot.index[asn] == i
        assert snapshot.index_of(asn) == i
        assert asn in snapshot


def class_segment(snapshot, asn, cls):
    """``asn``'s neighbours of one class, as ASNs, via ``class_nbrs``."""
    nbrs = snapshot.class_nbrs[cls][snapshot.index_of(asn)]
    assert isinstance(nbrs, tuple)
    return [snapshot.asns[i] for i in nbrs]


def neighbor_set(snapshot, asn):
    """All of ``asn``'s neighbours, as ASNs, whatever their class."""
    return {nb for cls in range(4) for nb in class_segment(snapshot, asn, cls)}


def tree_fields(tree):
    """A settled tree's columns and phase bounds, as plain values."""
    return (
        tree.asns, list(tree.order), list(tree.parent),
        tree.peer_from, tree.provider_from,
    )


def attached_copy(snapshot):
    """``snapshot`` published to shared memory and attached back."""
    from repro.session.pool import SharedSnapshot

    shared = SharedSnapshot.publish(snapshot)
    try:
        return SharedSnapshot.attach(shared.descriptor())
    finally:
        shared.close()


@pytest.mark.parametrize("route", ["built", "unpickled", "attached"])
def test_class_nbrs_match_graph_accessors(route):
    graph = small_graph()
    snapshot = {
        "built": lambda s: s,
        "unpickled": lambda s: pickle.loads(pickle.dumps(s)),
        "attached": attached_copy,
    }[route](TopologySnapshot.build(graph))
    # one array format, however the snapshot was obtained
    assert snapshot.cls_off.typecode == ARRAY_TYPECODE
    assert snapshot.cls_adj.typecode == ARRAY_TYPECODE
    assert snapshot.num_directed_edges == 2 * graph.num_links
    assert len(snapshot.class_nbrs) == 4
    for asn in graph.iter_ases():
        assert class_segment(snapshot, asn, 0) == graph.customers(asn)
        assert class_segment(snapshot, asn, 1) == graph.providers(asn)
        assert class_segment(snapshot, asn, 2) == graph.peers(asn)
        assert class_segment(snapshot, asn, 3) == graph.siblings(asn)


def assert_phase_nbrs_match_segments(snapshot):
    """Every node's per-phase neighbour tuples are its segments of the
    flat ``cls_off`` / ``cls_adj`` arrays for that phase's classes, in
    class order."""
    off, adj = snapshot.cls_off, snapshot.cls_adj
    assert len(snapshot.phase_nbrs) == len(PHASE_CLASSES)
    for views, phase in zip(snapshot.phase_nbrs, PHASE_CLASSES):
        for view, classes in zip(views, phase):
            assert len(view) == snapshot.n
            for i in range(snapshot.n):
                base = 4 * i
                expected = [
                    nb for c in classes
                    for nb in adj[off[base + c]:off[base + c + 1]]
                ]
                assert isinstance(view[i], tuple)
                assert list(view[i]) == expected, (i, classes)


def test_phase_nbrs_match_class_segments():
    # built with the snapshot: nothing has settled on it yet
    snapshot = TopologySnapshot.build(small_graph())
    assert_phase_nbrs_match_segments(snapshot)
    # the climb seeds and spreads across one link set: one view, shared
    seed, expand = snapshot.phase_nbrs[0]
    assert seed is expand


def test_phase_arrays_are_phase_nbrs_as_csr():
    pytest.importorskip("numpy")
    snapshot = small_graph().snapshot()
    arrays = snapshot.phase_arrays()
    assert arrays is snapshot.phase_arrays()  # built once
    for views, csrs in zip(snapshot.phase_nbrs, arrays):
        for view, (off, adj) in zip(views, csrs):
            assert len(off) == snapshot.n + 1
            for i, nbrs in enumerate(view):
                assert adj[off[i]:off[i + 1]].tolist() == list(nbrs)
    # the climb's one view is one CSR pair
    assert arrays[0][0] is arrays[0][1]


def test_path_translation_roundtrip():
    graph = small_graph()
    snapshot = graph.snapshot()
    path = tuple(graph.ases[:4])
    idx_path = snapshot.path_to_indices(path)
    assert tuple(snapshot.asns[i] for i in idx_path) == path
    with pytest.raises(UnknownASError):
        snapshot.path_to_indices((path[0], 999999))
    with pytest.raises(UnknownASError):
        snapshot.index_of(999999)


# ---------------------------------------------------------------------------
# memoization and invalidation
# ---------------------------------------------------------------------------

def counting_build(monkeypatch):
    """Patch both ways a graph makes a snapshot to record each made:
    ``("build", version)`` or ``("derive", version)``."""
    calls = []
    build = TopologySnapshot.build.__func__
    derive = TopologySnapshot.derive.__func__

    def patched_build(cls, graph):
        calls.append(("build", graph.version))
        return build(cls, graph)

    def patched_derive(cls, parent, graph, touched):
        calls.append(("derive", graph.version))
        return derive(cls, parent, graph, touched)

    monkeypatch.setattr(TopologySnapshot, "build", classmethod(patched_build))
    monkeypatch.setattr(
        TopologySnapshot, "derive", classmethod(patched_derive)
    )
    return calls


def kinds(calls):
    return [kind for kind, _ in calls]


def test_snapshot_memoized_per_version(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    first = graph.snapshot()
    assert graph.snapshot() is first
    assert graph.snapshot() is first
    assert kinds(calls) == ["build"]
    assert first.version == graph.version


def test_add_and_remove_link_invalidate(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    before = graph.snapshot()
    a, b, _ = next(graph.iter_links())
    graph.remove_link(a, b)
    after_remove = graph.snapshot()
    assert after_remove is not before
    assert after_remove.version == graph.version
    assert b not in neighbor_set(after_remove, a)
    graph.add_link(a, b, Relationship.PEER)
    after_add = graph.snapshot()
    assert after_add is not after_remove
    assert b in class_segment(after_add, a, 2)
    # one snapshot per version, built or derived: each link event is
    # patched onto its parent version's
    assert kinds(calls) == ["build", "derive", "derive"]
    assert after_add.asns is before.asns


def test_delta_revert_and_reapply_invalidate(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    baseline = graph.snapshot()
    a, b, _ = next(graph.iter_links())
    applied = TopologyDelta.link_down(a, b).apply(graph)
    during = graph.snapshot()
    assert during is not baseline
    assert b not in neighbor_set(during, a)

    applied.revert()
    reverted = graph.snapshot()
    # the revert restores the version and with it the memo of that
    # version: nothing is made again
    assert reverted is baseline
    assert reverted.version == baseline.version
    assert reverted.asns == baseline.asns
    for asn in graph.iter_ases():
        for cls in range(4):
            assert set(class_segment(reverted, asn, cls)) == set(
                class_segment(baseline, asn, cls)
            )

    applied.reapply()
    reapplied = graph.snapshot()
    assert reapplied is during
    for asn in graph.iter_ases():
        assert neighbor_set(reapplied, asn) == neighbor_set(during, asn)
    # one snapshot per version, built or derived
    assert calls == [("build", baseline.version), ("derive", during.version)]


def test_zero_mutation_serves_same_snapshot(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    snapshot = graph.snapshot()
    graph.add_as(next(iter(graph.iter_ases())))  # no-op: AS already present
    assert graph.snapshot() is snapshot
    assert kinds(calls) == ["build"]


def test_copy_shares_snapshot_until_either_side_mutates(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    snapshot = graph.snapshot()
    clone = graph.copy()
    assert clone.snapshot() is snapshot  # immutable → safely shared
    a, b, _ = next(clone.iter_links())
    clone.remove_link(a, b)
    assert clone.snapshot() is not snapshot
    assert graph.snapshot() is snapshot  # original untouched
    # one snapshot per version, built or derived: the clone's from the
    # memo it shares
    assert kinds(calls) == ["build", "derive"]


def test_without_as_derives_fresh_snapshot(monkeypatch):
    calls = counting_build(monkeypatch)
    graph = small_graph()
    graph.snapshot()
    victim = graph.ases[len(graph) // 2]
    reduced = graph.without_as(victim)
    snapshot = reduced.snapshot()
    assert victim not in snapshot
    assert snapshot.n == len(graph) - 1
    assert kinds(calls) == ["build", "build"]  # new AS set: no parent


#: the unpatched build, for comparisons outside the recorded calls
FRESH_BUILD = TopologySnapshot.build


def assert_fresh(graph):
    """The memo equals a fresh build field for field, and keeps
    ``seed[i] is expand[i]`` exactly where the build has it."""
    memo, fresh = graph.snapshot(), FRESH_BUILD(graph)
    for name in TopologySnapshot.__slots__:
        if name != "_np_phases":
            assert getattr(memo, name) == getattr(fresh, name), name
    for (seed, expand), (fresh_seed, fresh_expand) in zip(
        memo.phase_nbrs, fresh.phase_nbrs
    ):
        assert list(map(operator.is_, seed, expand)) == list(
            map(operator.is_, fresh_seed, fresh_expand)
        )
    return memo


def test_copy_and_original_each_derive_their_own(monkeypatch):
    """The clone shares the memo and the version counter: both mint the
    same next version for different link events, and each derives its
    own from the shared parent."""
    calls = counting_build(monkeypatch)
    graph = small_graph()
    shared = graph.snapshot()
    clone = graph.copy()
    (a, b, _), (c, d, _) = sorted(graph.iter_links())[:2]
    graph.remove_link(a, b)
    clone.remove_link(c, d)
    assert graph.version == clone.version
    mine, theirs = assert_fresh(graph), assert_fresh(clone)
    assert b not in neighbor_set(mine, a) and d in neighbor_set(mine, c)
    assert d not in neighbor_set(theirs, c) and b in neighbor_set(theirs, a)
    assert mine.asns is shared.asns is theirs.asns
    assert kinds(calls) == ["build", "derive", "derive"]


def test_revert_then_new_apply_derives_from_the_restored_parent(
    monkeypatch,
):
    """After a revert the snapshot of the abandoned version stays aside;
    a different link event derives from the restored parent, not it."""
    calls = counting_build(monkeypatch)
    graph = small_graph()
    baseline = graph.snapshot()
    (a, b, _), (c, d, _) = sorted(graph.iter_links())[:2]
    first = TopologyDelta.link_down(a, b).apply(graph)
    abandoned = graph.snapshot()
    first.revert()
    assert graph.snapshot() is baseline
    TopologyDelta.link_down(c, d).apply(graph)
    after = assert_fresh(graph)
    assert after is not abandoned
    assert b in neighbor_set(after, a) and d not in neighbor_set(after, c)
    assert kinds(calls) == ["build", "derive", "derive"]


def test_as_events_and_failed_applies_keep_the_full_build(monkeypatch):
    """Several steps at once (an AS down) build; a failed apply restores
    the version and its memo; its revert gets the memo back."""
    calls = counting_build(monkeypatch)
    graph = small_graph()
    baseline = graph.snapshot()
    victim = max(graph.ases, key=graph.degree)  # several links: steps
    with pytest.raises(TopologyError):
        TopologyDelta.compose(
            TopologyDelta.as_down(victim),
            TopologyDelta.link_down(victim, victim),
        ).apply(graph)
    assert graph.snapshot() is baseline
    applied = TopologyDelta.as_down(victim).apply(graph)
    assert not neighbor_set(assert_fresh(graph), victim)
    applied.revert()
    assert graph.snapshot() is baseline
    assert kinds(calls) == ["build", "build"]


def test_derived_snapshots_are_counted():
    builds = get_registry().counter("repro_topology_snapshot_builds_total")
    derived = get_registry().counter("repro_topology_snapshot_derived_total")
    graph = small_graph()
    graph.snapshot()
    a, b, _ = next(graph.iter_links())
    graph.remove_link(a, b)
    graph.snapshot()
    assert (builds.value, derived.value) == (2, 1)


# ---------------------------------------------------------------------------
# shipping
# ---------------------------------------------------------------------------

def test_pickle_roundtrip_rebuilds_derived_state():
    graph = small_graph()
    snapshot = graph.snapshot()
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.version == snapshot.version
    assert clone.asns == snapshot.asns
    assert clone.index == snapshot.index
    assert list(clone.cls_off) == list(snapshot.cls_off)
    assert list(clone.cls_adj) == list(snapshot.cls_adj)
    assert clone.class_nbrs == snapshot.class_nbrs
    assert_phase_nbrs_match_segments(clone)
    assert clone.phase_nbrs == snapshot.phase_nbrs


def test_pickle_does_not_ship_phase_nbrs():
    snapshot = small_graph().snapshot()
    _, state = snapshot.__reduce__()
    assert len(state) == 4  # version + the three core arrays
    assert not any(isinstance(field, tuple) for field in state)


def test_snapshot_pickle_smaller_than_graph():
    graph = small_graph()
    assert len(pickle.dumps(graph.snapshot())) < len(pickle.dumps(graph))


def test_graph_pickle_does_not_carry_memo():
    graph = small_graph()
    graph.snapshot()
    clone = pickle.loads(pickle.dumps(graph))
    assert clone._snapshot is None
    assert clone.snapshot().asns == graph.snapshot().asns


# ---------------------------------------------------------------------------
# legacy accessors: still fresh copies (regression for external callers)
# ---------------------------------------------------------------------------

def test_graph_accessors_still_return_fresh_lists():
    graph = small_graph()
    asn = graph.ases[0]
    for accessor in (
        graph.neighbors, graph.customers, graph.providers,
        graph.peers, graph.siblings,
    ):
        first = accessor(asn)
        assert isinstance(first, list)
        assert first is not accessor(asn)
        expected = list(first)
        first.append(-1)  # mutating the copy must not corrupt the graph
        assert accessor(asn) == expected


# ---------------------------------------------------------------------------
# shared-memory publication: the pool transport (repro.session.pool)
# ---------------------------------------------------------------------------

class TestSharedSnapshot:
    def _published(self):
        from repro.session.pool import SharedSnapshot

        graph = small_graph()
        snapshot = graph.snapshot()
        return snapshot, SharedSnapshot.publish(snapshot)

    def test_requires_shared_memory(self):
        from repro.session.pool import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no usable shared memory in this environment")

    def test_attach_reconstructs_identical_arrays(self):
        snapshot = small_graph().snapshot()
        rebuilt = attached_copy(snapshot)
        assert rebuilt.version == snapshot.version
        assert rebuilt.asns == snapshot.asns
        assert rebuilt.index == snapshot.index
        assert list(rebuilt.cls_off) == list(snapshot.cls_off)
        assert list(rebuilt.cls_adj) == list(snapshot.cls_adj)
        assert rebuilt.class_nbrs == snapshot.class_nbrs

    def test_attached_snapshot_rebuilds_phase_nbrs(self):
        """The segment carries the three core arrays only; the attaching
        side rebuilds the per-node neighbour tuples from its copies."""
        from repro.session.pool import SharedSnapshot

        snapshot, shared = self._published()
        lengths = shared.descriptor().lengths
        assert lengths == (
            len(snapshot.asns), len(snapshot.cls_off), len(snapshot.cls_adj)
        )
        assert shared.nbytes == 8 * sum(lengths)
        try:
            rebuilt = SharedSnapshot.attach(shared.descriptor())
        finally:
            shared.close()
        assert rebuilt.phase_nbrs is not snapshot.phase_nbrs
        assert_phase_nbrs_match_segments(rebuilt)
        assert rebuilt.phase_nbrs == snapshot.phase_nbrs

    def test_attached_tables_byte_equal(self):
        from repro.bgp.kernels.scalar import compute_routes_snapshot

        snapshot = small_graph().snapshot()
        rebuilt = attached_copy(snapshot)
        for destination in snapshot.asns[:5]:
            reference = compute_routes_snapshot(snapshot, destination)
            attached = compute_routes_snapshot(rebuilt, destination)
            assert tree_fields(reference) == tree_fields(attached)

    def test_descriptor_is_o1_in_topology_size(self):
        """The ship payload must not scale with the graph — that is the
        whole point of the shared-memory fan-out."""
        from repro.session.pool import SharedSnapshot

        small_snapshot = small_graph().snapshot()
        big_snapshot = generate_named("verify-500", seed=7).snapshot()
        small_shared = SharedSnapshot.publish(small_snapshot)
        big_shared = SharedSnapshot.publish(big_snapshot)
        try:
            small_ship = len(pickle.dumps(small_shared.descriptor()))
            big_ship = len(pickle.dumps(big_shared.descriptor()))
            assert big_shared.nbytes > 3 * small_shared.nbytes
            assert big_ship < 512
            assert abs(big_ship - small_ship) < 64
            assert big_ship < big_shared.nbytes / 100
        finally:
            small_shared.close()
            big_shared.close()

    def test_owner_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        _, shared = self._published()
        name = shared.descriptor().name
        shared.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        shared.close()  # idempotent

    def test_owner_close_tolerates_a_name_already_gone(self):
        from multiprocessing import shared_memory

        _, shared = self._published()
        shared_memory.SharedMemory(name=shared.descriptor().name).unlink()
        shared.close()

    def test_attached_snapshot_outlives_the_segment(self):
        """An attach copies the arrays out: what it returns settles the
        same tables after the owner has closed and unlinked."""
        from repro.bgp.kernels.scalar import compute_routes_snapshot
        from repro.session.pool import SharedSnapshot

        snapshot, shared = self._published()
        rebuilt = SharedSnapshot.attach(shared.descriptor())
        shared.close()  # owner gone, segment name unlinked
        destination = snapshot.asns[0]
        reference = compute_routes_snapshot(snapshot, destination)
        attached = compute_routes_snapshot(rebuilt, destination)
        assert tree_fields(reference) == tree_fields(attached)

    def test_attach_unknown_segment_raises(self):
        from repro.session.pool import (
            SharedSnapshot,
            SharedSnapshotDescriptor,
        )

        descriptor = SharedSnapshotDescriptor(
            name="repro_no_such_segment", version=0, lengths=(1, 5, 1),
        )
        with pytest.raises(FileNotFoundError):
            SharedSnapshot.attach(descriptor)

    def test_fresh_interpreter_attach_skips_numpy_and_the_mapping(self):
        """A pool worker's attach: in a fresh interpreter it leaves numpy
        unimported and no mapping of the segment behind, and the snapshot
        it returns settles."""
        snapshot, shared = self._published()
        descriptor = shared.descriptor()
        # Not a pool child, so the interpreter would start its own
        # resource tracker, which unlinks at exit any segment it saw
        # attached; stub registration out.
        script = (
            "import os, sys\n"
            "from multiprocessing import resource_tracker\n"
            "resource_tracker.register = lambda name, rtype: None\n"
            "from repro.bgp.kernels.scalar import compute_routes_snapshot\n"
            "from repro.session.pool import (\n"
            "    SharedSnapshot, SharedSnapshotDescriptor)\n"
            f"descriptor = {descriptor!r}\n"
            "snapshot = SharedSnapshot.attach(descriptor)\n"
            "compute_routes_snapshot(snapshot, snapshot.asns[0])\n"
            "assert 'numpy' not in sys.modules\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        assert descriptor.name.lstrip('/') not in maps.read()\n"
            "print(snapshot.n)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        try:
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=60, env=env,
            )
        finally:
            shared.close()
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(snapshot.n)]
