"""Kernel-backend registry: selection, dispatch, and byte-equality.

Covers the registry mechanics (registration rules, selection precedence:
an explicit argument, then ``REPRO_KERNEL``, then scalar; graceful
fallback for unavailable backends), the batched wave kernel's
byte-equality with the scalar kernel (values *and* dict insertion order,
single destination and whole sweeps, before and after topology deltas),
the packed integer sort key against the ``Route`` decision process, the
oracle's registry enumeration (a deliberately wrong backend must be
caught by a fault campaign), and the CLI / session-pool plumbing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import kernels
from repro.bgp.kernels import KernelBackend, temporary_kernel
from repro.bgp.kernels.batched import (
    PACK_CLASS_SHIFT,
    PACK_LENGTH_SHIFT,
    numpy_available,
    pack_candidate_key,
    settle_batched,
)
from repro.bgp.route import Route, RouteClass
from repro.bgp.routing import compute_routes, compute_routes_snapshot
from repro.errors import KernelError
from repro.session import SimulationSession
from repro.topology.generator import SMALL, TINY, generate_topology
from repro.topology.snapshot import shared_memory_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy (the [accel] extra) not installed"
)


def _settle_via_scalar(graph, destination):
    return compute_routes_snapshot(graph.snapshot(), destination)


def _assert_tables_byte_equal(expected, actual):
    assert list(expected) == list(actual)  # values AND insertion order
    for asn, route in expected.items():
        got = actual[asn]
        assert got.path == route.path, asn
        assert got.route_class is route.route_class, asn


# ----------------------------------------------------------------------
# registry mechanics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered_scalar_first(self):
        names = kernels.kernel_names()
        assert names[0] == "scalar"
        assert "batched" in names

    def test_get_unknown_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            kernels.get("no-such-kernel")

    def test_duplicate_registration_raises_unless_replace(self):
        backend = KernelBackend(name="dup", settle=_settle_via_scalar)
        with temporary_kernel(backend):
            with pytest.raises(KernelError, match="already registered"):
                kernels.register(KernelBackend(name="dup", settle=len))
            replacement = KernelBackend(name="dup", settle=len)
            assert kernels.register(replacement, replace=True) is replacement

    def test_scalar_cannot_be_unregistered(self):
        with pytest.raises(KernelError, match="cannot be unregistered"):
            kernels.unregister("scalar")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KernelError):
            kernels.unregister("no-such-kernel")

    def test_describe_is_json_ready(self):
        description = kernels.describe()
        json.dumps(description)  # must serialize
        names = [b["name"] for b in description["backends"]]
        assert description["active"] in names
        assert description["default"] == kernels.DEFAULT_KERNEL
        batched_entry = next(
            b for b in description["backends"] if b["name"] == "batched"
        )
        assert batched_entry["requires"] == ["numpy"]
        assert batched_entry["batch"] is True
        assert set(batched_entry) == {
            "name", "available", "batch", "requires", "description",
        }


class TestSelectionPrecedence:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        assert kernels.resolve().name == kernels.DEFAULT_KERNEL

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve().name in ("batched", "scalar")
        if numpy_available():
            assert kernels.resolve().name == "batched"

    def test_explicit_argument_overrides_everything(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve("scalar").name == "scalar"
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "scalar")
        assert kernels.resolve("batched").name in ("batched", "scalar")
        if numpy_available():
            assert kernels.resolve("batched").name == "batched"

    def test_unavailable_backend_falls_back_to_scalar(self, monkeypatch):
        backend = KernelBackend(
            name="phantom", settle=_settle_via_scalar,
            requires=("nothing-installable",), available=lambda: False,
        )
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "phantom")
        with temporary_kernel(backend):
            assert kernels.resolve().name == "scalar"

    def test_unknown_env_kernel_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "no-such-kernel")
        with pytest.raises(KernelError):
            kernels.resolve()


class TestDispatch:
    def test_settle_matches_front_door(self, tiny_graph):
        destination = tiny_graph.ases[0]
        best = kernels.settle(tiny_graph.snapshot(), destination)
        table = compute_routes(tiny_graph, destination)
        _assert_tables_byte_equal(dict(table.items()), best)

    def test_settle_many_loops_backends_without_batch_entry(self, tiny_graph):
        snapshot = tiny_graph.snapshot()
        destinations = tiny_graph.ases[:4] + tiny_graph.ases[:2]  # dupes
        swept = kernels.settle_many(snapshot, destinations, kernel="scalar")
        assert sorted(swept) == sorted(set(destinations))
        for destination in set(destinations):
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                swept[destination],
            )


# ----------------------------------------------------------------------
# batched kernel byte-equality
# ----------------------------------------------------------------------
@needs_numpy
class TestBatchedByteEquality:
    def test_every_destination_on_tiny(self, tiny_graph):
        snapshot = tiny_graph.snapshot()
        for destination in tiny_graph.ases:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                settle_batched(snapshot, destination),
            )

    def test_sweep_on_small(self, small_graph):
        snapshot = small_graph.snapshot()
        destinations = small_graph.ases
        swept = kernels.settle_many(
            snapshot, destinations, kernel="batched"
        )
        for destination in destinations:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                swept[destination],
            )

    def test_equality_survives_topology_deltas(self):
        graph = generate_topology(SMALL, seed=3)
        destinations = graph.ases[:6]
        a, b, _rel = next(graph.iter_links())
        graph.remove_link(a, b)
        snapshot = graph.snapshot()
        for destination in destinations:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                settle_batched(snapshot, destination),
            )

    def test_no_numpy_raises_kernel_error(self, tiny_graph, monkeypatch):
        from repro.bgp.kernels import batched as batched_module

        find_spec = batched_module.importlib.util.find_spec
        monkeypatch.setattr(
            batched_module.importlib.util, "find_spec",
            lambda name, *rest: (
                None if name == "numpy" else find_spec(name, *rest)
            ),
        )
        with pytest.raises(KernelError, match="requires numpy"):
            settle_batched(tiny_graph.snapshot(), tiny_graph.ases[0])
        # and resolution degrades to scalar instead of failing
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve().name == "scalar"

    def test_numpy_is_imported_at_the_first_batched_settle(self):
        """A process on the scalar kernel — every server — never loads it."""
        script = (
            "import sys, repro, repro.service\n"
            "from repro.bgp import kernels\n"
            "from repro.topology.generator import generate_named\n"
            "snapshot = generate_named('tiny', seed=1).snapshot()\n"
            "kernels.settle(snapshot, snapshot.asns[0])\n"
            "assert 'numpy' not in sys.modules\n"
            "if kernels.get('batched').is_available():\n"
            "    kernels.settle(snapshot, snapshot.asns[0], kernel='batched')\n"
            "    assert 'numpy' in sys.modules\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# packed integer sort key vs the Route decision process
# ----------------------------------------------------------------------
class TestPackedKey:
    CANDIDATE_CLASSES = [
        RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER,
    ]

    @given(
        cls_a=st.sampled_from(CANDIDATE_CLASSES),
        cls_b=st.sampled_from(CANDIDATE_CLASSES),
        len_a=st.integers(min_value=1, max_value=2**20),
        len_b=st.integers(min_value=1, max_value=2**20),
        par_a=st.integers(min_value=0, max_value=2**24 - 1),
        par_b=st.integers(min_value=0, max_value=2**24 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_packed_order_is_decision_order(
        self, cls_a, cls_b, len_a, len_b, par_a, par_b
    ):
        key_a = pack_candidate_key(cls_a.value, len_a, par_a)
        key_b = pack_candidate_key(cls_b.value, len_b, par_b)
        # the settling decision order: higher class, then shorter, then
        # smaller parent index (settled equal-length tails compare as
        # their holder index)
        rank_a = (-cls_a.preference_rank, len_a, par_a)
        rank_b = (-cls_b.preference_rank, len_b, par_b)
        assert (key_a < key_b) == (rank_a < rank_b)
        assert (key_a == key_b) == (rank_a == rank_b)

    def test_bit_fields_do_not_overlap(self):
        # maximal parent index must not bleed into the length field
        key = pack_candidate_key(RouteClass.PROVIDER.value, 1, 2**24 - 1)
        assert (key >> PACK_LENGTH_SHIFT) & ((1 << 24) - 1) == 1
        assert key >> PACK_CLASS_SHIFT == RouteClass.ORIGIN.value - 1

    def test_matches_route_preference_on_settled_candidates(self, tiny_graph):
        """Grounded check: packed order == ``Route.preference_key`` order.

        Builds real candidate populations the way the kernel sees them —
        ``(v,) + P(u)`` for settled parents ``u`` — and asserts that
        ascending packed keys equals descending route preference.  This
        is the property the batched kernel's per-wave argmin rests on,
        including the export-policy edge that only the candidate classes
        (never ORIGIN) occur.
        """
        snapshot = tiny_graph.snapshot()
        index_of = snapshot.index_of
        for destination in tiny_graph.ases[:8]:
            table = compute_routes_snapshot(snapshot, destination)
            routes = list(table.values())
            for target in tiny_graph.ases[:6]:
                if target == destination:
                    continue
                candidates = []
                for parent_route in routes:
                    parent = parent_route.holder
                    if parent == target or parent_route.contains(target):
                        continue
                    for cls in self.CANDIDATE_CLASSES:
                        candidate = Route(
                            (target,) + parent_route.path, cls
                        )
                        candidates.append((
                            pack_candidate_key(
                                cls.value,
                                candidate.length,
                                index_of(parent),
                            ),
                            candidate,
                        ))
                by_packed = sorted(candidates, key=lambda c: c[0])
                by_preference = sorted(
                    candidates,
                    key=lambda c: c[1].preference_key(),
                    reverse=True,
                )
                assert [c[1].path for c in by_packed] \
                    == [c[1].path for c in by_preference]


# ----------------------------------------------------------------------
# oracle enumeration: a wrong backend must be caught
# ----------------------------------------------------------------------
def _settle_toy_wrong(snapshot, destination):
    """Deliberately wrong backend: claims a direct link for one AS."""
    best = dict(compute_routes_snapshot(snapshot, destination))
    for asn, route in best.items():
        if asn != destination and route.length >= 2:
            best[asn] = Route((asn, destination), route.route_class)
            break
    return best


class TestOracleEnumeration:
    def test_oracle_checks_every_registered_backend(self, tiny_graph):
        from repro.verify.oracle import DifferentialOracle

        oracle = DifferentialOracle(tiny_graph, tiny_graph.ases[:3])
        result = oracle.check()
        assert result.ok

    def test_wrong_toy_backend_is_caught_by_campaign(self):
        from repro.verify.campaign import run_campaign

        backend = KernelBackend(name="toy-wrong", settle=_settle_toy_wrong)
        with temporary_kernel(backend):
            outcome = run_campaign(
                lambda: generate_topology(TINY, seed=5),
                seed=11, n_events=2, n_destinations=4,
                include_pool=False, check_invariants=False, minimize=False,
            )
        assert not outcome.ok
        assert any(
            d.mode == "kernel:toy-wrong" for d in outcome.divergences
        ), [d.mode for d in outcome.divergences]

    def test_clean_campaign_passes_with_all_builtin_backends(self):
        from repro.verify.campaign import run_campaign

        outcome = run_campaign(
            lambda: generate_topology(TINY, seed=5),
            seed=11, n_events=2, n_destinations=4,
            include_pool=False, check_invariants=False, minimize=False,
        )
        assert outcome.ok, outcome.divergences


# ----------------------------------------------------------------------
# CLI and session plumbing
# ----------------------------------------------------------------------
class TestCliKernel:
    def test_route_output_identical_across_kernels(self, capsys, monkeypatch):
        from repro.cli import main

        argv = ["route", "--profile", "tiny", "--seed", "1",
                "--destination", "1", "--limit", "10"]
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "scalar")
        assert main(argv) == 0
        scalar_out = capsys.readouterr().out
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert main(argv) == 0
        batched_out = capsys.readouterr().out
        assert scalar_out == batched_out

    def test_topology_reports_active_kernel(self, capsys):
        from repro.cli import main

        assert main(["topology", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "kernel:" in out
        assert kernels.active().name in out

    def test_stats_json_embeds_kernel_description(self, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "stats.json"
        assert main([
            "stats", "--profile", "tiny", "--destinations", "2",
            "--format", "json", "--out", str(out_path),
        ]) == 0
        document = json.loads(out_path.read_text())
        assert document["kernel"]["default"] == "scalar"
        names = [b["name"] for b in document["kernel"]["backends"]]
        assert "batched" in names


class TestSessionKernel:
    @needs_numpy
    def test_serial_fanout_batches_through_active_kernel(
        self, small_graph, monkeypatch
    ):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        session = SimulationSession(small_graph, parallel=False)
        destinations = small_graph.ases[:20]
        tables = session.compute_many(destinations)
        snapshot = small_graph.snapshot()
        for destination in destinations:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                dict(tables[destination].items()),
            )

    @needs_numpy
    def test_pool_fanout_ships_active_kernel(self, small_graph, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        session = SimulationSession(small_graph, parallel=True, max_workers=2)
        destinations = small_graph.ases[:20]
        tables = session.compute_many(destinations, parallel=True)
        assert session.stats.parallel_fanouts == 1
        snapshot = small_graph.snapshot()
        for destination in destinations[:5]:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                dict(tables[destination].items()),
            )

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    )
    @pytest.mark.parametrize(
        "kernel", ["scalar", pytest.param("batched", marks=needs_numpy)]
    )
    def test_pool_ships_the_serial_tree(self, small_graph, kernel, monkeypatch):
        """Workers ship ``order`` + ``parent`` + bounds; the parent rebuilds
        the tree on the snapshot the fill captured — across forced shard
        boundaries, field for field the serial kernel's, nothing expanded."""
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, kernel)
        destinations = small_graph.ases[:23]
        with SimulationSession(
            small_graph, parallel=True, max_workers=2, shards=5
        ) as session:
            tables = session.compute_many(destinations, parallel=True)
            assert session.stats.parallel_fanouts == 1
        snapshot = small_graph.snapshot()
        for destination in destinations:
            shipped = tables[destination]._tree
            serial = compute_routes_snapshot(snapshot, destination)
            assert shipped._routes is None
            assert shipped.asns is snapshot.asns
            assert shipped.index is snapshot.index
            assert (
                list(shipped.order), list(shipped.parent),
                shipped.peer_from, shipped.provider_from,
            ) == (
                list(serial.order), list(serial.parent),
                serial.peer_from, serial.provider_from,
            ), destination

    def test_only_trees_ship(self, small_graph):
        """A backend that settles plain dicts has nothing to ship; the
        worker hands its shard back (``KernelError`` → ``packed is None``)
        and the parent settles it."""
        from repro.session.pool import _encode_shard

        destination = small_graph.ases[0]
        best = dict(_settle_via_scalar(small_graph, destination))
        with pytest.raises(KernelError, match="nothing to ship"):
            _encode_shard((destination,), {destination: best})


# ----------------------------------------------------------------------
# settle_many chunk boundaries
# ----------------------------------------------------------------------
@needs_numpy
class TestSettleManyChunking:
    """The sweep splits destinations into composite waves of
    ``_CHUNK_ENTRIES // n`` tables each; the boundaries (a sweep exactly
    filling one chunk, one destination spilling into a second chunk) must
    be invisible in the output."""

    def _chunked(self, graph, per_chunk, destinations, monkeypatch):
        from repro.bgp.kernels import batched as batched_module

        snapshot = graph.snapshot()
        monkeypatch.setattr(
            batched_module, "_CHUNK_ENTRIES", per_chunk * snapshot.n
        )
        assert batched_module._CHUNK_ENTRIES // snapshot.n == per_chunk
        return snapshot, batched_module.settle_many(snapshot, destinations)

    def _assert_sweep_matches_scalar(self, snapshot, destinations, swept):
        assert list(swept) == list(dict.fromkeys(destinations))
        for destination in swept:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                swept[destination],
            )

    def test_sweep_exactly_filling_one_chunk(self, small_graph, monkeypatch):
        destinations = small_graph.ases[:4]
        snapshot, swept = self._chunked(
            small_graph, len(destinations), destinations, monkeypatch
        )
        self._assert_sweep_matches_scalar(snapshot, destinations, swept)

    def test_one_destination_past_the_chunk(self, small_graph, monkeypatch):
        destinations = small_graph.ases[:5]
        snapshot, swept = self._chunked(
            small_graph, len(destinations) - 1, destinations, monkeypatch
        )
        self._assert_sweep_matches_scalar(snapshot, destinations, swept)

    def test_single_entry_chunks(self, small_graph, monkeypatch):
        # degenerate chunk=1: every destination is its own wave
        destinations = small_graph.ases[:6]
        snapshot, swept = self._chunked(
            small_graph, 1, destinations, monkeypatch
        )
        self._assert_sweep_matches_scalar(snapshot, destinations, swept)

    def test_duplicates_straddling_chunks_computed_once(
        self, small_graph, monkeypatch
    ):
        base = small_graph.ases[:4]
        # duplicates interleaved so the deduped order straddles the
        # 2-entry chunk boundary differently than the raw order would
        destinations = [base[0], base[1], base[0], base[2], base[1], base[3]]
        snapshot, swept = self._chunked(
            small_graph, 2, destinations, monkeypatch
        )
        assert list(swept) == base
        self._assert_sweep_matches_scalar(snapshot, destinations, swept)

    def test_huge_chunk_is_one_wave(self, small_graph, monkeypatch):
        destinations = small_graph.ases
        snapshot, swept = self._chunked(
            small_graph, len(destinations) + 100, destinations, monkeypatch
        )
        self._assert_sweep_matches_scalar(snapshot, destinations, swept)
