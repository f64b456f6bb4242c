"""The kernel table: selection, dispatch, and byte-equality.

Covers the table and its dispatcher (selection precedence: an explicit
argument, then ``REPRO_KERNEL``, then scalar; the one-time graceful
fallback for an unavailable kernel), the batched wave kernel's
byte-equality with the scalar kernel (values *and* dict insertion order,
single destination and whole sweeps, before and after topology deltas),
the packed integer sort key against the ``Route`` decision process, the
oracle's enumeration of the table (a deliberately wrong kernel must be
caught by a fault campaign), and the CLI / session-pool plumbing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import kernels
from repro.bgp.kernels import batched
from repro.bgp.kernels.batched import (
    PACK_CLASS_SHIFT,
    PACK_LENGTH_SHIFT,
    numpy_available,
    pack_candidate_key,
)
from repro.bgp.route import Route, RouteClass
from repro.bgp.routing import compute_routes, compute_routes_snapshot
from repro.errors import KernelError, UnknownASError
from repro.session import SimulationSession
from repro.topology.generator import SMALL, TINY, generate_topology
from repro.topology.snapshot import shared_memory_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy (the [accel] extra) not installed"
)


def _settle_batched(snapshot, destination):
    return batched.settle_many(snapshot, [destination])[destination]


def _assert_tables_byte_equal(expected, actual):
    assert list(expected) == list(actual)  # values AND insertion order
    for asn, route in expected.items():
        got = actual[asn]
        assert got.path == route.path, asn
        assert got.route_class is route.route_class, asn


# ----------------------------------------------------------------------
# the table and its dispatcher
# ----------------------------------------------------------------------
class TestKernelTable:
    def test_scalar_first_then_batched(self):
        assert list(kernels.KERNELS) == ["scalar", "batched"]
        assert kernels.available()[0] == "scalar"
        assert ("batched" in kernels.available()) == numpy_available()

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            kernels.resolve("no-such-kernel")

    def test_describe_is_json_ready(self):
        description = kernels.describe()
        json.dumps(description)  # must serialize
        assert description["active"] == kernels.resolve()
        assert description["default"] == kernels.DEFAULT_KERNEL
        assert description["backends"] == [
            {"name": "scalar", "available": True},
            {"name": "batched", "available": numpy_available()},
        ]


class TestSelectionPrecedence:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        assert kernels.resolve() == kernels.DEFAULT_KERNEL

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve() == (
            "batched" if numpy_available() else "scalar"
        )

    def test_explicit_argument_overrides_everything(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve("scalar") == "scalar"
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "scalar")
        assert kernels.resolve("batched") == (
            "batched" if numpy_available() else "scalar"
        )

    def test_unavailable_kernel_falls_back_to_scalar_once(self, monkeypatch):
        warnings = []
        monkeypatch.setattr(kernels, "_LOG", SimpleNamespace(
            warning=lambda event, **fields: warnings.append((event, fields))
        ))
        monkeypatch.setattr(kernels, "_FALLBACK_WARNED", set())
        monkeypatch.setitem(
            kernels.KERNELS, "phantom", (kernels.KERNELS["scalar"][0], lambda: False)
        )
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "phantom")
        assert kernels.resolve() == "scalar"
        assert kernels.resolve("phantom") == "scalar"
        assert "phantom" not in kernels.available()
        assert warnings == [
            ("kernel_unavailable", {"backend": "phantom", "fallback": "scalar"})
        ]

    def test_unknown_env_kernel_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "no-such-kernel")
        with pytest.raises(KernelError):
            kernels.resolve()


class TestDispatch:
    def test_settle_many_matches_front_door(self, tiny_graph):
        destination = tiny_graph.ases[0]
        best = kernels.settle_many(tiny_graph.snapshot(), [destination])
        table = compute_routes(tiny_graph, destination)
        _assert_tables_byte_equal(dict(table.items()), best[destination])

    def test_scalar_sweep_computes_duplicates_once(self, tiny_graph):
        snapshot = tiny_graph.snapshot()
        destinations = tiny_graph.ases[:4] + tiny_graph.ases[:2]  # dupes
        swept = kernels.settle_many(snapshot, destinations, kernel="scalar")
        assert list(swept) == tiny_graph.ases[:4]
        for destination in swept:
            _assert_tables_byte_equal(
                compute_routes_snapshot(snapshot, destination),
                swept[destination],
            )

    def test_one_settle_observation_per_call(self, tiny_graph):
        settles = kernels._SETTLE_SECONDS.labels(backend="scalar")
        before = settles.count
        kernels.settle_many(tiny_graph.snapshot(), tiny_graph.ases[:5],
                            kernel="scalar")
        assert settles.count == before + 1

    @pytest.mark.parametrize(
        "kernel", ["scalar", pytest.param("batched", marks=needs_numpy)]
    )
    def test_unknown_destination_raises(self, tiny_graph, kernel):
        """The contract a pool worker relies on to hand a shard back."""
        with pytest.raises(UnknownASError):
            kernels.settle_many(
                tiny_graph.snapshot(), [tiny_graph.ases[0], 10**9],
                kernel=kernel,
            )

    def test_callers_settle_through_the_selected_entry(
        self, tiny_graph, monkeypatch
    ):
        calls = []
        scalar = kernels.KERNELS["scalar"][0]

        def recording(snapshot, destinations):
            calls.append(list(destinations))
            return scalar(snapshot, destinations)

        monkeypatch.setitem(
            kernels.KERNELS, "recording", (recording, lambda: True)
        )
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "recording")
        first, second, third = tiny_graph.ases[:3]
        compute_routes(tiny_graph, first)
        SimulationSession(tiny_graph, parallel=False).compute_many(
            [second, third, second]
        )
        assert calls == [[first], [second, third]]


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
                _settle_batched(snapshot, destination),
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
                _settle_batched(snapshot, destination),
            )

    def test_no_numpy_raises_kernel_error(self, tiny_graph, monkeypatch):
        find_spec = batched.importlib.util.find_spec
        monkeypatch.setattr(
            batched.importlib.util, "find_spec",
            lambda name, *rest: (
                None if name == "numpy" else find_spec(name, *rest)
            ),
        )
        with pytest.raises(KernelError, match="requires numpy"):
            _settle_batched(tiny_graph.snapshot(), tiny_graph.ases[0])
        # and resolution degrades to scalar instead of failing
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "batched")
        assert kernels.resolve() == "scalar"

    def test_numpy_is_imported_at_the_first_batched_settle(self):
        """A process on the scalar kernel — every server — never loads it."""
        script = (
            "import sys, repro, repro.service\n"
            "from repro.bgp import kernels\n"
            "from repro.topology.generator import generate_named\n"
            "snapshot = generate_named('tiny', seed=1).snapshot()\n"
            "kernels.settle_many(snapshot, snapshot.asns[:2])\n"
            "assert 'numpy' not in sys.modules\n"
            "if 'batched' in kernels.available():\n"
            "    kernels.settle_many(snapshot, snapshot.asns[:2], kernel='batched')\n"
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
# oracle enumeration: a wrong kernel must be caught
# ----------------------------------------------------------------------
def _settle_toy_wrong(snapshot, destinations):
    """Deliberately wrong kernel: claims a direct link for one AS."""
    out = {}
    for destination in destinations:
        best = dict(compute_routes_snapshot(snapshot, destination))
        for asn, route in best.items():
            if asn != destination and route.length >= 2:
                best[asn] = Route((asn, destination), route.route_class)
                break
        out[destination] = best
    return out


class TestOracleEnumeration:
    def test_oracle_checks_every_available_kernel(self, tiny_graph):
        from repro.verify.oracle import DifferentialOracle

        oracle = DifferentialOracle(tiny_graph, tiny_graph.ases[:3])
        result = oracle.check()
        assert result.ok

    def test_wrong_toy_kernel_is_caught_by_campaign(self, monkeypatch):
        from repro.verify.campaign import run_campaign

        monkeypatch.setitem(
            kernels.KERNELS, "toy-wrong", (_settle_toy_wrong, lambda: True)
        )
        outcome = run_campaign(
            lambda: generate_topology(TINY, seed=5),
            seed=11, n_events=2, n_destinations=4,
            include_pool=False, check_invariants=False, minimize=False,
        )
        assert not outcome.ok
        assert any(
            d.mode == "kernel:toy-wrong" for d in outcome.divergences
        ), [d.mode for d in outcome.divergences]

    def test_clean_campaign_passes_with_both_kernels(self):
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
        assert f"kernel:             {kernels.resolve()} " in out

    def test_batched_without_numpy_reports_scalar(self, tmp_path):
        """``REPRO_KERNEL=batched`` where numpy cannot be imported: the
        CLI runs, and reports, the scalar kernel."""
        (tmp_path / "sitecustomize.py").write_text(
            "import importlib.util, sys\n"
            "class _NoNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numpy':\n"
            "            raise ModuleNotFoundError(name)\n"
            "sys.meta_path.insert(0, _NoNumpy())\n"
            "_find_spec = importlib.util.find_spec\n"
            "def find_spec(name, package=None):\n"
            "    try:\n"
            "        return _find_spec(name, package)\n"
            "    except ModuleNotFoundError:\n"
            "        return None\n"
            "importlib.util.find_spec = find_spec\n"
        )
        env = dict(os.environ, REPRO_KERNEL="batched")
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), *sys.path])
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "topology", "--profile", "tiny"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "kernel:             scalar (available: scalar)" in done.stdout

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
        tables = session.compute_many(destinations)
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
            tables = session.compute_many(destinations)
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
        snapshot = graph.snapshot()
        monkeypatch.setattr(batched, "_CHUNK_ENTRIES", per_chunk * snapshot.n)
        assert batched._CHUNK_ENTRIES // snapshot.n == per_chunk
        return snapshot, batched.settle_many(snapshot, destinations)

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
