"""Tests for the synthetic Internet-like topology generator."""

import hashlib
import random

import pytest

from repro.errors import TopologyError
from repro.topology import (
    AGARWAL_2004,
    GAO_2000,
    GAO_2003,
    GAO_2005,
    LinkType,
    PROFILES,
    SMALL,
    TINY,
    TopologyProfile,
    generate_named,
    generate_topology,
    mean_degree,
    summarize,
)
from repro.topology import serialization
from repro.topology.generator import _WeightedPool
from repro.verify.oracle import graph_digest


class TestProfiles:
    def test_registry_contains_paper_datasets(self):
        for name in ("gao-2000", "gao-2003", "gao-2005", "agarwal-2004"):
            assert name in PROFILES

    def test_profile_validation_too_small(self):
        with pytest.raises(TopologyError):
            TopologyProfile("bad", n_ases=5, n_tier1=10)

    def test_profile_validation_tier_fractions(self):
        with pytest.raises(TopologyError):
            TopologyProfile("bad", n_ases=100, tier2_fraction=0.6,
                            tier3_fraction=0.5)

    def test_generate_named_unknown(self):
        with pytest.raises(TopologyError):
            generate_named("no-such-profile")


class TestGeneratedStructure:
    def test_deterministic_for_seed(self):
        a = generate_topology(TINY, seed=5)
        b = generate_topology(TINY, seed=5)
        assert sorted(a.iter_links()) == sorted(b.iter_links())

    def test_different_seeds_differ(self):
        a = generate_topology(SMALL, seed=1)
        b = generate_topology(SMALL, seed=2)
        assert sorted(a.iter_links()) != sorted(b.iter_links())

    def test_node_count_matches_profile(self):
        graph = generate_topology(SMALL, seed=0)
        assert len(graph) == SMALL.n_ases

    def test_hierarchical_and_connected(self):
        for seed in range(3):
            graph = generate_topology(SMALL, seed=seed)
            assert graph.is_hierarchical()
            assert graph.is_connected()

    def test_tier1_forms_peer_clique(self):
        graph = generate_topology(SMALL, seed=0)
        tier1 = list(range(1, SMALL.n_tier1 + 1))
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert graph.has_link(a, b)

    def test_majority_multihomed(self):
        # the paper: ~60% of ASes are multi-homed
        graph = generate_topology(GAO_2005, seed=1)
        summary = summarize(graph)
        assert summary.n_multihomed / summary.n_ases > 0.5

    def test_many_stubs(self):
        graph = generate_topology(GAO_2005, seed=1)
        # §7.4: a large share of ASes are stubs
        assert len(graph.stubs()) / len(graph) > 0.3

    def test_link_class_ratios_close_to_profile(self):
        graph = generate_topology(GAO_2005, seed=1)
        counts = graph.link_counts()
        pc = counts[LinkType.CUSTOMER_PROVIDER]
        peer_ratio = counts[LinkType.PEER_PEER] / pc
        assert 0.4 * GAO_2005.peer_fraction < peer_ratio < 2.5 * GAO_2005.peer_fraction

    def test_heavy_tail_degrees(self):
        graph = generate_topology(GAO_2005, seed=1)
        degrees = sorted((graph.degree(a) for a in graph.iter_ases()),
                         reverse=True)
        # the best-connected AS has far more neighbours than the mean
        assert degrees[0] > 8 * mean_degree(graph)

    @pytest.mark.parametrize(
        "profile", [GAO_2000, GAO_2003, GAO_2005, AGARWAL_2004]
    )
    def test_paper_profiles_generate(self, profile):
        graph = generate_topology(profile, seed=0)
        assert len(graph) == profile.n_ases
        assert graph.is_hierarchical()


class TestApril2009Profile:
    def test_stub_fraction_substantial(self):
        """§7.4: "most of the ASes are stub ASes" (12,468 of 31,311 under
        the paper's counting; our leaf definition also counts childless
        transit ASes, so the fraction lands higher)."""
        from repro.topology import APRIL_2009

        graph = generate_topology(APRIL_2009, seed=2009)
        stub_fraction = len(graph.stubs()) / len(graph)
        assert 0.35 < stub_fraction < 0.80

    def test_registered(self):
        from repro.topology import APRIL_2009

        assert PROFILES["april-2009"] is APRIL_2009

    def test_largest_profile(self):
        from repro.topology import APRIL_2009, GAO_2005

        assert APRIL_2009.n_ases > GAO_2005.n_ases


#: (profile, seed) -> (graph.version, graph_digest, sha256 of dumps), as
#: the list-rebuilding preferential draw made them.  ``graph_digest`` is
#: order-sensitive, so each AS's neighbour order is pinned too; a Python
#: whose ``random`` draws differently fails here.
PINNED = {
    ("gao-2000", 0): (1354, "860adfccafb18eef8418f5b54d3e0326",
        "695f19b576246abda1f264d1147cf69ad88e19cf2bc5d4bbde42e99374e46af8"),
    ("gao-2000", 1): (1357, "743542324c0e3866646e6fc92c96398a",
        "00c1cde45d2d8a66e95d2a447396bb994d50c741089737258c06d0cd1259555a"),
    ("gao-2000", 2006): (1319, "31d8b1e2f2efde4f6241080575f3dd6e",
        "c311a989af6b827aaa53640f41e270fc35d8ca2875df8a7092d223d2f4010b35"),
    ("gao-2003", 0): (2478, "5115bb70819634640818ec0e2afe5c07",
        "04bdf6d524809757c33a6850a02c465a1da5998043226c509ed022936282247f"),
    ("gao-2003", 1): (2468, "ea0b02127908458cdc592167ff4d1af6",
        "67b1f1814ea33427ca0506a4257fdb1e5383b3cbdc0a840bbb2f478434ac08cf"),
    ("gao-2003", 2006): (2481, "1fb6fdd61966804826cd5dad4224bb60",
        "ecc17da5234be746706499391121a4ada5f48c463a5a535e63c030f560e85efa"),
    ("gao-2005", 0): (3238, "28345131d528433b7c7f21fdc772505b",
        "19616b4ce3e19598115e7e04eae1857b02777d2a6b3c6f36df5263ea05f02bf3"),
    ("gao-2005", 1): (3226, "5ed03f0f3a900bdf24ac74154f0a63c5",
        "c41e97b00d697c8a2a289b849558de4fbad9ae3c2ccda50dea49273d3837c786"),
    ("gao-2005", 2006): (3258, "701135c3753f599bcb3ed774ec22d446",
        "9acede018b85b36e3a6ce0be70cba9b52731082198a950ec7f2b11bc5d1adb9c"),
    ("agarwal-2004", 0): (2618, "6a7b897861cc4abf8935063e6c80f7e6",
        "29a8c5bee6de64997c74470c30a14e2fd6bd3dfc2fd10feb3fd5f41dd9d4cb59"),
    ("agarwal-2004", 1): (2622, "fd874eed68afab20517cab8e5eeaae9c",
        "cd67b4354af291d7d6cc78e05ba41484be63efdf0aefc43070c973a3508a153e"),
    ("agarwal-2004", 2006): (2634, "0cafb747d12a41146baf7997a4083b8e",
        "1e31f990c0f81eb3e7b7cbbac41e0f690dee0e2cbc61352b0113a1d0d4c62327"),
    ("april-2009", 0): (4745, "04fd3b2e80bcbd5b1e4de87d45849ceb",
        "5330ea2b528094c619976db1b062624601d2895277b332a25c9c047c4dac41ed"),
    ("april-2009", 1): (4752, "f276ae334b524e50bea5122b0b4a92fe",
        "0a08a109315a45efa551a202f0fda83f0ba9c85b070fdd95cf3bd997af92f9b4"),
    ("april-2009", 2006): (4781, "b302d5634a597f60af48e4615d91c076",
        "7b069754734dafab95810691ed4820a6a60f43626e3261b2a4c80c20d86ec820"),
    ("small", 0): (372, "5183b5665d297c08b2b54dc27d82259a",
        "c6dc5d1083720c980f619b97a6482f6e2660009e5524a8554754b62524013fdc"),
    ("small", 1): (380, "0561c893733ae289789e254b60e845c0",
        "fa7f17d18410ec358489bcbfd32f70437cbbb50151dd12acfd28ada83ba98102"),
    ("small", 2006): (347, "7b424a0dd6712d8f201d2dc4633b23db",
        "c7efb6e5889c289d337414dc7451cf7b4090c44b6def4f535e9e44f4caf0b4dd"),
    ("tiny", 0): (125, "e3426b2ac023c9b7f174b0429f679964",
        "67593ee705544f50c84ecd7e201925390f7eb2f9f0385a6b7fd986e29b4dc4fa"),
    ("tiny", 1): (122, "fa9acc19520b78721451644d6705b101",
        "890069e2a624933426f0324465b6bba992f9a86ad9a9317828db1a475016010a"),
    ("tiny", 2006): (116, "218f9d8d780327f2c1c0a26e779e40ed",
        "f1eb7fe269f2a1ce1a298c73a6acc43c1d19638b94adcc1ee8fc5b9d61baa81d"),
    ("verify-500", 0): (1523, "5a1f733f5bfc724d06ac2d6efac7d437",
        "11f2140b44dda70ec361fc8570294b6fde27b344d29c5daa4c2c93f093002688"),
    ("verify-500", 1): (1526, "242a20a09fa73b6ed7f288689a205abc",
        "28769bfb66d75dab68a4b048e3e4b785e643aa53846b5bbb88997df39ac044f2"),
    ("verify-500", 2006): (1503, "74ffb456800661638d746550b5c706d7",
        "ed65f883e6ff63372470760362bf7b82c7740661eafdf9d2061cfee61018128d"),
    ("internet-10k", 0): (31020, "05e3bdecac8bcf96def58d881eeb4bc1",
        "fd98b4a76e876cb863d1f8562e30a330eee42e781e1f1e6eeeaee67e20c0da37"),
    ("internet-10k", 1): (31256, "b7fa3a5b9b3d4f8fd7a57af151224721",
        "9d26cffa26b5f918c11e237d25db466fd51c56c76dfde5d310f030c1b7f8c652"),
    ("internet-10k", 2006): (31118, "7174e2a226609940ddb61ed78a46d585",
        "98ff6fc46d165835c17fdf16922e67604423af42e2188cd7cb728385589b4209"),
}


class TestPinnedGraphs:
    def test_every_profile_is_pinned(self):
        assert {name for name, _ in PINNED} == set(PROFILES)

    @pytest.mark.parametrize("name, seed", sorted(PINNED))
    def test_generated_graph_is_unchanged(self, name, seed):
        graph = generate_named(name, seed)
        dump = hashlib.sha256(serialization.dumps(graph).encode()).hexdigest()
        assert (graph.version, graph_digest(graph), dump) == PINNED[name, seed]


def _reference_picks(rng, members, weights, count):
    """The draw the pool replaces: ``rng.choices`` over a list the
    picked members are removed from."""
    pool, left = list(members), list(weights)
    chosen = []
    for _ in range(min(count, len(pool))):
        pick = rng.choices(pool, weights=left, k=1)[0]
        chosen.append(pick)
        i = pool.index(pick)
        del pool[i], left[i]
    return chosen


class _FixedRandom(random.Random):
    """An rng whose ``random()`` returns ``value`` every time."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


def _edge_random():
    """The largest value ``random()`` can return, every draw."""
    return _FixedRandom(1 - 2 ** -53)


class TestWeightedPool:
    @pytest.mark.parametrize("seed", range(40))
    def test_draws_match_choices(self, seed):
        shape = random.Random(seed)
        n = shape.randint(1, 70)
        members = shape.sample(range(1, 10_000), n)
        weights = [shape.randint(1, shape.choice((3, 50, 10 ** 6)))
                   for _ in range(n)]
        pool = _WeightedPool(members, weights)
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(25):
            count = shape.randint(1, 5)
            assert pool.pick(mine, count) == _reference_picks(
                theirs, members, weights, count)
            grown = shape.choice(members)
            pool.grow(grown)
            weights[members.index(grown)] += 1
        # one rng.random() per pick, as choices consumed
        assert mine.getstate() == theirs.getstate()

    def test_count_above_size_takes_every_member_once(self):
        pool = _WeightedPool([4, 5, 6], [1, 9, 3])
        picks = pool.pick(random.Random(0), 10)
        assert sorted(picks) == [4, 5, 6]
        # the picked members weigh again once the call returns
        assert pool.pick(random.Random(1), 1) == _reference_picks(
            random.Random(1), [4, 5, 6], [1, 9, 3], 1)

    def test_grow_ignores_a_non_member(self):
        pool = _WeightedPool([1, 2], [1, 1])
        pool.grow(3)
        assert pool.pick(random.Random(5), 2) == _reference_picks(
            random.Random(5), [1, 2], [1, 1], 2)

    @pytest.mark.parametrize("weights", [
        [1], [1, 1], [5, 1, 1, 1], [10 ** 15, 1], [2 ** 52, 2 ** 52 - 1],
        [1] * 33,
    ])
    def test_largest_draw_lands_on_the_last_member(self, weights):
        members = list(range(len(weights)))
        count = min(3, len(weights))
        picks = _WeightedPool(members, weights).pick(_edge_random(), count)
        assert picks == _reference_picks(_edge_random(), members, weights,
                                         count)
        assert picks == members[::-1][:count]

    @pytest.mark.parametrize("eighths", range(8))
    def test_a_target_on_a_prefix_sum_goes_past_it(self, eighths):
        # total 8: u = k/8 puts the target exactly on an integer, where
        # bisect_right takes the next member
        members, weights = [10, 20, 30, 40], [1, 3, 2, 2]
        picks = _WeightedPool(members, weights).pick(
            _FixedRandom(eighths / 8), 2)
        assert picks == _reference_picks(
            _FixedRandom(eighths / 8), members, weights, 2)
