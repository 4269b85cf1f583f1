"""Equivalence tests: the batched cache replays vs the ``Cache`` spec.

``simulate_cache_sweep`` must be *bit-identical* to per-config
``simulate_cache``, and ``per_access_hits`` (the sweep engine's cache
banks) must agree flag for flag with ``Cache.access``, because every
experiment's Pearson correlations and rankings are computed from these
miss counts.  Every sweep check runs under both engines: the native
exact-LRU kernel and the spec replay that a host without a C compiler
(or ``REPRO_NATIVE=0``) runs per config.  ``per_access_hits`` is native
only (the sweep builds cache banks only for its native timing loop),
so its checks run where the kernel is available.  The native sweep
answers every config that shares a line size and set count from one
LRU stack pass, so a property draws config lists that share them.  A
corpus test pins the native kernel to the spec on all 23 real and 23
clone address streams.
"""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation import workload_artifacts
from repro.native import toolchain
from repro.obs.journal import configure_journal, read_journal
from repro.obs.trace import build_span_tree
from repro.uarch import (
    CACHE_SWEEP,
    Cache,
    CacheConfig,
    native,
    simulate_cache,
    simulate_cache_sweep,
)
from repro.uarch.cache import per_access_hits
from repro.workloads import workload_names

RNG = np.random.default_rng(0xC0FFEE)

#: The native kernel quietly stands down where no C compiler is present
#: (or ``REPRO_NATIVE=0`` is already set), so "native" only exercises C
#: where the environment provides it.
ENGINES = ("native", "spec")


@contextlib.contextmanager
def engine(name):
    """Run the block under the native kernel or the spec replay."""
    saved = os.environ.get("REPRO_NATIVE")
    if name == "spec":
        os.environ["REPRO_NATIVE"] = "0"
    toolchain.reset()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = saved
        toolchain.reset()


def stats_tuple(stats):
    return (stats.accesses, stats.misses, stats.evictions)


def sweep(addresses, configs):
    """``simulate_cache_sweep`` as stats tuples, per engine."""
    rows = {}
    for name in ENGINES:
        with engine(name):
            rows[name] = [stats_tuple(stats) for stats in
                          simulate_cache_sweep(addresses, configs)]
    return rows


def assert_equivalent(addresses, configs):
    reference = [stats_tuple(simulate_cache(addresses, config))
                 for config in configs]
    for name, row in sweep(addresses, configs).items():
        assert row == reference, name


def spec_hits(addresses, config):
    """Per-access outcomes of the ``Cache`` spec."""
    cache = Cache(config)
    return [cache.access(address) for address in np.asarray(
        addresses, dtype=np.int64).tolist()]


def assert_hits_equivalent(addresses, config):
    """``per_access_hits`` against the spec, where the kernel runs."""
    if not native.available():
        return
    blocks = np.asarray(addresses, dtype=np.int64) >> config.line_shift
    hits = per_access_hits(blocks, config)
    assert hits.dtype == bool
    assert hits.tolist() == spec_hits(addresses, config), config


# Every associativity class, plus awkward geometries.
PATH_CONFIGS = [
    CacheConfig(256, 1, 32),        # direct-mapped
    CacheConfig(1024, 2, 32),       # 2-way
    CacheConfig(2048, 4, 32),       # 4-way
    CacheConfig(512, "full", 32),   # fully associative
    CacheConfig(96, 3, 32),         # non-power-of-two ways
    CacheConfig(1024, 2, 64),       # second line size in one sweep
    CacheConfig(64, 2, 32),         # single set, 2-way
    CacheConfig(32, 1, 32),         # single line
    CacheConfig(96, 1, 32),         # three sets (modulo indexing)
]


class TestEquivalence:
    def test_random_stream(self):
        addresses = RNG.integers(0, 1 << 20, 20_000)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_random_stream_full_sweep(self):
        addresses = RNG.integers(0, 1 << 18, 10_000)
        assert_equivalent(addresses, CACHE_SWEEP)

    def test_sequential_stream(self):
        assert_equivalent(np.arange(20_000) * 4, PATH_CONFIGS)

    def test_conflict_thrash(self):
        # Addresses landing in the same set of every sweep geometry:
        # 16KB-apart strides thrash direct-mapped caches mercilessly.
        addresses = np.tile(np.arange(8) * 16384, 1000)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_lru_adversary(self):
        # Cyclic re-reference of capacity+1 blocks: worst case for LRU,
        # the classic sequence where every access misses.
        addresses = np.tile(np.arange(33) * 32, 300)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_consecutive_duplicates(self):
        # Runs of one block: every repeat is an MRU hit.
        addresses = np.repeat(RNG.integers(0, 1 << 14, 1_000), 9)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_single_block_stream(self):
        assert_equivalent(np.zeros(500, dtype=np.int64), PATH_CONFIGS)

    def test_mixed_locality(self):
        addresses = np.concatenate([
            RNG.integers(0, 4096, 3_000),
            np.arange(0, 65536, 4),
            np.tile(np.arange(4) * 8192, 500),
            RNG.integers(0, 1 << 24, 2_000),
        ])
        assert_equivalent(addresses, PATH_CONFIGS)


class TestEdgeCases:
    def test_empty_stream(self):
        for row in sweep(np.array([], dtype=np.int64),
                         PATH_CONFIGS).values():
            assert row == [(0, 0, 0)] * len(PATH_CONFIGS)

    def test_empty_configs(self):
        assert sweep(np.arange(10), []) == {name: [] for name in ENGINES}

    def test_list_input(self):
        addresses = [0, 32, 64, 0, 32, 96, 0]
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_single_access(self):
        for row in sweep([1024], PATH_CONFIGS).values():
            assert row == [(1, 1, 0)] * len(PATH_CONFIGS)

    def test_results_in_config_order(self):
        addresses = RNG.integers(0, 1 << 16, 2_000)
        forward = sweep(addresses, PATH_CONFIGS)
        backward = sweep(addresses, PATH_CONFIGS[::-1])
        for name in ENGINES:
            assert forward[name] == backward[name][::-1], name

    def test_input_array_not_mutated(self):
        addresses = RNG.integers(0, 1 << 16, 1_000)
        copy = addresses.copy()
        sweep(addresses, PATH_CONFIGS)
        simulate_cache(addresses, PATH_CONFIGS[0])
        assert np.array_equal(addresses, copy)


@pytest.mark.parametrize("assoc", [1, 2, 4, "full"])
def test_every_sweep_associativity_on_real_trace_shape(assoc):
    # A loop-nest-like stream: strided lines with periodic resets.
    base = np.arange(0, 8192, 4)
    addresses = np.concatenate([base, base, base + 4096, base])
    configs = [CacheConfig(size, assoc, 32)
               for size in (256, 1024, 4096, 16384)]
    assert_equivalent(addresses, configs)


@pytest.mark.skipif(not native.available(),
                    reason="per_access_hits needs the native kernel")
class TestPerAccessHits:
    @pytest.mark.parametrize("config", PATH_CONFIGS, ids=CacheConfig.label)
    def test_flags_match_cache_access(self, config):
        addresses = np.concatenate([
            RNG.integers(0, 1 << 14, 3_000),
            np.tile(np.arange(40) * 32, 20),
            np.repeat(RNG.integers(0, 1 << 12, 200), 3),
        ])
        assert_hits_equivalent(addresses, config)

    def test_empty_stream(self):
        assert_hits_equivalent([], PATH_CONFIGS[0])


#: Geometries the random-stream property draws from: non-power-of-two
#: set counts (Python's non-negative ``%`` on negative blocks, where C's
#: ``%`` would go negative), 3-way sets, a 512-way fully associative
#: cache, single-set caches and a non-32-byte line.
PROPERTY_CONFIGS = [
    CacheConfig(96, 1, 32),             # 3 sets, direct-mapped
    CacheConfig(320, 2, 32),            # 5 sets, 2-way
    CacheConfig(288, 3, 32),            # 3 sets, 3-way
    CacheConfig(96, 3, 32),             # 1 set, 3-way
    CacheConfig(16384, "full", 32),     # 512-way
    CacheConfig(64, 2, 32),             # 1 set, 2-way
    CacheConfig(32, 1, 32),             # single line
    CacheConfig(256, 1, 32),
    CacheConfig(1024, 4, 16),
]

address_values = st.one_of(st.integers(-512, 512),
                           st.integers(-(1 << 20), 1 << 20))


@settings(max_examples=60, deadline=None)
@given(addresses=st.lists(address_values, min_size=0, max_size=400),
       configs=st.lists(st.sampled_from(PROPERTY_CONFIGS), min_size=1,
                        max_size=4))
def test_random_streams_match_spec(addresses, configs):
    assert_equivalent(addresses, configs)
    for config in configs:
        assert_hits_equivalent(addresses, config)


#: Config families whose members share a set count (and line size), so
#: one stack pass answers several ``ways``: 3 sets of 1-3 ways, one set
#: of 2-512 ways, and 4 sets of 1-4 ways at 32- and 64-byte lines.
SHARED_SET_FAMILIES = [
    [CacheConfig(96, 1, 32), CacheConfig(192, 2, 32),
     CacheConfig(288, 3, 32)],
    [CacheConfig(64, 2, 32), CacheConfig(96, 3, 32),
     CacheConfig(512, "full", 32), CacheConfig(16384, "full", 32)],
    [CacheConfig(128, 1, 32), CacheConfig(256, 2, 32),
     CacheConfig(512, 4, 32), CacheConfig(256, 1, 64),
     CacheConfig(512, 2, 64), CacheConfig(1024, 4, 64)],
]


@settings(max_examples=60, deadline=None)
@given(addresses=st.lists(address_values, min_size=0, max_size=400),
       configs=st.sampled_from(SHARED_SET_FAMILIES).flatmap(
           lambda family: st.lists(st.sampled_from(family), min_size=1,
                                   max_size=2 * len(family))))
def test_shared_set_counts_match_spec(addresses, configs):
    assert_equivalent(addresses, configs)


def test_paper_sweep_makes_one_pass_per_set_count(tmp_path):
    """The 28 configs share 10 set counts (1, 2, 4, ..., 512): the
    ``uarch.cache`` span counts one native pass for each."""
    with engine("native"):
        if not native.available():
            pytest.skip("no native kernel to count passes of")
        configure_journal(str(tmp_path))
        try:
            simulate_cache_sweep(RNG.integers(0, 1 << 16, 1_000),
                                 CACHE_SWEEP)
        finally:
            configure_journal(None)
    [node] = [node for root in build_span_tree(
        read_journal(str(tmp_path)).events) for node in root.walk()
        if node.name == "uarch.cache"]
    assert node.attrs == {"configs": 28, "accesses": 1_000, "passes": 10}


def test_corpus_sweep_matches_spec():
    """The paper's 28-config sweep over all 46 corpus streams (23 real,
    23 clone): native kernel vs ``simulate_cache``, field for field."""
    with engine("native"):
        if not native.available():
            pytest.skip("no native kernel to compare")
        for name in workload_names():
            artifacts = workload_artifacts(name)
            for subject, trace in (("real", artifacts.trace),
                                   ("clone", artifacts.clone_trace)):
                addresses = trace.memory_addresses()
                swept = [stats_tuple(stats) for stats in
                         simulate_cache_sweep(addresses, CACHE_SWEEP)]
                spec = [stats_tuple(simulate_cache(addresses, config))
                        for config in CACHE_SWEEP]
                assert swept == spec, (name, subject)
