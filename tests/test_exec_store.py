"""Persistent artifact store: round-trip determinism, keying, eviction."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.core.synthesizer import SynthesisParameters
from repro.exec import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    artifact_key,
    baseline_artifact_key,
    baseline_program,
    pipeline_artifacts,
    trace_artifact_key,
    trace_artifacts,
)
from repro.exec.store import META_FILENAME
from repro.obs.metrics import REGISTRY
from repro.uarch import CacheConfig
from repro.workloads import get_workload

PARAMS = SynthesisParameters(dynamic_instructions=30_000)
PROFILED_CACHE = CacheConfig(16 * 1024, 2, 32)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "cache"), enabled=True)


def build(store, name="crc32", parameters=PARAMS, max_instructions=500_000):
    source = get_workload(name).source()
    return pipeline_artifacts(name, source, parameters,
                              max_instructions=max_instructions,
                              store=store)


def assert_same_traces(left, right):
    for attr in ("pcs", "addrs", "taken"):
        assert np.array_equal(getattr(left, attr), getattr(right, attr))


def baseline(store, artifacts, miss_rate=0.2, cache=PROFILED_CACHE):
    return baseline_program(artifacts, get_workload("crc32").source(),
                            cache, "gap", miss_rate, 0.05, PARAMS,
                            max_instructions=500_000, store=store)


def assert_same_programs(left, right):
    assert left.name == right.name
    assert [repr(i) for i in left.instructions] \
        == [repr(i) for i in right.instructions]
    assert left.data_image == right.data_image


def synthesis_counts():
    return (REGISTRY.counter("synthesize.runs").value,
            REGISTRY.counter("lint.clones").value)


class TestKeying:
    def test_stable(self):
        assert artifact_key("x", "src", PARAMS, 10) \
            == artifact_key("x", "src", PARAMS, 10)

    @pytest.mark.parametrize("other", [
        ("y", "src", PARAMS, 10),          # name
        ("x", "src2", PARAMS, 10),         # source (incl. data image)
        ("x", "src", SynthesisParameters(seed=7), 10),  # parameters
        ("x", "src", PARAMS, 11),          # functional cap
    ])
    def test_any_input_changes_key(self, other):
        assert artifact_key("x", "src", PARAMS, 10) != artifact_key(*other)

    def test_sim_backend_changes_key(self):
        # Mixed-backend runs may never alias in the cache.
        assert artifact_key("x", "src", PARAMS, 10, sim_backend="native") \
            != artifact_key("x", "src", PARAMS, 10, sim_backend="interp")

    def test_key_is_filesystem_safe(self):
        key = artifact_key("weird/name with spaces!", "s", PARAMS, 1)
        assert "/" not in key and " " not in key


class TestRoundTrip:
    def test_fresh_vs_cached_identical(self, store):
        cold = build(store)
        assert store.stats()["writes"] == 1
        warm = build(store)
        assert store.stats()["hits"] == 1
        # Identical profiles, clone assembly, and trace arrays.
        assert cold.profile.to_dict() == warm.profile.to_dict()
        assert cold.clone.asm_source == warm.clone.asm_source
        assert cold.clone.stats == warm.clone.stats
        assert cold.clone.program.name == warm.clone.program.name
        assert_same_traces(cold.trace, warm.trace)
        assert_same_traces(cold.clone_trace, warm.clone_trace)

    def test_sim_backend_recorded_and_round_tripped(self, store):
        cold = build(store)
        assert cold.sim_backend in ("native", "interp")
        warm = build(store)
        assert store.stats()["hits"] == 1
        assert warm.sim_backend == cold.sim_backend

    def test_cached_clone_program_reassembles_identically(self, store):
        cold = build(store)
        warm = build(store)
        cold_instrs = [repr(i) for i in cold.clone.program.instructions]
        warm_instrs = [repr(i) for i in warm.clone.program.instructions]
        assert cold_instrs == warm_instrs
        assert cold.clone.program.data_image == warm.clone.program.data_image

    def test_different_parameters_miss(self, store):
        build(store)
        build(store, parameters=SynthesisParameters(
            dynamic_instructions=30_000, seed=99))
        assert store.stats()["writes"] == 2
        assert store.stats()["hits"] == 0

    def test_disabled_store_always_builds(self, tmp_path):
        disabled = ArtifactStore(root=str(tmp_path), enabled=False)
        build(disabled)
        build(disabled)
        stats = disabled.stats()
        assert stats["writes"] == 0 and stats["hits"] == 0
        assert disabled.entries() == []


class TestValidation:
    def test_corrupt_meta_treated_as_miss_and_rebuilt(self, store):
        build(store)
        (key, _, _), = store.entries()
        meta_path = os.path.join(store.entry_dir(key), META_FILENAME)
        with open(meta_path, "w") as handle:
            handle.write("{not json")
        build(store)
        assert store.stats()["writes"] == 2
        # ``save`` always records the payload manifest, so a meta
        # without one is corrupt too.
        with open(meta_path) as handle:
            meta = json.load(handle)
        del meta["files"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        assert store.load(key) is None
        build(store)
        assert store.stats()["writes"] == 3

    def test_schema_mismatch_is_miss(self, store):
        build(store)
        (key, _, _), = store.entries()
        meta_path = os.path.join(store.entry_dir(key), META_FILENAME)
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        build(store)
        assert store.stats()["writes"] == 2

    def test_unparsable_clone_text_is_rebuilt(self, store):
        cold = build(store)
        (key, _, _), = store.entries()
        with open(os.path.join(store.entry_dir(key), "clone.s"),
                  "w") as handle:
            handle.write("    bogus r1\n")
        rebuilt = build(store)
        assert rebuilt.clone.asm_source == cold.clone.asm_source
        assert store.stats()["writes"] == 2
        # The rebuild replaced the entry: the next read is a clean hit.
        build(store)
        assert store.stats()["hits"] == 2
        assert store.stats()["writes"] == 2

    def test_missing_file_is_miss(self, store):
        build(store)
        (key, _, _), = store.entries()
        os.remove(os.path.join(store.entry_dir(key), "trace.npz"))
        assert store.load(key) is None


class TestReloadFailure:
    """An entry evicted between ``load`` returning it and its payload
    being read is rebuilt, and the rebuild equals a cold build."""

    @pytest.fixture
    def vanishing(self, store, monkeypatch):
        load = store.load

        def load_then_evict(key):
            cached = load(key)
            if cached is not None:
                shutil.rmtree(cached[1])
            return cached

        monkeypatch.setattr(store, "load", load_then_evict)
        return store

    def test_pipeline_entry_rebuilt(self, store, vanishing, tmp_path):
        cold = build(ArtifactStore(root=str(tmp_path / "cold"),
                                   enabled=False))
        build(store)
        rebuilt = build(vanishing)
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 2
        assert rebuilt.profile.to_dict() == cold.profile.to_dict()
        assert rebuilt.clone.asm_source == cold.clone.asm_source
        assert rebuilt.sim_backend == cold.sim_backend
        assert_same_traces(rebuilt.trace, cold.trace)
        assert_same_traces(rebuilt.clone_trace, cold.clone_trace)

    def test_trace_entry_rebuilt(self, store, vanishing, tmp_path):
        source = get_workload("crc32").source()
        cold = trace_artifacts("crc32", source, max_instructions=500_000,
                               store=ArtifactStore(
                                   root=str(tmp_path / "cold"),
                                   enabled=False))
        trace_artifacts("crc32", source, max_instructions=500_000,
                        store=store)
        rebuilt = trace_artifacts("crc32", source, max_instructions=500_000,
                                  store=vanishing)
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 2
        assert rebuilt.sim_backend == cold.sim_backend
        assert_same_traces(rebuilt.trace, cold.trace)

    def test_baseline_entry_rebuilt(self, store, vanishing, tmp_path):
        disabled = ArtifactStore(root=str(tmp_path / "cold"), enabled=False)
        cold = baseline(disabled, build(disabled))
        artifacts = build(store)
        baseline(store, artifacts)
        rebuilt = baseline(vanishing, artifacts)
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 3
        assert_same_programs(rebuilt, cold)


class TestTornPayload:
    """A truncated payload (a torn write, a bad disk) is a reload
    failure, even a text cut at a line boundary that still assembles:
    the entry is rebuilt equal to a cold build and replaced, so the
    next call is a store hit."""

    @staticmethod
    def truncate(store, filename):
        (key, _, _), = store.entries()
        path = os.path.join(store.entry_dir(key), filename)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)

    @staticmethod
    def cut_lines(store, filename):
        """Keep the first two thirds of the lines of the one stored
        ``filename``."""
        [path] = [path for path in (
            os.path.join(store.entry_dir(key), filename)
            for key, _, _ in store.entries()) if os.path.exists(path)]
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:len(lines) * 2 // 3])

    def test_cut_clone_text_rebuilt(self, store, tmp_path):
        cold = build(ArtifactStore(root=str(tmp_path / "cold"),
                                   enabled=False))
        build(store)
        self.cut_lines(store, "clone.s")
        rebuilt = build(store)
        assert store.stats()["writes"] == 2
        assert rebuilt.clone.asm_source == cold.clone.asm_source
        assert_same_programs(rebuilt.clone.program, cold.clone.program)
        assert_same_traces(rebuilt.clone_trace, cold.clone_trace)
        hits = store.stats()["hits"]
        build(store)
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["writes"] == 2

    def test_unrecorded_text_length_rebuilt(self, store):
        # An entry saved without text lengths cannot prove its clone.s
        # whole, so it is rebuilt as well.
        build(store)
        (key, _, _), = store.entries()
        path = os.path.join(store.entry_dir(key), META_FILENAME)
        with open(path) as handle:
            meta = json.load(handle)
        del meta["text_lengths"]
        with open(path, "w") as handle:
            json.dump(meta, handle)
        build(store)
        assert store.stats()["writes"] == 2

    def test_cut_baseline_text_rebuilt(self, store, tmp_path):
        disabled = ArtifactStore(root=str(tmp_path / "cold"), enabled=False)
        cold = baseline(disabled, build(disabled))
        artifacts = build(store)
        baseline(store, artifacts)
        self.cut_lines(store, "baseline.s")
        rebuilt = baseline(store, artifacts)
        assert store.stats()["writes"] == 3
        assert_same_programs(rebuilt, cold)
        hits = store.stats()["hits"]
        baseline(store, artifacts)
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["writes"] == 3

    @pytest.mark.parametrize("filename", ["trace.npz", "clone_trace.npz"])
    def test_pipeline_entry_rebuilt(self, store, tmp_path, filename):
        cold = build(ArtifactStore(root=str(tmp_path / "cold"),
                                   enabled=False))
        build(store)
        self.truncate(store, filename)
        rebuilt = build(store)
        assert store.stats()["writes"] == 2
        assert rebuilt.profile.to_dict() == cold.profile.to_dict()
        assert rebuilt.clone.asm_source == cold.clone.asm_source
        assert_same_traces(rebuilt.trace, cold.trace)
        assert_same_traces(rebuilt.clone_trace, cold.clone_trace)
        hits = store.stats()["hits"]
        build(store)
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["writes"] == 2

    def test_trace_entry_rebuilt(self, store, tmp_path):
        source = get_workload("crc32").source()

        def trace_of(target):
            return trace_artifacts("crc32", source,
                                   max_instructions=500_000, store=target)

        cold = trace_of(ArtifactStore(root=str(tmp_path / "cold"),
                                      enabled=False))
        trace_of(store)
        self.truncate(store, "trace.npz")
        rebuilt = trace_of(store)
        assert store.stats()["writes"] == 2
        assert rebuilt.sim_backend == cold.sim_backend
        assert_same_traces(rebuilt.trace, cold.trace)
        hits = store.stats()["hits"]
        trace_of(store)
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["writes"] == 2


class TestBaselineEntry:
    """Ablation A's baseline is stored as assembly text: a hit
    re-assembles it and synthesizes nothing."""

    def test_hit_equals_cold_and_synthesizes_nothing(self, store):
        artifacts = build(store)
        before = synthesis_counts()
        cold = baseline(store, artifacts)
        assert synthesis_counts() == (before[0] + 1, before[1] + 1)
        assert store.stats()["writes"] == 2
        warm = baseline(store, artifacts)
        assert store.stats()["hits"] == 1
        assert synthesis_counts() == (before[0] + 1, before[1] + 1)
        assert_same_programs(warm, cold)

    def test_tuning_is_keyed(self, store):
        artifacts = build(store)
        baseline(store, artifacts)
        baseline(store, artifacts, miss_rate=0.3)
        baseline(store, artifacts, cache=CacheConfig(8 * 1024, 2, 32))
        assert store.stats()["hits"] == 0
        assert store.stats()["writes"] == 4

    def test_key_disjoint_from_other_entry_kinds(self):
        source = get_workload("crc32").source()
        key = baseline_artifact_key("crc32", source, 10, "interp",
                                    PROFILED_CACHE, "gap", 0.2, 0.05,
                                    PARAMS)
        assert key != artifact_key("crc32", source, PARAMS, 10,
                                   sim_backend="interp")
        assert key != trace_artifact_key("crc32", source, 10, "interp")
        for other in (("bimodal", 0.2, 0.05, PARAMS),
                      ("gap", 0.2, 0.06, PARAMS),
                      ("gap", 0.2, 0.05, SynthesisParameters(seed=7))):
            assert key != baseline_artifact_key(
                "crc32", source, 10, "interp", PROFILED_CACHE, *other)
        assert key != baseline_artifact_key("crc32", source, 10, "native",
                                            PROFILED_CACHE, "gap", 0.2,
                                            0.05, PARAMS)

    def test_missing_text_is_miss(self, store):
        artifacts = build(store)
        cold = baseline(store, artifacts)
        (key, _, _), = [entry for entry in store.entries()
                        if os.path.exists(os.path.join(
                            store.entry_dir(entry[0]), "baseline.s"))]
        os.remove(os.path.join(store.entry_dir(key), "baseline.s"))
        misses = store.stats()["misses"]
        before = synthesis_counts()
        rebuilt = baseline(store, artifacts)
        assert store.stats()["misses"] == misses + 1
        assert store.stats()["writes"] == 3
        assert synthesis_counts()[0] == before[0] + 1
        assert_same_programs(rebuilt, cold)

    def test_unparsable_text_is_rebuilt(self, store):
        artifacts = build(store)
        cold = baseline(store, artifacts)
        (key, _, _), = [entry for entry in store.entries()
                        if os.path.exists(os.path.join(
                            store.entry_dir(entry[0]), "baseline.s"))]
        with open(os.path.join(store.entry_dir(key), "baseline.s"),
                  "w") as handle:
            handle.write("    bogus r1\n")
        assert_same_programs(baseline(store, artifacts), cold)
        assert store.stats()["writes"] == 3
        # The rebuild replaced the entry: the next read is a clean hit.
        hits = store.stats()["hits"]
        assert_same_programs(baseline(store, artifacts), cold)
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["writes"] == 3

    def test_disabled_store_synthesizes_every_time(self, store, tmp_path):
        artifacts = build(store)
        disabled = ArtifactStore(root=str(tmp_path / "off"), enabled=False)
        before = synthesis_counts()
        first = baseline(disabled, artifacts)
        second = baseline(disabled, artifacts)
        assert synthesis_counts()[0] == before[0] + 2
        assert disabled.stats()["writes"] == 0
        assert disabled.entries() == []
        assert_same_programs(second, first)


class TestEviction:
    def test_prune_removes_lru_first(self, store):
        build(store, name="crc32")
        build(store, name="sha")
        entries = store.entries()
        assert len(entries) == 2
        # Touch the newer entry so the older one stays least recent.
        oldest_key = entries[0][0]
        os.utime(store.entry_dir(entries[1][0]))
        evicted = store.prune(max_bytes=entries[1][2])
        assert oldest_key in evicted
        assert len(store.entries()) == 1
        assert store.stats()["evictions"] == len(evicted)

    def test_prune_noop_when_under_limit(self, store):
        build(store)
        assert store.prune(max_bytes=store.total_bytes() + 1) == []

    def test_clear(self, store):
        build(store)
        store.clear()
        assert store.entries() == []

    def test_max_bytes_autoprunes_on_write(self, tmp_path):
        bounded = ArtifactStore(root=str(tmp_path / "b"), enabled=True,
                                max_bytes=1)
        build(bounded, name="crc32")
        # The just-written entry itself exceeds the bound and is evicted.
        assert bounded.entries() == []
        assert bounded.stats()["evictions"] >= 1

    def test_eviction_telemetry_counters_and_bytes(self, store):
        from repro.obs.metrics import REGISTRY
        build(store, name="crc32")
        entries_before = REGISTRY.counter("exec.store.eviction").value
        bytes_before = REGISTRY.counter("exec.store.evicted_bytes").value
        evicted = store.prune(max_bytes=0)
        assert evicted
        assert store.evicted_bytes > 0
        assert store.stats()["evicted_bytes"] == store.evicted_bytes
        assert REGISTRY.counter("exec.store.eviction").value \
            == entries_before + len(evicted)
        assert REGISTRY.counter("exec.store.evicted_bytes").value \
            == bytes_before + store.evicted_bytes

    def test_eviction_emits_journal_event(self, store, tmp_path):
        from repro.obs.journal import configure_journal, read_journal
        build(store, name="crc32")
        run_dir = str(tmp_path / "journal")
        configure_journal(run_dir)
        try:
            evicted = store.prune(max_bytes=0)
        finally:
            configure_journal(None)
        events = [event for event in read_journal(run_dir).events
                  if event["kind"] == "store"
                  and event.get("event") == "eviction"]
        assert len(events) == len(evicted)
        assert {event["key"] for event in events} == set(evicted)
        assert all(event["bytes"] > 0 for event in events)


class TestCounters:
    def test_reset(self, store):
        build(store)
        build(store)
        store.reset_counters()
        assert store.stats()["hits"] == 0
        assert store.stats()["writes"] == 0


class TestDefaultStore:
    @pytest.fixture(autouse=True)
    def _fresh_default_store(self, monkeypatch):
        from repro.exec import reset_default_store
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        reset_default_store()
        yield
        monkeypatch.undo()
        reset_default_store()

    def test_budget_set_after_first_call_takes_effect(self, monkeypatch):
        from repro.exec.store import default_store
        assert default_store().max_bytes is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        budgeted = default_store()
        assert budgeted.max_bytes == 4096
        assert default_store() is budgeted  # unchanged env: same store
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert default_store().max_bytes is None
