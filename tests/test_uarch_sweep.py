"""Sweep-engine differential suite: one-pass grids vs the specification.

``simulate_pipeline_sweep`` (and ``simulate_pipeline``, a one-config
sweep) promises *field-for-field identity* with ``PipelineModel.run``,
the timing model's executable spec, for every config in a grid.  This
suite enforces the whole contract on the native C scheduling loop and
on the fallback a host without a C compiler takes, which times every
config with the spec itself and builds no digest or bank:

* identical ``PipelineResult`` fields on all 23 corpus kernels and a
  synthesized clone, across the base config, every paper design change,
  and a superscalar width sweep;
* identical results on the traces ``simulate_pipeline`` times: statsim
  synthetic traces, which have no block structure, and the Ablation C
  real and clone traces at their 100k-instruction cap;
* identical results with and without telemetry, under a cap that lands
  mid basic-block, with no cap at all, and on a trace entering mid-block;
* digest/bank persistence round-trips through the artifact store,
  including corrupt-entry tolerance;
* the vectorized predictor outcome banks match the scalar predictor
  specification kind by kind.

It doubles as the tier-1 CI gate for sweep-engine regressions.
"""

import dataclasses
import gc
import os
import weakref

import pytest

from repro.core import profile_trace
from repro.evaluation import workload_artifacts
from repro.exec.store import ArtifactStore
from repro.obs.metrics import REGISTRY
from repro.obs.runinfo import RunManifest, validate_manifest
from repro.sim import FunctionalSimulator, run_program
from repro.sim.trace import DynamicTrace
from repro.statsim import StatisticalSimulator
from repro.uarch import (
    BASE_CONFIG,
    DESIGN_CHANGES,
    PipelineModel,
    simulate_pipeline,
    simulate_pipeline_sweep,
)
from repro.uarch.branch_predictors import (
    simulate_predictor,
    simulate_predictor_reference,
)
from repro.uarch import native
from repro.uarch.sweep import reset_sweep_stats, sweep_stats_snapshot
from repro.workloads import build_workload, workload_names

KERNELS = workload_names()

#: The grids the paper's evaluation actually runs: base + Table 3's
#: design changes + the Figure 8 width sweep.
GRID = ([BASE_CONFIG] + list(DESIGN_CHANGES)
        + [BASE_CONFIG.renamed(f"width-{width}", width=width)
           for width in (2, 4, 8)])

#: Enough instructions to exercise every structure (ROB/LSQ wrap,
#: fetch-queue stalls, L2 traffic) while keeping the corpus run fast.
CAP = 20_000

#: Ablation C times these kernels' real and clone traces on the base
#: config at this cap through ``simulate_pipeline``.
ABLATION_C_KERNELS = ("qsort", "crc32", "sha", "adpcm", "fft", "rijndael",
                      "dijkstra", "susan")
ABLATION_C_CAP = 100_000


@pytest.fixture(params=["native", "python"])
def engine(request, monkeypatch):
    """Run a test under both timing paths (native C loop, spec fallback).

    The native loop quietly stands down when no C compiler is present,
    so the "native" parameter only asserts availability where the
    environment actually provides one.
    """
    if request.param == "python":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset()
    yield request.param
    native.reset()


@pytest.fixture()
def python_engine(monkeypatch):
    """Force the spec fallback (no C loop)."""
    monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset()
    yield
    native.reset()


def result_fields(result):
    """Every comparable field of a PipelineResult (host timing aside)."""
    data = dataclasses.asdict(result)
    data.pop("wall_seconds")
    data["class_counts"] = [int(count) for count in data["class_counts"]]
    return data


#: (trace id, config, cap, telemetry) -> (trace, spec result fields).
#: The spec is engine-independent, so both engine parameters share one
#: run; holding the trace keeps its id from being reused.
_REFERENCES = {}


def reference_fields(trace, config, max_instructions):
    """``PipelineModel.run`` — the spec — for one config, memoized."""
    key = (id(trace), repr(config), max_instructions, REGISTRY.enabled)
    if key not in _REFERENCES:
        result = PipelineModel(config).run(
            trace, max_instructions=max_instructions)
        _REFERENCES[key] = (trace, result_fields(result))
    return _REFERENCES[key][1]


def assert_sweep_equivalent(trace, configs, max_instructions=CAP,
                            store=None):
    """Sweep the grid and compare each config against the spec."""
    swept = simulate_pipeline_sweep(trace, configs,
                                    max_instructions=max_instructions,
                                    store=store)
    assert len(swept) == len(configs)
    for config, result in zip(configs, swept):
        assert result_fields(result) == reference_fields(
            trace, config, max_instructions), \
            f"sweep diverges from run for config {config.name!r}"


_TRACES = {}


def kernel_trace(name):
    if name not in _TRACES:
        program = build_workload(name)
        _TRACES[name] = FunctionalSimulator(program).run(
            max_instructions=5_000_000, trace=True)
    return _TRACES[name]


@pytest.fixture(scope="module")
def statsim_trace():
    """A statistical-simulation trace: blocks sampled from a flow graph,
    so it follows no program's control flow."""
    profile = profile_trace(kernel_trace("qsort"))
    return StatisticalSimulator(profile).synthesize_trace(50_000)


# ----------------------------------------------------------------------
# Corpus-wide differential equivalence
# ----------------------------------------------------------------------
class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_bit_identical(self, name, engine):
        assert_sweep_equivalent(kernel_trace(name), GRID)

    def test_clone_bit_identical(self, loop_nest_clone_trace, engine):
        assert_sweep_equivalent(loop_nest_clone_trace, GRID)

    def test_uncapped_trace(self, loop_nest_trace, engine):
        assert_sweep_equivalent(loop_nest_trace, GRID,
                                max_instructions=None)

    def test_cap_lands_mid_block(self, loop_nest_trace, engine):
        # 12345 is deliberately not a multiple of any block length.
        assert_sweep_equivalent(loop_nest_trace, GRID,
                                max_instructions=12_345)

    def test_statsim_trace(self, statsim_trace, engine):
        assert_sweep_equivalent(statsim_trace, GRID)
        assert_sweep_equivalent(statsim_trace, [BASE_CONFIG],
                                max_instructions=None)

    @pytest.mark.parametrize("subject", ["real", "clone"])
    @pytest.mark.parametrize("name", ABLATION_C_KERNELS)
    def test_ablation_c_cap(self, name, subject, engine):
        artifacts = workload_artifacts(name)
        trace = (artifacts.trace if subject == "real"
                 else artifacts.clone_trace)
        result = simulate_pipeline(trace, BASE_CONFIG,
                                   max_instructions=ABLATION_C_CAP)
        assert result_fields(result) == reference_fields(
            trace, BASE_CONFIG, ABLATION_C_CAP)

    def test_empty_grid(self, loop_nest_trace):
        assert simulate_pipeline_sweep(loop_nest_trace, []) == []

    def test_results_follow_config_order(self, loop_nest_trace):
        results = simulate_pipeline_sweep(loop_nest_trace, GRID,
                                          max_instructions=CAP)
        assert [result.config.name for result in results] \
            == [config.name for config in GRID]


# ----------------------------------------------------------------------
# Telemetry parity
# ----------------------------------------------------------------------
class TestTelemetryParity:
    def test_equivalent_with_metrics_enabled(self, loop_nest_trace):
        # Stall/redirect counters are collected only while the registry
        # is enabled; the sweep must mirror run() in both modes.
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            assert_sweep_equivalent(loop_nest_trace, GRID[:4])
        finally:
            if not was_enabled:
                REGISTRY.disable()

    def test_stall_counters_populated(self, loop_nest_trace):
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            [result] = simulate_pipeline_sweep(
                loop_nest_trace, [BASE_CONFIG], max_instructions=CAP)
        finally:
            if not was_enabled:
                REGISTRY.disable()
        assert result.rob_stalls + result.lsq_stalls \
            + result.fetch_queue_stalls + result.redirect_cycles > 0


needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C compiler on host")


# ----------------------------------------------------------------------
# Spec fallback (no C compiler)
# ----------------------------------------------------------------------
class TestFallback:
    @pytest.fixture()
    def shifted_trace(self, loop_nest_trace):
        # Dropping the first instruction makes the trace start mid-block.
        return DynamicTrace(loop_nest_trace.program,
                            loop_nest_trace.pcs[1:].copy(),
                            loop_nest_trace.addrs[1:].copy(),
                            loop_nest_trace.taken[1:].copy())

    def test_fallback_is_still_exact(self, shifted_trace, python_engine):
        reset_sweep_stats()
        assert_sweep_equivalent(shifted_trace, GRID[:4])
        assert sweep_stats_snapshot()["fallback_configs"] == 4

    def test_fallback_times_with_the_spec(self, tmp_path, python_engine):
        # A fresh corpus trace, so no digest is memoized on it already.
        trace = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        reset_sweep_stats()
        swept = simulate_pipeline_sweep(trace, GRID, max_instructions=CAP,
                                        store=store)
        for config, result in zip(GRID, swept):
            spec = PipelineModel(config).run(trace, max_instructions=CAP)
            assert result_fields(result) == result_fields(spec), config.name
        stats = sweep_stats_snapshot()
        assert stats["digests_built"] == stats["cache_banks_built"] == 0
        assert stats["fallback_configs"] == len(GRID)
        assert stats["native_configs"] == 0
        assert store.entries() == []

    def test_corpus_runs_never_fall_back(self, loop_nest_trace):
        # Only a host without the native loop times configs by the spec.
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        expected = 0 if native.available() else len(GRID)
        assert sweep_stats_snapshot()["fallback_configs"] == expected


# ----------------------------------------------------------------------
# Digest/bank persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def _forget(self, trace):
        """Drop in-memory memoization so the store is the only cache."""
        if hasattr(trace, "_sweep_digest"):
            del trace._sweep_digest

    @needs_native
    def test_round_trip(self, loop_nest_trace, tmp_path):
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        self._forget(loop_nest_trace)
        reset_sweep_stats()
        cold = simulate_pipeline_sweep(loop_nest_trace, GRID[:4],
                                       max_instructions=CAP, store=store)
        stats = sweep_stats_snapshot()
        assert stats["digests_saved"] == 1
        assert stats["cache_banks_saved"] >= 1
        assert stats["pred_banks_saved"] >= 1

        self._forget(loop_nest_trace)
        reset_sweep_stats()
        warm = simulate_pipeline_sweep(loop_nest_trace, GRID[:4],
                                       max_instructions=CAP, store=store)
        stats = sweep_stats_snapshot()
        assert stats["digests_loaded"] == 1
        assert stats["digests_built"] == 0
        assert stats["cache_banks_loaded"] >= 1
        assert stats["pred_banks_loaded"] >= 1
        assert stats["cache_banks_built"] == stats["pred_banks_built"] == 0
        assert [result_fields(result) for result in cold] \
            == [result_fields(result) for result in warm]

    @needs_native
    def test_bank_store_keys_predict_persisted_entries(
            self, loop_nest_trace, tmp_path):
        """The fleet's pin helper names exactly the digest/bank keys a
        persisted sweep creates, without building any of them."""
        from repro.uarch.sweep import bank_store_keys
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        self._forget(loop_nest_trace)
        predicted = bank_store_keys(loop_nest_trace, GRID[:4])
        assert any(key.startswith("sweep-digest-") for key in predicted)
        assert any(key.startswith("sweep-cbank-") for key in predicted)
        assert any(key.startswith("sweep-pbank-") for key in predicted)
        simulate_pipeline_sweep(loop_nest_trace, GRID[:4],
                                max_instructions=CAP, store=store)
        persisted = {key for key, _, _ in store.entries()}
        assert set(predicted) <= persisted

    @needs_native
    def test_corrupt_entries_are_rebuilt(self, loop_nest_trace, tmp_path):
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        self._forget(loop_nest_trace)
        cold = simulate_pipeline_sweep(loop_nest_trace, GRID[:4],
                                       max_instructions=CAP, store=store)
        # Truncate every persisted payload to garbage.
        clobbered = 0
        for key, _, _ in store.entries():
            entry = store.entry_dir(key)
            for filename in os.listdir(entry):
                if filename.endswith(".npz"):
                    with open(os.path.join(entry, filename), "wb") as fh:
                        fh.write(b"not a payload")
                    clobbered += 1
        assert clobbered > 0

        self._forget(loop_nest_trace)
        reset_sweep_stats()
        recovered = simulate_pipeline_sweep(
            loop_nest_trace, GRID[:4], max_instructions=CAP, store=store)
        stats = sweep_stats_snapshot()
        assert stats["digests_built"] == 1
        assert stats["cache_banks_built"] >= 1
        assert [result_fields(result) for result in cold] \
            == [result_fields(result) for result in recovered]

    def test_disabled_store_is_skipped(self, loop_nest_trace, tmp_path):
        store = ArtifactStore(root=str(tmp_path), enabled=False)
        self._forget(loop_nest_trace)
        reset_sweep_stats()
        assert_sweep_equivalent(loop_nest_trace, GRID[:2], store=store)
        stats = sweep_stats_snapshot()
        assert stats["digests_saved"] == 0
        assert store.entries() == []


# ----------------------------------------------------------------------
# Sweep reuse accounting
# ----------------------------------------------------------------------
class TestSweepStats:
    @needs_native
    def test_shared_banks_counted(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["grids"] == 1
        assert stats["configs"] == len(GRID)
        # Width variants share the base cache hierarchy and predictor,
        # so the banks must be deduplicated across the grid.
        assert stats["distinct_hierarchies"] < len(GRID)
        assert stats["distinct_predictors"] < len(GRID)
        reused = (stats["digests_reused"] + stats["cache_banks_reused"]
                  + stats["pred_banks_reused"])
        assert reused > 0

    def test_manifest_carries_sweep_block(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID[:2],
                                max_instructions=CAP)
        manifest = RunManifest.collect("test", target="loop-nest")
        assert manifest.sweep is not None
        assert manifest.sweep["grids"] == 1
        assert validate_manifest(manifest.to_dict()) == []

    def test_manifest_omits_sweep_when_none_ran(self):
        reset_sweep_stats()
        manifest = RunManifest.collect("test")
        assert manifest.sweep is None
        assert validate_manifest(manifest.to_dict()) == []


# ----------------------------------------------------------------------
# Native timing loop
# ----------------------------------------------------------------------
class TestNative:
    def test_env_gate_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        native.reset()
        try:
            assert not native.available()
        finally:
            native.reset()

    @needs_native
    def test_native_configs_counted(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["native_configs"] == len(GRID)
        assert stats["fallback_configs"] == 0

    @needs_native
    def test_fresh_trace_loads_persisted_digest(self, tmp_path):
        # A second process re-simulates the program into a new trace
        # object with the same content; its sweep restores the digest
        # from the store instead of deriving it again.
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        first = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        cold = simulate_pipeline_sweep(first, GRID[:4],
                                       max_instructions=CAP, store=store)
        second = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        assert not hasattr(second, "_sweep_digest")
        reset_sweep_stats()
        warm = simulate_pipeline_sweep(second, GRID[:4],
                                       max_instructions=CAP, store=store)
        stats = sweep_stats_snapshot()
        assert stats["digests_loaded"] == 1
        assert stats["digests_built"] == 0
        assert [result_fields(result) for result in warm] \
            == [result_fields(result) for result in cold]

    @needs_native
    def test_dropped_trace_frees_its_digest(self, loop_nest_program):
        # The trace owns its digest and the digest must not hold the
        # trace back: with the collector off, dropping the last
        # reference to a swept trace frees its digest (and banks) at
        # once instead of at the next full collection.
        trace = run_program(loop_nest_program)
        simulate_pipeline_sweep(trace, GRID[:4], max_instructions=CAP,
                                store=ArtifactStore(enabled=False))
        digest = weakref.ref(trace._sweep_digest)
        gc.disable()
        try:
            del trace
            assert digest() is None
        finally:
            gc.enable()

    @needs_native
    def test_library_cache_survives_reset(self):
        native.reset()
        assert native.available()


# ----------------------------------------------------------------------
# Vectorized predictors vs the scalar specification
# ----------------------------------------------------------------------
class TestPredictorEquivalence:
    KINDS = ["nottaken", "taken", "bimodal", "gap", "gshare"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_loop_nest(self, kind, loop_nest_trace):
        fast = simulate_predictor(loop_nest_trace, kind)
        slow = simulate_predictor_reference(loop_nest_trace, kind)
        assert fast.stats.lookups == slow.stats.lookups
        assert fast.stats.mispredictions == slow.stats.mispredictions

    @pytest.mark.parametrize("kind", KINDS)
    def test_corpus_kernel(self, kind):
        trace = kernel_trace("qsort")
        fast = simulate_predictor(trace, kind)
        slow = simulate_predictor_reference(trace, kind)
        assert fast.stats.lookups == slow.stats.lookups
        assert fast.stats.mispredictions == slow.stats.mispredictions

    @pytest.mark.parametrize("kind,kwargs", [
        ("bimodal", {"entries": 64}),
        ("gshare", {"history_bits": 6}),
        ("gap", {"history_bits": 3, "pc_bits": 4}),
    ])
    def test_sized_variants(self, kind, kwargs, loop_nest_trace):
        fast = simulate_predictor(loop_nest_trace, kind, **kwargs)
        slow = simulate_predictor_reference(loop_nest_trace, kind,
                                            **kwargs)
        assert fast.stats.mispredictions == slow.stats.mispredictions
