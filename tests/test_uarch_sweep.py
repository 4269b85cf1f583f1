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
* identical results with and without `--quiet`, under a cap that lands
  mid basic-block, with no cap at all, and on a trace entering mid-block;
* identical results when same-shape configs are timed together in SIMD
  lanes, at each lane width the host runs, with ragged remainders and
  in config order;
* digests and banks stay in process: no sweep reads or writes the
  artifact store, and ``store=`` is still accepted;
* the predictor outcome banks (C counter loop, or the spec replay
  without it) match the scalar predictor specification kind by kind,
  on the corpus and on random branch streams.

It doubles as the tier-1 CI gate for sweep-engine regressions.
"""

import dataclasses
import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import profile_trace
from repro.evaluation import workload_artifacts
from repro.cli import main
from repro.exec import reset_default_store
from repro.exec.store import ArtifactStore, default_store
from repro.obs import logging as obslog
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
    make_predictor,
    predictor_outcome_bank,
    simulate_predictor,
    simulate_predictor_reference,
)
from repro.uarch.cache import CacheConfig
from repro.uarch import native
from repro.uarch.sweep import (_hierarchy_key, _predictor_key,
                               simulate_predictor_sweep,
                               sweep_stats_snapshot)
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

#: The lane widths the sweep's lane kernel is built for.
LANE_WIDTHS = (8, 4)

_LANE_L1DS = (CacheConfig(8192, 2, 32), CacheConfig(16384, 2, 32),
              CacheConfig(32768, 4, 32))
_LANE_PREDICTORS = ("gap", "nottaken", "bimodal", "gshare")


def lane_grid(count, label="lane", **shape):
    """``count`` configs that share one lane shape (``shape`` overrides
    it) and differ in width, predictor, L1D, issue order, mispredict
    penalty and FU latencies: everything a lane keeps for itself."""
    return [BASE_CONFIG.renamed(
        f"{label}-{k}", width=(1, 2, 4, 8)[k % 4],
        predictor=_LANE_PREDICTORS[k // 2 % 4],
        l1d=_LANE_L1DS[k % 3], in_order=k % 5 == 3,
        mispredict_penalty=3 + k % 7, latency_imul=2 + k % 3,
        latency_idiv=10 + k % 4, latency_falu=1 + k % 2,
        latency_fmul=3 + k % 3, latency_fdiv=9 + k % 5, **shape)
        for k in range(count)]


#: A grid that fills two 8-lane passes and a padded third, so every
#: differential that sweeps it runs the lane kernel.
LANE_GRID = lane_grid(2 * 8 + 3)

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


#: (trace id, config, cap) -> (trace, spec result fields).
#: The spec is engine-independent, so both engine parameters share one
#: run; holding the trace keeps its id from being reused.
_REFERENCES = {}


def reference_fields(trace, config, max_instructions):
    """``PipelineModel.run`` — the spec — for one config, memoized."""
    key = (id(trace), repr(config), max_instructions)
    if key not in _REFERENCES:
        result = PipelineModel(config).run(
            trace, max_instructions=max_instructions)
        _REFERENCES[key] = (trace, result_fields(result))
    return _REFERENCES[key][1]


def assert_sweep_equivalent(trace, configs, max_instructions=CAP,
                            **kwargs):
    """Sweep the grid and compare each config against the spec."""
    swept = simulate_pipeline_sweep(trace, configs,
                                    max_instructions=max_instructions,
                                    **kwargs)
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

    def test_lane_grid_bit_identical(self, engine):
        REGISTRY.reset()
        assert_sweep_equivalent(kernel_trace("fft"), LANE_GRID)
        lanes = sweep_stats_snapshot()["lane_configs"]
        timed_in_lanes = (engine == "native"
                          and native.lane_width() >= min(LANE_WIDTHS))
        assert lanes == (len(LANE_GRID) if timed_in_lanes else 0)

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
        assert_sweep_equivalent(loop_nest_trace, GRID[:4])

    def test_stall_counters_populated(self, loop_nest_trace):
        [result] = simulate_pipeline_sweep(
            loop_nest_trace, [BASE_CONFIG], max_instructions=CAP)
        assert result.rob_stalls + result.lsq_stalls \
            + result.fetch_queue_stalls + result.redirect_cycles > 0

    def test_quiet_changes_no_field(self, loop_nest_trace, capsys):
        """With tracing off (what ``--quiet`` switches) and on, the
        sweep and the spec return the same fields, stalls included."""
        def fields():
            swept = simulate_pipeline_sweep(loop_nest_trace, GRID[:4],
                                            max_instructions=CAP)
            spec = [PipelineModel(config).run(loop_nest_trace,
                                              max_instructions=CAP)
                    for config in GRID[:4]]
            return ([result_fields(result) for result in swept],
                    [result_fields(result) for result in spec])

        level = obslog.current_level()
        try:
            assert main(["list", "--quiet"]) == 0
            quiet = fields()
        finally:
            obslog.configure(level=level)
            assert main(["list"]) == 0
        loud = fields()
        assert quiet == loud
        assert loud[0] == loud[1]
        assert any(row["rob_stalls"] for row in loud[0])
        assert any(row["redirect_cycles"] for row in loud[0])


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
        REGISTRY.reset()
        assert_sweep_equivalent(shifted_trace, GRID[:4])
        assert sweep_stats_snapshot()["fallback_configs"] == 4

    def test_fallback_times_with_the_spec(self, tmp_path, python_engine):
        # A fresh corpus trace, so no digest is memoized on it already.
        trace = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        store = ArtifactStore(root=str(tmp_path), enabled=True)
        REGISTRY.reset()
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
        REGISTRY.reset()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        expected = 0 if native.available() else len(GRID)
        assert sweep_stats_snapshot()["fallback_configs"] == expected


# ----------------------------------------------------------------------
# Digests and banks stay in process
# ----------------------------------------------------------------------
class TestInProcessOnly:
    def test_sweeps_leave_no_store_entries(self, loop_nest_program,
                                           tmp_path, monkeypatch):
        # A fresh corpus-sized trace under an enabled default store:
        # neither sweep reads or writes a digest or bank entry.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_store()
        store = default_store()
        assert store.enabled
        trace = run_program(loop_nest_program)
        assert len(trace) >= 10_000
        assert_sweep_equivalent(trace, GRID[:4])
        simulate_predictor_sweep(run_program(loop_nest_program),
                                 ["gap", ("bimodal", {"entries": 64})])
        assert [key for key, _, _ in store.entries()
                if key.startswith("sweep-")] == []
        assert (store.hits, store.misses, store.writes) == (0, 0, 0)
        reset_default_store()

    def test_disabled_store_is_accepted(self, loop_nest_trace, tmp_path):
        # perfbench's output check passes store=; it is ignored.
        store = ArtifactStore(root=str(tmp_path), enabled=False)
        assert_sweep_equivalent(loop_nest_trace, GRID[:2], store=store)
        assert store.entries() == []


# ----------------------------------------------------------------------
# Sweep reuse accounting
# ----------------------------------------------------------------------
class TestSweepStats:
    @needs_native
    def test_shared_banks_counted(self, loop_nest_trace):
        REGISTRY.reset()
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
        REGISTRY.reset()
        simulate_pipeline_sweep(loop_nest_trace, GRID[:2],
                                max_instructions=CAP)
        manifest = RunManifest.collect("test", target="loop-nest")
        assert manifest.sweep is not None
        assert manifest.sweep["grids"] == 1
        assert validate_manifest(manifest.to_dict()) == []

    def test_manifest_omits_sweep_when_none_ran(self):
        REGISTRY.reset()
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
        REGISTRY.reset()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["native_configs"] == len(GRID)
        assert stats["fallback_configs"] == 0

    @needs_native
    def test_fresh_trace_rebuilds_its_digest(self):
        # A new trace object with the same content shares nothing with
        # the first: its sweep builds its own digest and banks, and
        # times every config the same.
        first = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        cold = simulate_pipeline_sweep(first, GRID[:4],
                                       max_instructions=CAP)
        second = FunctionalSimulator(build_workload("crc32")).run(
            max_instructions=5_000_000, trace=True)
        assert not hasattr(second, "_sweep_digest")
        REGISTRY.reset()
        rebuilt = simulate_pipeline_sweep(second, GRID[:4],
                                          max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["digests_built"] == 1
        assert stats["digests_reused"] == 0
        assert stats["cache_banks_built"] == len(
            {_hierarchy_key(config) for config in GRID[:4]})
        assert [result_fields(result) for result in rebuilt] \
            == [result_fields(result) for result in cold]

    @needs_native
    def test_dropped_trace_frees_its_digest(self, loop_nest_program):
        # The trace owns its digest and the digest must not hold the
        # trace back: with the collector off, dropping the last
        # reference to a swept trace frees its digest (and banks) at
        # once instead of at the next full collection.
        trace = run_program(loop_nest_program)
        simulate_pipeline_sweep(trace, GRID[:4], max_instructions=CAP)
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
# Lane passes: same-shape configs timed together by the lane kernel
# ----------------------------------------------------------------------
@pytest.fixture(params=LANE_WIDTHS)
def lane_width(request, monkeypatch):
    """Make the sweep time lane passes ``request.param`` configs wide."""
    native.reset()
    if not native.available():
        pytest.skip("no native loop (no C compiler, or REPRO_NATIVE=0): "
                    "the sweep times every config with the spec")
    host = native.lane_width()
    if request.param > host:
        pytest.skip(f"host runs {host} lanes; {request.param} lanes need "
                    f"{native.LANE_TARGETS[request.param]}")
    monkeypatch.setattr(native, "lane_width", lambda: request.param)
    yield request.param
    native.reset()


def mixed_shape_grid(width):
    """Four lane shapes whose groups leave ragged remainders: one lone
    config, a padded pass of two, one of three, and a single left over
    after a full pass; interleaved so config order differs from pass
    order."""
    groups = [
        lane_grid(width + 1, "rob16"),
        lane_grid(width + 2, "rob32-alu3", rob_size=32, lsq_size=16,
                  n_int_alu=3),
        lane_grid(1, "iline64", l1i=CacheConfig(16384, 2, 64)),
        lane_grid(3, "fq4-mem2", fetch_queue=4, n_mem_ports=2),
    ]
    configs = []
    for row in range(max(len(group) for group in groups)):
        configs.extend(group[row] for group in groups if row < len(group))
    return configs


class TestLanes:
    @pytest.mark.parametrize("name", ["crc32", "qsort", "fft"])
    def test_same_shape_grid(self, name, lane_width):
        grid = LANE_GRID[:2 * lane_width + 3]
        REGISTRY.reset()
        assert_sweep_equivalent(kernel_trace(name), grid)
        # Two full passes and a padded one of three.
        assert sweep_stats_snapshot()["lane_configs"] == len(grid)

    def test_clone_same_shape_grid(self, loop_nest_clone_trace,
                                   lane_width):
        assert_sweep_equivalent(loop_nest_clone_trace,
                                LANE_GRID[:2 * lane_width + 3])

    def test_mixed_shape_grid(self, lane_width):
        grid = mixed_shape_grid(lane_width)
        REGISTRY.reset()
        assert_sweep_equivalent(kernel_trace("sha"), grid)
        stats = sweep_stats_snapshot()
        # Lone configs (the 64-byte I-line one and the rob16 one left
        # after its full pass) are timed by repro_run_range.
        assert stats["lane_configs"] == len(grid) - 2
        assert stats["native_configs"] == len(grid)

    def test_results_follow_config_order(self, loop_nest_trace,
                                         lane_width):
        grid = mixed_shape_grid(lane_width)
        results = simulate_pipeline_sweep(loop_nest_trace, grid,
                                          max_instructions=CAP)
        assert [result.config.name for result in results] \
            == [config.name for config in grid]

    def test_wall_seconds_split_over_lanes(self, lane_width):
        trace = kernel_trace("crc32")
        grid = mixed_shape_grid(lane_width)
        started = time.perf_counter()
        results = simulate_pipeline_sweep(trace, grid, max_instructions=CAP)
        grid_wall = time.perf_counter() - started
        assert all(result.wall_seconds > 0 for result in results)
        assert sum(result.wall_seconds for result in results) <= grid_wall

    @needs_native
    @pytest.mark.parametrize("host", ["no-simd", "failed-build"])
    def test_without_lanes_configs_time_alone(self, host, loop_nest_trace,
                                              monkeypatch):
        if host == "no-simd":
            monkeypatch.setattr(native, "lane_width", lambda: 0)
        else:
            monkeypatch.setattr(native, "LANE_TARGETS",
                                dict.fromkeys(LANE_WIDTHS, "no-such-isa"))
            monkeypatch.setattr(native, "lane_width", lambda: 8)
        native.reset()
        REGISTRY.reset()
        try:
            assert_sweep_equivalent(loop_nest_trace, LANE_GRID[:4])
        finally:
            native.reset()
        stats = sweep_stats_snapshot()
        assert (stats["native_configs"], stats["lane_configs"]) == (4, 0)

    def test_pass_rejects_mixed_line_sizes(self, loop_nest_trace,
                                           lane_width):
        configs = [BASE_CONFIG, BASE_CONFIG.renamed(
            "iline64", l1i=CacheConfig(16384, 2, 64))]
        simulate_pipeline_sweep(loop_nest_trace, configs,
                                max_instructions=CAP)
        digest = loop_nest_trace._sweep_digest
        with pytest.raises(ValueError):
            native.run_lanes(
                CAP, digest, configs,
                [digest.cache_banks[_hierarchy_key(c)] for c in configs],
                [digest.pred_banks[_predictor_key(c)] for c in configs],
                lane_width)

    def test_lone_configs_skip_lanes(self, loop_nest_trace, lane_width):
        REGISTRY.reset()
        simulate_pipeline_sweep(loop_nest_trace, [BASE_CONFIG],
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["native_configs"] == 1
        assert stats["lane_configs"] == 0


# ----------------------------------------------------------------------
# Predictor outcome banks vs the scalar specification
# ----------------------------------------------------------------------
def spec_outcomes(pcs, taken, kind, kwargs):
    """Mispredict flag per branch from the spec predictor's replay."""
    predictor = make_predictor(kind, **kwargs)
    flags = []
    for pc, outcome in zip(pcs, taken):
        flags.append(predictor.predict(pc) != outcome)
        predictor.update(pc, outcome)
    return flags


#: Every predictor kind, with table sizes small enough that random
#: streams alias and wrap the history.
predictor_specs = st.one_of(
    st.sampled_from([("nottaken", {}), ("taken", {}), ("bimodal", {}),
                     ("gap", {}), ("gshare", {})]),
    st.builds(lambda bits: ("bimodal", {"entries": 1 << bits}),
              st.integers(0, 8)),
    st.builds(lambda history, pc: ("gap", {"history_bits": history,
                                           "pc_bits": pc}),
              st.integers(0, 6), st.integers(0, 5)),
    st.builds(lambda history: ("gshare", {"history_bits": history}),
              st.integers(0, 10)),
)


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

    @settings(max_examples=150, deadline=None)
    @given(spec=predictor_specs,
           stream=st.lists(st.tuples(
               st.one_of(st.integers(0, 63), st.integers(0, 2**40)),
               st.booleans()), max_size=300))
    def test_random_streams_match_spec(self, spec, stream):
        # Empty streams, pcs far beyond the table and every kind: the
        # bank is the spec's replay, flag for flag.
        kind, kwargs = spec
        pcs = [pc for pc, _ in stream]
        taken = [outcome for _, outcome in stream]
        bank = predictor_outcome_bank(np.array(pcs, dtype=np.int64),
                                      np.array(taken, dtype=bool), kind,
                                      **kwargs)
        assert bank.dtype == bool
        assert bank.tolist() == spec_outcomes(pcs, taken, kind, kwargs)
