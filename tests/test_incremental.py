"""Incremental re-simulation: artifact reuse + bit-identity.

Two contracts:

* each config knob class rebuilds exactly the artifacts the sweep
  engine keys on it, read from the engine's own ``*_built`` /
  ``*_reused`` counters (one test per knob class);
* an :class:`IncrementalSession` walking a *random* sequence of
  single-knob config edits stays field-for-field identical to
  ``PipelineModel.run`` (the timing spec) of every visited config — the
  property the ≥20x re-sweep speedup is only allowed to exist under.

Plus the profile axis of clone refinement: every re-synthesized clone
is a new trace, so its first run builds every artifact in memory (none
is read from the artifact store); a clone of an identical or relabeled
profile times exactly as the first did, and a materially perturbed
profile's clone still matches the spec exactly.
"""

import dataclasses
import random

import pytest

from repro.core import make_clone, profile_trace
from repro.core.synthesizer import SynthesisParameters
from repro.sim import FunctionalSimulator
from repro.uarch import BASE_CONFIG, IncrementalSession, PipelineModel, native
from repro.uarch.cache import CacheConfig
from repro.uarch.sweep import sweep_stats_snapshot
from repro.workloads import build_workload

CAP = 20_000

#: The sweep counters recording, per artifact, whether a run built it
#: or reused it from the trace's in-memory digest.
REUSE_COUNTERS = tuple(f"{artifact}_{how}"
                       for artifact in ("digests", "cache_banks",
                                        "pred_banks")
                       for how in ("built", "reused"))

#: A run that reuses or builds all three artifacts.
ALL_REUSED = {"digests_reused": 1, "cache_banks_reused": 1,
              "pred_banks_reused": 1}
ALL_BUILT = {"digests_built": 1, "cache_banks_built": 1,
             "pred_banks_built": 1}

#: Single-knob edit generators, one per artifact-dependence class.
KNOBS = [
    ("rob_size", lambda rng: {"rob_size": rng.choice([8, 16, 24, 32])}),
    ("lsq_size", lambda rng: {"lsq_size": rng.choice([4, 8, 16])}),
    ("width", lambda rng: {"width": rng.choice([1, 2, 4])}),
    ("in_order", lambda rng: {"in_order": rng.choice([True, False])}),
    ("l1d", lambda rng: {"l1d": CacheConfig(
        rng.choice([4096, 8192, 16384]), rng.choice([1, 2]), 32)}),
    ("l2_latency", lambda rng: {"l2_latency": rng.choice([6, 8, 12])}),
    ("predictor", lambda rng: {"predictor": rng.choice(
        ["gap", "nottaken", "bimodal"])}),
    ("mispredict_penalty",
     lambda rng: {"mispredict_penalty": rng.choice([3, 5, 8])}),
    ("latency_fmul", lambda rng: {"latency_fmul": rng.choice([2, 4, 6])}),
]


def result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")
    return fields


def expect(counts):
    """The counters a run should move: without the C loop the sweep
    times each config with the spec and builds no artifact at all."""
    return counts if native.available() else {}


def run_counted(session, config):
    """``session.run([config])`` and the reuse counters it moved."""
    before = sweep_stats_snapshot()
    [result] = session.run([config])
    after = sweep_stats_snapshot()
    moved = {key: after[key] - before[key] for key in REUSE_COUNTERS
             if after[key] != before[key]}
    return result, moved


def crc32_run():
    return FunctionalSimulator(build_workload("crc32")).run(
        max_instructions=2_000_000, trace=True)


@pytest.fixture(scope="module")
def crc32_trace():
    return crc32_run()


@pytest.fixture
def warm_session():
    """A session over a fresh crc32 trace (no digest yet), warmed on
    ``BASE_CONFIG``."""
    session = IncrementalSession(crc32_run(), max_instructions=CAP)
    _, moved = run_counted(session, BASE_CONFIG)
    assert moved == expect(ALL_BUILT)
    return session


def clone_trace(profile):
    clone = make_clone(profile,
                       SynthesisParameters(dynamic_instructions=30_000))
    return FunctionalSimulator(clone.program).run(
        max_instructions=2_000_000, trace=True)


def first_run(trace):
    """A brand-new session's first result and the counters it moved."""
    session = IncrementalSession(trace, max_instructions=CAP)
    return run_counted(session, BASE_CONFIG)


class TestPlanClassification:
    """Each knob class against the artifacts a re-run really builds."""

    def test_cache_knob_rebuilds_cache_bank_only(self, warm_session):
        edited = BASE_CONFIG.renamed("half-l1d", l1d=CacheConfig(
            BASE_CONFIG.l1d.size // 2, BASE_CONFIG.l1d.assoc,
            BASE_CONFIG.l1d.line))
        _, moved = run_counted(warm_session, edited)
        assert moved == expect({"digests_reused": 1,
                                "cache_banks_built": 1,
                                "pred_banks_reused": 1})

    def test_predictor_knob_rebuilds_pred_bank_only(self, warm_session):
        _, moved = run_counted(
            warm_session, BASE_CONFIG.renamed("nt", predictor="nottaken"))
        assert moved == expect({"digests_reused": 1,
                                "cache_banks_reused": 1,
                                "pred_banks_built": 1})

    def test_width_change_rebuilds_nothing(self, warm_session):
        # The scheduling loop reads the width at run time.
        _, moved = run_counted(warm_session,
                               BASE_CONFIG.renamed("w2", width=2))
        assert moved == expect(ALL_REUSED)

    def test_ring_resize_rebuilds_nothing(self, warm_session):
        _, moved = run_counted(warm_session,
                               BASE_CONFIG.renamed("rob24", rob_size=24))
        assert moved == expect(ALL_REUSED)

    def test_latency_knob_rebuilds_nothing(self, warm_session):
        _, moved = run_counted(
            warm_session, BASE_CONFIG.renamed("slow", latency_fmul=6))
        assert moved == expect(ALL_REUSED)

    def test_rename_only_changes_nothing(self, warm_session):
        _, moved = run_counted(warm_session, BASE_CONFIG.renamed("alias"))
        assert moved == expect(ALL_REUSED)

    def test_digest_always_survives_config_edits(self, warm_session):
        edited = BASE_CONFIG.renamed(
            "everything", width=4, rob_size=64, predictor="nottaken",
            l1d=CacheConfig(4096, 1, 32), memory_latency=80)
        _, moved = run_counted(warm_session, edited)
        assert moved == expect({"digests_reused": 1,
                                "cache_banks_built": 1,
                                "pred_banks_built": 1})


class TestRandomKnobWalk:
    def test_single_knob_walk_matches_cold_reference(self, crc32_trace):
        rng = random.Random(20260808)
        session = IncrementalSession(crc32_trace, max_instructions=CAP)
        config = BASE_CONFIG
        session.run([config])
        for step in range(12):
            knob, generate = rng.choice(KNOBS)
            config = config.renamed(f"step-{step}-{knob}",
                                    **generate(rng))
            incremental, moved = run_counted(session, config)
            assert "digests_built" not in moved, \
                f"rebuilt the digest at step {step} ({knob})"
            spec = PipelineModel(config).run(crc32_trace,
                                             max_instructions=CAP)
            assert result_fields(incremental) == result_fields(spec), \
                f"diverged at step {step} ({knob})"


class TestBatchedRun:
    def test_one_call_equals_one_call_per_config(self):
        # A fleet block times all its configs in one call; each result
        # must equal the one a single-config call gives, field for field.
        rng = random.Random(20261018)
        configs = [BASE_CONFIG]
        for step in range(8):
            knob, generate = rng.choice(KNOBS)
            configs.append(configs[-1].renamed(f"step-{step}-{knob}",
                                               **generate(rng)))
        batched = IncrementalSession(crc32_run(),
                                     max_instructions=CAP).run(configs)
        assert len(batched) == len(configs)
        single = IncrementalSession(crc32_run(), max_instructions=CAP)
        for config, result in zip(configs, batched):
            [alone] = single.run([config])
            assert result_fields(result) == result_fields(alone), \
                config.name


class TestProfileDelta:
    def test_identical_profiles_time_identically(self, crc32_trace):
        # Every re-synthesized clone is a new trace: its first run
        # builds every artifact in memory, and a clone of the same
        # profile, relabeled or not, times exactly as the first did.
        profile = profile_trace(crc32_trace)
        relabeled = dataclasses.replace(profile, name="crc32-copy")
        first, moved = first_run(clone_trace(profile))
        assert moved == expect(ALL_BUILT)
        for again in (profile, relabeled):
            result, moved = first_run(clone_trace(again))
            assert moved == expect(ALL_BUILT)
            assert result_fields(result) == result_fields(first)

    def test_material_change_is_full_rebuild(self, crc32_trace):
        profile = profile_trace(crc32_trace)
        perturbed = dataclasses.replace(
            profile, data_footprint_bytes=profile.data_footprint_bytes * 2)
        assert first_run(clone_trace(profile))[1] == expect(ALL_BUILT)
        assert first_run(clone_trace(perturbed))[1] == expect(ALL_BUILT)

    def test_crc32_clone_refinement_equivalence(self, crc32_trace):
        """A perturbed-profile clone re-times bit-identically.

        The refinement loop's profile axis: perturb the profile,
        re-synthesize, re-simulate.  The clone's artifacts are all
        rebuilt, and the rebuilt path must still match the spec field
        for field.
        """
        profile = profile_trace(crc32_trace)
        perturbed = dataclasses.replace(
            profile, name="crc32-refined",
            data_footprint_bytes=profile.data_footprint_bytes * 2)
        refined = clone_trace(perturbed)
        session = IncrementalSession(refined, max_instructions=CAP)
        for config in (BASE_CONFIG,
                       BASE_CONFIG.renamed("rob32", rob_size=32)):
            [incremental] = session.run([config])
            spec = PipelineModel(config).run(refined, max_instructions=CAP)
            assert result_fields(incremental) == result_fields(spec)
