"""Incremental re-simulation: planner classification + bit-identity.

Two contracts:

* the planner's reuse/rebuild verdicts match the sweep engine's actual
  artifact keying (unit tests per knob class);
* an :class:`IncrementalSession` walking a *random* sequence of
  single-knob config edits stays field-for-field identical to
  ``PipelineModel.run`` (the timing spec) of every visited config — the
  property the ≥20x re-sweep speedup is only allowed to exist under.

Plus the fig4-outlier profile-delta path: a crc32 clone re-synthesized
from a perturbed profile is a planned full rebuild, and its incremental
re-simulation still matches the spec exactly.
"""

import dataclasses
import random

import pytest

from repro.core import make_clone, profile_trace
from repro.core.synthesizer import SynthesisParameters
from repro.sim import FunctionalSimulator
from repro.uarch import (
    BASE_CONFIG,
    IncrementalSession,
    PipelineModel,
    plan_incremental,
    plan_profile_delta,
)
from repro.uarch.cache import CacheConfig
from repro.uarch.sweep import sweep_stats_snapshot
from repro.workloads import build_workload

CAP = 20_000

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


@pytest.fixture(scope="module")
def crc32_trace():
    return FunctionalSimulator(build_workload("crc32")).run(
        max_instructions=2_000_000, trace=True)


class TestPlanClassification:
    def test_cache_knob_rebuilds_cache_bank_only(self):
        edited = BASE_CONFIG.renamed("half-l1d", l1d=CacheConfig(
            BASE_CONFIG.l1d.size // 2, BASE_CONFIG.l1d.assoc,
            BASE_CONFIG.l1d.line))
        plan = plan_incremental(BASE_CONFIG, edited)
        assert plan.rebuilt == ("cache_bank",)
        assert set(plan.reused) == {"digest", "pred_bank"}
        assert "l1d" in plan.changed_fields
        assert not plan.full_rebuild

    def test_predictor_knob_rebuilds_pred_bank_only(self):
        plan = plan_incremental(
            BASE_CONFIG, BASE_CONFIG.renamed("nt", predictor="nottaken"))
        assert plan.rebuilt == ("pred_bank",)

    def test_width_change_rebuilds_nothing(self, crc32_trace):
        # The scheduling loop reads the width at run time: the plan
        # rebuilds nothing, and the engine builds no digest or bank.
        widened = BASE_CONFIG.renamed("w2", width=2)
        plan = plan_incremental(BASE_CONFIG, widened)
        assert plan.rebuilt == ()
        assert plan.params_changed
        session = IncrementalSession(crc32_trace, max_instructions=CAP)
        session.run(BASE_CONFIG)
        before = sweep_stats_snapshot()
        session.run(widened)
        after = sweep_stats_snapshot()
        assert session.last_plan.rebuilt == ()
        for key in ("digests_built", "cache_banks_built",
                    "pred_banks_built"):
            assert after[key] == before[key], key

    def test_ring_resize_rebuilds_nothing(self):
        plan = plan_incremental(
            BASE_CONFIG, BASE_CONFIG.renamed("rob24", rob_size=24))
        assert plan.rebuilt == ()
        assert plan.params_changed

    def test_latency_knob_rebuilds_nothing(self):
        plan = plan_incremental(
            BASE_CONFIG, BASE_CONFIG.renamed("slow", latency_fmul=6))
        assert plan.rebuilt == ()
        assert plan.params_changed

    def test_rename_only_changes_nothing(self):
        plan = plan_incremental(BASE_CONFIG, BASE_CONFIG.renamed("alias"))
        assert plan.changed_fields == ("name",)
        assert plan.rebuilt == ()
        assert not plan.params_changed

    def test_digest_always_survives_config_edits(self):
        edited = BASE_CONFIG.renamed(
            "everything", width=4, rob_size=64, predictor="nottaken",
            l1d=CacheConfig(4096, 1, 32), memory_latency=80)
        plan = plan_incremental(BASE_CONFIG, edited)
        assert "digest" in plan.reused
        assert set(plan.rebuilt) == {"cache_bank", "pred_bank"}


class TestRandomKnobWalk:
    def test_single_knob_walk_matches_cold_reference(self, crc32_trace):
        rng = random.Random(20260808)
        session = IncrementalSession(crc32_trace, max_instructions=CAP)
        config = BASE_CONFIG
        session.run(config)
        for step in range(12):
            knob, generate = rng.choice(KNOBS)
            config = config.renamed(f"step-{step}-{knob}",
                                    **generate(rng))
            incremental = session.run(config)
            plan = session.last_plan
            assert set(plan.reused) | set(plan.rebuilt) \
                == {"digest", "cache_bank", "pred_bank"}
            spec = PipelineModel(config).run(crc32_trace,
                                             max_instructions=CAP)
            assert result_fields(incremental) == result_fields(spec), \
                f"diverged at step {step} ({knob})"


class TestProfileDelta:
    def test_identical_profiles_reuse_everything(self, crc32_trace):
        profile = profile_trace(crc32_trace)
        plan = plan_profile_delta(profile, profile)
        assert plan.changed_fields == ()
        assert plan.rebuilt == ()

    def test_rename_is_not_a_rebuild(self, crc32_trace):
        profile = profile_trace(crc32_trace)
        relabeled = dataclasses.replace(profile, name="crc32-copy")
        plan = plan_profile_delta(profile, relabeled)
        assert plan.changed_fields == ("name",)
        assert plan.rebuilt == ()

    def test_material_change_is_full_rebuild(self, crc32_trace):
        profile = profile_trace(crc32_trace)
        perturbed = dataclasses.replace(
            profile, total_instructions=profile.total_instructions + 1)
        plan = plan_profile_delta(profile, perturbed)
        assert plan.full_rebuild
        assert set(plan.rebuilt) == {"digest", "cache_bank", "pred_bank"}

    def test_crc32_clone_refinement_equivalence(self, crc32_trace):
        """A perturbed-profile clone re-times bit-identically.

        The refinement loop's profile axis: perturb the profile,
        re-synthesize, re-simulate.  The planner calls it a full
        rebuild, and the rebuilt path must still match the spec field
        for field.
        """
        profile = profile_trace(crc32_trace)
        perturbed = dataclasses.replace(
            profile, name="crc32-refined",
            data_footprint_bytes=profile.data_footprint_bytes * 2)
        plan = plan_profile_delta(profile, perturbed)
        assert plan.full_rebuild

        clone = make_clone(perturbed,
                           SynthesisParameters(dynamic_instructions=30_000))
        clone_trace = FunctionalSimulator(clone.program).run(
            max_instructions=2_000_000, trace=True)
        session = IncrementalSession(clone_trace, max_instructions=CAP)
        for config in (BASE_CONFIG,
                       BASE_CONFIG.renamed("rob32", rob_size=32)):
            incremental = session.run(config)
            spec = PipelineModel(config).run(clone_trace,
                                             max_instructions=CAP)
            assert result_fields(incremental) == result_fields(spec)
