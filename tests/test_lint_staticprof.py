"""Static profile prediction (CF210-CF215) against the real profiler.

The acceptance bar for the predictor is *bit-for-bit* agreement with
``profile_trace(run_program(clone))`` on synthesized clones — same SFG
structure (blocks, transitions, contexts), same per-op statistics —
plus a sound decline (CF210) on anything it cannot certify.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SynthesisParameters, make_clone, profile_trace
from repro.lint import (
    StaticPredictionError,
    check_static_conformance,
    lint_clone,
    predict_profile,
)
from repro.sim import run_program
from repro.workloads import build_workload


def assert_profiles_identical(predicted, dynamic):
    """Field-by-field bit-for-bit comparison of two WorkloadProfiles."""
    assert predicted.total_instructions == dynamic.total_instructions
    assert predicted.total_memory_ops == dynamic.total_memory_ops
    assert predicted.total_branches == dynamic.total_branches
    assert predicted.global_mix == dynamic.global_mix
    assert set(predicted.blocks) == set(dynamic.blocks)
    for bid, want in dynamic.blocks.items():
        got = predicted.blocks[bid]
        assert (got.visits, got.size, got.mix) == \
            (want.visits, want.size, want.mix), f"block {bid}"
        assert got.mem_pcs == want.mem_pcs
        assert got.branch_pc == want.branch_pc
    assert predicted.transitions == dynamic.transitions
    assert ({k: v.visits for k, v in predicted.contexts.items()}
            == {k: v.visits for k, v in dynamic.contexts.items()})
    assert set(predicted.branches) == set(dynamic.branches)
    for pc, want in dynamic.branches.items():
        got = predicted.branches[pc]
        assert (got.count, got.taken_rate, got.transition_rate) == \
            (want.count, want.taken_rate, want.transition_rate), \
            f"branch {pc}"
    assert set(predicted.mem_ops) == set(dynamic.mem_ops)
    for pc, want in dynamic.mem_ops.items():
        got = predicted.mem_ops[pc]
        for attribute in ("count", "is_store", "dominant_stride",
                          "coverage", "mean_stream_length",
                          "distinct_strides", "footprint_bytes",
                          "first_address", "last_address",
                          "local_fraction", "alias_of"):
            assert getattr(got, attribute) == getattr(want, attribute), \
                f"mem {pc} {attribute}"
    assert predicted.data_footprint_bytes == dynamic.data_footprint_bytes
    assert predicted.stride_coverage == dynamic.stride_coverage
    assert predicted.unique_streams == dynamic.unique_streams
    # The dependency histogram is the one tolerance-level statistic:
    # the steady-state walk deliberately folds the init/exit chains and
    # reset diversions into the common path, so it agrees to within the
    # CF212 tolerance rather than bit-for-bit.
    tvd = 0.5 * float(np.abs(
        np.asarray(predicted.dep_fractions())
        - np.asarray(dynamic.dep_fractions())).sum())
    assert tvd <= 0.15


@pytest.fixture(scope="module")
def dynamic_profile(loop_nest_clone, loop_nest_clone_trace):
    return profile_trace(loop_nest_clone_trace)


class TestPredictionExactness:
    def test_bit_for_bit_on_synthesized_clone(self, loop_nest_clone,
                                              dynamic_profile):
        prediction = predict_profile(loop_nest_clone.program)
        assert_profiles_identical(prediction.profile, dynamic_profile)

    def test_iteration_count_matches_observed(self, loop_nest_clone,
                                              loop_nest_clone_trace):
        prediction = predict_profile(loop_nest_clone.program)
        header_start = prediction.profile.blocks  # noqa: F841
        # Every steady-state block runs exactly `iterations` times.
        for bid in prediction.steady_blocks:
            assert prediction.profile.blocks[bid].visits \
                == prediction.iterations

    def test_prediction_exact_at_other_seed_and_length(self,
                                                       loop_nest_profile):
        clone = make_clone(loop_nest_profile, SynthesisParameters(
            dynamic_instructions=60_000, seed=7))
        prediction = predict_profile(clone.program)
        dynamic = profile_trace(run_program(clone.program,
                                            max_instructions=2_000_000))
        assert_profiles_identical(prediction.profile, dynamic)


class TestSoundDecline:
    def test_hand_written_kernel_declines(self, loop_nest_program):
        # Two nested loops: outside the certified clone skeleton.  The
        # predictor must refuse — a guessed profile would be unsound.
        with pytest.raises(StaticPredictionError) as excinfo:
            predict_profile(loop_nest_program)
        assert excinfo.value.reason

    def test_decline_maps_to_cf210(self, loop_nest_profile,
                                   loop_nest_program):
        from repro.core.synthesizer import CloneResult
        fake = CloneResult(program=loop_nest_program, asm_source="",
                           profile=loop_nest_profile,
                           parameters=SynthesisParameters(), stats={})
        report, prediction = check_static_conformance(fake)
        assert prediction is None
        assert "CF210" in report.codes()
        assert not report.ok  # CF210 is error severity


class TestStaticConformance:
    def test_clean_clone_passes(self, loop_nest_clone):
        report, prediction = check_static_conformance(loop_nest_clone)
        assert report.ok
        assert not report.codes()
        assert prediction is not None

    def test_divergent_clone_fails_statically(self, loop_nest_profile):
        # Sabotage a pointer cluster's advance after synthesis: the
        # memory plan says one stride, the emitted walk proves another.
        # CF214 must catch the mismatch with zero simulation.
        from repro.core.synthesizer import CloneResult
        from repro.isa import assemble
        clone = make_clone(loop_nest_profile, SynthesisParameters(
            dynamic_instructions=30_000, lint_gate="off"))
        advance = clone.stats["clusters"][0]["advance"]
        needle = f"    addi r4, r4, {advance}"
        source = clone.asm_source.replace(
            needle, f"    addi r4, r4, {advance * 2}", 1)
        assert source != clone.asm_source
        broken = CloneResult(
            program=assemble(source, name=clone.program.name),
            asm_source=source, profile=clone.profile,
            parameters=clone.parameters, stats=clone.stats)
        report, _ = check_static_conformance(broken)
        assert "CF214" in report.codes()
        assert not report.ok

    def test_severity_overrides_apply(self, loop_nest_profile,
                                      loop_nest_program):
        from repro.core.synthesizer import CloneResult
        fake = CloneResult(program=loop_nest_program, asm_source="",
                           profile=loop_nest_profile,
                           parameters=SynthesisParameters(), stats={})
        report, _ = check_static_conformance(
            fake, severity_overrides={"CF210": "info"})
        assert "CF210" in report.codes()
        assert report.ok  # demoted to info


class TestPredictionInternals:
    def test_branch_sequences_match_trace(self, loop_nest_clone,
                                          loop_nest_clone_trace):
        prediction = predict_profile(loop_nest_clone.program)
        trace = loop_nest_clone_trace
        for pc, sequence in prediction.branch_sequences.items():
            observed = trace.taken[trace.pcs == pc]
            assert np.array_equal(observed, sequence), f"branch {pc}"

    def test_memory_addresses_match_trace(self, loop_nest_clone,
                                          loop_nest_clone_trace):
        prediction = predict_profile(loop_nest_clone.program)
        trace = loop_nest_clone_trace
        pointers = {info.pointer: info for info in prediction.countdowns}
        columns_src1 = {pc: stats for pc, stats
                        in prediction.profile.mem_ops.items()}
        for pc, stats in columns_src1.items():
            observed = trace.addrs[trace.pcs == pc]
            assert int(observed[0]) == stats.first_address, f"mem {pc}"
            assert int(observed[-1]) == stats.last_address, f"mem {pc}"
        assert pointers  # the clone has verified countdown walks


# ----------------------------------------------------------------------
# Generated synthesis parameters
# ----------------------------------------------------------------------
#: Small corpus kernels; typeset's clone leaves the footprint tolerance
#: at small footprint scales, so the gate's failure branch is drawn too.
PROPERTY_KERNELS = ("typeset", "rsynth", "lame")

#: The only code a generated clone may fail the gate on: the footprint
#: contract compares against a scaled target the memory model cannot
#: always reach (the tolerance is order-of-magnitude, not exact).
ALLOWED_GATE_FAILURES = {"CF215"}


@lru_cache(maxsize=None)
def _corpus_profile(name):
    return profile_trace(run_program(build_workload(name)))


synthesis_parameters = st.builds(
    SynthesisParameters,
    dynamic_instructions=st.integers(30_000, 100_000),
    seed=st.integers(0, 1_000),
    max_pointer_clusters=st.integers(2, 8),
    footprint_scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    min_block_instances=st.sampled_from([16, 48]),
    max_block_instances=st.sampled_from([200, 640]),
    lint_gate=st.just("off"),
)


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(PROPERTY_KERNELS),
       parameters=synthesis_parameters)
def test_prediction_and_gate_hold_on_generated_parameters(kernel,
                                                          parameters):
    clone = make_clone(_corpus_profile(kernel), parameters)
    prediction = predict_profile(clone.program)
    dynamic = profile_trace(run_program(clone.program,
                                        max_instructions=2_000_000))
    assert_profiles_identical(prediction.profile, dynamic)
    report = lint_clone(clone)
    failed = {diagnostic.code for diagnostic in report.errors()}
    assert failed <= ALLOWED_GATE_FAILURES, report.render_text()
