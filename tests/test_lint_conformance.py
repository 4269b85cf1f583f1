"""The clone contract (CF21x): clean clones pass, perturbed fail.

Each perturbation test takes the session's ``loop_nest_clone``, edits
one aspect of its assembly (or stats) the way a buggy synthesizer
would, reassembles, and asserts that the matching contract code fires.

The test names keep the numbers of the retired shape-recovery codes
(CF200–CF205) whose cases they first guarded; each now asserts that
code's CF21x successor (CF20k → CF21k).
"""

import dataclasses

import pytest

from repro.core import make_clone, profile_trace
from repro.core.branch_model import pattern_for
from repro.core.synthesizer import CloneResult, SynthesisParameters
from repro.isa import assemble
from repro.lint import (
    ConformanceTolerances,
    analyze_program,
    check_static_conformance,
    lint_clone,
    predict_profile,
)
from repro.sim import run_program
from repro.workloads import build_workload


def reassembled(clone, source, parameters=None, profile=None, stats=None):
    """A CloneResult around edited assembly (same provenance)."""
    program = assemble(source, name=clone.program.name)
    return CloneResult(program=program, asm_source=source,
                       profile=profile if profile is not None
                       else clone.profile,
                       parameters=parameters or clone.parameters,
                       stats=clone.stats if stats is None else stats)


def perturbed(clone, old, new, count=1):
    source = clone.asm_source.replace(old, new, count)
    assert source != clone.asm_source, f"pattern {old!r} not found"
    return reassembled(clone, source)


def contract(clone, **kwargs):
    report, _ = check_static_conformance(clone, **kwargs)
    return report


def per_block(report, code):
    """``code`` findings that name a generated block."""
    return [diagnostic for diagnostic in report
            if diagnostic.code == code and "block" in diagnostic.data]


# ----------------------------------------------------------------------
# Clean clones conform
# ----------------------------------------------------------------------
def test_unmodified_clone_is_clean(loop_nest_clone):
    report = contract(loop_nest_clone)
    assert report.ok
    assert len(report) == 0


def test_lint_clone_end_to_end(loop_nest_clone):
    report = lint_clone(loop_nest_clone)
    assert report.ok
    assert report.summary()["errors"] == 0


def test_machinery_recorded_for_every_generated_block(loop_nest_clone):
    # The predictor's branch classification is the per-block contract's
    # only source: every block whose profiled source ends in a branch
    # carries exactly the machinery pattern_for demands.
    program = loop_nest_clone.program
    profile = loop_nest_clone.profile
    prediction = predict_profile(program)
    sequence = loop_nest_clone.stats["sequence"]
    starts = [program.labels[f"bb{k}"] for k in range(len(sequence))]
    ends = starts[1:] + [prediction.tail_start]
    checked = 0
    for bid, start, end in zip(sequence, starts, ends):
        got = [prediction.machinery[index] for index in range(start, end)
               if index in prediction.machinery]
        branch_pc = profile.blocks[bid].branch_pc
        if branch_pc < 0:
            assert got == []
            continue
        stats = profile.branches[branch_pc]
        pattern = pattern_for(stats.taken_rate, stats.transition_rate)
        assert len(got) == 1 and got[0][0] == pattern.kind
        checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# CF210: not a clone
# ----------------------------------------------------------------------
def test_non_clone_program_reports_cf200(loop_nest_program, loop_nest_clone):
    impostor = CloneResult(program=loop_nest_program,
                           asm_source="", profile=loop_nest_clone.profile,
                           parameters=loop_nest_clone.parameters, stats={})
    report = contract(impostor)
    assert report.codes().get("CF210") == 1
    assert not report.ok


# ----------------------------------------------------------------------
# CF211: instruction mix, per block
# ----------------------------------------------------------------------
def test_swapped_opcode_class_reports_cf201(loop_nest_clone):
    # One body add becomes a mul: the aggregate mix stays within
    # tolerance, but that block's static histogram no longer matches
    # the one the contract derives from its profiled source block.
    broken = perturbed(loop_nest_clone, "\n    add ", "\n    mul ")
    report = contract(broken)
    findings = per_block(report, "CF211")
    assert len(findings) == 1
    assert "imul=" in findings[0].message
    assert not report.ok
    assert not lint_clone(broken).ok


# ----------------------------------------------------------------------
# CF212: dependency distances
# ----------------------------------------------------------------------
def test_perturbed_dep_histogram_reports_cf202(loop_nest_clone):
    profile = loop_nest_clone.profile
    # push all profiled dependency mass into the farthest bucket
    hist = [0] * len(profile.global_dep_hist)
    hist[-1] = 10_000
    skewed = dataclasses.replace(profile, global_dep_hist=hist)
    broken = CloneResult(program=loop_nest_clone.program,
                         asm_source=loop_nest_clone.asm_source,
                         profile=skewed,
                         parameters=loop_nest_clone.parameters,
                         stats=loop_nest_clone.stats)
    report = contract(broken)
    assert "CF212" in report.codes()
    # warning severity: divergence is reported but does not gate
    assert report.ok
    assert lint_clone(broken).ok


# ----------------------------------------------------------------------
# CF213: branch machinery, per block
# ----------------------------------------------------------------------
def test_inverted_branch_reports_cf203(loop_nest_clone):
    # An always-taken block branch becomes never-taken: the aggregate
    # taken rate stays within tolerance, the block's machinery does not.
    broken = perturbed(loop_nest_clone, "    beq r0, r0, ",
                       "    bne r0, r0, ")
    report = contract(broken)
    findings = per_block(report, "CF213")
    assert len(findings) == 1
    assert "realizes not_taken" in findings[0].message
    assert "demands taken" in findings[0].message
    assert not report.ok
    assert not lint_clone(broken).ok


# ----------------------------------------------------------------------
# CF214: stream advances
# ----------------------------------------------------------------------
def test_wrong_pointer_advance_reports_cf204(loop_nest_clone):
    clusters = [cluster for cluster in loop_nest_clone.stats["clusters"]
                if "index" in cluster and "advance" in cluster]
    assert clusters, "clone stats must declare stream clusters"
    cluster = clusters[0]
    pointer = 4 + cluster["index"]
    old = f"addi r{pointer}, r{pointer}, {cluster['advance']}"
    new = f"addi r{pointer}, r{pointer}, {cluster['advance'] + 32}"
    broken = perturbed(loop_nest_clone, old, new)
    report = contract(broken)
    assert "CF214" in report.codes()
    assert not report.ok


# ----------------------------------------------------------------------
# CF215: footprint
# ----------------------------------------------------------------------
def test_footprint_mismatch_reports_cf205(loop_nest_clone):
    inflated = dataclasses.replace(loop_nest_clone.parameters,
                                   footprint_scale=1000.0)
    broken = CloneResult(program=loop_nest_clone.program,
                         asm_source=loop_nest_clone.asm_source,
                         profile=loop_nest_clone.profile,
                         parameters=inflated,
                         stats=loop_nest_clone.stats)
    report = contract(broken)
    assert "CF215" in report.codes()
    assert not report.ok


def test_footprint_verdict_follows_touched_span_not_image():
    # pegwit's seed-1 clone allocates a 3,488 B data image — within
    # 0.2x..8x of the 3,012 B profiled footprint — but its proven
    # accesses span only 492 B (0.16x), so the contract fails it.
    profile = profile_trace(run_program(build_workload("pegwit")))
    clone = make_clone(profile, SynthesisParameters(seed=1,
                                                    lint_gate="off"))
    image = len(clone.program.data_image)
    target = profile.data_footprint_bytes
    assert 0.2 <= image / target <= 8.0
    lo, hi = analyze_program(clone.program).footprint
    assert (hi - lo) / target < 0.2
    report = contract(clone)
    assert set(code for code in report.codes()) == {"CF215"}
    assert report.errors()[0].data["span"] == hi - lo
    assert not lint_clone(clone).ok


# ----------------------------------------------------------------------
# Tolerances
# ----------------------------------------------------------------------
def test_zero_tolerances_fail_a_real_clone(loop_nest_clone):
    impossible = ConformanceTolerances(
        memory_fraction=0.0, branch_fraction=0.0, compute_fraction=0.0,
        dep_tvd=0.0, taken_rate=0.0,
        footprint_ratio_low=0.999, footprint_ratio_high=1.001)
    report = contract(loop_nest_clone, tolerances=impossible)
    assert len(report) > 0
    assert all(code.startswith("CF21") for code in report.codes())


def test_tolerances_are_frozen():
    tolerances = ConformanceTolerances()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tolerances.dep_tvd = 1.0
