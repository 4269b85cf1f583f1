"""Abstract-interpretation safety proofs (SR110-SR114) and certificates.

Every proof here is checked two ways: the claimed diagnostic/certificate
content, and — where a dynamic trace exists — *soundness*: a proven
bound must contain the observed behaviour, and anything unprovable must
be reported as unbounded, never guessed.
"""

import numpy as np
import pytest

from repro.isa import assemble
from repro.lint import (
    CERTIFICATE_SCHEMA_VERSION,
    analyze_program,
    check_memory_bounds,
    check_safety,
    lint_program,
    safety_certificate,
)
from repro.sim import run_program


def codes_of(report):
    return [diag.code for diag in report.diagnostics]


# ----------------------------------------------------------------------
# Trip-count bounds (SR110/SR111)
# ----------------------------------------------------------------------
class TestTripBounds:
    def test_counted_loop_exact_bound(self, sum_program):
        result = analyze_program(sum_program)
        assert len(result.loops) == 1
        loop = result.loops[0]
        assert loop.trip_bound == 8
        assert loop.exact
        report = check_safety(sum_program)
        codes = codes_of(report)
        assert "SR110" in codes
        assert "SR111" not in codes

    def test_nested_loops_both_bounded(self, loop_nest_program):
        result = analyze_program(loop_nest_program)
        bounds = sorted(loop.trip_bound for loop in result.loops)
        assert bounds == [40, 64]
        assert all(loop.exact for loop in result.loops)

    def test_data_dependent_loop_reports_unbounded(self):
        # The exit depends on loaded data: no bound is provable, and
        # claiming one would be unsound.
        program = assemble("""
    .data
vals:   .word 5, 3, 0, 9
    .text
main:
    la   r4, vals
loop:
    lw   r5, 0(r4)
    addi r4, r4, 4
    bne  r5, r0, loop
    halt
""", name="data-dep")
        result = analyze_program(program)
        assert result.loops[0].trip_bound is None
        assert not result.terminates
        report = check_safety(program)
        assert "SR111" in codes_of(report)
        assert "SR110" not in codes_of(report)
        assert "SR112" not in codes_of(report)

    def test_countdown_trip_bound_is_sound(self, sum_program):
        trace = run_program(sum_program)
        result = analyze_program(sum_program)
        # The loop body executes at most trip_bound times: count the
        # header block's dynamic visits.
        loop = result.loops[0]
        header_start = result.cfg.blocks[loop.header].start
        visits = int(np.count_nonzero(trace.pcs == header_start))
        assert visits <= loop.trip_bound
        assert visits == loop.trip_bound  # exact proof

    def test_decrementing_loop(self):
        program = assemble("""
    .text
main:
    li   r5, 12
loop:
    addi r5, r5, -1
    blt  r0, r5, loop
    halt
""", name="countdown")
        result = analyze_program(program)
        assert result.loops[0].trip_bound == 12

    def test_bne_latch_without_reset_declines(self):
        # ``bne``'s exit-on-fallthrough has no closed-form trip
        # expression outside the verified countdown pattern, so the
        # analysis must decline rather than guess.
        program = assemble("""
    .text
main:
    li   r5, 12
loop:
    addi r5, r5, -1
    bne  r5, r0, loop
    halt
""", name="bne-latch")
        result = analyze_program(program)
        assert result.loops[0].trip_bound is None


# ----------------------------------------------------------------------
# Termination + instruction bound (SR112)
# ----------------------------------------------------------------------
class TestTermination:
    def test_instruction_bound_contains_observed_length(
            self, loop_nest_program):
        result = analyze_program(loop_nest_program)
        assert result.terminates
        trace = run_program(loop_nest_program)
        assert len(trace) <= result.instruction_bound

    def test_block_bounds_contain_observed_visits(self, loop_nest_program):
        result = analyze_program(loop_nest_program)
        trace = run_program(loop_nest_program)
        for bid, bound in result.block_bounds.items():
            start = result.cfg.blocks[bid].start
            visits = int(np.count_nonzero(trace.pcs == start))
            assert visits <= bound, f"block {bid}: {visits} > {bound}"

    def test_indirect_jump_declines_all_proofs(self):
        program = assemble("""
    .text
main:
    li   r5, 4
    jr   r5
""", name="indirect")
        result = analyze_program(program)
        assert result.degraded
        assert not result.terminates
        assert result.footprint is None
        report = check_safety(program)
        assert "SR111" in codes_of(report)
        assert "SR112" not in codes_of(report)


# ----------------------------------------------------------------------
# Footprint interval (SR113/SR114)
# ----------------------------------------------------------------------
class TestFootprint:
    def test_irreducible_cycle_keeps_footprint_and_sr106(self):
        # The a/b cycle has two entries (fall-through into a, branch
        # into b), so it is no natural loop: termination is declined,
        # but the fixpoint still proves the load's constant address.
        program = assemble("""
    .text
main:
    li   r4, 3
    beq  r4, r0, b
a:
    lw   r5, 16(r0)
    addi r4, r4, -1
b:
    bne  r4, r0, a
    halt
""", name="irreducible")
        result = analyze_program(program)
        assert result.degraded == "irreducible cycle outside natural loops"
        assert not result.terminates
        assert result.mem_intervals == {2: (16, 20, 0)}
        assert result.footprint == (16, 20)
        codes = codes_of(check_safety(program))
        assert "SR111" in codes and "SR112" not in codes
        assert "SR113" in codes and "SR114" not in codes
        assert codes_of(check_memory_bounds(program)) == ["SR106"]

    def test_footprint_contains_every_observed_address(self):
        program = assemble("""
    .data
buf:    .word 1, 2, 3, 4
    .text
main:
    la   r4, buf
    li   r5, 0
    li   r6, 10
loop:
    lw   r7, 0(r4)
    sw   r7, 8(r4)
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
""", name="fixed-access")
        result = analyze_program(program)
        assert result.footprint is not None
        lo, hi = result.footprint
        trace = run_program(program)
        addrs = trace.memory_addresses()
        assert int(addrs.min()) >= lo
        assert int(addrs.max()) < hi

    def test_walking_pointer_in_plain_loop_degrades(self, sum_program):
        # A hand-written walk has no countdown reset to prove against:
        # the footprint must degrade to SR114, never to a wrong bound.
        result = analyze_program(sum_program)
        assert result.footprint is None
        assert result.unbounded_memops

    def test_unbounded_pointer_reports_sr114_not_a_guess(self):
        # The walking pointer's extent depends on a data-dependent trip
        # count; the analysis must decline, not invent an interval.
        program = assemble("""
    .data
buf:    .word 1, 2, 3, 0
    .text
main:
    la   r4, buf
loop:
    lw   r5, 0(r4)
    addi r4, r4, 4
    bne  r5, r0, loop
    halt
""", name="unbounded-walk")
        result = analyze_program(program)
        assert result.footprint is None
        assert result.unbounded_memops
        report = check_safety(program)
        assert "SR114" in codes_of(report)
        assert "SR113" not in codes_of(report)

    def test_no_memory_ops_is_an_empty_footprint(self):
        program = assemble("""
    .text
main:
    li   r5, 4
loop:
    addi r5, r5, -1
    bne  r5, r0, loop
    halt
""", name="pure-compute")
        result = analyze_program(program)
        assert result.footprint == (0, 0)


# ----------------------------------------------------------------------
# The countdown (modulo-counter) domain on real synthesizer output
# ----------------------------------------------------------------------
class TestCountdownDomain:
    def test_clone_countdowns_verified(self, loop_nest_clone):
        result = analyze_program(loop_nest_clone.program)
        assert len(result.loops) == 1
        loop = result.loops[0]
        assert loop.countdowns, "no countdown walk recognized"
        for info in loop.countdowns:
            assert info.period >= 1
            assert info.base >= loop_nest_clone.program.data_base

    def test_clone_proofs_sound_against_trace(self, loop_nest_clone,
                                              loop_nest_clone_trace):
        result = analyze_program(loop_nest_clone.program)
        assert result.terminates
        assert len(loop_nest_clone_trace) <= result.instruction_bound
        lo, hi = result.footprint
        addrs = loop_nest_clone_trace.memory_addresses()
        assert int(addrs.min()) >= lo
        assert int(addrs.max()) < hi


# ----------------------------------------------------------------------
# Certificates and the lint_program entry point
# ----------------------------------------------------------------------
class TestCertificate:
    def test_certificate_shape(self, loop_nest_clone):
        cert = safety_certificate(loop_nest_clone.program)
        assert cert["schema"] == CERTIFICATE_SCHEMA_VERSION
        assert cert["terminates"] is True
        assert cert["instruction_bound"] > 0
        assert cert["footprint"]["bytes"] == (
            cert["footprint"]["hi"] - cert["footprint"]["lo"])
        assert cert["unbounded_memops"] == 0
        assert cert["degraded"] is None
        assert all("trip_bound" in loop for loop in cert["loops"])

    def test_synthesizer_attaches_certificate(self, loop_nest_clone):
        cert = loop_nest_clone.stats["certificate"]
        assert cert["terminates"] is True
        assert cert == safety_certificate(loop_nest_clone.program)

    def test_lint_program_safety_flag(self, sum_program):
        plain = lint_program(sum_program)
        assert not any(code.startswith("SR11")
                       for code in plain.codes())
        with_safety = lint_program(sum_program, safety=True)
        assert "SR110" in with_safety.codes()
        assert "SR112" in with_safety.codes()
        # sum8 walks a pointer without countdown machinery, so the
        # footprint soundly degrades to "unbounded".
        assert "SR114" in with_safety.codes()

    def test_severity_overrides_reach_safety_codes(self):
        program = assemble("""
    .data
vals:   .word 1, 0
    .text
main:
    la   r4, vals
loop:
    lw   r5, 0(r4)
    addi r4, r4, 4
    bne  r5, r0, loop
    halt
""", name="override-me")
        default = lint_program(program, safety=True)
        assert default.ok  # SR111/SR114 are warnings
        strict = lint_program(program, safety=True,
                              severity_overrides={"SR111": "error"})
        assert not strict.ok


# ----------------------------------------------------------------------
# Analysis caching
# ----------------------------------------------------------------------
def test_analysis_is_cached_per_program(sum_program):
    first = analyze_program(sum_program)
    assert analyze_program(sum_program) is first
