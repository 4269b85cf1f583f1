"""Structural lint passes (SR1xx) and the diagnostics engine."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import assemble
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.lint import (
    ControlFlowGraph,
    LintReport,
    analyze_program,
    check_branch_targets,
    check_fallthrough_end,
    check_memory_bounds,
    check_reachability,
    check_register_writes,
    check_use_before_def,
    lint_program,
    make_diagnostic,
    merge_reports,
)
from repro.lint.diagnostics import CODES
from repro.sim import FunctionalSimulator


def codes_of(report):
    return [diag.code for diag in report.diagnostics]


# ----------------------------------------------------------------------
# Diagnostics engine
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_registry_is_well_formed(self):
        assert CODES
        for code, spec in CODES.items():
            assert code.startswith(("SR1", "CF2", "DL3"))
            assert spec.severity in ("error", "warning", "info")
            assert spec.slug
            assert spec.summary

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make_diagnostic("XX999", "nope")

    def test_severity_override(self):
        diag = make_diagnostic("SR104", "msg",
                               severity_overrides={"SR104": "error"})
        assert diag.severity == "error"

    def test_render_carries_location_and_code(self):
        diag = make_diagnostic("SR102", "target out of range",
                               index=7, pc=0x101C)
        text = diag.render()
        assert "SR102" in text
        assert "error" in text
        assert "target out of range" in text

    def test_report_ok_counts_and_json(self):
        report = LintReport("prog")
        report.add(make_diagnostic("SR101", "dead block"))
        report.add(make_diagnostic("SR106", "oob store"))
        assert not report.ok  # SR106 is error severity
        assert len(report.errors()) == 1
        assert len(report.warnings()) == 1
        assert report.codes() == {"SR101": 1, "SR106": 1}
        summary = report.summary()
        assert summary["ok"] is False
        assert summary["errors"] == 1
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["program"] == "prog"
        assert len(payload["diagnostics"]) == 2
        assert "SR101" in report.render_text()

    def test_merge_reports(self):
        left = LintReport("p")
        left.add(make_diagnostic("SR105", "w"))
        right = LintReport("p")
        right.add(make_diagnostic("SR103", "e"))
        merged = merge_reports("p", left, right)
        assert sorted(codes_of(merged)) == ["SR103", "SR105"]


# ----------------------------------------------------------------------
# SR101..SR103: CFG-structural passes
# ----------------------------------------------------------------------
class TestControlFlow:
    def test_bad_branch_target_sr102(self):
        # The assembler resolves labels, so an out-of-range target can
        # only be seeded at the Program level.
        program = Program([
            Instruction("addi", rd=5, rs1=0, imm=1),
            Instruction("beq", rs1=5, rs2=0, target=99),
            Instruction("halt"),
        ], name="bad-target")
        report = check_branch_targets(program)
        assert codes_of(report) == ["SR102"]
        assert report.diagnostics[0].severity == "error"
        assert not lint_program(program).ok

    def test_negative_target_sr102(self):
        program = Program([
            Instruction("jal", rd=31, target=-2),
            Instruction("halt"),
        ], name="neg-target")
        assert codes_of(check_branch_targets(program)) == ["SR102"]

    def test_unreachable_block_sr101(self):
        program = assemble("""
    .text
main:
    j end
    addi r5, r5, 1
end:
    halt
""", name="dead-code")
        report = check_reachability(ControlFlowGraph(program))
        assert codes_of(report) == ["SR101"]
        # warning severity: the program still passes the error gate
        assert lint_program(program).ok

    def test_fallthrough_end_sr103(self):
        program = assemble("""
    .text
main:
    addi r5, r0, 1
    beq  r5, r0, main
""", name="falls-off")
        report = check_fallthrough_end(ControlFlowGraph(program))
        assert codes_of(report) == ["SR103"]
        assert not lint_program(program).ok

    def test_empty_program_sr103(self):
        program = Program([], name="empty")
        report = check_fallthrough_end(ControlFlowGraph(program))
        assert codes_of(report) == ["SR103"]

    def test_unreachable_fall_off_is_sr101_not_sr103(self):
        # The dangling tail is dead code; only SR101 should fire for it.
        program = assemble("""
    .text
main:
    halt
    addi r5, r0, 1
""", name="dead-tail")
        cfg = ControlFlowGraph(program)
        assert codes_of(check_fallthrough_end(cfg)) == []
        assert codes_of(check_reachability(cfg)) == ["SR101"]

    def test_clean_program_has_no_structural_findings(self, sum_program):
        report = lint_program(sum_program)
        assert report.ok
        assert len(report) == 0


# ----------------------------------------------------------------------
# SR104/SR105: register dataflow
# ----------------------------------------------------------------------
class TestRegisterDataflow:
    def test_use_before_def_sr104(self):
        program = assemble("""
    .text
main:
    addi r5, r0, 2
    add  r6, r5, r7
    halt
""", name="ubd")
        report = check_use_before_def(ControlFlowGraph(program))
        assert codes_of(report) == ["SR104"]
        assert report.diagnostics[0].data["register"] == "r7"

    def test_one_sided_write_still_flags(self):
        # r8 is written on only one side of the diamond: some path
        # reaches the read without a write (must-analysis).
        program = assemble("""
    .text
main:
    addi r5, r0, 1
    beq  r5, r0, other
    addi r8, r0, 7
other:
    add  r9, r8, r5
    halt
""", name="one-sided")
        report = check_use_before_def(ControlFlowGraph(program))
        assert codes_of(report) == ["SR104"]

    def test_both_sides_written_is_clean(self):
        program = assemble("""
    .text
main:
    addi r5, r0, 1
    beq  r5, r0, other
    addi r8, r0, 7
    j join
other:
    addi r8, r0, 9
join:
    add  r9, r8, r5
    halt
""", name="two-sided")
        assert codes_of(check_use_before_def(ControlFlowGraph(program))) == []

    def test_loop_carried_write_reaches_first_read(self):
        # r5 is read at the loop top but written before the loop: the
        # fixpoint must see the definition flow around the back-edge.
        program = assemble("""
    .text
main:
    addi r5, r0, 0
    addi r6, r0, 8
loop:
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
""", name="loop-def")
        assert codes_of(check_use_before_def(ControlFlowGraph(program))) == []

    def test_sp_and_zero_are_predefined(self):
        program = assemble("""
    .text
main:
    lw   r5, -4(r29)
    add  r6, r0, r5
    halt
""", name="sp-read")
        assert codes_of(check_use_before_def(ControlFlowGraph(program))) == []

    def test_write_to_zero_sr105(self):
        program = assemble("""
    .text
main:
    add r0, r5, r6
    halt
""", name="r0-write")
        report = check_register_writes(program)
        assert codes_of(report) == ["SR105"]

    def test_canonical_nop_is_exempt(self):
        program = assemble("""
    .text
main:
    nop
    halt
""", name="nop-ok")
        assert codes_of(check_register_writes(program)) == []

    def test_jal_linking_through_zero_sr105(self):
        # The assembler always links ``jal`` through r31, so build the
        # rd=0 encoding directly: its link write names the hardwired
        # zero register, the static shadow of the simulator bug where
        # an unguarded link write clobbered r0.
        from repro.isa.instructions import Instruction
        from repro.isa.program import Program
        program = Program([Instruction("jal", rd=0, target=1),
                           Instruction("halt")], name="jal-r0")
        assert codes_of(check_register_writes(program)) == ["SR105"]


# ----------------------------------------------------------------------
# SR106: memory bounds
# ----------------------------------------------------------------------
class TestMemoryBounds:
    def test_out_of_footprint_store_sr106(self):
        program = assemble("""
    .data
buf:    .word 0
    .space 12
    .text
main:
    la   r4, buf
    addi r5, r0, 1
    sw   r5, 64(r4)
    halt
""", name="oob-store")
        report = check_memory_bounds(program)
        assert codes_of(report) == ["SR106"]
        assert report.diagnostics[0].severity == "error"
        assert not lint_program(program).ok

    def test_partially_out_of_image_load_sr106(self):
        # 4-byte load whose final byte crosses the end of the image.
        program = assemble("""
    .data
buf:    .word 0, 0
    .text
main:
    la   r4, buf
    lw   r5, 6(r4)
    halt
""", name="straddle")
        assert codes_of(check_memory_bounds(program)) \
            == ["SR106"]

    def test_in_bounds_and_stack_accesses_are_clean(self):
        program = assemble("""
    .data
buf:    .word 1, 2, 3, 4
    .text
main:
    la   r4, buf
    lw   r5, 8(r4)
    sw   r5, -8(r29)
    halt
""", name="in-bounds")
        assert codes_of(check_memory_bounds(program)) == []

    def test_loop_pointer_is_not_a_constant(self):
        # The advancing pointer walks past the image, but its value is
        # not statically provable, so no SR106 may fire.
        program = assemble("""
    .data
buf:    .word 0
    .space 28
    .text
main:
    la   r4, buf
    addi r6, r0, 0
    addi r7, r0, 1000
loop:
    lw   r5, 0(r4)
    addi r4, r4, 4
    addi r6, r6, 1
    blt  r6, r7, loop
    halt
""", name="walker")
        assert codes_of(check_memory_bounds(program)) == []

    def test_zero_based_absolute_access_sr106(self):
        program = assemble("""
    .text
main:
    lw   r5, 16(r0)
    halt
""", name="null-deref")
        assert codes_of(check_memory_bounds(program)) \
            == ["SR106"]

    @pytest.mark.parametrize("code", [
        "lw   r5, -4(r0)",
        "addi r4, r0, -4\n    lw   r5, 0(r4)",
    ])
    def test_wrapped_constant_address_sr106(self, code):
        # 0 + (-4) wraps to the top of the address space, as it does in
        # the machine; the address is still a proven constant.
        program = assemble(f"""
    .text
main:
    {code}
    halt
""", name="wrap")
        report = check_memory_bounds(program)
        assert codes_of(report) == ["SR106"]
        assert report.diagnostics[0].data == {"address": 0xFFFFFFFC,
                                              "width": 4}
        assert report.diagnostics[0].index == len(program) - 2

    def test_unwritten_base_register_reads_as_zero(self):
        # The machine zero-initializes the register file, so the base
        # is the constant 0 and the access lands at address 16: SR106
        # beside the use-before-def finding for the base itself.
        program = assemble("""
    .text
main:
    lw   r5, 16(r5)
    halt
""", name="unwritten-base")
        report = lint_program(program)
        assert sorted(codes_of(report)) == ["SR104", "SR106"]
        (oob,) = [d for d in report.diagnostics if d.code == "SR106"]
        assert oob.data == {"address": 16, "width": 4}

    def test_indirect_jump_declines_sr106(self):
        # absint declines programs with jr/jalr, so no address is proven.
        program = assemble("""
    .text
main:
    lw   r5, 16(r0)
    jr   r31
""", name="indirect")
        assert codes_of(check_memory_bounds(program)) == []


#: Straight-line address-chain ops (register/immediate forms).
_CHAIN_REGS = (4, 5, 6, 7, 8)
_CHAIN_IMMS = st.integers(-0x8000, 0x7FFF) | st.sampled_from(
    [-1, -4, -0x8000, 0x7FFF, 0x10000, -0x10000, 0x7FFFFFFF])
_PROBE = 9
_PROBE_BASE = 0x1000
_PROBE_MEMORY = 0x3000


@st.composite
def _address_chain(draw):
    """Random constant-chain code, probed by loads/stores.

    Each probe masks a chain register into ``[0x1000, 0x2000)`` (after
    an optional right shift, so high bits are checked too) and accesses
    it at a small signed offset, so every access lands in memory while
    its address still depends on every wrapped step of the chain.
    """
    instructions = []
    memops = 0
    steps = draw(st.integers(1, 24))
    for step in range(steps):
        rd = draw(st.sampled_from(_CHAIN_REGS))
        rs1 = draw(st.sampled_from((0,) + _CHAIN_REGS))
        op = draw(st.sampled_from(("addi", "lui", "ori", "andi", "xori",
                                   "slli", "srli", "add", "sub")))
        if op in ("add", "sub"):
            instructions.append(Instruction(
                op, rd=rd, rs1=rs1,
                rs2=draw(st.sampled_from((0,) + _CHAIN_REGS))))
        elif op == "lui":
            instructions.append(Instruction(
                op, rd=rd, imm=draw(st.integers(0, 0xFFFF))))
        elif op in ("slli", "srli"):
            instructions.append(Instruction(
                op, rd=rd, rs1=rs1, imm=draw(st.integers(0, 31))))
        else:
            instructions.append(Instruction(op, rd=rd, rs1=rs1,
                                            imm=draw(_CHAIN_IMMS)))
        if draw(st.booleans()) or step == steps - 1:
            source = draw(st.sampled_from(_CHAIN_REGS))
            instructions += [
                Instruction("srli", rd=_PROBE, rs1=source,
                            imm=draw(st.sampled_from((0, 11, 22)))),
                Instruction("andi", rd=_PROBE, rs1=_PROBE, imm=0xFF8),
                Instruction("ori", rd=_PROBE, rs1=_PROBE, imm=_PROBE_BASE)]
            offset = draw(st.integers(-64, 56))
            memop = draw(st.sampled_from(("lw", "sw", "lb", "lbu", "sb")))
            if memop in ("sw", "sb"):
                instructions.append(Instruction(
                    memop, rs1=_PROBE, rs2=source, imm=offset))
            else:
                instructions.append(Instruction(
                    memop, rd=10, rs1=_PROBE, imm=offset))
            memops += 1
    instructions.append(Instruction("halt"))
    return Program(instructions, name="chain"), memops


@settings(max_examples=300, deadline=None)
@given(case=_address_chain())
def test_proven_constant_addresses_are_exact(case):
    """Every memop absint proves constant executes at that address.

    Straight-line code from constants is constant throughout, so absint
    must prove *every* probe: an analysis that sends a wrapped constant
    to TOP fails here, not only an unsound one.
    """
    program, memops = case
    result = analyze_program(program)
    trace = FunctionalSimulator(program, memory_size=_PROBE_MEMORY).run(
        10_000, trace=True, backend="interp")
    executed = {pc: addr for pc, addr in zip(trace.pcs.tolist(),
                                             trace.addrs.tolist())
                if addr >= 0}
    constant = {index: ivl for index, ivl in result.mem_intervals.items()
                if ivl[2] == 0}
    assert memops >= 1
    assert len(constant) == memops == len(executed)
    for index, (lo, hi, _) in constant.items():
        assert executed[index] == lo
        assert hi - lo == (4 if program.instructions[index].opcode
                           in ("lw", "sw") else 1)


# ----------------------------------------------------------------------
# lint_program: the fused entry point
# ----------------------------------------------------------------------
class TestLintProgram:
    def test_collects_across_passes(self):
        program = assemble("""
    .data
buf:    .word 0
    .text
main:
    add  r6, r5, r7
    la   r4, buf
    sw   r6, 640(r4)
    halt
""", name="broken")
        report = lint_program(program)
        codes = report.codes()
        assert codes.get("SR104") == 2  # r5 and r7
        assert codes.get("SR106") == 1
        assert not report.ok

    def test_severity_overrides_flow_through(self):
        program = assemble("""
    .text
main:
    add  r6, r5, r0
    halt
""", name="promoted")
        assert lint_program(program).ok
        demoted = lint_program(program,
                               severity_overrides={"SR104": "error"})
        assert not demoted.ok
