"""Unit tests for the two-pass assembler."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation import workload_artifacts
from repro.isa import AssemblerError, assemble, disassemble
from repro.isa.assembler import DATA_BASE, _li_sequence
from repro.isa.instructions import IClass
from repro.workloads import get_workload


def asm(body, data=""):
    source = ""
    if data:
        source += "    .data\n" + data + "\n"
    source += "    .text\n" + body + "\n    halt\n"
    return assemble(source)


class TestBasicParsing:
    def test_empty_text(self):
        program = assemble("    .text\n    halt\n")
        assert len(program) == 1

    def test_comments_stripped(self):
        program = asm("    add r1, r2, r3  # comment\n    nop ; also")
        assert len(program) == 3

    def test_label_shared_line(self):
        program = assemble("    .text\nmain:    halt\n")
        assert program.labels["main"] == 0

    def test_label_own_line(self):
        program = asm("foo:\n    add r1, r1, r1\n    j foo")
        assert program.labels["foo"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            asm("a:\n    nop\na:\n    nop")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            asm("    bogus r1, r2")

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("    .nonsense 4\n")

    def test_undefined_branch_label(self):
        with pytest.raises(AssemblerError):
            asm("    beq r0, r0, nowhere")

    def test_operand_count_checked(self):
        with pytest.raises(AssemblerError):
            asm("    add r1, r2")


class TestDataSection:
    def test_word_values(self, sum_program):
        base = sum_program.data_symbols["vals"]
        assert base == DATA_BASE

    def test_word_layout(self):
        program = asm("    nop", data="a:  .word 1, 2, 3")
        image = program.data_image
        assert image[0:4] == (1).to_bytes(4, "little")
        assert image[8:12] == (3).to_bytes(4, "little")

    def test_negative_word(self):
        program = asm("    nop", data="a:  .word -1")
        assert program.data_image[0:4] == b"\xff\xff\xff\xff"

    def test_byte_directive(self):
        program = asm("    nop", data="a:  .byte 1, 2, 255")
        assert program.data_image[0:3] == bytes([1, 2, 255])

    def test_space_zeros(self):
        program = asm("    nop", data="a:  .space 16\nb: .word 7")
        assert program.data_symbols["b"] == DATA_BASE + 16
        assert program.data_image[0:16] == bytes(16)

    def test_align(self):
        program = asm("    nop", data="a: .byte 1\n    .align 8\nb: .word 2")
        assert program.data_symbols["b"] % 8 == 0

    def test_double_aligned_and_encoded(self):
        import struct
        program = asm("    nop", data="d:  .double 1.5")
        offset = program.data_symbols["d"] - DATA_BASE
        value = struct.unpack_from("<d", program.data_image, offset)[0]
        assert value == 1.5

    def test_word_symbol_reference(self):
        program = asm("    nop", data="a: .word 9\nptr: .word a")
        offset = program.data_symbols["ptr"] - DATA_BASE
        stored = int.from_bytes(program.data_image[offset:offset + 4],
                                "little")
        assert stored == program.data_symbols["a"]

    def test_duplicate_data_label(self):
        with pytest.raises(AssemblerError):
            asm("    nop", data="a: .word 1\na: .word 2")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("    .data\n    add r1, r2, r3\n")


class TestPseudoOps:
    def test_nop_expands_to_add(self):
        program = asm("    nop")
        assert program.instructions[0].opcode == "add"
        assert program.instructions[0].rd == 0

    def test_li_small(self):
        program = asm("    li r5, 42")
        assert program.instructions[0].opcode == "addi"
        assert program.instructions[0].imm == 42

    def test_li_negative_small(self):
        program = asm("    li r5, -3")
        assert program.instructions[0].imm == -3

    def test_li_large_expands(self):
        assert len(_li_sequence(5, 0x12345678)) == 2
        assert len(_li_sequence(5, 42)) == 1
        assert len(_li_sequence(5, 0x10000)) == 1  # lui only

    def test_la_two_instructions(self):
        program = asm("    la r4, tab\n    nop", data="tab: .word 1")
        assert program.instructions[0].opcode == "lui"
        assert program.instructions[1].opcode == "ori"

    def test_la_undefined_symbol(self):
        with pytest.raises(AssemblerError):
            asm("    la r4, missing")

    def test_mv(self):
        program = asm("    mv r5, r6")
        instr = program.instructions[0]
        assert instr.opcode == "add" and instr.srcs[0] == 6

    def test_not_neg(self):
        program = asm("    not r5, r6\n    neg r7, r8")
        assert program.instructions[0].opcode == "nor"
        assert program.instructions[1].opcode == "sub"

    def test_branch_swaps(self):
        program = asm("x:\n    bgt r1, r2, x\n    ble r3, r4, x")
        bgt = program.instructions[0]
        assert bgt.opcode == "blt" and bgt.srcs == (2, 1)
        ble = program.instructions[1]
        assert ble.opcode == "bge" and ble.srcs == (4, 3)

    def test_zero_branches(self):
        program = asm("x:\n    beqz r1, x\n    bgtz r2, x\n    blez r3, x")
        assert program.instructions[0].opcode == "beq"
        assert program.instructions[1].srcs == (0, 2)  # blt r0, r2
        assert program.instructions[2].srcs == (0, 3)  # bge r0, r3

    def test_b_unconditional(self):
        program = asm("x:\n    b x")
        assert program.instructions[0].iclass == IClass.JUMP


class TestTargets:
    def test_forward_and_backward_targets(self):
        program = asm("""
top:
    beq r0, r0, bottom
    j top
bottom:
    nop""")
        assert program.instructions[0].target == 2
        assert program.instructions[1].target == 0

    def test_branch_to_data_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            asm("    beq r0, r0, tab", data="tab: .word 1")

    def test_la_targets_resolve_after_expansion(self):
        # Labels after a `la` must account for its two-slot expansion.
        program = asm("""
    la r4, tab
after:
    j after""", data="tab: .word 1")
        assert program.labels["after"] == 2
        assert program.instructions[2].target == 2


class TestErrorLocations:
    """Every assembly error names the source line and offending token."""

    def raises(self, source, name="prog"):
        with pytest.raises(AssemblerError) as excinfo:
            assemble(source, name=name)
        return str(excinfo.value)

    def test_undefined_branch_label_names_line(self):
        message = self.raises(
            "    .text\nmain:\n    beq r1, r0, nowhere\n    halt\n")
        assert message.startswith("prog:3: ")
        assert "'nowhere'" in message

    def test_operand_count_error_names_line(self):
        message = self.raises("    .text\n    nop\n    addi r5, r0\n")
        assert message.startswith("prog:3: ")
        assert "addi" in message

    def test_bad_register_names_line(self):
        message = self.raises("    .text\n    addi r99, r0, 1\n")
        assert message.startswith("prog:2: ")
        assert "r99" in message

    def test_unknown_directive_names_line(self):
        message = self.raises("    .data\n    .quux 4\n")
        assert message.startswith("prog:2: ")
        assert ".quux" in message

    def test_instruction_outside_text_names_line(self):
        message = self.raises("    .data\n    addi r5, r0, 1\n")
        assert message.startswith("prog:2: ")

    def test_duplicate_data_label_names_line(self):
        message = self.raises(
            "    .data\nx: .word 1\nx: .word 2\n    .text\n    halt\n")
        assert message.startswith("prog:3: ")
        assert "'x'" in message

    def test_duplicate_text_label_names_line(self):
        message = self.raises(
            "    .text\nmain:\n    nop\nmain:\n    halt\n")
        assert message.startswith("prog:4: ")
        assert "'main'" in message

    def test_undefined_la_symbol_names_its_line(self):
        # `la` is patched after layout: the recorded line must survive
        # to the second pass instead of pointing at the end of file.
        message = self.raises(
            "    .text\n    nop\n    la r4, ghost\n    j 0\n    halt\n")
        assert message.startswith("prog:3: ")
        assert "'ghost'" in message

    def test_branch_fixup_line_survives_forward_reference(self):
        message = self.raises(
            "    .text\n    nop\n    nop\n    bne r1, r0, missing\n"
            "    halt\n")
        assert message.startswith("prog:4: ")


# ----------------------------------------------------------------------
# Pinned output: every assembled field of the corpus and its clones
# ----------------------------------------------------------------------
def program_digest(program):
    """Digest of every field the assembler sets on ``program``."""
    digest = hashlib.sha256()
    for instr in program.instructions:
        digest.update(repr((
            instr.opcode, instr.rd, instr.rs1, instr.rs2,
            type(instr.imm).__name__, instr.imm, instr.target,
            instr.iclass, instr.srcs, instr.is_mem, instr.is_cond_branch,
            instr.is_ctrl)).encode())
    digest.update(repr(sorted(program.labels.items())).encode())
    digest.update(program.data_image)
    digest.update(repr(sorted(program.data_symbols.items())).encode())
    digest.update(program.name.encode())
    return digest.hexdigest()[:16]


#: Kernel -> (kernel digest, default clone digest), recorded with the
#: if-chain assembler that the table-driven parser replaced.
CORPUS_DIGESTS = {
    "adpcm": ("9a1fb619e24270c3", "fc605fcf614a307e"),
    "basicmath": ("243d88e9970ce454", "887dccd8281d453f"),
    "bitcount": ("967c720347b2a20f", "3a43afc30ebf2a47"),
    "blowfish": ("1586fa51126f3b09", "3856c9a5d80609ff"),
    "crc32": ("2edb75231e7905bb", "52d1ed44db8cb880"),
    "dijkstra": ("df02509366572fee", "691f91089764a571"),
    "epic": ("fbbc338759125691", "bb73854fdb2eaf6e"),
    "fft": ("f9a899b874b24af5", "8b88679a0105878c"),
    "g721": ("1d05e60620f94732", "dad879b8956ff804"),
    "gsm": ("03411a68cc045dec", "db24194e58410b54"),
    "ispell": ("0e4d946e9fc0c756", "9ccb1f3aee1cb837"),
    "jpeg": ("d11cb0d34f434c84", "a190c7fe1b46deda"),
    "lame": ("6df56666343c770a", "fb9499472e1cc4d6"),
    "mpeg2dec": ("04e7e598e660c98b", "4f7b7a83c07d62a4"),
    "patricia": ("42a5ff4d8f25d7bc", "86f3aecda1cc861e"),
    "pegwit": ("90d6ad174fdd230a", "836e06507643453b"),
    "qsort": ("dca07cb2bf8236c9", "42d94e0b7bc3b4da"),
    "rijndael": ("28d487d436269cd2", "08b7131eb71de19b"),
    "rsynth": ("5cbb9e6ada2cd815", "955458d86a0a22f1"),
    "sha": ("002ca4a05154df7e", "76ad6eeb3e3bd3b3"),
    "stringsearch": ("d98f84a2105c4668", "40d8b11b11aefbc8"),
    "susan": ("b91224a6b4378fe6", "07a4accb5c45e1ad"),
    "typeset": ("0492720f7eb66cd6", "dcd3314939999987"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_and_clone_programs_are_pinned(name):
    kernel = get_workload(name).build()
    clone = workload_artifacts(name).clone
    reassembled = assemble(clone.asm_source, name=clone.program.name)
    assert program_digest(reassembled) == program_digest(clone.program)
    assert (program_digest(kernel), program_digest(clone.program)) \
        == CORPUS_DIGESTS[name]


# ----------------------------------------------------------------------
# Round trip on generated programs: assemble(disassemble(p)) == p
# ----------------------------------------------------------------------
_INT_REG = st.integers(0, 31).map(lambda n: f"r{n}")
_FP_REG = st.integers(0, 31).map(lambda n: f"f{n}")
_IMM = st.integers(-(1 << 20), 1 << 20)
_LABELS = ["top", "mid", "L_end", "_x1"]
_DATA_SYMBOLS = ["arr", "tab", "dbl"]


def _spelled(draw, token):
    """Vary case on some tokens: the parser must normalize them."""
    return token.upper() if draw(st.booleans()) else token


@st.composite
def _statement(draw):
    reg, freg = (lambda: _spelled(draw, draw(_INT_REG))), \
        (lambda: _spelled(draw, draw(_FP_REG)))
    label = st.sampled_from(_LABELS)
    kind = draw(st.sampled_from([
        "r3", "f3", "fcmp", "r2i", "ri", "f2", "fcvt_wf", "fcvt_fw", "fli",
        "load", "fload", "store", "fstore", "br", "j", "jal", "jr", "jalr",
        "none", "nop", "li", "la", "mv", "not", "neg", "b", "swap", "zero"]))
    imm = draw(_IMM)
    if kind == "r3":
        op = draw(st.sampled_from(["add", "sub", "xor", "sltu", "mul",
                                   "mulh", "div", "remu"]))
        return f"{op} {reg()}, {reg()}, {reg()}"
    if kind == "f3":
        op = draw(st.sampled_from(["fadd", "fsub", "fmul", "fdiv", "fmax"]))
        return f"{op} {freg()}, {freg()}, {freg()}"
    if kind == "fcmp":
        op = draw(st.sampled_from(["feq", "flt", "fle"]))
        return f"{op} {reg()}, {freg()}, {freg()}"
    if kind == "r2i":
        op = draw(st.sampled_from(["addi", "andi", "ori", "slli", "sltiu"]))
        literal = draw(st.sampled_from([str(imm), hex(imm)]))
        return f"{op} {reg()}, {reg()}, {literal}"
    if kind == "ri":
        return f"lui {reg()}, {abs(imm) & 0xFFFF}"
    if kind == "f2":
        op = draw(st.sampled_from(["fneg", "fabs", "fmv", "fsqrt"]))
        return f"{op} {freg()}, {freg()}"
    if kind == "fcvt_wf":
        return f"fcvtws {reg()}, {freg()}"
    if kind == "fcvt_fw":
        return f"fcvtsw {freg()}, {reg()}"
    if kind == "fli":
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return f"fli {freg()}, {value!r}"
    if kind in ("load", "store"):
        op = draw(st.sampled_from(["lw", "lb", "lbu"] if kind == "load"
                                  else ["sw", "sb"]))
        return f"{op} {reg()}, {imm}({reg()})"
    if kind in ("fload", "fstore"):
        op = "flw" if kind == "fload" else "fsw"
        return f"{op} {freg()}, {imm}( {reg()} )"
    if kind == "br":
        op = draw(st.sampled_from(["beq", "bne", "blt", "bgeu"]))
        return f"{op} {reg()}, {reg()}, {draw(label)}"
    if kind in ("j", "jal", "b"):
        return f"{kind} {draw(label)}"
    if kind == "jr":
        return f"jr {reg()}"
    if kind == "jalr":
        return f"jalr {reg()}, {reg()}"
    if kind == "none":
        return "halt"
    if kind == "nop":
        return "nop"
    if kind == "li":
        value = draw(st.integers(-(1 << 31), (1 << 32) - 1))
        return f"li {reg()}, {value}"
    if kind == "la":
        return f"la {reg()}, {draw(st.sampled_from(_DATA_SYMBOLS))}"
    if kind in ("mv", "not", "neg"):
        return f"{kind} {reg()}, {reg()}"
    if kind == "swap":
        op = draw(st.sampled_from(["bgt", "ble", "bgtu", "bleu"]))
        return f"{op} {reg()}, {reg()}, {draw(label)}"
    op = draw(st.sampled_from(["beqz", "bnez", "bltz", "bgez", "bgtz",
                               "blez"]))
    return f"{op} {reg()}, {draw(label)}"


@st.composite
def generated_sources(draw):
    """Source text mixing every format, pseudo-op, label and directive."""
    lines = ["    .data", "    .space 3", "    .align 4",
             f"arr: .word {draw(_IMM)}, -7, top, tab",
             f"tab:    .byte {draw(st.integers(0, 255))}, 0x1f",
             f"    .align 8\ndbl: .double {draw(st.floats(-1e6, 1e6))!r}",
             "    .float 2.5", "    .text"]
    body = draw(st.lists(_statement(), min_size=1, max_size=40))
    positions = draw(st.lists(st.integers(0, len(body) - 1),
                              min_size=len(_LABELS),
                              max_size=len(_LABELS)))
    where = dict(zip(_LABELS, positions))
    for index, statement in enumerate(body):
        mnemonic, _, operands = statement.partition(" ")
        statement = f"{_spelled(draw, mnemonic)} {operands}".rstrip()
        here = [name for name, at in where.items() if at == index]
        if here and draw(st.booleans()):
            lines.extend(f"{name}:" for name in here[1:])
            lines.append(f"{here[0]}:    {statement}  # shared line")
            continue
        lines.extend(f"{name}:" for name in here)
        lines.append(f"    {statement} ; trailing")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def _fields(instr):
    return (instr.opcode, instr.rd, instr.rs1, instr.rs2,
            type(instr.imm).__name__, instr.imm, instr.target, instr.srcs,
            instr.iclass, instr.is_mem, instr.is_cond_branch,
            instr.is_ctrl)


@settings(max_examples=150, deadline=None)
@given(source=generated_sources())
def test_disassembly_reassembles_to_the_same_program(source):
    program = assemble(source, name="gen")
    again = assemble(disassemble(program), name="gen")
    # Disassembly carries the text segment only: instructions, and one
    # label per labelled or targeted index.
    assert [_fields(i) for i in again.instructions] \
        == [_fields(i) for i in program.instructions]
    # Mnemonics and registers are case-insensitive.
    assert [_fields(i) for i in assemble(source.lower()).instructions] \
        == [_fields(i) for i in program.instructions]
    for label, index in again.labels.items():
        assert program.labels.get(label, index) == index
        if label not in program.labels:
            assert label == f"L{index}"


# ----------------------------------------------------------------------
# Error text: every format keeps its message and line number
# ----------------------------------------------------------------------
#: (statement on line 5, exact error), recorded with the if-chain
#: assembler.  ``None``: the statement assembles.
ERROR_CASES = [
    ('add r1, r2, r3, r9', 't:5: add expects 3 operands, got 4'),
    ('add r77, r2, r3', 't:5: integer register out of range: r77'),
    ('add r1, r77, r3', 't:5: integer register out of range: r77'),
    ('add r1, r2, r77', 't:5: integer register out of range: r77'),
    ('fadd f1, f2, f3, r9', 't:5: fadd expects 3 operands, got 4'),
    ('fadd f77, f2, f3', 't:5: fp register out of range: f77'),
    ('fadd f1, f77, f3', 't:5: fp register out of range: f77'),
    ('fadd f1, f2, f77', 't:5: fp register out of range: f77'),
    ('feq r1, f2, f3, r9', 't:5: feq expects 3 operands, got 4'),
    ('feq r77, f2, f3', 't:5: integer register out of range: r77'),
    ('feq r1, f77, f3', 't:5: fp register out of range: f77'),
    ('feq r1, f2, f77', 't:5: fp register out of range: f77'),
    ('addi r1, r2, 7, r9', 't:5: addi expects 3 operands, got 4'),
    ('addi r77, r2, 7', 't:5: integer register out of range: r77'),
    ('addi r1, r77, 7', 't:5: integer register out of range: r77'),
    ('lui r1, 7, r9', 't:5: lui expects 2 operands, got 3'),
    ('lui r77, 7', 't:5: integer register out of range: r77'),
    ('fneg f1, f2, r9', 't:5: fneg expects 2 operands, got 3'),
    ('fneg f77, f2', 't:5: fp register out of range: f77'),
    ('fneg f1, f77', 't:5: fp register out of range: f77'),
    ('fcvtws r1, f2, r9', 't:5: fcvtws expects 2 operands, got 3'),
    ('fcvtws r77, f2', 't:5: integer register out of range: r77'),
    ('fcvtws r1, f77', 't:5: fp register out of range: f77'),
    ('fcvtsw f1, r2, r9', 't:5: fcvtsw expects 2 operands, got 3'),
    ('fcvtsw f77, r2', 't:5: fp register out of range: f77'),
    ('fcvtsw f1, r77', 't:5: integer register out of range: r77'),
    ('fli f1, 1.5, r9', 't:5: fli expects 2 operands, got 3'),
    ('fli f77, 1.5', 't:5: fp register out of range: f77'),
    ('lw r1, 4(r2), r9', 't:5: lw expects 2 operands, got 3'),
    ('lw r77, 4(r2)', 't:5: integer register out of range: r77'),
    ('lw r1, 4[r2]', "t:5: bad memory operand: '4[r2]'"),
    ('lw r1, 4(x2)', "t:5: not a register: 'x2'"),
    ('flw f1, 4(r2), r9', 't:5: flw expects 2 operands, got 3'),
    ('flw f77, 4(r2)', 't:5: fp register out of range: f77'),
    ('flw f1, 4[r2]', "t:5: bad memory operand: '4[r2]'"),
    ('flw f1, 4(x2)', "t:5: not a register: 'x2'"),
    ('sw r1, 4(r2), r9', 't:5: sw expects 2 operands, got 3'),
    ('sw r77, 4(r2)', 't:5: integer register out of range: r77'),
    ('sw r1, 4[r2]', "t:5: bad memory operand: '4[r2]'"),
    ('sw r1, 4(x2)', "t:5: not a register: 'x2'"),
    ('fsw f1, 4(r2), r9', 't:5: fsw expects 2 operands, got 3'),
    ('fsw f77, 4(r2)', 't:5: fp register out of range: f77'),
    ('fsw f1, 4[r2]', "t:5: bad memory operand: '4[r2]'"),
    ('fsw f1, 4(x2)', "t:5: not a register: 'x2'"),
    ('beq r1, r2, main, r9', 't:5: beq expects 3 operands, got 4'),
    ('beq r77, r2, main', 't:5: integer register out of range: r77'),
    ('beq r1, r77, main', 't:5: integer register out of range: r77'),
    ('j main, r9', 't:5: j expects 1 operands, got 2'),
    ('jal main, r9', 't:5: jal expects 1 operands, got 2'),
    ('jr r1, r9', 't:5: jr expects 1 operands, got 2'),
    ('jr r77', 't:5: integer register out of range: r77'),
    ('jalr r1, r2, r9', 't:5: jalr expects 2 operands, got 3'),
    ('jalr r77, r2', 't:5: integer register out of range: r77'),
    ('jalr r1, r77', 't:5: integer register out of range: r77'),
    ('halt r9', 't:5: halt expects 0 operands, got 1'),
    ('li r1, 5, r9', 't:5: li expects 2 operands, got 3'),
    ('li r77, 5', 't:5: integer register out of range: r77'),
    ('la r1, x, r9', 't:5: la expects 2 operands, got 3'),
    ('la r77, x', 't:5: integer register out of range: r77'),
    ('mv r1, r2, r9', 't:5: mv expects 2 operands, got 3'),
    ('mv r77, r2', 't:5: integer register out of range: r77'),
    ('mv r1, r77', 't:5: integer register out of range: r77'),
    ('not r1, r2, r9', 't:5: not expects 2 operands, got 3'),
    ('not r77, r2', 't:5: integer register out of range: r77'),
    ('not r1, r77', 't:5: integer register out of range: r77'),
    ('neg r1, r2, r9', 't:5: neg expects 2 operands, got 3'),
    ('neg r77, r2', 't:5: integer register out of range: r77'),
    ('neg r1, r77', 't:5: integer register out of range: r77'),
    ('b main, r9', 't:5: b expects 1 operands, got 2'),
    ('bgt r1, r2, main, r9', 't:5: bgt expects 3 operands, got 4'),
    ('bgt r77, r2, main', 't:5: integer register out of range: r77'),
    ('bgt r1, r77, main', 't:5: integer register out of range: r77'),
    ('ble r1, r2, main, r9', 't:5: ble expects 3 operands, got 4'),
    ('ble r77, r2, main', 't:5: integer register out of range: r77'),
    ('ble r1, r77, main', 't:5: integer register out of range: r77'),
    ('bgtu r1, r2, main, r9', 't:5: bgtu expects 3 operands, got 4'),
    ('bgtu r77, r2, main', 't:5: integer register out of range: r77'),
    ('bgtu r1, r77, main', 't:5: integer register out of range: r77'),
    ('bleu r1, r2, main, r9', 't:5: bleu expects 3 operands, got 4'),
    ('bleu r77, r2, main', 't:5: integer register out of range: r77'),
    ('bleu r1, r77, main', 't:5: integer register out of range: r77'),
    ('beqz r1, main, r9', 't:5: beqz expects 2 operands, got 3'),
    ('beqz r77, main', 't:5: integer register out of range: r77'),
    ('bnez r1, main, r9', 't:5: bnez expects 2 operands, got 3'),
    ('bnez r77, main', 't:5: integer register out of range: r77'),
    ('bltz r1, main, r9', 't:5: bltz expects 2 operands, got 3'),
    ('bltz r77, main', 't:5: integer register out of range: r77'),
    ('bgez r1, main, r9', 't:5: bgez expects 2 operands, got 3'),
    ('bgez r77, main', 't:5: integer register out of range: r77'),
    ('bgtz r1, main, r9', 't:5: bgtz expects 2 operands, got 3'),
    ('bgtz r77, main', 't:5: integer register out of range: r77'),
    ('blez r1, main, r9', 't:5: blez expects 2 operands, got 3'),
    ('blez r77, main', 't:5: integer register out of range: r77'),
    ('lw r77, 4(x2)', "t:5: not a register: 'x2'"),
    ('sw r77, 4[r2]', "t:5: bad memory operand: '4[r2]'"),
    ('bgt r77, r88, main', 't:5: integer register out of range: r88'),
    ('add r77, r88, r99', 't:5: integer register out of range: r77'),
    ('addi r1, r2, zz', "t:5: bad integer literal: 'zz'"),
    ('li r1, 0x1g', "t:5: bad integer literal: '0x1g'"),
    ('fli f1, zz', "t:5: bad float literal: 'zz'"),
    ('lw r1, zz(r2)', "t:5: bad integer literal: 'zz'"),
    ('lw r1, (r2)', None),
    ('nop r1', None),
    ('HALT', None),
    ('Add r1, R2, r3', None),
    ('add r1, r2, R007', None),
    ('bogus r1', "t:5: unknown mnemonic 'bogus'"),
    ('add r1,,r2', "t:5: not a register: ''"),
    ('add', 't:5: add expects 3 operands, got 0'),
    ('la r1, ghost', "t:5: undefined data symbol 'ghost' in `la`"),
    ('beq r1, r2, ghost', "t:5: undefined label 'ghost'"),
    ('j x', "t:5: branch to data symbol 'x'"),
    ('.word 1, zz9', "t:5: undefined symbol 'zz9'"),
    ('.byte 300, q', "t:5: bad integer literal: 'q'"),
    ('.double 1.0, nan0', "t:5: bad float literal: 'nan0'"),
    ('.align x', "t:5: bad integer literal: 'x'"),
    ('.space -1', 't:5: negative count'),
    ('.frob 1', 't:5: unknown directive .frob'),
]


@pytest.mark.parametrize("statement,message", ERROR_CASES)
def test_error_text_per_format(statement, message):
    source = (f"    .data\nx: .word 1\n    .text\nmain:\n    {statement}\n"
              "    halt\n")
    if message is None:
        assemble(source, name="t")
        return
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source, name="t")
    assert str(excinfo.value) == message
