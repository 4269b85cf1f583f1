"""Two-pass assembler for SRISC.

Accepted source structure::

        .data
    arr:    .word 5, 3, 8, 1
    tab:    .space 256
    pi:     .double 3.14159
        .text
    main:
        la   r4, arr
        li   r5, 0
    loop:
        lw   r6, 0(r4)
        add  r5, r5, r6
        addi r4, r4, 4
        bne  r4, r7, loop
        halt

Comments start with ``#`` or ``;``.  Labels may share a line with an
instruction or directive.  Pseudo-ops (``li``, ``la``, ``mv``, ``nop``,
``not``, ``neg``, ``bgt``, ``ble``, ``bgtu``, ``bleu``, ``beqz``, ``bnez``,
``bltz``, ``bgez``, ``bgtz``, ``blez``, ``b``) expand to real opcodes, so
the profiled instruction mix reflects what the machine executes.

Every consumer of a clone pays for parsing (a clone ships as this text),
so it is table-driven: the mnemonic picks one handler per operand format
or pseudo-op, registers resolve through a name table, and each opcode's
class flags are precomputed on its ``OpcodeSpec``.  Every error names
its source line.
"""

import collections
import functools
import struct

from repro.isa.instructions import Instruction, OPCODES
from repro.isa.registers import (NUM_REGS, REG_RA, ZERO_REG, parse_reg,
                                 reg_name)


class AssemblerError(Exception):
    """Raised with file/line context for any malformed source."""


#: Base virtual address of the text segment (instruction ``i`` lives at
#: ``TEXT_BASE + 4 * i``).
TEXT_BASE = 0x1000

#: Base virtual address of the data segment.
DATA_BASE = 0x100000

#: Initial stack pointer (stacks grow down).
STACK_TOP = 0x400000


def _parse_int(token):
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal: {token!r}") from None


def _parse_float(token):
    try:
        return float(token)
    except ValueError:
        raise AssemblerError(f"bad float literal: {token!r}") from None


class _RegisterTable(dict):
    """Register name -> flat index; other spellings (``R7``, ``r07``)
    and non-registers fall through to :func:`parse_reg`."""

    def __missing__(self, token):
        return parse_reg(token)


_REG = _RegisterTable((reg_name(index), index) for index in range(NUM_REGS))


def _parse_mem_operand(token):
    """Parse ``imm(reg)`` into ``(imm, reg_index)``."""
    token = token.strip()
    if not token.endswith(")") or "(" not in token:
        raise AssemblerError(f"bad memory operand: {token!r}")
    imm_part, reg_part = token[:-1].split("(", 1)
    imm = _parse_int(imm_part) if imm_part.strip() else 0
    return imm, _REG[reg_part]


def _li_sequence(rd, value):
    """Expand ``li rd, value`` into real instructions.

    Values representable in 16 signed bits take one ``addi``; anything else
    takes the classic ``lui``/``ori`` pair over the 32-bit two's-complement
    encoding.
    """
    if -32768 <= value <= 32767:
        return [Instruction("addi", rd=rd, rs1=ZERO_REG, imm=value)]
    encoded = value & 0xFFFFFFFF
    hi, lo = encoded >> 16, encoded & 0xFFFF
    seq = [Instruction("lui", rd=rd, imm=hi)]
    if lo:
        seq.append(Instruction("ori", rd=rd, rs1=rd, imm=lo))
    return seq


#: Placeholder for ``la``: patched once data symbols are known.
_PendingLoadAddress = collections.namedtuple("_PendingLoadAddress",
                                             "rd symbol line")


class _DataSection:
    """Accumulates the initial data image and symbol addresses."""

    def __init__(self):
        self.image = bytearray()
        self.symbols = {}

    def define(self, label):
        if label in self.symbols:
            raise AssemblerError(f"duplicate data label {label!r}")
        self.symbols[label] = DATA_BASE + len(self.image)

    def align(self, boundary):
        while len(self.image) % boundary:
            self.image.append(0)

    def directive(self, directive, operands, word_fixups, lineno):
        """Lay out one data directive (``operands`` unsplit)."""
        if directive in (".align", ".space"):
            count = _parse_int(operands.strip())
            if directive == ".align":
                self.align(count)
            else:
                self.image += bytes(count)
            return
        tokens = ([token.strip() for token in operands.split(",")]
                  if operands else [])
        if directive == ".word":
            self.align(4)
            values = []
            for token in tokens:
                if token and (token[0].isalpha() or token[0] == "_"):
                    word_fixups.append(
                        (len(self.image) + 4 * len(values), token, lineno))
                    values.append(0)
                else:
                    values.append(_parse_int(token) & 0xFFFFFFFF)
            self.image += struct.pack(f"<{len(values)}I", *values)
        elif directive == ".byte":
            self.image += bytes([_parse_int(token) & 0xFF
                                 for token in tokens])
        elif directive in (".double", ".float"):
            values = [_parse_float(token) for token in tokens]
            self.align(8)
            self.image += struct.pack(f"<{len(values)}d", *values)
        else:
            raise AssemblerError(f"unknown directive {directive}")


def assemble(source, name="<asm>"):
    """Assemble SRISC source text into a :class:`repro.isa.Program`."""
    from repro.isa.program import Program

    data = _DataSection()
    instructions = []
    labels = {}
    branch_fixups = []  # (instr_index, symbol, line)
    word_fixups = []  # (byte_offset, symbol, line)
    in_text = True
    handlers = _HANDLERS
    lineno = 0
    try:
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" in line or ";" in line:
                line = line.split("#", 1)[0].split(";", 1)[0]
            line = line.strip()
            if not line:
                continue
            if ":" in line:
                head, _, rest = line.partition(" ")
                while head.endswith(":"):
                    label = head[:-1]
                    if not in_text:
                        data.define(label)
                    elif label in labels:
                        raise AssemblerError(f"duplicate label {label!r}")
                    else:
                        labels[label] = len(instructions)
                    line = rest.strip()
                    head, _, rest = line.partition(" ")
                if not line:
                    continue
            if line[0] == ".":
                directive, _, rest = line.partition(" ")
                if directive == ".text":
                    in_text = True
                elif directive == ".data":
                    in_text = False
                else:
                    data.directive(directive, rest, word_fixups, lineno)
                continue
            if not in_text:
                raise AssemblerError("instruction outside .text")
            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.lower()
            entry = handlers.get(mnemonic)
            if entry is None:
                raise AssemblerError(f"unknown mnemonic {mnemonic!r}")
            count, handler = entry
            # The line is stripped, so a non-empty rest holds an operand.
            ops = [token.strip() for token in rest.split(",")] if rest else []
            if len(ops) != count and count is not None:
                raise AssemblerError(
                    f"{mnemonic} expects {count} operands, got {len(ops)}")
            handler(mnemonic, ops, lineno, instructions, branch_fixups)
    except (AssemblerError, ValueError) as exc:
        raise AssemblerError(f"{name}:{lineno}: {exc}") from None

    # Patch `la` placeholders now that data symbols are known.
    for index, instr in enumerate(instructions):
        if isinstance(instr, _PendingLoadAddress):
            address = data.symbols.get(instr.symbol)
            if address is None:
                raise AssemblerError(
                    f"{name}:{instr.line}: undefined data symbol "
                    f"{instr.symbol!r} in `la`")
            hi, lo = address >> 16, address & 0xFFFF
            instructions[index] = Instruction("lui", rd=instr.rd, imm=hi)
            instructions[index + 1] = Instruction(
                "ori", rd=instr.rd, rs1=instr.rd, imm=lo)

    for index, symbol, lineno in branch_fixups:
        target = labels.get(symbol)
        if target is None:
            problem = ("branch to data symbol" if symbol in data.symbols
                       else "undefined label")
            raise AssemblerError(f"{name}:{lineno}: {problem} {symbol!r}")
        instructions[index].target = target

    for offset, symbol, lineno in word_fixups:
        address = data.symbols.get(symbol)
        if address is None and symbol in labels:
            address = TEXT_BASE + 4 * labels[symbol]
        if address is None:
            raise AssemblerError(f"{name}:{lineno}: undefined symbol {symbol!r}")
        data.image[offset:offset + 4] = struct.pack("<I", address)

    return Program(instructions=instructions, labels=labels,
                   data_image=bytes(data.image), data_symbols=dict(data.symbols),
                   name=name)


@functools.lru_cache(maxsize=32)
def assemble_shared(source, name):
    """:func:`assemble`, memoized per process on ``(source, name)``, for
    programs many entry points ask for (a corpus kernel): all share one
    Program, so its blocks and columns are built once.  Nothing mutates
    a Program after assembly; the bound covers the 23-kernel corpus."""
    return assemble(source, name=name)


# ----------------------------------------------------------------------
# Statement handlers: mnemonic -> (operand count, handler).  A handler
# ``(mnemonic, operands, lineno, out, fixups)`` appends the statement's
# instructions to ``out`` and a symbolic target to ``fixups``; it reads
# operands in the order the error messages have always named them.
# ----------------------------------------------------------------------
def _to_label(instr, symbol, lineno, out, fixups):
    fixups.append((len(out), symbol, lineno))
    out.append(instr)


def _load(op, ops, lineno, out, fixups):
    imm, base = _parse_mem_operand(ops[1])
    out.append(Instruction(op, _REG[ops[0]], base, None, imm))


def _store(op, ops, lineno, out, fixups):
    imm, base = _parse_mem_operand(ops[1])
    out.append(Instruction(op, None, base, _REG[ops[0]], imm))


_BRANCH_SWAPS = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
_ZERO_BRANCHES = {
    "beqz": ("beq", False), "bnez": ("bne", False),
    "bltz": ("blt", False), "bgez": ("bge", False),
    "bgtz": ("blt", True), "blez": ("bge", True),
}


def _zero_branch(op, ops, lineno, out, fixups):
    opcode, zero_first = _ZERO_BRANCHES[op]
    reg = _REG[ops[0]]
    rs1, rs2 = (ZERO_REG, reg) if zero_first else (reg, ZERO_REG)
    _to_label(Instruction(opcode, None, rs1, rs2), ops[1], lineno, out,
              fixups)


_FORMATS = {
    "r3": (3, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, _REG[ops[0]], _REG[ops[1]], _REG[ops[2]]))),
    "f2": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, _REG[ops[0]], _REG[ops[1]]))),
    "r2i": (3, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, _REG[ops[0]], _REG[ops[1]], None, _parse_int(ops[2])))),
    "ri": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, _REG[ops[0]], None, None, _parse_int(ops[1])))),
    "fli": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, _REG[ops[0]], None, None, _parse_float(ops[1])))),
    "load": (2, _load),
    "store": (2, _store),
    "br": (3, lambda op, ops, ln, out, fx: _to_label(Instruction(
        op, None, _REG[ops[0]], _REG[ops[1]]), ops[2], ln, out, fx)),
    "j": (1, lambda op, ops, ln, out, fx: _to_label(
        Instruction(op), ops[0], ln, out, fx)),
    "jal": (1, lambda op, ops, ln, out, fx: _to_label(
        Instruction(op, REG_RA), ops[0], ln, out, fx)),
    "jr": (1, lambda op, ops, ln, out, fx: out.append(Instruction(
        op, None, _REG[ops[0]]))),
    "none": (0, lambda op, ops, ln, out, fx: out.append(Instruction(op))),
}
for _alias, _fmt in (("f3", "r3"), ("fcmp", "r3"), ("fcvt_wf", "f2"),
                     ("fcvt_fw", "f2"), ("jalr", "f2"), ("fload", "load"),
                     ("fstore", "store")):
    _FORMATS[_alias] = _FORMATS[_fmt]

_HANDLERS = {name: _FORMATS[spec.fmt] for name, spec in OPCODES.items()}
_HANDLERS.update({
    # ``nop`` takes whatever follows it; ``la`` reserves two slots,
    # patched once data addresses are known.
    "nop": (None, lambda op, ops, ln, out, fx: out.append(Instruction(
        "add", ZERO_REG, ZERO_REG, ZERO_REG))),
    "li": (2, lambda op, ops, ln, out, fx: out.extend(_li_sequence(
        _REG[ops[0]], _parse_int(ops[1])))),
    "la": (2, lambda op, ops, ln, out, fx: out.extend((
        _PendingLoadAddress(_REG[ops[0]], ops[1], ln),
        Instruction("add", ZERO_REG, ZERO_REG, ZERO_REG)))),
    "mv": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        "add", _REG[ops[0]], _REG[ops[1]], ZERO_REG))),
    "not": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        "nor", _REG[ops[0]], _REG[ops[1]], ZERO_REG))),
    "neg": (2, lambda op, ops, ln, out, fx: out.append(Instruction(
        "sub", _REG[ops[0]], ZERO_REG, _REG[ops[1]]))),
    "b": (1, lambda op, ops, ln, out, fx: _to_label(
        Instruction("j"), ops[0], ln, out, fx)),
})
_HANDLERS.update(dict.fromkeys(_BRANCH_SWAPS, (
    3, lambda op, ops, ln, out, fx: _to_label(Instruction(
        _BRANCH_SWAPS[op], None, _REG[ops[1]], _REG[ops[0]]),
        ops[2], ln, out, fx))))
_HANDLERS.update(dict.fromkeys(_ZERO_BRANCHES, (2, _zero_branch)))
