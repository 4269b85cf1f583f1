"""SRISC opcode table and the :class:`Instruction` record.

Every opcode belongs to exactly one *instruction class*.  The classes are
the categories of the paper's instruction-mix characterization (Section
3.1.2): integer arithmetic, integer multiply, integer divide, fp
arithmetic, fp multiply, fp divide, load, store, and branch — plus jumps
and a sentinel class for ``halt``.
"""

from repro.isa.registers import REG_RA, reg_name


class IClass:
    """Instruction-class codes (small ints for fast dispatch)."""

    IALU = 0
    IMUL = 1
    IDIV = 2
    FALU = 3
    FMUL = 4
    FDIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    JUMP = 9
    OTHER = 10

    COUNT = 11

    #: Classes whose instructions access data memory.
    MEMORY = (6, 7)


ICLASS_NAMES = (
    "ialu",
    "imul",
    "idiv",
    "falu",
    "fmul",
    "fdiv",
    "load",
    "store",
    "branch",
    "jump",
    "other",
)


class OpcodeSpec:
    """Static description of one opcode: class, format and class flags."""

    __slots__ = ("name", "iclass", "fmt", "is_mem", "is_cond_branch",
                 "is_ctrl")

    def __init__(self, name, iclass, fmt):
        self.name = name
        self.iclass = iclass
        self.fmt = fmt
        self.is_mem = iclass in IClass.MEMORY
        self.is_cond_branch = iclass == IClass.BRANCH
        self.is_ctrl = iclass in (IClass.BRANCH, IClass.JUMP)

    def __repr__(self):
        return f"OpcodeSpec({self.name!r}, {ICLASS_NAMES[self.iclass]}, {self.fmt!r})"


def _specs():
    table = {}

    def add(fmt, iclass, *names):
        for name in names:
            table[name] = OpcodeSpec(name, iclass, fmt)

    # Integer register-register and register-immediate arithmetic.
    add("r3", IClass.IALU, "add", "sub", "and", "or", "xor", "nor",
        "sll", "srl", "sra", "slt", "sltu")
    add("r2i", IClass.IALU, "addi", "andi", "ori", "xori",
        "slli", "srli", "srai", "slti", "sltiu")
    add("ri", IClass.IALU, "lui")
    add("r3", IClass.IMUL, "mul", "mulh")
    add("r3", IClass.IDIV, "div", "divu", "rem", "remu")

    # Floating point.
    add("f3", IClass.FALU, "fadd", "fsub", "fmin", "fmax")
    add("f2", IClass.FALU, "fneg", "fabs", "fmv")
    add("fcmp", IClass.FALU, "feq", "flt", "fle")
    add("fcvt_wf", IClass.FALU, "fcvtws")
    add("fcvt_fw", IClass.FALU, "fcvtsw")
    add("fli", IClass.FALU, "fli")
    add("f3", IClass.FMUL, "fmul")
    add("f3", IClass.FDIV, "fdiv")
    add("f2", IClass.FDIV, "fsqrt")

    # Memory.
    add("load", IClass.LOAD, "lw", "lb", "lbu")
    add("fload", IClass.LOAD, "flw")
    add("store", IClass.STORE, "sw", "sb")
    add("fstore", IClass.STORE, "fsw")

    # Control flow.
    add("br", IClass.BRANCH, "beq", "bne", "blt", "bge", "bltu", "bgeu")
    add("j", IClass.JUMP, "j")
    add("jal", IClass.JUMP, "jal")
    add("jr", IClass.JUMP, "jr")
    add("jalr", IClass.JUMP, "jalr")

    add("none", IClass.OTHER, "halt")
    return table


#: Opcode name -> :class:`OpcodeSpec` for the full instruction set.
OPCODES = _specs()


#: Operand syntax per format (``none`` has no operands).
_OPERAND_TEMPLATES = {
    "r3": "{rd}, {rs1}, {rs2}", "f3": "{rd}, {rs1}, {rs2}",
    "fcmp": "{rd}, {rs1}, {rs2}", "r2i": "{rd}, {rs1}, {imm}",
    "ri": "{rd}, {imm}", "fli": "{rd}, {imm}", "f2": "{rd}, {rs1}",
    "fcvt_wf": "{rd}, {rs1}", "fcvt_fw": "{rd}, {rs1}", "jalr": "{rd}, {rs1}",
    "load": "{rd}, {imm}({rs1})", "fload": "{rd}, {imm}({rs1})",
    "store": "{rs2}, {imm}({rs1})", "fstore": "{rs2}, {imm}({rs1})",
    "br": "{rs1}, {rs2}, {target}", "j": "{target}", "jal": "{target}",
    "jr": "{rs1}",
}


class Instruction:
    """One static SRISC instruction.

    Operand fields follow a single convention so consumers never need to
    dispatch on format:

    * ``rd``  — flat index of the destination register, or ``None``;
    * ``srcs`` — tuple of flat indices of all source registers;
    * ``imm`` — immediate / memory offset (``float`` only for ``fli``);
    * ``target`` — resolved instruction index for branches and direct
      jumps, ``None`` otherwise.

    ``rs1``/``rs2`` keep the raw format roles (base register / second
    operand) for the functional simulator's semantics.
    """

    __slots__ = ("opcode", "iclass", "rd", "rs1", "rs2", "imm", "target",
                 "srcs", "is_mem", "is_cond_branch", "is_ctrl")

    def __init__(self, opcode, rd=None, rs1=None, rs2=None, imm=None,
                 target=None):
        spec = OPCODES.get(opcode)
        if spec is None:
            raise ValueError(f"unknown opcode: {opcode!r}")
        self.opcode = opcode
        self.iclass = spec.iclass
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        if rs1 is None:
            self.srcs = () if rs2 is None else (rs2,)
        else:
            self.srcs = (rs1,) if rs2 is None else (rs1, rs2)
        self.is_mem = spec.is_mem
        self.is_cond_branch = spec.is_cond_branch
        self.is_ctrl = spec.is_ctrl

    def render(self, index_to_label=None):
        """Render as assembly text.

        ``index_to_label`` maps instruction indices to label names for
        branch/jump targets; raw indices are printed when absent.
        """
        template = _OPERAND_TEMPLATES.get(OPCODES[self.opcode].fmt)
        if template is None:
            return self.opcode
        if self.target is None:
            target = "?"
        elif index_to_label and self.target in index_to_label:
            target = index_to_label[self.target]
        else:
            target = f"@{self.target}"
        regs = {field: reg_name(index) for field, index in (
            ("rd", self.rd), ("rs1", self.rs1), ("rs2", self.rs2))
            if index is not None}
        return f"{self.opcode} " + template.format(imm=self.imm,
                                                   target=target, **regs)

    def __repr__(self):
        return f"<Instruction {self.render()}>"


def make_jal(target):
    """Build a ``jal`` (writes the return address into ``r31``)."""
    return Instruction("jal", rd=REG_RA, target=target)
