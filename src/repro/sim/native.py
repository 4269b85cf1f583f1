"""Native functional-execution backend (``repro.sim.native``).

Translates one :class:`~repro.isa.program.Program` into C — every
static instruction becomes a labelled straight-line statement with its
register indices, immediates, branch targets, link addresses, and
memory-bounds constants folded in as literals; direct control flow
becomes ``goto``; indirect jumps re-enter a ``switch`` dispatch —
compiles it once per machine through the shared :mod:`repro.native`
toolchain (content-addressed by generated source, so identical
programs share one ``.so`` across processes), and drives it via ctypes.
The engine writes the columnar trace event arrays *directly* into
fixed-size chunks: no per-instruction Python dispatch, no Python-object
trace, bounded memory on long caps.

Bit-identity with the interpreter is a hard contract, enforced by the
differential suite in ``tests/test_sim_native.py``:
identical trace arrays, final registers and memory, retired-instruction
counts, cap/heartbeat accounting, and ``SimulationError`` context.  The
re-entry protocol keeps the interpreter's counting exact: the C loop
returns to Python whenever ``executed`` crosses ``check_limit`` (cap or
heartbeat boundary), the wrapper emits the interpreter's heartbeat (or
raises its cap error), then resumes the same instruction with the
pre-increment count restored.

Everything degrades gracefully: no C compiler, ``REPRO_NATIVE=off``, or
a program the translator does not cover (operands outside the register
file its opcode format implies, oversized statics) simply means the
engine is unavailable and callers fall back to the interpreter.
Semantics are identical either way; only the wall time differs.
"""

import ctypes
import math
import time

import numpy as np

from repro.isa.assembler import TEXT_BASE
from repro.isa.columns import columns_for
from repro.isa.instructions import OPCODES
from repro.native import toolchain
from repro.obs.journal import active_journal, emit_event
from repro.obs.logging import INFO, get_logger
from repro.obs.metrics import REGISTRY
from repro.sim import functional as _functional
from repro.sim.functional import SimulationError, _OP_IDS
from repro.sim.trace import DynamicTrace

_LOG = get_logger("repro.sim")

#: Trace events per columnar chunk handed back to Python.  Large enough
#: to amortize the ctypes round trip (one per ~65k instructions), small
#: enough that a streaming consumer's working set stays in cache.
CHUNK_EVENTS = 1 << 16

#: Static-size ceiling for translation: beyond this the generated
#: translation unit stops being cheap to compile and the program is not
#: a corpus kernel or clone anyway.
MAX_STATIC = 50_000

#: ``ctl`` scratch-array slots shared with the C engine.
_CTL_PC, _CTL_EXECUTED, _CTL_LIMIT, _CTL_COUNT, _CTL_ERR_OP, \
    _CTL_ERR_ADDR = range(6)

#: Return reasons of the generated ``repro_sim_run``.
_R_HALT, _R_LIMIT, _R_CHUNK, _R_BADPC, _R_MEMERR = range(5)

#: op id -> opcode name for memory-range error messages.
_MEM_OP_NAMES = {2: "lw", 3: "sw", 33: "lb", 34: "lbu", 35: "sb",
                 36: "flw", 37: "fsw"}

_U32P = ctypes.POINTER(ctypes.c_uint32)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I8P = ctypes.POINTER(ctypes.c_int8)


# ----------------------------------------------------------------------
# Availability / translatability gates
# ----------------------------------------------------------------------
def available():
    """Whether this host can run native functional execution at all."""
    return toolchain.enabled() and toolchain.probe()


def reset():
    """Forget the toolchain probe (tests toggling REPRO_NATIVE / cc)."""
    toolchain.reset()


def _is_int(reg):
    return reg is not None and 0 <= reg < 32


def _is_fp(reg):
    return reg is not None and 32 <= reg < 64


def _int_dest(reg):
    """Guarded integer destination: ``None`` and ``r0`` are no-ops."""
    return reg is None or 0 <= reg < 32


def _translatable(program):
    """Whether the translator covers every instruction of ``program``.

    The interpreter dispatches on the opcode and trusts operand fields
    to be in the register file the format implies; the C engine bakes
    the file split (uint32 vs double) into the generated code, so a
    hand-built program that mixes files is simply not translated.
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0 or n > MAX_STATIC:
        return False
    for instr in instructions:
        op_id = _OP_IDS.get(instr.opcode)
        if op_id is None:
            return False
        fmt = OPCODES[instr.opcode].fmt
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        imm, target = instr.imm, instr.target
        in_range = target is not None and 0 <= target < n
        if fmt == "r3":
            ok = _int_dest(rd) and _is_int(rs1) and _is_int(rs2)
        elif fmt == "r2i":
            ok = (_int_dest(rd) and _is_int(rs1)
                  and isinstance(imm, int))
            if ok and instr.opcode == "slti":
                # slti compares the raw (unmasked) immediate.
                ok = -(1 << 31) <= imm < (1 << 31)
        elif fmt == "ri":
            ok = _int_dest(rd) and isinstance(imm, int)
        elif fmt == "f3":
            ok = _is_fp(rd) and _is_fp(rs1) and _is_fp(rs2)
        elif fmt == "f2":
            ok = _is_fp(rd) and _is_fp(rs1)
        elif fmt == "fcmp":
            ok = _int_dest(rd) and _is_fp(rs1) and _is_fp(rs2)
        elif fmt == "fcvt_wf":
            ok = _int_dest(rd) and _is_fp(rs1)
        elif fmt == "fcvt_fw":
            ok = _is_fp(rd) and _is_int(rs1)
        elif fmt == "fli":
            ok = _is_fp(rd) and isinstance(imm, (int, float))
        elif fmt == "load":
            ok = (_int_dest(rd) and _is_int(rs1)
                  and isinstance(imm, int))
        elif fmt == "fload":
            ok = _is_fp(rd) and _is_int(rs1) and isinstance(imm, int)
        elif fmt == "store":
            ok = _is_int(rs1) and _is_int(rs2) and isinstance(imm, int)
        elif fmt == "fstore":
            ok = _is_int(rs1) and _is_fp(rs2) and isinstance(imm, int)
        elif fmt == "br":
            ok = _is_int(rs1) and _is_int(rs2) and in_range
        elif fmt == "j":
            ok = in_range
        elif fmt == "jal":
            ok = _int_dest(rd) and in_range
        elif fmt == "jr":
            ok = _is_int(rs1)
        elif fmt == "jalr":
            ok = _int_dest(rd) and _is_int(rs1)
        elif fmt == "none":
            ok = True
        else:
            ok = False
        if not ok:
            return False
    return True


def translatable(program):
    """Per-program translatability, cached on the shared columns."""
    columns = columns_for(program)
    cached = columns.derived.get("native_sim_ok")
    if cached is None:
        cached = _translatable(program)
        columns.derived["native_sim_ok"] = cached
        if not cached:
            _LOG.debug("sim.native.untranslatable", program=program.name)
    return cached


def usable(program):
    """Cheap resolution gate: gated on, toolchain probed, program
    translatable.  No program compile is attempted here — that happens
    lazily on first run (and a failed compile falls back to the
    interpreter)."""
    return available() and translatable(program)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _double_literal(value):
    value = float(value)
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "-INFINITY" if value < 0 else "INFINITY"
    return value.hex()


def _immu(imm):
    return f"{imm & 0xFFFFFFFF}u"


def _goto(next_pc, n_instrs):
    if next_pc < n_instrs:
        return f"goto I{next_pc};"
    return f"{{ pc = {next_pc}; reason = 3; goto out; }}"


#: Unsigned register-register expression templates (C mirrors of the
#: interpreter arms; uint32 arithmetic wraps exactly like ``& _M32``).
_R3_EXPRS = {
    1: "ir[{a}] + ir[{b}]",                     # add
    8: "ir[{a}] - ir[{b}]",                     # sub
    9: "ir[{a}] & ir[{b}]",                     # and
    10: "ir[{a}] | ir[{b}]",                    # or
    11: "ir[{a}] ^ ir[{b}]",                    # xor
    12: "ir[{a}] << (ir[{b}] & 31)",            # sll
    13: "ir[{a}] >> (ir[{b}] & 31)",            # srl
    14: "(uint32_t)((int64_t)(int32_t)ir[{a}] >> (ir[{b}] & 31))",  # sra
    15: "((int32_t)ir[{a}] < (int32_t)ir[{b}])",  # slt
    16: "(ir[{a}] < ir[{b}])",                  # sltu
    26: "~(ir[{a}] | ir[{b}])",                 # nor
    27: ("(uint32_t)((int64_t)(int32_t)ir[{a}]"
         " * (int64_t)(int32_t)ir[{b}])"),      # mul
    28: ("(uint32_t)(((int64_t)(int32_t)ir[{a}]"
         " * (int64_t)(int32_t)ir[{b}]) >> 32)"),  # mulh
}

#: Register-immediate expression templates ({i} is the masked
#: immediate, {s} the shift amount, {r} the raw int32 immediate).
_R2I_EXPRS = {
    0: "ir[{a}] + {i}",                         # addi
    17: "ir[{a}] & {i}",                        # andi
    18: "ir[{a}] | {i}",                        # ori
    19: "ir[{a}] ^ {i}",                        # xori
    20: "ir[{a}] << {s}",                       # slli
    21: "ir[{a}] >> {s}",                       # srli
    22: "(uint32_t)((int64_t)(int32_t)ir[{a}] >> {s})",  # srai
    23: "((int32_t)ir[{a}] < (int32_t){i})",    # slti
    24: "(ir[{a}] < {i})",                      # sltiu
}

#: Conditional-branch condition expressions.
_BRANCH_EXPRS = {
    4: "(ir[{a}] == ir[{b}])",                  # beq
    5: "(ir[{a}] != ir[{b}])",                  # bne
    6: "((int32_t)ir[{a}] < (int32_t)ir[{b}])",    # blt
    7: "((int32_t)ir[{a}] >= (int32_t)ir[{b}])",   # bge
    38: "(ir[{a}] < ir[{b}])",                  # bltu
    39: "(ir[{a}] >= ir[{b}])",                 # bgeu
}

#: FP expression templates over ``fr`` (indices already rebased).
_FP_EXPRS = {
    44: "fr[{a}] + fr[{b}]",                    # fadd
    45: "fr[{a}] - fr[{b}]",                    # fsub
    46: "fr[{a}] * fr[{b}]",                    # fmul
    49: "-fr[{a}]",                             # fneg
    50: "fabs(fr[{a}])",                        # fabs
    51: "fr[{a}]",                              # fmv
}

#: FP comparisons writing a guarded integer destination.
_FCMP_EXPRS = {
    54: "(fr[{a}] == fr[{b}])",                 # feq
    55: "(fr[{a}] < fr[{b}])",                  # flt
    56: "(fr[{a}] <= fr[{b}])",                 # fle
}


def _emit_instruction(pc, decoded, n_instrs, lines):
    """Emit the labelled C statement(s) for one static instruction."""
    op_id, rd, rs1, rs2, imm, target = decoded
    wr = rd is not None and rd != 0  # guarded integer destination live?
    emit = lines.append
    emit(f"I{pc}:")
    emit(f"    STEP({pc})")
    plain = f"    TR({pc}, -1, -1)"
    fall = f"    {_goto(pc + 1, n_instrs)}"

    if op_id in _R3_EXPRS:
        if wr:
            expr = _R3_EXPRS[op_id].format(a=rs1, b=rs2)
            emit(f"    ir[{rd}] = {expr};")
        emit(plain)
        emit(fall)
    elif op_id in _R2I_EXPRS:
        if wr:
            expr = _R2I_EXPRS[op_id].format(
                a=rs1, i=_immu(imm), s=imm & 31)
            emit(f"    ir[{rd}] = {expr};")
        emit(plain)
        emit(fall)
    elif op_id == 25:  # lui
        if wr:
            emit(f"    ir[{rd}] = {_immu(imm << 16)};")
        emit(plain)
        emit(fall)
    elif op_id in (29, 31):  # div / rem (int64 avoids INT_MIN/-1 UB)
        if wr:
            c_op = "/" if op_id == 29 else "%"
            emit(f"    {{ int64_t a = (int32_t)ir[{rs1}], "
                 f"b = (int32_t)ir[{rs2}];")
            emit(f"      ir[{rd}] = (uint32_t)(b ? a {c_op} b : 0); }}")
        emit(plain)
        emit(fall)
    elif op_id in (30, 32):  # divu / remu
        if wr:
            c_op = "/" if op_id == 30 else "%"
            emit(f"    {{ uint32_t b = ir[{rs2}];")
            emit(f"      ir[{rd}] = b ? ir[{rs1}] {c_op} b : 0u; }}")
        emit(plain)
        emit(fall)
    elif op_id in _BRANCH_EXPRS:
        cond = _BRANCH_EXPRS[op_id].format(a=rs1, b=rs2)
        emit(f"    {{ int8_t t = {cond};")
        emit(f"      TR({pc}, -1, t)")
        emit(f"      if (t) goto I{target}; }}")
        emit(fall)
    elif op_id in (2, 33, 34):  # lw / lb / lbu
        bound = ("(int64_t)a + 4 > mem_size" if op_id == 2
                 else "(int64_t)a >= mem_size")
        emit(f"    {{ uint32_t a = ir[{rs1}] + {_immu(imm)};")
        emit(f"      if ({bound}) MEMERR({pc}, {op_id}, a)")
        if wr:
            if op_id == 2:
                emit("      { uint32_t v; memcpy(&v, mem + a, 4); "
                     f"ir[{rd}] = v; }}")
            elif op_id == 33:
                emit(f"      ir[{rd}] = "
                     "(uint32_t)(int32_t)(int8_t)mem[a];")
            else:
                emit(f"      ir[{rd}] = mem[a];")
        emit(f"      TR({pc}, (int64_t)a, -1) }}")
        emit(fall)
    elif op_id in (3, 35):  # sw / sb
        bound = ("(int64_t)a + 4 > mem_size" if op_id == 3
                 else "(int64_t)a >= mem_size")
        emit(f"    {{ uint32_t a = ir[{rs1}] + {_immu(imm)};")
        emit(f"      if ({bound}) MEMERR({pc}, {op_id}, a)")
        if op_id == 3:
            emit(f"      {{ uint32_t v = ir[{rs2}]; "
                 "memcpy(mem + a, &v, 4); }")
        else:
            emit(f"      mem[a] = (uint8_t)ir[{rs2}];")
        emit(f"      TR({pc}, (int64_t)a, -1) }}")
        emit(fall)
    elif op_id == 36:  # flw
        emit(f"    {{ uint32_t a = ir[{rs1}] + {_immu(imm)};")
        emit(f"      if ((int64_t)a + 8 > mem_size) MEMERR({pc}, 36, a)")
        emit("      { double v; memcpy(&v, mem + a, 8); "
             f"fr[{rd - 32}] = v; }}")
        emit(f"      TR({pc}, (int64_t)a, -1) }}")
        emit(fall)
    elif op_id == 37:  # fsw
        emit(f"    {{ uint32_t a = ir[{rs1}] + {_immu(imm)};")
        emit(f"      if ((int64_t)a + 8 > mem_size) MEMERR({pc}, 37, a)")
        emit(f"      {{ double v = fr[{rs2 - 32}]; "
             "memcpy(mem + a, &v, 8); }")
        emit(f"      TR({pc}, (int64_t)a, -1) }}")
        emit(fall)
    elif op_id == 40:  # j
        emit(plain)
        emit(f"    goto I{target};")
    elif op_id == 41:  # jal
        if wr:
            emit(f"    ir[{rd}] = {_immu(TEXT_BASE + 4 * (pc + 1))};")
        emit(plain)
        emit(f"    goto I{target};")
    elif op_id in (42, 43):  # jr / jalr (rs1 read precedes link write)
        emit(f"    {{ int64_t ret = (int64_t)ir[{rs1}];")
        if op_id == 43 and wr:
            emit(f"      ir[{rd}] = {_immu(TEXT_BASE + 4 * (pc + 1))};")
        emit(f"      TR({pc}, -1, -1)")
        emit(f"      pc = (ret - {TEXT_BASE}) >> 2; goto dispatch; }}")
    elif op_id in _FP_EXPRS:
        expr = _FP_EXPRS[op_id].format(
            a=rs1 - 32, b=(rs2 - 32) if rs2 is not None else None)
        emit(f"    fr[{rd - 32}] = {expr};")
        emit(plain)
        emit(fall)
    elif op_id == 47:  # fdiv
        emit(f"    {{ double b = fr[{rs2 - 32}];")
        emit(f"      fr[{rd - 32}] = (b != 0.0) "
             f"? fr[{rs1 - 32}] / b : 0.0; }}")
        emit(plain)
        emit(fall)
    elif op_id == 48:  # fsqrt
        emit(f"    {{ double v = fr[{rs1 - 32}];")
        emit(f"      fr[{rd - 32}] = (v > 0.0) ? sqrt(v) : 0.0; }}")
        emit(plain)
        emit(fall)
    elif op_id == 52:  # fmin (Python min: b if b < a else a)
        emit(f"    {{ double a = fr[{rs1 - 32}], b = fr[{rs2 - 32}];")
        emit(f"      fr[{rd - 32}] = (b < a) ? b : a; }}")
        emit(plain)
        emit(fall)
    elif op_id == 53:  # fmax
        emit(f"    {{ double a = fr[{rs1 - 32}], b = fr[{rs2 - 32}];")
        emit(f"      fr[{rd - 32}] = (b > a) ? b : a; }}")
        emit(plain)
        emit(fall)
    elif op_id in _FCMP_EXPRS:
        if wr:
            expr = _FCMP_EXPRS[op_id].format(a=rs1 - 32, b=rs2 - 32)
            emit(f"    ir[{rd}] = {expr};")
        emit(plain)
        emit(fall)
    elif op_id == 57:  # fcvtws (truncate toward zero, like int())
        if wr:
            emit(f"    ir[{rd}] = (uint32_t)(int64_t)fr[{rs1 - 32}];")
        emit(plain)
        emit(fall)
    elif op_id == 58:  # fcvtsw
        emit(f"    fr[{rd - 32}] = (double)(int32_t)ir[{rs1}];")
        emit(plain)
        emit(fall)
    elif op_id == 59:  # fli
        emit(f"    fr[{rd - 32}] = {_double_literal(imm)};")
        emit(plain)
        emit(fall)
    elif op_id == 60:  # halt
        emit(plain)
        emit(f"    pc = {pc}; reason = 0; goto out;")
    else:  # unreachable behind _translatable
        raise SimulationError(f"bad op id {op_id}")


def generate_source(program):
    """The full C translation unit for ``program``."""
    columns = columns_for(program)
    decoded = columns.derived.get("functional_decode")
    if decoded is None:
        from repro.sim.functional import FunctionalSimulator
        FunctionalSimulator(program)  # populates the decode cache
        decoded = columns.derived["functional_decode"]
    n_instrs = len(decoded)
    lines = [
        "/* Generated functional-execution engine: exact port of",
        " * repro.sim.functional._run_interp for one program's decoded",
        " * instructions (see repro/sim/native.py). */",
        "#include <stdint.h>",
        "#include <string.h>",
        "#include <math.h>",
        "",
        "#define STEP(PC) \\",
        "    if (n >= cap) { pc = PC; reason = 2; goto out; } \\",
        "    executed++; \\",
        "    if (executed > check_limit) "
        "{ pc = PC; reason = 1; goto out; }",
        "",
        "#define TR(PC, A, T) \\",
        "    t_pcs[n] = PC; t_addrs[n] = (A); t_taken[n] = (T); n++;",
        "",
        "#define MEMERR(PC, OP, A) \\",
        "    { pc = PC; ctl[4] = OP; ctl[5] = (int64_t)(A); \\",
        "      reason = 4; goto out; }",
        "",
        "int64_t repro_sim_run(uint32_t *ir, double *fr, uint8_t *mem,",
        "                      int64_t mem_size, int64_t *ctl,",
        "                      int32_t *t_pcs, int64_t *t_addrs,",
        "                      int8_t *t_taken, int64_t cap)",
        "{",
        "    int64_t pc = ctl[0];",
        "    int64_t executed = ctl[1];",
        "    int64_t check_limit = ctl[2];",
        "    int64_t n = 0;",
        "    int64_t reason;",
        "",
        "dispatch:",
        "    switch (pc) {",
    ]
    for pc in range(n_instrs):
        lines.append(f"    case {pc}: goto I{pc};")
    lines.append("    default: reason = 3; goto out;")
    lines.append("    }")
    lines.append("")
    for pc, entry in enumerate(decoded):
        _emit_instruction(pc, entry, n_instrs, lines)
    lines.extend([
        "",
        "out:",
        "    ctl[0] = pc; ctl[1] = executed; ctl[3] = n;",
        "    return reason;",
        "}",
    ])
    return "\n".join(lines) + "\n"


def engine_for(program):
    """The compiled ctypes entry point for ``program``, or ``None``.

    Compiles lazily on first use; the loaded library and prepared
    function are cached on the program's shared columns, the ``.so``
    itself in the content-addressed toolchain cache (so one compile per
    program content per machine, ever).
    """
    if not usable(program):
        return None
    columns = columns_for(program)
    cached = columns.derived.get("native_sim")
    if cached is None:
        cached = False
        library = toolchain.load_library(generate_source(program),
                                         "simfunc")
        if library is not None:
            run = library.repro_sim_run
            run.restype = ctypes.c_int64
            run.argtypes = [
                _U32P, _F64P, _U8P, ctypes.c_int64, _I64P,
                _I32P, _I64P, _I8P, ctypes.c_int64,
            ]
            cached = (library, run)
        columns.derived["native_sim"] = cached
    return cached[1] if cached else None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _drive(simulator, max_instructions, sink, chunk_events=CHUNK_EVENTS):
    """Run the compiled engine to completion, streaming trace chunks.

    ``sink`` (if given) receives ``(pcs, addrs, taken)`` numpy views
    per chunk, valid only until the next resume.  Replicates the
    interpreter's cap/heartbeat protocol and error semantics exactly;
    returns instructions executed.
    """
    program = simulator.program
    run = engine_for(program)
    if run is None:
        raise SimulationError(
            f"native backend unavailable for {program.name}")
    regs = simulator.regs
    memory = simulator.memory
    ir = np.array(regs[:32], dtype=np.uint32)
    fr = np.array([float(value) for value in regs[32:]], dtype=np.float64)
    mem_view = np.frombuffer(memory.data, dtype=np.uint8)
    t_pcs = np.empty(chunk_events, dtype=np.int32)
    t_addrs = np.empty(chunk_events, dtype=np.int64)
    t_taken = np.empty(chunk_events, dtype=np.int8)
    ctl = np.zeros(6, dtype=np.int64)
    args = (ir.ctypes.data_as(_U32P), fr.ctypes.data_as(_F64P),
            mem_view.ctypes.data_as(_U8P), memory.size,
            ctl.ctypes.data_as(_I64P), t_pcs.ctypes.data_as(_I32P),
            t_addrs.ctypes.data_as(_I64P), t_taken.ctypes.data_as(_I8P),
            chunk_events)

    # Identical heartbeat arming to the interpreter loop (the interval
    # is read through the module so test monkeypatching applies here).
    heartbeat_interval = _functional.HEARTBEAT_INTERVAL
    wall_start = time.perf_counter()
    if REGISTRY.enabled and (_LOG.is_enabled_for(INFO)
                             or active_journal() is not None):
        next_heartbeat = heartbeat_interval
    else:
        next_heartbeat = max_instructions + 1
    ctl[_CTL_PC] = program.entry
    ctl[_CTL_LIMIT] = min(max_instructions, next_heartbeat - 1)

    def sync_regs():
        regs[:32] = [int(value) for value in ir]
        regs[32:] = [float(value) for value in fr]

    while True:
        reason = run(*args)
        count = int(ctl[_CTL_COUNT])
        if count and sink is not None:
            sink(t_pcs[:count], t_addrs[:count], t_taken[:count])
        if reason == _R_CHUNK:
            continue
        executed = int(ctl[_CTL_EXECUTED])
        pc = int(ctl[_CTL_PC])
        if reason == _R_LIMIT:
            if executed > max_instructions:
                sync_regs()
                raise simulator._cap_error(pc, executed, max_instructions)
            next_heartbeat += heartbeat_interval
            elapsed = time.perf_counter() - wall_start
            mips = executed / elapsed / 1e6 if elapsed else 0.0
            _LOG.info("sim.heartbeat", program=program.name,
                      instructions=executed, pc=pc, mips=mips)
            emit_event("progress", done=executed, total=max_instructions,
                       unit="instructions", label=program.name,
                       mips=round(mips, 2))
            # Restore the pre-increment count: the C loop re-increments
            # when it re-executes the interrupted instruction, exactly
            # like the interpreter's single count per retirement.
            ctl[_CTL_EXECUTED] = executed - 1
            ctl[_CTL_LIMIT] = min(max_instructions, next_heartbeat - 1)
            continue
        if reason == _R_BADPC:
            sync_regs()
            raise SimulationError(
                f"pc out of range: {pc} in {program.name}",
                pc=pc, instructions=executed)
        if reason == _R_MEMERR:
            sync_regs()
            op = _MEM_OP_NAMES[int(ctl[_CTL_ERR_OP])]
            addr = int(ctl[_CTL_ERR_ADDR])
            raise SimulationError(f"{op} out of range: {addr:#x}")
        break  # _R_HALT
    sync_regs()
    simulator._finish_run(executed, wall_start, "native")
    return executed


def run_native(simulator, max_instructions, trace):
    """Drop-in replacement for ``_run_interp`` via the C engine."""
    if not trace:
        return _drive(simulator, max_instructions, None)
    parts = []

    def sink(pcs, addrs, taken):
        parts.append((pcs.copy(), addrs.copy(), taken.copy()))

    _drive(simulator, max_instructions, sink)
    if parts:
        pcs = np.concatenate([part[0] for part in parts])
        addrs = np.concatenate([part[1] for part in parts])
        taken = np.concatenate([part[2] for part in parts])
    else:
        pcs = np.empty(0, dtype=np.int32)
        addrs = np.empty(0, dtype=np.int64)
        taken = np.empty(0, dtype=np.int8)
    return DynamicTrace(simulator.program, pcs, addrs, taken)


def stream_trace(simulator, max_instructions, sink,
                 chunk_events=CHUNK_EVENTS):
    """Execute natively, feeding columnar trace chunks to ``sink``.

    ``sink(pcs, addrs, taken)`` is called with numpy views valid only
    until it returns — consumers keep what they need.  The full trace
    is never materialized.  Returns instructions executed.
    """
    return _drive(simulator, max_instructions, sink, chunk_events)
