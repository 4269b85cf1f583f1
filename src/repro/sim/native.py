"""Native functional-execution backend (``repro.sim.native``).

One fixed C interpreter, the ``simfunc`` library, runs every program.
The shared :mod:`repro.native` toolchain compiles it once per machine
and loads it once per process, with its signature bound from
``_SIGNATURES``.  A program reaches it as data: :func:`_encode` turns the
interpreter's decode rows into an ``int32`` table of ``(op, rd, rs1,
rs2, u, target)`` rows plus a ``float64`` column of ``fli`` immediates,
built in one pass and cached on the program's shared columns.  The
Python side does all operand shaping — FP register indices rebased,
integer writes to ``r0``/``None`` sent to a scratch slot nobody reads,
immediates, shift amounts, ``lui`` values and link addresses
pre-masked — so each C handler is one statement.  Dispatch is
direct-threaded (``goto *handler[op]`` at the end of every handler).
The engine writes the columnar trace event arrays *directly* into
fixed-size chunks: no per-instruction Python dispatch, no Python-object
trace, bounded memory on long caps.

Bit-identity with the interpreter is a hard contract, enforced by the
differential suites in ``tests/test_sim_native.py``: identical trace
arrays, final registers and memory, retired-instruction counts,
cap/heartbeat accounting, and ``SimulationError`` context.  The re-entry
protocol keeps the interpreter's counting exact: the C loop returns to
Python whenever ``executed`` crosses ``check_limit`` (cap or heartbeat
boundary), the wrapper emits the interpreter's heartbeat (or raises its
cap error), then resumes the same instruction with the pre-increment
count restored.

Everything degrades gracefully: no C compiler (or one without GNU
labels-as-values), ``REPRO_NATIVE=off``, or a program outside the
engine's register-file split (operands outside the file its opcode
format implies) simply means the engine is unavailable and callers fall
back to the interpreter.  Semantics are identical either way; only the
wall time differs.
"""

import ctypes
import time

import numpy as np

from repro.isa.assembler import TEXT_BASE
from repro.isa.columns import columns_for
from repro.isa.instructions import OPCODES
from repro.native import toolchain
from repro.obs.journal import active_journal, emit_event
from repro.obs.logging import INFO, get_logger
from repro.sim import functional as _functional
from repro.sim.functional import _M32, _OP_IDS, SimulationError
from repro.sim.trace import DynamicTrace

_LOG = get_logger("repro.sim")

#: Trace events per columnar chunk handed back to Python.  Large enough
#: to amortize the ctypes round trip (one per ~65k instructions), small
#: enough that a streaming consumer's working set stays in cache.
CHUNK_EVENTS = 1 << 16

#: ``ctl`` scratch-array slots shared with the C engine.
_CTL_PC, _CTL_EXECUTED, _CTL_LIMIT, _CTL_COUNT, _CTL_ERR_OP, \
    _CTL_ERR_ADDR = range(6)

#: Return reasons of ``repro_sim_run``.
_R_HALT, _R_LIMIT, _R_CHUNK, _R_BADPC, _R_MEMERR = range(5)

#: op id -> opcode name for memory-range error messages.
_MEM_OP_NAMES = {2: "lw", 3: "sw", 33: "lb", 34: "lbu", 35: "sb",
                 36: "flw", 37: "fsw"}

#: op id -> opcode name (the interpreter's dispatch numbering).
_OP_NAMES = sorted(_OP_IDS, key=_OP_IDS.get)

#: Integer-file slot that absorbs writes to ``r0`` / no destination.
_SCRATCH = 32

#: Per opcode format, the register file each of ``(rd, rs1, rs2)``
#: must name: ``int``, ``fp``, ``dest`` (an integer destination, or
#: ``None``; ``r0``/``None`` writes are no-ops) or ``None`` (unused).
#: The engine keeps the files apart (uint32 vs double).
_OPERANDS = {
    "r3": ("dest", "int", "int"),
    "r2i": ("dest", "int", None),
    "ri": ("dest", None, None),
    "f3": ("fp", "fp", "fp"),
    "f2": ("fp", "fp", None),
    "fcmp": ("dest", "fp", "fp"),
    "fcvt_wf": ("dest", "fp", None),
    "fcvt_fw": ("fp", "int", None),
    "fli": ("fp", None, None),
    "load": ("dest", "int", None),
    "fload": ("fp", "int", None),
    "store": (None, "int", "int"),
    "fstore": (None, "int", "fp"),
    "br": (None, "int", "int"),
    "j": (None, None, None),
    "jal": ("dest", None, None),
    "jr": (None, "int", None),
    "jalr": ("dest", "int", None),
    "none": (None, None, None),
}

#: Formats with an integer immediate / a direct branch or jump target.
_INT_IMM = frozenset({"r2i", "ri", "load", "fload", "store", "fstore"})
_TARGETED = frozenset({"br", "j", "jal"})

#: Opcodes that run another opcode's handler: a ``j``/``jr`` row is a
#: ``jal``/``jalr`` whose link write lands in the scratch slot.
_HANDLER_OF = {"j": "jal", "jr": "jalr"}

_C_SOURCE = r"""
/* Fixed functional-execution engine: exact port of
 * repro.sim.functional._run_interp over the int32 program table built
 * by repro.sim.native._encode (see that module). */
#include <stdint.h>
#include <string.h>
#include <math.h>

typedef struct { int32_t op, rd, rs1, rs2, u, target; } row_t;

#define TEXT_BASE %(text_base)d
#define R_HALT 0
#define R_LIMIT 1
#define R_CHUNK 2
#define R_BADPC 3
#define R_MEMERR 4

/* Enter the instruction at pc and jump straight to its handler
 * (repeated at the end of every handler).  One compare covers the
 * chunk-full and cap/heartbeat checks: n and executed rise together, so
 * a full chunk is executed passing executed0 + cap.  Falling off the end
 * lands on the sentinel row at n_instrs; jr/jalr check their own pc. */
#define NEXT \
    r = code + pc; \
    if (++executed > stop) goto stopped; \
    goto *handler[r->op];

#define TR(A, T) \
    t_pcs[n] = (int32_t)pc; t_addrs[n] = (A); t_taken[n] = (T); n++;
#define PLAIN TR(-1, -1) pc++; NEXT
#define BRANCH(COND) \
    { int8_t t = (COND); TR(-1, t) pc = t ? r->target : pc + 1; } NEXT
#define ADDR(SIZE) \
    uint32_t a = ir[r->rs1] + U; \
    if ((int64_t)a + (SIZE) > mem_size) { \
        ctl[4] = r->op; ctl[5] = a; reason = R_MEMERR; goto out; }
#define MEMDONE TR((int64_t)a, -1) pc++; NEXT

#define U ((uint32_t)r->u)
#define RD ir[r->rd]
#define R1 ir[r->rs1]
#define R2 ir[r->rs2]
#define S1 ((int64_t)(int32_t)ir[r->rs1])
#define S2 ((int64_t)(int32_t)ir[r->rs2])
#define FD fr[r->rd]
#define F1 fr[r->rs1]
#define F2 fr[r->rs2]

/* fcvtws: NaN and +-inf give 0; finite values truncate toward zero and
 * wrap mod 2^32.  No out-of-range cast: fmod keeps t in (-2^32, 2^32). */
static uint32_t cvt_w(double v)
{
    if (!isfinite(v))
        return 0u;
    double t = fmod(trunc(v), 4294967296.0);
    return (uint32_t)(t < 0.0 ? t + 4294967296.0 : t);
}

int64_t repro_sim_run(const row_t *code, const double *fimm,
                      int64_t n_instrs, uint32_t *ir, double *fr,
                      uint8_t *mem, int64_t mem_size, int64_t *ctl,
                      int32_t *t_pcs, int64_t *t_addrs, int8_t *t_taken,
                      int64_t cap)
{
    static void *const handler[] = { %(handlers)s };
    int64_t pc = ctl[0], executed = ctl[1], check_limit = ctl[2];
    int64_t stop = executed + cap < check_limit ? executed + cap
                                                : check_limit;
    int64_t n = 0, reason;
    const row_t *r;

    if ((uint64_t)pc >= (uint64_t)n_instrs) { reason = R_BADPC; goto out; }
    NEXT
op_addi: RD = R1 + U; PLAIN
op_add: RD = R1 + R2; PLAIN
op_sub: RD = R1 - R2; PLAIN
op_and: RD = R1 & R2; PLAIN
op_or: RD = R1 | R2; PLAIN
op_xor: RD = R1 ^ R2; PLAIN
op_nor: RD = ~(R1 | R2); PLAIN
op_sll: RD = R1 << (R2 & 31); PLAIN
op_srl: RD = R1 >> (R2 & 31); PLAIN
op_sra: RD = (uint32_t)(S1 >> (R2 & 31)); PLAIN
op_slt: RD = S1 < S2; PLAIN
op_sltu: RD = R1 < R2; PLAIN
op_andi: RD = R1 & U; PLAIN
op_ori: RD = R1 | U; PLAIN
op_xori: RD = R1 ^ U; PLAIN
op_slli: RD = R1 << U; PLAIN
op_srli: RD = R1 >> U; PLAIN
op_srai: RD = (uint32_t)(S1 >> U); PLAIN
op_slti: RD = S1 < r->u; PLAIN
op_sltiu: RD = R1 < U; PLAIN
op_lui: RD = U; PLAIN
op_mul: RD = (uint32_t)(S1 * S2); PLAIN
op_mulh: RD = (uint32_t)((S1 * S2) >> 32); PLAIN
op_div: RD = (uint32_t)(S2 ? S1 / S2 : 0); PLAIN
op_rem: RD = (uint32_t)(S2 ? S1 %% S2 : 0); PLAIN
op_divu: RD = R2 ? R1 / R2 : 0u; PLAIN
op_remu: RD = R2 ? R1 %% R2 : 0u; PLAIN
op_beq: BRANCH(R1 == R2)
op_bne: BRANCH(R1 != R2)
op_blt: BRANCH(S1 < S2)
op_bge: BRANCH(S1 >= S2)
op_bltu: BRANCH(R1 < R2)
op_bgeu: BRANCH(R1 >= R2)
op_lw: { ADDR(4) uint32_t v; memcpy(&v, mem + a, 4); RD = v; MEMDONE }
op_lb: { ADDR(1) RD = (uint32_t)(int32_t)(int8_t)mem[a]; MEMDONE }
op_lbu: { ADDR(1) RD = mem[a]; MEMDONE }
op_sw: { ADDR(4) uint32_t v = R2; memcpy(mem + a, &v, 4); MEMDONE }
op_sb: { ADDR(1) mem[a] = (uint8_t)R2; MEMDONE }
op_flw: { ADDR(8) memcpy(&FD, mem + a, 8); MEMDONE }
op_fsw: { ADDR(8) memcpy(mem + a, &F2, 8); MEMDONE }
op_jal: RD = U; TR(-1, -1) pc = r->target; NEXT
op_jalr: { int64_t ret = R1; RD = U; TR(-1, -1)
           pc = (ret - TEXT_BASE) >> 2; }
    if ((uint64_t)pc >= (uint64_t)n_instrs) { reason = R_BADPC; goto out; }
    NEXT
op_fadd: FD = F1 + F2; PLAIN
op_fsub: FD = F1 - F2; PLAIN
op_fmul: FD = F1 * F2; PLAIN
op_fdiv: FD = (F2 != 0.0) ? F1 / F2 : 0.0; PLAIN
op_fsqrt: FD = (F1 > 0.0) ? sqrt(F1) : 0.0; PLAIN
op_fneg: FD = -F1; PLAIN
op_fabs: FD = fabs(F1); PLAIN
op_fmv: FD = F1; PLAIN
op_fmin: { double a = F1, b = F2; FD = (b < a) ? b : a; } PLAIN
op_fmax: { double a = F1, b = F2; FD = (b > a) ? b : a; } PLAIN
op_feq: RD = F1 == F2; PLAIN
op_flt: RD = F1 < F2; PLAIN
op_fle: RD = F1 <= F2; PLAIN
op_fcvtws: RD = cvt_w(F1); PLAIN
op_fcvtsw: FD = (double)S1; PLAIN
op_fli: FD = fimm[pc]; PLAIN
op_halt: TR(-1, -1) reason = R_HALT; goto out;
/* The interpreter checks pc before counting and a full chunk stops
 * before counting: undo the increment for both. */
stopped:
    if (pc == n_instrs || n >= cap) {
        executed--;
        reason = pc == n_instrs ? R_BADPC : R_CHUNK;
        goto out;
    }
    reason = R_LIMIT; goto out;
op_end: executed--; reason = R_BADPC;
out:
    ctl[0] = pc; ctl[1] = executed; ctl[3] = n;
    return reason;
}
""" % {
    "text_base": TEXT_BASE,
    "handlers": ", ".join(f"&&op_{_HANDLER_OF.get(name, name)}"
                          for name in [*_OP_NAMES, "end"]),
}

_U32P = ctypes.POINTER(ctypes.c_uint32)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I8P = ctypes.POINTER(ctypes.c_int8)

#: ``repro_sim_run``'s C signature, bound at load.
_SIGNATURES = {"repro_sim_run": (ctypes.c_int64, [
    _I32P, _F64P, ctypes.c_int64, _U32P, _F64P, _U8P,
    ctypes.c_int64, _I64P, _I32P, _I64P, _I8P, ctypes.c_int64,
])}


# ----------------------------------------------------------------------
# Availability / translatability gates
# ----------------------------------------------------------------------
def available():
    """Whether this host can run native functional execution at all."""
    return toolchain.enabled() and bool(toolchain.probe())


def _operand_ok(kind, reg):
    if kind is None:
        return True
    if kind == "dest" and reg is None:
        return True
    low = 32 if kind == "fp" else 0
    return reg is not None and low <= reg < low + 32


def _translatable(program):
    """Whether the engine covers every instruction of ``program``.

    The interpreter dispatches on the opcode and trusts operand fields
    to be in the register file the format implies; a hand-built program
    that mixes files (or carries a non-integer immediate, or a target
    outside the program) is simply not run natively.
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return False
    for instr in instructions:
        if instr.opcode not in _OP_IDS:
            return False
        fmt = OPCODES[instr.opcode].fmt
        kinds = _OPERANDS.get(fmt)
        if kinds is None or not all(
                _operand_ok(kind, reg) for kind, reg
                in zip(kinds, (instr.rd, instr.rs1, instr.rs2))):
            return False
        imm, target = instr.imm, instr.target
        if fmt in _INT_IMM and not isinstance(imm, int):
            return False
        if fmt == "fli" and not isinstance(imm, (int, float)):
            return False
        # slti compares the raw (unmasked) immediate.
        if instr.opcode == "slti" and not -(1 << 31) <= imm < (1 << 31):
            return False
        if fmt in _TARGETED and (target is None or not 0 <= target < n):
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
    translatable.  The engine library itself is built lazily on first
    run (and a failed build falls back to the interpreter)."""
    return available() and translatable(program)


# ----------------------------------------------------------------------
# Engine and program tables
# ----------------------------------------------------------------------
def engine_for(program):
    """The engine entry point when it can run ``program``, else ``None``
    (the ``simfunc`` library is compiled on first use)."""
    if not usable(program):
        return None
    library = toolchain.load_library(_C_SOURCE, "simfunc", _SIGNATURES)
    return library.repro_sim_run if library else None


def _encode(decoded):
    """The engine's ``(code, fimm)`` table from the interpreter's decode
    rows ``(op_id, rd, rs1, rs2, imm, target)``, in one pass, plus the
    sentinel row that falling off the end lands on."""
    rows = []
    fimm = np.zeros(len(decoded), dtype=np.float64)
    for pc, (op_id, rd, rs1, rs2, imm, target) in enumerate(decoded):
        name = _OP_NAMES[op_id]
        fmt = OPCODES[name].fmt
        kinds = _OPERANDS[fmt]
        rd = rd - 32 if kinds[0] == "fp" else (rd or _SCRATCH)
        rs1 = rs1 - 32 if kinds[1] == "fp" else (rs1 or 0)
        rs2 = rs2 - 32 if kinds[2] == "fp" else (rs2 or 0)
        if name in ("slli", "srli", "srai"):
            u = imm & 31
        elif name == "lui":
            u = imm << 16
        elif fmt in _INT_IMM:
            u = imm
        elif fmt in ("j", "jal", "jr", "jalr"):
            u = TEXT_BASE + 4 * (pc + 1)  # the link address
        else:
            u = 0
        if fmt == "fli":
            fimm[pc] = imm
        rows.append((op_id, rd, rs1, rs2, u & _M32, target or 0))
    rows.append((len(_OP_NAMES), 0, 0, 0, 0, 0))
    code = np.array(rows, dtype=np.int64).astype(np.uint32).view(np.int32)
    return code, fimm


def _table(simulator):
    """``simulator``'s program table, cached on the shared columns."""
    columns = columns_for(simulator.program)
    table = columns.derived.get("native_sim_table")
    if table is None:
        table = _encode(simulator._decoded)
        columns.derived["native_sim_table"] = table
    return table


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _drive(simulator, max_instructions, sink, chunk_events=CHUNK_EVENTS):
    """Run the engine to completion, streaming trace chunks.

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
    code, fimm = _table(simulator)
    regs = simulator.regs
    memory = simulator.memory
    ir = np.array(regs[:32] + [0], dtype=np.uint32)  # + the scratch slot
    fr = np.array([float(value) for value in regs[32:]], dtype=np.float64)
    mem_view = np.frombuffer(memory.data, dtype=np.uint8)
    t_pcs = np.empty(chunk_events, dtype=np.int32)
    t_addrs = np.empty(chunk_events, dtype=np.int64)
    t_taken = np.empty(chunk_events, dtype=np.int8)
    ctl = np.zeros(6, dtype=np.int64)
    args = (code.ctypes.data_as(_I32P), fimm.ctypes.data_as(_F64P),
            len(fimm), ir.ctypes.data_as(_U32P), fr.ctypes.data_as(_F64P),
            mem_view.ctypes.data_as(_U8P), memory.size,
            ctl.ctypes.data_as(_I64P), t_pcs.ctypes.data_as(_I32P),
            t_addrs.ctypes.data_as(_I64P), t_taken.ctypes.data_as(_I8P),
            chunk_events)

    # Identical heartbeat arming to the interpreter loop (the interval
    # is read through the module so test monkeypatching applies here).
    heartbeat_interval = _functional.HEARTBEAT_INTERVAL
    wall_start = time.perf_counter()
    if _LOG.is_enabled_for(INFO) or active_journal() is not None:
        next_heartbeat = heartbeat_interval
    else:
        next_heartbeat = max_instructions + 1
    ctl[_CTL_PC] = program.entry
    ctl[_CTL_LIMIT] = min(max_instructions, next_heartbeat - 1)

    def sync_regs():
        regs[:32] = ir[:32].tolist()
        regs[32:] = fr.tolist()

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
