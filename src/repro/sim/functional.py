"""The SRISC functional simulator (architected state only).

This is the analog of SimpleScalar's ``sim-safe``: it executes the program
to completion (or an instruction cap) and can capture the compact dynamic
trace that all profiling and timing tools consume.  Semantics are 32-bit
two's-complement for the integer file and IEEE double for the FP file.
"""

import math
import struct
import time

from repro.isa.assembler import TEXT_BASE
from repro.isa.columns import columns_for
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, REG_SP
from repro.obs.journal import active_journal, emit_event
from repro.obs.logging import INFO, get_logger
from repro.obs.metrics import REGISTRY
from repro.sim.memory import Memory
from repro.sim.trace import DynamicTrace

_M32 = 0xFFFFFFFF
_SIGN = 0x80000000

_LOG = get_logger("repro.sim")

#: Heartbeat-progress period, in retired instructions.
HEARTBEAT_INTERVAL = 5_000_000

#: Recognized backend selectors.
BACKENDS = ("auto", "native", "interp")


class SimulationError(Exception):
    """Raised for runaway programs, bad jumps, or unimplemented opcodes.

    Carries execution context (``pc``, ``instructions``, ``block``) when
    raised mid-run, so a runaway clone is debuggable from the message
    alone.
    """

    def __init__(self, message, pc=None, instructions=None, block=None):
        super().__init__(message)
        self.pc = pc
        self.instructions = instructions
        self.block = block


def _signed(value):
    return value - 0x100000000 if value & _SIGN else value


def _sdiv(a, b):
    """C-style truncating division; division by zero yields 0."""
    if b == 0:
        return 0
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _srem(a, b):
    if b == 0:
        return 0
    return a - _sdiv(a, b) * b


# Opcode -> dense id for the dispatch chain (order roughly by frequency).
_OP_IDS = {name: i for i, name in enumerate([
    "addi", "add", "lw", "sw", "beq", "bne", "blt", "bge", "sub", "and",
    "or", "xor", "sll", "srl", "sra", "slt", "sltu", "andi", "ori", "xori",
    "slli", "srli", "srai", "slti", "sltiu", "lui", "nor", "mul", "mulh",
    "div", "divu", "rem", "remu", "lb", "lbu", "sb", "flw", "fsw", "bltu",
    "bgeu", "j", "jal", "jr", "jalr", "fadd", "fsub", "fmul", "fdiv",
    "fsqrt", "fneg", "fabs", "fmv", "fmin", "fmax", "feq", "flt", "fle",
    "fcvtws", "fcvtsw", "fli", "halt",
])}


def resolve_backend(backend, program=None):
    """Resolve a backend selector to a concrete backend name.

    ``backend`` may be ``None`` or ``auto`` (the host picks), ``native``,
    or ``interp``.  ``auto`` picks ``native`` when the C engine can take
    the program (``REPRO_NATIVE`` on, compiler present, translatable),
    whatever its size, and the interpreter otherwise.  An explicit
    ``native`` request on a host without the toolchain still resolves
    to ``native``; the run itself falls back to the interpreter,
    keeping semantics identical.
    """
    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if backend != "auto":
        return backend
    if program is not None:
        from repro.sim import native
        if native.usable(program):
            return "native"
    return "interp"


class FunctionalSimulator:
    """Executes one program instance over a private memory image.

    ``backend`` selects the execution engine: ``interp`` is this
    module's per-instruction reference loop, ``native`` the fixed C
    engine in :mod:`repro.sim.native`, and ``auto`` (the default)
    resolves through :func:`resolve_backend`: native whenever the
    engine is usable.  An explicit backend is for differential tests;
    both engines are bit-identical and the choice only affects wall
    time.
    """

    def __init__(self, program, memory_size=None, backend=None):
        self.program = program
        self.backend = backend
        kwargs = {"data_image": program.data_image,
                  "data_base": program.data_base}
        if memory_size is not None:
            kwargs["size"] = memory_size
        self.memory = Memory(**kwargs)
        # The FP file holds IEEE doubles from the start (an int 0 would
        # stay an int under fneg, where a double becomes -0.0).
        self.regs = [0] * NUM_INT_REGS + [0.0] * NUM_FP_REGS
        self.regs[REG_SP] = program.stack_top
        self.instructions_executed = 0
        self.halted = False
        # Pre-decoded (op_id, rd, rs1, rs2, imm, target) tuples, built
        # once per *program* and shared between simulator instances via
        # the columnar tables' derived cache.
        columns = columns_for(program)
        decoded = columns.derived.get("functional_decode")
        if decoded is None:
            decoded = []
            for instr in program.instructions:
                op_id = _OP_IDS.get(instr.opcode)
                if op_id is None:
                    raise SimulationError(
                        f"unimplemented opcode {instr.opcode!r}")
                decoded.append((op_id, instr.rd, instr.rs1, instr.rs2,
                                instr.imm, instr.target))
            columns.derived["functional_decode"] = decoded
        self._decoded = decoded

    # ------------------------------------------------------------------
    def run(self, max_instructions=50_000_000, trace=False, backend=None):
        """Execute from the entry point until ``halt``.

        With ``trace=True`` returns a :class:`DynamicTrace`; otherwise
        returns the number of instructions executed.  Exceeding
        ``max_instructions`` raises :class:`SimulationError` (runaway
        program — almost always an assembly bug).  ``backend`` overrides
        the instance's backend selection for this run.
        """
        resolved = resolve_backend(
            backend if backend is not None else self.backend, self.program)
        if resolved == "native":
            from repro.sim import native
            # No toolchain, an untranslatable program or a failed
            # compile leaves no engine: fall back to the interpreter.
            if native.engine_for(self.program) is not None:
                return native.run_native(self, max_instructions, trace)
        return self._run_interp(max_instructions, trace)

    def _run_interp(self, max_instructions, trace):
        """The per-instruction reference interpreter loop."""
        decoded = self._decoded
        regs = self.regs
        mem = self.memory.data
        mem_size = self.memory.size
        unpack = struct.unpack_from
        pack = struct.pack_into
        pc = self.program.entry
        n_instrs = len(decoded)
        executed = 0

        pcs = []
        addrs = []
        takens = []
        if trace:
            pcs_append = pcs.append
            addrs_append = addrs.append
            takens_append = takens.append

        # Heartbeat progress shares the cap check: ``check_limit`` is the
        # nearer of the cap and the next heartbeat, so the loop keeps the
        # seed's single integer compare per instruction and runs nobody
        # watches (no INFO log, no journal) are exactly as fast as before.
        wall_start = time.perf_counter()
        if _LOG.is_enabled_for(INFO) or active_journal() is not None:
            next_heartbeat = HEARTBEAT_INTERVAL
        else:
            next_heartbeat = max_instructions + 1
        check_limit = min(max_instructions, next_heartbeat - 1)

        while True:
            if pc < 0 or pc >= n_instrs:
                raise SimulationError(
                    f"pc out of range: {pc} in {self.program.name}",
                    pc=pc, instructions=executed)
            op_id, rd, rs1, rs2, imm, target = decoded[pc]
            executed += 1
            if executed > check_limit:
                if executed > max_instructions:
                    raise self._cap_error(pc, executed, max_instructions)
                next_heartbeat += HEARTBEAT_INTERVAL
                check_limit = min(max_instructions, next_heartbeat - 1)
                elapsed = time.perf_counter() - wall_start
                mips = executed / elapsed / 1e6 if elapsed else 0.0
                _LOG.info("sim.heartbeat", program=self.program.name,
                          instructions=executed, pc=pc, mips=mips)
                emit_event("progress", done=executed,
                           total=max_instructions, unit="instructions",
                           label=self.program.name, mips=round(mips, 2))

            next_pc = pc + 1
            addr = -1
            taken = -1

            if op_id == 0:  # addi
                if rd:
                    regs[rd] = (regs[rs1] + imm) & _M32
            elif op_id == 1:  # add
                if rd:
                    regs[rd] = (regs[rs1] + regs[rs2]) & _M32
            elif op_id == 2:  # lw
                addr = (regs[rs1] + imm) & _M32
                if addr + 4 > mem_size:
                    raise SimulationError(f"lw out of range: {addr:#x}")
                if rd:
                    regs[rd] = unpack("<I", mem, addr)[0]
            elif op_id == 3:  # sw
                addr = (regs[rs1] + imm) & _M32
                if addr + 4 > mem_size:
                    raise SimulationError(f"sw out of range: {addr:#x}")
                pack("<I", mem, addr, regs[rs2])
            elif op_id == 4:  # beq
                taken = 1 if regs[rs1] == regs[rs2] else 0
                if taken:
                    next_pc = target
            elif op_id == 5:  # bne
                taken = 1 if regs[rs1] != regs[rs2] else 0
                if taken:
                    next_pc = target
            elif op_id == 6:  # blt
                a, b = regs[rs1], regs[rs2]
                a = a - 0x100000000 if a & _SIGN else a
                b = b - 0x100000000 if b & _SIGN else b
                taken = 1 if a < b else 0
                if taken:
                    next_pc = target
            elif op_id == 7:  # bge
                a, b = regs[rs1], regs[rs2]
                a = a - 0x100000000 if a & _SIGN else a
                b = b - 0x100000000 if b & _SIGN else b
                taken = 1 if a >= b else 0
                if taken:
                    next_pc = target
            elif op_id == 8:  # sub
                if rd:
                    regs[rd] = (regs[rs1] - regs[rs2]) & _M32
            elif op_id == 9:  # and
                if rd:
                    regs[rd] = regs[rs1] & regs[rs2]
            elif op_id == 10:  # or
                if rd:
                    regs[rd] = regs[rs1] | regs[rs2]
            elif op_id == 11:  # xor
                if rd:
                    regs[rd] = regs[rs1] ^ regs[rs2]
            elif op_id == 12:  # sll
                if rd:
                    regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _M32
            elif op_id == 13:  # srl
                if rd:
                    regs[rd] = regs[rs1] >> (regs[rs2] & 31)
            elif op_id == 14:  # sra
                if rd:
                    a = regs[rs1]
                    a = a - 0x100000000 if a & _SIGN else a
                    regs[rd] = (a >> (regs[rs2] & 31)) & _M32
            elif op_id == 15:  # slt
                if rd:
                    a, b = regs[rs1], regs[rs2]
                    a = a - 0x100000000 if a & _SIGN else a
                    b = b - 0x100000000 if b & _SIGN else b
                    regs[rd] = 1 if a < b else 0
            elif op_id == 16:  # sltu
                if rd:
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op_id == 17:  # andi
                if rd:
                    regs[rd] = regs[rs1] & (imm & _M32)
            elif op_id == 18:  # ori
                if rd:
                    regs[rd] = regs[rs1] | (imm & _M32)
            elif op_id == 19:  # xori
                if rd:
                    regs[rd] = regs[rs1] ^ (imm & _M32)
            elif op_id == 20:  # slli
                if rd:
                    regs[rd] = (regs[rs1] << (imm & 31)) & _M32
            elif op_id == 21:  # srli
                if rd:
                    regs[rd] = regs[rs1] >> (imm & 31)
            elif op_id == 22:  # srai
                if rd:
                    a = regs[rs1]
                    a = a - 0x100000000 if a & _SIGN else a
                    regs[rd] = (a >> (imm & 31)) & _M32
            elif op_id == 23:  # slti
                if rd:
                    a = regs[rs1]
                    a = a - 0x100000000 if a & _SIGN else a
                    regs[rd] = 1 if a < imm else 0
            elif op_id == 24:  # sltiu
                if rd:
                    regs[rd] = 1 if regs[rs1] < (imm & _M32) else 0
            elif op_id == 25:  # lui
                if rd:
                    regs[rd] = (imm << 16) & _M32
            elif op_id == 26:  # nor
                if rd:
                    regs[rd] = (~(regs[rs1] | regs[rs2])) & _M32
            elif op_id == 27:  # mul
                if rd:
                    a, b = regs[rs1], regs[rs2]
                    a = a - 0x100000000 if a & _SIGN else a
                    b = b - 0x100000000 if b & _SIGN else b
                    regs[rd] = (a * b) & _M32
            elif op_id == 28:  # mulh
                if rd:
                    a, b = regs[rs1], regs[rs2]
                    a = a - 0x100000000 if a & _SIGN else a
                    b = b - 0x100000000 if b & _SIGN else b
                    regs[rd] = ((a * b) >> 32) & _M32
            elif op_id == 29:  # div
                if rd:
                    regs[rd] = _sdiv(_signed(regs[rs1]),
                                     _signed(regs[rs2])) & _M32
            elif op_id == 30:  # divu
                if rd:
                    b = regs[rs2]
                    regs[rd] = (regs[rs1] // b) if b else 0
            elif op_id == 31:  # rem
                if rd:
                    regs[rd] = _srem(_signed(regs[rs1]),
                                     _signed(regs[rs2])) & _M32
            elif op_id == 32:  # remu
                if rd:
                    b = regs[rs2]
                    regs[rd] = (regs[rs1] % b) if b else 0
            elif op_id == 33:  # lb
                addr = (regs[rs1] + imm) & _M32
                if addr >= mem_size:
                    raise SimulationError(f"lb out of range: {addr:#x}")
                if rd:
                    value = mem[addr]
                    regs[rd] = (value - 256 if value & 0x80 else value) & _M32
            elif op_id == 34:  # lbu
                addr = (regs[rs1] + imm) & _M32
                if addr >= mem_size:
                    raise SimulationError(f"lbu out of range: {addr:#x}")
                if rd:
                    regs[rd] = mem[addr]
            elif op_id == 35:  # sb
                addr = (regs[rs1] + imm) & _M32
                if addr >= mem_size:
                    raise SimulationError(f"sb out of range: {addr:#x}")
                mem[addr] = regs[rs2] & 0xFF
            elif op_id == 36:  # flw
                addr = (regs[rs1] + imm) & _M32
                if addr + 8 > mem_size:
                    raise SimulationError(f"flw out of range: {addr:#x}")
                regs[rd] = unpack("<d", mem, addr)[0]
            elif op_id == 37:  # fsw
                addr = (regs[rs1] + imm) & _M32
                if addr + 8 > mem_size:
                    raise SimulationError(f"fsw out of range: {addr:#x}")
                pack("<d", mem, addr, regs[rs2])
            elif op_id == 38:  # bltu
                taken = 1 if regs[rs1] < regs[rs2] else 0
                if taken:
                    next_pc = target
            elif op_id == 39:  # bgeu
                taken = 1 if regs[rs1] >= regs[rs2] else 0
                if taken:
                    next_pc = target
            elif op_id == 40:  # j
                next_pc = target
            elif op_id == 41:  # jal
                if rd:
                    regs[rd] = TEXT_BASE + 4 * (pc + 1)
                next_pc = target
            elif op_id == 42:  # jr
                ret = regs[rs1]
                next_pc = (ret - TEXT_BASE) >> 2
            elif op_id == 43:  # jalr
                ret = regs[rs1]
                if rd:
                    regs[rd] = TEXT_BASE + 4 * (pc + 1)
                next_pc = (ret - TEXT_BASE) >> 2
            elif op_id == 44:  # fadd
                regs[rd] = regs[rs1] + regs[rs2]
            elif op_id == 45:  # fsub
                regs[rd] = regs[rs1] - regs[rs2]
            elif op_id == 46:  # fmul
                regs[rd] = regs[rs1] * regs[rs2]
            elif op_id == 47:  # fdiv
                b = regs[rs2]
                regs[rd] = regs[rs1] / b if b else 0.0
            elif op_id == 48:  # fsqrt
                value = regs[rs1]
                regs[rd] = math.sqrt(value) if value > 0.0 else 0.0
            elif op_id == 49:  # fneg
                regs[rd] = -regs[rs1]
            elif op_id == 50:  # fabs
                regs[rd] = abs(regs[rs1])
            elif op_id == 51:  # fmv
                regs[rd] = regs[rs1]
            elif op_id == 52:  # fmin
                regs[rd] = min(regs[rs1], regs[rs2])
            elif op_id == 53:  # fmax
                regs[rd] = max(regs[rs1], regs[rs2])
            elif op_id == 54:  # feq
                if rd:
                    regs[rd] = 1 if regs[rs1] == regs[rs2] else 0
            elif op_id == 55:  # flt
                if rd:
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op_id == 56:  # fle
                if rd:
                    regs[rd] = 1 if regs[rs1] <= regs[rs2] else 0
            elif op_id == 57:  # fcvtws: NaN/inf -> 0, else truncate, wrap
                if rd:
                    value = regs[rs1]
                    regs[rd] = (int(value) & _M32
                                if math.isfinite(value) else 0)
            elif op_id == 58:  # fcvtsw
                regs[rd] = float(_signed(regs[rs1]))
            elif op_id == 59:  # fli
                regs[rd] = imm
            elif op_id == 60:  # halt
                if trace:
                    pcs_append(pc)
                    addrs_append(addr)
                    takens_append(taken)
                break
            else:
                raise SimulationError(f"bad op id {op_id}")

            if trace:
                pcs_append(pc)
                addrs_append(addr)
                takens_append(taken)
            pc = next_pc

        self._finish_run(executed, wall_start, "interp")
        if trace:
            return DynamicTrace(self.program, pcs, addrs, takens)
        return executed

    def _finish_run(self, executed, wall_start, backend):
        """Common run epilogue: final state plus backend-tagged telemetry."""
        self.instructions_executed = executed
        self.halted = True
        elapsed = time.perf_counter() - wall_start
        throughput = executed / elapsed / 1e6 if elapsed > 0 else 0.0
        REGISTRY.counter("sim.instructions").inc(executed)
        REGISTRY.counter("sim.runs").inc()
        REGISTRY.gauge("sim.mips").set(throughput)
        REGISTRY.gauge(f"sim.mips.{backend}").set(throughput)
        _LOG.debug("sim.run", program=self.program.name,
                   instructions=executed, wall_s=elapsed,
                   mips=throughput, backend=backend)

    def _cap_error(self, pc, executed, max_instructions):
        """Context-rich error for the instruction-cap (runaway) case."""
        program = self.program
        try:
            block = program.block_of(pc)
        except Exception:
            block = None
        return SimulationError(
            f"instruction cap exceeded in {program.name}: "
            f"{executed} retired (cap {max_instructions}), "
            f"pc={pc}, basic block {block}",
            pc=pc, instructions=executed, block=block)


def run_program(program, max_instructions=50_000_000, trace=True,
                backend=None):
    """One-shot convenience: execute ``program`` and return its trace.

    With ``trace=False`` returns the finished simulator instead (useful to
    inspect final memory/registers in tests).  ``backend`` selects the
    execution engine (``auto``/``native``/``interp``); see
    :class:`FunctionalSimulator`.
    """
    from repro.obs.trace import span
    simulator = FunctionalSimulator(program, backend=backend)
    with span("sim.run"):
        result = simulator.run(max_instructions=max_instructions, trace=trace)
    return result if trace else simulator
