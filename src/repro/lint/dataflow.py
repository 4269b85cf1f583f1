"""Register and memory dataflow verification (lint layer 1, part two).

Two classic forward dataflow analyses over the lint CFG:

* **Definite assignment** (must-analysis, meet = intersection) backs the
  use-before-def pass (``SR104``): a register read is flagged when some
  path from the entry reaches it without any write.  The SRISC machine
  zero-initializes the register file and sets ``sp``, so this is
  well-defined behaviour — but in a synthesized clone it means a
  dependency edge the synthesizer intended does not exist, and in a
  hand-written kernel it is almost always a forgotten ``li``.

* **Constant propagation** (meet = equality) backs the out-of-bounds
  memory pass (``SR106``): a load/store whose base register is
  statically constant must address the declared data image or the stack
  region.  Only provably-constant addresses are checked, so every
  ``SR106`` is a genuine out-of-footprint access.

Both analyses iterate a worklist to a fixpoint, so loop-carried pointer
arithmetic (the common case in both kernels and clones) correctly
degrades to "not a constant" instead of producing false positives.

The gate inside :meth:`CloneSynthesizer.synthesize` runs these passes on
every clone, so the representations are chosen for speed: assignment
sets are register bitmasks (one machine-int intersection per edge) and
constant maps are sparse dicts restricted to the backward slice of the
memory base registers (absence means not-a-constant).

``SR105`` (writes to the hardwired zero register) rides along in the
same instruction scan; the canonical ``nop`` encoding
(``add r0, r0, r0``) is exempt.
"""

from repro.isa.assembler import STACK_TOP
from repro.isa.registers import FP_REG_BASE, REG_SP, ZERO_REG
from repro.lint.diagnostics import LintReport, make_diagnostic

#: Bytes below (and slack above) the initial stack pointer accepted as
#: legitimate stack addressing by the memory-bounds pass.
STACK_WINDOW = 0x10000
STACK_SLACK = 8

#: Memory access width per opcode (doubles for the FP file).
ACCESS_WIDTH = {"lw": 4, "sw": 4, "lb": 1, "lbu": 1, "sb": 1,
                "flw": 8, "fsw": 8}

_M32 = 0xFFFFFFFF

#: Bitmask covering the whole register file (int + fp).
_UNIVERSE = (1 << (2 * FP_REG_BASE)) - 1


def _is_nop(instr):
    return (instr.opcode == "add" and instr.rd == ZERO_REG
            and instr.rs1 == ZERO_REG and instr.rs2 == ZERO_REG)


# ----------------------------------------------------------------------
# Definite assignment (reaching "some write" on every path)
# ----------------------------------------------------------------------
def _block_summaries(cfg):
    """Per-block (definitely-written bitmask, upward-exposed reads).

    One fused scan feeds both the fixpoint and the reporting pass.
    Upward-exposed reads map register → the instruction index of the
    first exposed read, for the diagnostic's location; ``r0`` is seeded
    as written so zero-register reads never surface.
    """
    instructions = cfg.program.instructions
    def_masks = []
    exposed = []
    for block in cfg.blocks:
        written = 1 << ZERO_REG
        reads = None
        for index in range(block.start, block.end):
            instr = instructions[index]
            for src in instr.srcs:
                if not (written >> src) & 1:
                    if reads is None:
                        reads = {src: index}
                    elif src not in reads:
                        reads[src] = index
            rd = instr.rd
            if rd is not None:
                written |= 1 << rd
        def_masks.append(written)
        exposed.append(reads or {})
    return def_masks, exposed


def _assignment_masks(cfg, def_masks, entry_mask):
    """Per-block IN bitmasks of definitely-assigned registers.

    There are no kills (a written register stays written), so the entry
    block's IN is exactly the machine-initialized set — even when loops
    branch back to it — and every other block's IN only ever shrinks
    from the full register universe, which guarantees convergence.
    """
    n_blocks = len(cfg.blocks)
    in_masks = [_UNIVERSE] * n_blocks
    entry = cfg.entry
    if entry is not None:
        in_masks[entry] = entry_mask
    predecessors = cfg.predecessors
    successors = cfg.successors
    worklist = [bid for bid in range(n_blocks) if bid != entry]
    while worklist:
        bid = worklist.pop()
        preds = predecessors[bid]
        if not preds:
            continue  # unreachable non-entry block: stays at universe
        new_in = _UNIVERSE
        for pred in preds:
            new_in &= in_masks[pred] | def_masks[pred]
        if new_in != in_masks[bid]:
            in_masks[bid] = new_in
            for succ in successors[bid]:
                if succ != entry:
                    worklist.append(succ)
    return in_masks


def check_use_before_def(cfg, severity_overrides=None):
    """``SR104``: reads that some path can reach with no prior write."""
    from repro.isa.registers import reg_name
    program = cfg.program
    report = LintReport(program.name)
    reachable = cfg.reachable()
    def_masks, exposed = _block_summaries(cfg)
    in_masks = _assignment_masks(
        cfg, def_masks, (1 << ZERO_REG) | (1 << REG_SP))
    for block in cfg.blocks:
        bid = block.bid
        reads = exposed[bid]
        if not reads or bid not in reachable:
            continue
        defined = in_masks[bid]
        for register, index in sorted(reads.items(),
                                      key=lambda item: item[1]):
            if (defined >> register) & 1:
                continue
            report.add(make_diagnostic(
                "SR104",
                f"register {reg_name(register)} may be read by "
                f"{program.instructions[index].opcode!r} before any "
                "write reaches it",
                severity_overrides=severity_overrides,
                index=index, block=bid,
                pc=program.pc_address(index),
                data={"register": reg_name(register)}))
    return report


def check_register_writes(program, severity_overrides=None):
    """``SR105``: non-nop writes to the hardwired zero register.

    This includes link-writing jumps: ``jal r0, target`` names r0 as the
    link destination, which a correct simulator must discard (the
    interpreter once clobbered r0 here — the ``rd`` scan below is the
    static-side guard for that class of bug).  ``jalr`` is covered by
    the same ``instr.rd`` check.
    """
    report = LintReport(program.name)
    for index, instr in enumerate(program.instructions):
        if instr.rd == ZERO_REG and not _is_nop(instr):
            report.add(make_diagnostic(
                "SR105",
                f"{instr.opcode!r} writes r0; the result is discarded",
                severity_overrides=severity_overrides,
                index=index, pc=program.pc_address(index)))
    return report


# ----------------------------------------------------------------------
# Constant propagation and memory bounds
# ----------------------------------------------------------------------
#: Opcodes the constant folder models; anything else kills its
#: destination (defines not-a-constant).
_CONST_OPS = frozenset((
    "addi", "lui", "ori", "andi", "xori", "slli", "srli", "add", "sub"))


def _trackable_registers(instructions):
    """Integer registers whose constancy can matter to a memory operand.

    The backward closure from memory base registers through the modelled
    opcodes.  Tracking only these keeps the constant maps sparse — in a
    clone that is the pointer registers and their ``la`` feeders, a
    handful out of the whole file.
    """
    relevant = set()
    for instr in instructions:
        if instr.is_mem:
            base = instr.rs1
            if base and base < FP_REG_BASE:
                relevant.add(base)
    if relevant:
        grew = True
        while grew:
            grew = False
            for instr in reversed(instructions):
                if instr.rd in relevant and instr.opcode in _CONST_OPS:
                    for src in instr.srcs:
                        if src and src < FP_REG_BASE and src not in relevant:
                            relevant.add(src)
                            grew = True
    return relevant


def _transfer_const(instr, values):
    """Apply one instruction to a sparse {register: value} constant map.

    Absence means not-a-constant; ``r0`` reads as zero and is never a
    key.  Any write the folder does not model kills the destination.
    """
    rd = instr.rd
    if rd is None or rd == ZERO_REG or rd >= FP_REG_BASE:
        return
    op = instr.opcode
    result = None
    if op in _CONST_OPS:
        if op == "lui":
            result = (instr.imm << 16) & _M32
        else:
            rs1 = instr.rs1
            a = 0 if rs1 == ZERO_REG else values.get(rs1)
            if a is not None:
                if op == "addi":
                    result = (a + instr.imm) & _M32
                elif op == "ori":
                    result = (a | (instr.imm & _M32)) & _M32
                elif op == "andi":
                    result = a & instr.imm & _M32
                elif op == "xori":
                    result = (a ^ (instr.imm & _M32)) & _M32
                elif op == "slli":
                    result = (a << (instr.imm & 31)) & _M32
                elif op == "srli":
                    result = (a & _M32) >> (instr.imm & 31)
                else:  # add / sub
                    rs2 = instr.rs2
                    b = 0 if rs2 == ZERO_REG else values.get(rs2)
                    if b is not None:
                        result = ((a + b) if op == "add"
                                  else (a - b)) & _M32
    if result is None:
        values.pop(rd, None)
    else:
        values[rd] = result


def constant_inputs(cfg):
    """Per-block IN constant maps for the integer file (fixpoint).

    Maps are sparse over the trackable registers (absence means
    not-a-constant); ``None`` marks blocks the entry cannot reach.
    """
    program = cfg.program
    instructions = program.instructions
    tracked = _trackable_registers(instructions)
    in_maps = {block.bid: None for block in cfg.blocks}
    if cfg.entry is None:
        return in_maps

    # Only instructions writing a tracked register can change a map.
    per_block = [[instr for instr
                  in instructions[block.start:block.end]
                  if instr.rd in tracked]
                 for block in cfg.blocks]

    entry_values = {}
    if REG_SP in tracked:
        entry_values[REG_SP] = STACK_TOP
    in_maps[cfg.entry] = entry_values
    successors = cfg.successors
    worklist = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        values = dict(in_maps[bid])
        for instr in per_block[bid]:
            _transfer_const(instr, values)
        for succ in successors[bid]:
            current = in_maps[succ]
            if current is None:
                in_maps[succ] = dict(values)
                worklist.append(succ)
            else:
                dead = [register for register in current
                        if values.get(register) != current[register]]
                if dead:
                    for register in dead:
                        del current[register]
                    worklist.append(succ)
    return in_maps


def _valid_regions(program):
    """[(start, end)) address ranges statically accepted for data access."""
    image_end = program.data_base + len(program.data_image)
    return [(program.data_base, image_end),
            (program.stack_top - STACK_WINDOW,
             program.stack_top + STACK_SLACK)]


def check_memory_bounds(cfg, severity_overrides=None):
    """``SR106``: constant-addressed memops must hit data or stack."""
    program = cfg.program
    instructions = program.instructions
    report = LintReport(program.name)
    regions = _valid_regions(program)
    in_maps = constant_inputs(cfg)
    for block in cfg.blocks:
        values = in_maps.get(block.bid)
        if values is None:  # unreachable: nothing to prove
            continue
        values = dict(values)
        for index in range(block.start, block.end):
            instr = instructions[index]
            if instr.is_mem:
                base = (0 if instr.rs1 == ZERO_REG
                        else values.get(instr.rs1))
                if base is not None:
                    address = (base + (instr.imm or 0)) & _M32
                    width = ACCESS_WIDTH[instr.opcode]
                    inside = any(start <= address and address + width <= end
                                 for start, end in regions)
                    if not inside:
                        report.add(make_diagnostic(
                            "SR106",
                            f"{instr.opcode} at address {address:#x} is "
                            "outside the data image "
                            f"[{regions[0][0]:#x}, {regions[0][1]:#x}) "
                            "and the stack region",
                            severity_overrides=severity_overrides,
                            index=index, block=block.bid,
                            pc=program.pc_address(index),
                            data={"address": address, "width": width}))
            if instr.rd is not None:
                _transfer_const(instr, values)
    return report
