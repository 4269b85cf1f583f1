"""Register dataflow verification (lint layer 1, part two).

A classic forward must-analysis over the lint CFG: **definite
assignment** (meet = intersection) backs the use-before-def pass
(``SR104``): a register read is flagged when some path from the entry
reaches it without any write.  The SRISC machine zero-initializes the
register file and sets ``sp``, so this is well-defined behaviour — but
in a synthesized clone it means a dependency edge the synthesizer
intended does not exist, and in a hand-written kernel it is almost
always a forgotten ``li``.

The structural layer runs no value analysis of its own.  Out-of-bounds
memory (``SR106``) is read from :mod:`repro.lint.absint`'s proven
address intervals, and two passes stay outside that interpreter on
purpose:

* ``SR101`` (unreachable blocks, :mod:`repro.lint.cfg`) is plain CFG
  reachability, which the abstract interpreter itself consumes
  (``cfg.reachable()``) rather than derives;
* ``SR104`` asks whether a register was *written* on every path, and
  the abstract interpreter cannot express that: it models the machine's
  zero-initialized register file, where an unwritten register is the
  constant 0, indistinguishable from a written one.

The worklist iterates to a fixpoint, so loop-carried definitions flow
around back edges; assignment sets are register bitmasks (one
machine-int intersection per edge), cheap enough for the gate inside
:meth:`CloneSynthesizer.synthesize` to run on every clone.

``SR105`` (writes to the hardwired zero register) rides along in a
plain instruction scan; the canonical ``nop`` encoding
(``add r0, r0, r0``) is exempt.
"""

from repro.isa.registers import FP_REG_BASE, REG_SP, ZERO_REG
from repro.lint.diagnostics import LintReport, make_diagnostic

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
