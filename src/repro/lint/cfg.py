"""Structural control-flow verification (lint layer 1, part one).

Builds a static CFG over :meth:`repro.isa.Program.basic_blocks` and runs
the passes that need only edges: invalid branch targets (``SR102``),
unreachable blocks (``SR101``), and fall-through past the end of the
program (``SR103``).

Call semantics (``jal`` → target *and* fall-through, as the call
returns; ``jr``/``jalr`` → no static successors) are deliberately
conservative: they can miss dead code behind an indirect jump but never
invent an edge that does not exist, so error-severity findings are
trustworthy.
"""

from repro.isa.instructions import IClass
from repro.lint.diagnostics import LintReport, make_diagnostic


class ControlFlowGraph:
    """Static CFG: blocks plus successor/predecessor edges.

    Out-of-range targets contribute no edge (they are reported by
    :func:`check_branch_targets`); :meth:`repro.isa.Program.basic_blocks`
    likewise ignores them when choosing leaders, so the block partition
    stays valid even for malformed programs.
    """

    def __init__(self, program):
        self.program = program
        self.blocks = program.basic_blocks()
        n_instrs = len(program)
        self.successors = {block.bid: [] for block in self.blocks}
        self.predecessors = {block.bid: [] for block in self.blocks}
        #: Block ids whose terminator can fall through past the end.
        self.fallthrough_end = []

        for block in self.blocks:
            last = program.instructions[block.end - 1]
            succs = []
            falls_through = True
            if last.opcode == "halt":
                falls_through = False
            elif last.is_ctrl:
                if last.target is not None and 0 <= last.target < n_instrs:
                    succs.append(program.block_of(last.target))
                if last.iclass == IClass.JUMP:
                    # Direct jumps never fall through; calls (jal) resume
                    # after the call site once the callee returns, and
                    # indirect jumps (jr/jalr) have no static successor.
                    falls_through = last.opcode in ("jal", "jalr")
            if falls_through:
                if block.end < n_instrs:
                    succs.append(program.block_of(block.end))
                else:
                    self.fallthrough_end.append(block.bid)
            self.successors[block.bid] = succs
            for succ in succs:
                self.predecessors[succ].append(block.bid)

        self.entry = (program.block_of(program.entry)
                      if 0 <= program.entry < n_instrs else None)
        # Derived traversals are pure functions of the edge set; they are
        # memoized because the abstract interpreter and the static
        # profile predictor query them repeatedly on the same graph.
        self._reachable = None
        self._rpo = None
        self._rpo_position = None
        self._idoms = None
        self._retreating = None

    # ------------------------------------------------------------------
    def reachable(self):
        """Block ids reachable from the entry block (the entry included)."""
        if self._reachable is not None:
            return self._reachable
        if self.entry is None:
            self._reachable = set()
            return self._reachable
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            bid = stack.pop()
            for succ in self.successors[bid]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        self._reachable = seen
        return seen

    # ------------------------------------------------------------------
    def rpo(self):
        """Reachable block ids in reverse post-order from the entry."""
        if self._rpo is not None:
            return self._rpo
        if self.entry is None:
            self._rpo = []
            return self._rpo
        order = []
        seen = set()
        # Iterative post-order DFS (the corpus has deep linear chains).
        stack = [(self.entry, iter(self.successors[self.entry]))]
        seen.add(self.entry)
        while stack:
            bid, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.successors[succ])))
                    advanced = True
                    break
            if not advanced:
                order.append(bid)
                stack.pop()
        order.reverse()
        self._rpo = order
        return order

    def rpo_position(self):
        """``{bid: index in rpo()}`` for reachable blocks (memoized)."""
        if self._rpo_position is None:
            self._rpo_position = {bid: i for i, bid in enumerate(self.rpo())}
        return self._rpo_position

    def idoms(self):
        """``{bid: immediate dominator}`` (entry maps to itself).

        Cooper–Harvey–Kennedy iteration over reverse post-order: a few
        sweeps of pairwise chain intersections instead of the quadratic
        set dataflow, so dominance queries stay cheap even on the
        block-heavy synthesized clones.
        """
        if self._idoms is not None:
            return self._idoms
        order = self.rpo()
        if not order:
            self._idoms = {}
            return self._idoms
        position = self.rpo_position()
        idom = {self.entry: self.entry}

        def intersect(a, b):
            while a != b:
                while position[a] > position[b]:
                    a = idom[a]
                while position[b] > position[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for bid in order[1:]:
                new = None
                for pred in self.predecessors[bid]:
                    if pred in idom:
                        new = pred if new is None else intersect(new, pred)
                if new is not None and idom.get(bid) != new:
                    idom[bid] = new
                    changed = True
        self._idoms = idom
        return idom

    def dominates(self, a, b):
        """True when block ``a`` dominates block ``b``."""
        idom = self.idoms()
        if b not in idom:
            return False
        position = self.rpo_position()
        target = position.get(a)
        if target is None:
            return False
        current = b
        while position[current] >= target:
            if current == a:
                return True
            if current == self.entry:
                break
            current = idom[current]
        return False

    def natural_loops(self):
        """``[(header, back_source, frozenset(body))]`` natural loops.

        A back edge is an edge ``t -> h`` where ``h`` dominates ``t``;
        its natural loop is ``h`` plus every block that reaches ``t``
        without passing through ``h``.  Loops sharing a header are
        merged into one entry (their bodies unioned), matching the
        usual loop-forest construction.
        """
        bodies = {}
        sources = {}
        reachable = self.reachable()
        # Back edges are retreating in every DFS, so only the retreating
        # edges need the (chain-walk) dominance test.
        for bid, succ in self.retreating_edges():
            if self.dominates(succ, bid):
                body = {succ, bid}
                stack = [bid]
                while stack:
                    node = stack.pop()
                    if node == succ:
                        continue
                    for pred in self.predecessors[node]:
                        if pred not in body and pred in reachable:
                            body.add(pred)
                            stack.append(pred)
                bodies.setdefault(succ, set()).update(body)
                sources.setdefault(succ, set()).add(bid)
        return [(header, tuple(sorted(sources[header])),
                 frozenset(bodies[header]))
                for header in sorted(bodies)]

    def retreating_edges(self):
        """Edges ``(src, dst)`` that close a cycle in a DFS from entry.

        Used as the soundness backstop for termination proofs: in a
        reducible CFG every retreating edge is a back edge of some
        natural loop; an edge that is retreating but *not* a back edge
        marks an irreducible cycle the loop analysis cannot bound.
        """
        if self._retreating is not None:
            return self._retreating
        if self.entry is None:
            self._retreating = []
            return self._retreating
        color = {}
        edges = []
        stack = [(self.entry, iter(self.successors[self.entry]))]
        color[self.entry] = 1  # 1 = on stack, 2 = done
        while stack:
            bid, succs = stack[-1]
            advanced = False
            for succ in succs:
                state = color.get(succ)
                if state == 1:
                    edges.append((bid, succ))
                elif state is None:
                    color[succ] = 1
                    stack.append((succ, iter(self.successors[succ])))
                    advanced = True
                    break
            if not advanced:
                color[bid] = 2
                stack.pop()
        self._retreating = edges
        return edges


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def check_branch_targets(program, severity_overrides=None):
    """``SR102``: every static branch/jump target must be in-program."""
    report = LintReport(program.name)
    n_instrs = len(program)
    for index, instr in enumerate(program.instructions):
        if instr.target is not None and not 0 <= instr.target < n_instrs:
            report.add(make_diagnostic(
                "SR102",
                f"{instr.opcode} targets instruction {instr.target}, but "
                f"the program has {n_instrs} instructions",
                severity_overrides=severity_overrides,
                index=index, pc=program.pc_address(index),
                data={"target": instr.target}))
    return report


def check_reachability(cfg, severity_overrides=None):
    """``SR101``: every block should be reachable from the entry."""
    report = LintReport(cfg.program.name)
    reachable = cfg.reachable()
    for block in cfg.blocks:
        if block.bid not in reachable:
            report.add(make_diagnostic(
                "SR101",
                f"block {block.bid} (instructions {block.start}.."
                f"{block.end - 1}) is unreachable",
                severity_overrides=severity_overrides,
                block=block.bid, index=block.start,
                pc=cfg.program.pc_address(block.start)))
    return report


def check_fallthrough_end(cfg, severity_overrides=None):
    """``SR103``: no reachable path may run off the end of the program."""
    report = LintReport(cfg.program.name)
    if not len(cfg.program):
        report.add(make_diagnostic(
            "SR103", "program has no instructions",
            severity_overrides=severity_overrides))
        return report
    reachable = cfg.reachable()
    for bid in cfg.fallthrough_end:
        if bid not in reachable:
            continue  # dead code is SR101's finding, not a live fall-off
        block = cfg.blocks[bid]
        last = block.end - 1
        report.add(make_diagnostic(
            "SR103",
            f"block {bid} ends at the last instruction "
            f"({cfg.program.instructions[last].opcode!r}) and can fall "
            "through past the end of the program",
            severity_overrides=severity_overrides,
            block=bid, index=last, pc=cfg.program.pc_address(last)))
    return report
