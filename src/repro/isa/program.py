"""Static program representation and control-flow analysis for SRISC."""

from repro.isa.assembler import DATA_BASE, STACK_TOP, TEXT_BASE
from repro.isa.instructions import IClass


class BasicBlock:
    """A maximal straight-line instruction sequence.

    ``start`` is inclusive and ``end`` exclusive (instruction indices).
    """

    __slots__ = ("bid", "start", "end")

    def __init__(self, bid, start, end):
        self.bid = bid
        self.start = start
        self.end = end

    @property
    def size(self):
        return self.end - self.start

    def __repr__(self):
        return f"BasicBlock(bid={self.bid}, start={self.start}, end={self.end})"

    def __eq__(self, other):
        return (isinstance(other, BasicBlock)
                and (self.bid, self.start, self.end)
                == (other.bid, other.start, other.end))

    def __hash__(self):
        return hash((self.bid, self.start, self.end))


class Program:
    """An assembled SRISC program: instructions plus the initial data image."""

    text_base = TEXT_BASE
    data_base = DATA_BASE
    stack_top = STACK_TOP

    def __init__(self, instructions, labels=None, data_image=b"",
                 data_symbols=None, name="<program>", entry=0):
        self.instructions = list(instructions)
        self.labels = dict(labels or {})
        self.data_image = bytes(data_image)
        self.data_symbols = dict(data_symbols or {})
        self.name = name
        self.entry = entry
        self._blocks = None
        self._block_of = None

    def __len__(self):
        return len(self.instructions)

    def pc_address(self, index):
        """Virtual address of instruction ``index`` (for I-cache modelling)."""
        return self.text_base + 4 * index

    # ------------------------------------------------------------------
    # Control-flow analysis
    # ------------------------------------------------------------------
    def basic_blocks(self):
        """Return the program's basic blocks (computed once, then cached).

        Leaders are the entry point, every branch/jump target, and every
        instruction following a control transfer.  ``jr``/``jalr`` have no
        static target; only their successor becomes a leader.
        """
        if self._blocks is None:
            self._discover_blocks()
        return self._blocks

    def block_of(self, index):
        """Map an instruction index to its basic block id.

        Raises :class:`IndexError` with a descriptive message for an
        empty program or an out-of-range index (e.g. a branch target past
        the end — the lint pass reports those as ``SR102``).
        """
        if self._block_of is None:
            self._discover_blocks()
        if not self._block_of:
            raise IndexError(
                f"program {self.name!r} has no instructions, so no blocks")
        if not 0 <= index < len(self._block_of):
            raise IndexError(
                f"instruction index {index} out of range for program "
                f"{self.name!r} with {len(self._block_of)} instructions")
        return self._block_of[index]

    def _discover_blocks(self):
        n = len(self.instructions)
        leaders = {0} if n else set()
        for i, instr in enumerate(self.instructions):
            if instr.is_ctrl or instr.opcode == "halt":
                if i + 1 < n:
                    leaders.add(i + 1)
                # Out-of-range targets (a malformed program; see lint
                # code SR102) contribute no leader: the partition must
                # stay valid so analyses can still run.
                if instr.target is not None and 0 <= instr.target < n:
                    leaders.add(instr.target)
        ordered = sorted(leaders)
        blocks = []
        block_of = [0] * n
        for bid, start in enumerate(ordered):
            end = ordered[bid + 1] if bid + 1 < len(ordered) else n
            blocks.append(BasicBlock(bid, start, end))
            for i in range(start, end):
                block_of[i] = bid
        self._blocks = blocks
        self._block_of = block_of

    def static_mix(self):
        """Static instruction counts per instruction class."""
        counts = [0] * IClass.COUNT
        for instr in self.instructions:
            counts[instr.iclass] += 1
        return counts

    def __repr__(self):
        return (f"<Program {self.name!r}: {len(self.instructions)} instrs, "
                f"{len(self.data_image)} data bytes>")


def disassemble(program):
    """Render a program back to assembly text (labels re-derived)."""
    index_to_label = {index: label for label, index in program.labels.items()}
    # Ensure every branch target has a printable label.
    for instr in program.instructions:
        if instr.target is not None and instr.target not in index_to_label:
            index_to_label[instr.target] = f"L{instr.target}"
    lines = [".text"]
    for i, instr in enumerate(program.instructions):
        if i in index_to_label:
            lines.append(f"{index_to_label[i]}:")
        lines.append(f"    {instr.render(index_to_label)}")
    return "\n".join(lines) + "\n"
