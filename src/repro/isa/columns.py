"""Shared columnar (struct-of-arrays) view of a :class:`Program`.

Every downstream consumer of a program's static facts — the functional
simulator's decode tables, the profiler's per-instruction lookups, the
static profile predictor's block facts and dependency walk, and the
sweep engine's scheduling loops — used to rebuild its own
per-instruction arrays by dereferencing :class:`Instruction` objects,
once per *call*.  :class:`ProgramColumns` centralizes that work: one
pass over the instruction objects per program per process, producing
numpy columns (and the plain-list mirrors the pure-Python hot loops
index fastest), cached on the program object.

The contract is load-bearing for performance and is enforced by a
regression test: after the columns exist, no hot path touches
``program.instructions[i]`` attributes again, and
:data:`BUILD_COUNTS` lets tests assert the tables are built at most
once per program per process.

Consumers that derive further per-program tables from the columns (the
functional simulator's opcode-id decode, the native timing loop's
int32 decode copies) park them in :attr:`ProgramColumns.derived` so
they share the same build-once lifetime without this module importing
simulator internals.
"""

import numpy as np

from repro.isa.instructions import IClass

#: Functional-unit pools in scheduling-state order, mirrored by the
#: pipeline model and the sweep's scheduling loops.
POOL_NAMES = ("ialu", "imul", "falu", "fmul", "mem")

#: Instruction class -> functional-unit pool index.
POOL_OF_CLASS = {
    int(IClass.IALU): 0, int(IClass.IMUL): 1, int(IClass.IDIV): 1,
    int(IClass.FALU): 2, int(IClass.FMUL): 3, int(IClass.FDIV): 3,
    int(IClass.LOAD): 4, int(IClass.STORE): 4,
    int(IClass.BRANCH): 0, int(IClass.JUMP): 0, int(IClass.OTHER): 0,
}

#: program name -> number of ProgramColumns builds this process.  Keyed
#: by ``id(program)`` would be unstable across gc; tests key on names,
#: which the corpus keeps unique.
BUILD_COUNTS = {}


class ProgramColumns:
    """Struct-of-arrays decode/block tables for one program."""

    __slots__ = (
        "n", "iclass", "dest", "src1", "src2", "pc_addresses",
        "is_load", "is_store", "is_mem", "is_cond", "is_jump",
        "iclass_list", "dest_list", "pool_list",
        "opcode_list", "imm_list", "target_list",
        "block_of", "is_block_start", "block_bounds", "block_size",
        "derived",
    )

    def __init__(self, program):
        BUILD_COUNTS[program.name] = BUILD_COUNTS.get(program.name, 0) + 1
        instructions = program.instructions
        n = self.n = len(instructions)
        iclass = self.iclass = np.empty(n, dtype=np.int16)
        dest = self.dest = np.full(n, -1, dtype=np.int16)
        src1 = self.src1 = np.full(n, -1, dtype=np.int16)
        src2 = self.src2 = np.full(n, -1, dtype=np.int16)
        is_cond = self.is_cond = np.zeros(n, dtype=bool)
        opcode_list = self.opcode_list = []
        imm_list = self.imm_list = []
        target_list = self.target_list = []
        # The single per-instruction object walk in the process.
        for index, instr in enumerate(instructions):
            iclass[index] = instr.iclass
            if instr.rd is not None:
                dest[index] = instr.rd
            srcs = instr.srcs
            opcode_list.append(instr.opcode)
            imm_list.append(instr.imm)
            target_list.append(instr.target)
            if len(srcs) >= 1:
                src1[index] = srcs[0]
                if len(srcs) >= 2:
                    src2[index] = srcs[1]
            if instr.is_cond_branch:
                is_cond[index] = True
        self.pc_addresses = (program.text_base
                             + 4 * np.arange(n, dtype=np.int64))
        self.is_load = iclass == int(IClass.LOAD)
        self.is_store = iclass == int(IClass.STORE)
        self.is_mem = self.is_load | self.is_store
        self.is_jump = iclass == int(IClass.JUMP)
        self.iclass_list = iclass.tolist()
        self.dest_list = dest.tolist()
        pool_of = POOL_OF_CLASS
        self.pool_list = [pool_of[klass] for klass in self.iclass_list]

        blocks = program.basic_blocks()
        self.block_bounds = [(block.start, block.end) for block in blocks]
        self.block_size = np.array(
            [end - start for start, end in self.block_bounds],
            dtype=np.int64)
        self.is_block_start = np.zeros(n, dtype=bool)
        self.block_of = np.zeros(n, dtype=np.int64)
        for bid, (start, end) in enumerate(self.block_bounds):
            self.is_block_start[start] = True
            self.block_of[start:end] = bid
        self.derived = {}

    def mix_matrix(self):
        """(n_blocks, IClass.COUNT) static per-block class histogram."""
        cached = self.derived.get("mix_matrix")
        if cached is None:
            n_blocks = len(self.block_bounds)
            flat = np.bincount(
                self.block_of * IClass.COUNT + self.iclass,
                minlength=n_blocks * IClass.COUNT)
            cached = flat.reshape(n_blocks, IClass.COUNT)
            self.derived["mix_matrix"] = cached
        return cached

    def block_facts(self):
        """Per-block ``(mix list, memop pcs, last conditional-branch pc)``.

        The static facts both profilers and the static profile
        predictor attach to every visited block, in block order; the
        branch pc is -1 for a block without a conditional branch.
        Callers copy the lists before handing them out.
        """
        cached = self.derived.get("block_facts")
        if cached is None:
            n_blocks = len(self.block_bounds)
            mem_pcs = [[] for _ in range(n_blocks)]
            for index in np.nonzero(self.is_mem)[0].tolist():
                mem_pcs[self.block_of[index]].append(index)
            branch_pc = [-1] * n_blocks
            # np.nonzero ascends, so the last conditional in a block wins.
            for index in np.nonzero(self.is_cond)[0].tolist():
                branch_pc[self.block_of[index]] = index
            cached = list(zip(self.mix_matrix().tolist(), mem_pcs,
                              branch_pc))
            self.derived["block_facts"] = cached
        return cached


def columns_for(program):
    """The (cached) columnar view of ``program``."""
    columns = getattr(program, "_columns", None)
    if columns is None:
        columns = program._columns = ProgramColumns(program)
    return columns
