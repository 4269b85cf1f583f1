"""Synthetic-trace statistical simulation from a WorkloadProfile.

The generator mirrors the clone synthesizer's sampling (same SFG walk,
same stride streams, same branch patterns) but emits a *trace* — numpy
arrays of (pc, address, taken) over a reconstructed pseudo-program —
instead of executable code.  The trace feeds the ordinary
:class:`repro.uarch.PipelineModel`, so a profile alone yields IPC/power
estimates in milliseconds, the statistical-simulation use case of
culling a large design space early (paper Section 2).

Approximations relative to the clone (documented, deliberate):

* register dependences come from a static round-robin assignment inside
  each reconstructed block, so the dependency-distance distribution is
  honoured only through block structure, not re-sampled per instance;
* the trace is *not* executable — there is no architected state.
"""

import random

import numpy as np

from repro.core.branch_model import RNG_SEED, pattern_for, xorshift32
from repro.core.profile import bucket_representative
from repro.core.sfg import StatisticalFlowGraph
from repro.core.synthesizer import _CLASS_LABELS, _interleave, _sample_bucket
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.obs.trace import span
from repro.sim.trace import DynamicTrace

#: Opcodes used to reconstruct instructions per class.
_OPCODE_OF_CLASS = {
    "ialu": "add", "imul": "mul", "idiv": "div",
    "falu": "fadd", "fmul": "fmul", "fdiv": "fdiv",
    "load": "lw", "store": "sw",
}

_INT_POOL = list(range(8, 24))
_FP_POOL = [32 + n for n in range(8, 24)]


class _StreamState:
    """Per-static-memop stride walker for synthetic addresses."""

    __slots__ = ("base", "stride", "length", "position")

    def __init__(self, base, stride, length):
        self.base = base
        self.stride = stride
        self.length = max(2, int(length))
        self.position = 0

    def next_address(self):
        address = self.base + self.stride * self.position
        self.position += 1
        if self.position >= self.length:
            self.position = 0
        return address


class StatisticalSimulator:
    """Builds synthetic traces from a profile and times them."""

    def __init__(self, profile, seed=42):
        self.profile = profile
        self.seed = seed
        self._program = None
        self._block_ranges = None
        self._streams = None
        self._patterns = None
        self._build_program()

    # ------------------------------------------------------------------
    def _build_program(self):
        """Reconstruct a pseudo-program: one block per SFG node."""
        rng = random.Random(self.seed)
        profile = self.profile
        instructions = []
        block_ranges = {}
        streams = {}
        patterns = {}
        int_cursor = 0
        fp_cursor = 0
        next_base = 0x100000

        for bid in sorted(profile.blocks):
            stats = profile.blocks[bid]
            hist = profile.global_dep_hist
            start = len(instructions)
            counts = {}
            for iclass, count in enumerate(stats.mix):
                label = _CLASS_LABELS.get(iclass)
                if label and count:
                    counts[label] = counts.get(label, 0) + count
            loads = [pc for pc in stats.mem_pcs
                     if not profile.mem_ops.get(pc)
                     or not profile.mem_ops[pc].is_store]
            stores = [pc for pc in stats.mem_pcs
                      if profile.mem_ops.get(pc)
                      and profile.mem_ops[pc].is_store]
            counts.pop("load", None)
            counts.pop("store", None)
            if loads:
                counts["load"] = len(loads)
            if stores:
                counts["store"] = len(stores)

            load_iter, store_iter = iter(loads), iter(stores)
            for label in _interleave(counts) if counts else []:
                fp_class = label in ("falu", "fmul", "fdiv")
                pool = _FP_POOL if fp_class else _INT_POOL
                cursor = fp_cursor if fp_class else int_cursor
                dest = pool[cursor % len(pool)]
                distance = bucket_representative(_sample_bucket(hist, rng))
                src = pool[(cursor - distance) % len(pool)]
                src2 = pool[(cursor - 1) % len(pool)]
                if label == "load":
                    pc = next(load_iter)
                    instructions.append(Instruction(
                        "lw", rd=dest, rs1=src, imm=0))
                    streams[len(instructions) - 1] = self._stream_for(
                        pc, next_base)
                    # Skewed spacing: a power-of-two step would alias
                    # every stream onto one set of typical caches.
                    next_base += 0x4000 + 0x68
                elif label == "store":
                    pc = next(store_iter)
                    instructions.append(Instruction(
                        "sw", rs2=src, rs1=src2, imm=0))
                    streams[len(instructions) - 1] = self._stream_for(
                        pc, next_base)
                    next_base += 0x4000 + 0x68
                else:
                    opcode = _OPCODE_OF_CLASS[label]
                    instructions.append(Instruction(
                        opcode, rd=dest, rs1=src, rs2=src2))
                if fp_class:
                    fp_cursor += 1
                else:
                    int_cursor += 1
            if stats.branch_pc >= 0:
                branch = profile.branches.get(stats.branch_pc)
                target = start  # any stable target; direction is sampled
                instructions.append(Instruction(
                    "bne", rs1=_INT_POOL[int_cursor % len(_INT_POOL)],
                    rs2=0, target=target))
                if branch is not None:
                    patterns[bid] = pattern_for(branch.taken_rate,
                                                branch.transition_rate,
                                                random_shift=bid)
                else:
                    patterns[bid] = pattern_for(1.0, 0.0)
            block_ranges[bid] = (start, len(instructions))

        self._program = Program(instructions,
                                name=f"{profile.name}.statsim")
        self._block_ranges = block_ranges
        self._streams = streams
        self._patterns = patterns

    def _stream_for(self, pc, base):
        stats = self.profile.mem_ops.get(pc)
        if stats is None:
            return _StreamState(base, 4, 16)
        stride = stats.dominant_stride
        if stride == 0:
            return _StreamState(base, 0, 2)
        length = max(2.0, min(stats.footprint_bytes / max(1, abs(stride)),
                              stats.mean_stream_length * 4))
        return _StreamState(base if stride > 0
                            else base + abs(stride) * int(length),
                            stride, length)

    # ------------------------------------------------------------------
    def synthesize_trace(self, n_instructions=100_000):
        """Sample a synthetic trace of ~``n_instructions``."""
        rng = random.Random(self.seed + 1)
        profile = self.profile
        sfg = StatisticalFlowGraph(profile)
        pcs, addrs, takens = [], [], []
        program = self._program
        rng_state = RNG_SEED
        executions = {}

        current = sfg.sample_start(rng)
        while len(pcs) < n_instructions and current is not None:
            start, end = self._block_ranges[current]
            for index in range(start, end):
                instr = program.instructions[index]
                pcs.append(index)
                if instr.is_mem:
                    addrs.append(self._streams[index].next_address())
                else:
                    addrs.append(-1)
                if instr.is_cond_branch:
                    pattern = self._patterns.get(current)
                    count = executions.get(current, 0)
                    executions[current] = count + 1
                    if pattern is None:
                        takens.append(1)
                    elif pattern.kind == "random":
                        takens.append(pattern.direction(
                            count, rng_state=rng_state))
                    else:
                        takens.append(pattern.direction(count))
                else:
                    takens.append(-1)
            rng_state = xorshift32(rng_state)
            nxt = sfg.sample_next(current, rng)
            current = nxt if nxt is not None else sfg.sample_start(rng)
        return DynamicTrace(program,
                            np.array(pcs, dtype=np.int32),
                            np.array(addrs, dtype=np.int64),
                            np.array(takens, dtype=np.int8))

    def estimate(self, config, n_instructions=60_000):
        """IPC (and the full PipelineResult) for one configuration."""
        from repro.uarch.pipeline import simulate_pipeline
        with span("statsim.estimate", instructions=n_instructions):
            trace = self.synthesize_trace(n_instructions)
            return simulate_pipeline(trace, config)


def synthesize_trace(profile, n_instructions=100_000, seed=42):
    """One-shot synthetic trace from a profile."""
    return StatisticalSimulator(profile, seed=seed).synthesize_trace(
        n_instructions)


def statistical_ipc_estimate(profile, config, n_instructions=60_000,
                             seed=42):
    """One-shot IPC estimate from a profile (no program, no execution)."""
    return StatisticalSimulator(profile, seed=seed).estimate(
        config, n_instructions).ipc
