"""Synthetic-trace statistical simulation from a WorkloadProfile.

The generator mirrors the clone synthesizer's sampling (same SFG walk,
same stride streams, same branch patterns) but emits a *trace* — numpy
arrays of (pc, address, taken) over a reconstructed pseudo-program —
instead of executable code.  The trace feeds the ordinary
:class:`repro.uarch.PipelineModel`, so a profile alone yields IPC/power
estimates in milliseconds, the statistical-simulation use case of
culling a large design space early (paper Section 2).

Only the walk over blocks is sequential; numpy writes each visit per
block: pcs are the block's range, a memop's k-th address is ``base +
stride * (k mod length)``, and a branch follows from the block's visit
count (``modulo``) or the visit's xorshift state (``random``).

Approximations relative to the clone (documented, deliberate):

* register dependences come from a static round-robin assignment inside
  each reconstructed block, so the dependency-distance distribution is
  honoured only through block structure, not re-sampled per instance;
* the trace is *not* executable — there is no architected state.
"""

import bisect
import random

import numpy as np

from repro.core.branch_model import RNG_SEED, pattern_for, xorshift32
from repro.core.profile import bucket_representative
from repro.core.sfg import StatisticalFlowGraph
from repro.core.synthesizer import (_interleave, _sample_bucket,
                                    block_op_counts)
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

#: The clone's xorshift register at visits 0, 1, 2, ...: one prefix
#: serves every walk, grown to the longest asked for.
_XORSHIFT_STATES = np.array([RNG_SEED], dtype=np.int64)


def _xorshift_states(count):
    global _XORSHIFT_STATES
    states = _XORSHIFT_STATES
    if len(states) < count:
        grown = [int(states[-1])]
        for _ in range(max(count, 2 * len(states)) - len(states)):
            grown.append(xorshift32(grown[-1]))
        states = _XORSHIFT_STATES = np.append(states, grown[1:])
    return states[:count]


def _sampler(cdf, index_of):
    """``(nodes, cumulative, total)`` drawing as ``cdf.sample`` does, or
    None where it returns None; the last node repeats, as its clamp."""
    if cdf is None or not cdf.items or cdf.total <= 0:
        return None
    nodes = [index_of[bid] for bid in cdf.items]
    return nodes + nodes[-1:], cdf.cumulative, cdf.total


class StatisticalSimulator:
    """Builds synthetic traces from a profile and times them."""

    def __init__(self, profile, seed=42):
        self.profile = profile
        self.seed = seed
        self._build_program()
        sfg = StatisticalFlowGraph(profile)
        index_of = {bid: node for node, bid in enumerate(sorted(
            profile.blocks))}
        self._start = _sampler(sfg.start_distribution(), index_of)
        self._successors = [_sampler(sfg.successor_cdfs.get(bid), index_of)
                            for bid in index_of]

    # ------------------------------------------------------------------
    def _build_program(self):
        """Reconstruct a pseudo-program: one block per SFG node.

        Per node (the profile's blocks in id order): its instruction
        range, and its branch as ``value < threshold``, value being the
        visit count masked by ``mask`` or, if ``random``, the xorshift
        state's 3-bit window at ``shift``.  Per static memop: its
        stream's base, stride and length.
        """
        rng = random.Random(self.seed)
        profile = self.profile
        instructions = []
        nodes = []  # (start, end, branch, random, mask, threshold, shift)
        streams = []  # (index, base, stride, length)
        int_cursor = 0
        fp_cursor = 0
        next_base = 0x100000

        for bid in sorted(profile.blocks):
            stats = profile.blocks[bid]
            hist = profile.global_dep_hist
            start = len(instructions)
            counts, loads, stores = block_op_counts(profile, stats)
            load_iter, store_iter = iter(loads), iter(stores)
            for label in _interleave(counts) if counts else []:
                fp_class = label in ("falu", "fmul", "fdiv")
                pool = _FP_POOL if fp_class else _INT_POOL
                cursor = fp_cursor if fp_class else int_cursor
                dest = pool[cursor % len(pool)]
                distance = bucket_representative(_sample_bucket(hist, rng))
                src = pool[(cursor - distance) % len(pool)]
                src2 = pool[(cursor - 1) % len(pool)]
                if label in ("load", "store"):
                    instructions.append(
                        Instruction("lw", rd=dest, rs1=src, imm=0)
                        if label == "load" else
                        Instruction("sw", rs2=src, rs1=src2, imm=0))
                    pc = next(load_iter if label == "load" else store_iter)
                    streams.append((len(instructions) - 1,
                                    *self._stream_for(pc, next_base)))
                    # Skewed spacing: a power-of-two step would alias
                    # every stream onto one set of typical caches.
                    next_base += 0x4000 + 0x68
                else:
                    opcode = _OPCODE_OF_CLASS[label]
                    instructions.append(Instruction(
                        opcode, rd=dest, rs1=src, rs2=src2))
                if fp_class:
                    fp_cursor += 1
                else:
                    int_cursor += 1
            if stats.branch_pc < 0:
                nodes.append((start, len(instructions), 0, 0, 0, 0, 0))
                continue
            branch = profile.branches.get(stats.branch_pc)
            # Any stable target: the direction is sampled.
            instructions.append(Instruction(
                "bne", rs1=_INT_POOL[int_cursor % len(_INT_POOL)],
                rs2=0, target=start))
            pattern = pattern_for(1.0, 0.0) if branch is None else \
                pattern_for(branch.taken_rate, branch.transition_rate,
                            random_shift=bid)
            threshold = {"taken": 1, "not_taken": 0}.get(pattern.kind,
                                                          pattern.threshold)
            nodes.append((start, len(instructions), 1,
                          pattern.kind == "random", max(pattern.period - 1, 0),
                          threshold, pattern.shift))

        self._program = Program(instructions,
                                name=f"{profile.name}.statsim")
        (self._starts, ends, self._branch, self._random, self._mask,
         self._threshold, self._shift) = np.array(
             nodes, dtype=np.int64).reshape(-1, 7).T
        self._sizes = ends - self._starts
        # Base, stride and length; length 1 marks a non-memop.
        self._streams = np.zeros((3, len(instructions)), dtype=np.int64)
        self._streams[2] = 1
        index, *columns = np.array(streams, dtype=np.int64).reshape(-1, 4).T
        self._streams[:, index] = columns

    def _stream_for(self, pc, base):
        """``(base, stride, length)`` of the stride stream for memop ``pc``."""
        stats = self.profile.mem_ops.get(pc)
        if stats is None:
            return base, 4, 16
        stride = stats.dominant_stride
        if stride == 0:
            return base, 0, 2
        length = max(2.0, min(stats.footprint_bytes / max(1, abs(stride)),
                              stats.mean_stream_length * 4))
        base = base if stride > 0 else base + abs(stride) * int(length)
        return base, stride, max(2, int(length))

    # ------------------------------------------------------------------
    def _walk(self, n_instructions):
        """The visited nodes of a ~``n_instructions`` trace, drawn as the
        SFG draws (this walk spends no occurrence budget, so the start
        distribution is fixed)."""
        draw = random.Random(self.seed + 1).random
        right = bisect.bisect_right
        sizes = self._sizes.tolist()
        successors = self._successors
        start = sampler = self._start
        visits = []
        visit = visits.append
        emitted = 0
        while emitted < n_instructions and sampler is not None:
            nodes, cumulative, total = sampler
            node = nodes[right(cumulative, draw() * total)]
            visit(node)
            emitted += sizes[node]
            sampler = successors[node] or start
        return np.array(visits, dtype=np.int64)

    def synthesize_trace(self, n_instructions=100_000):
        """Sample a synthetic trace of ~``n_instructions``.  Every call
        starts each stream at its base, so the trace depends only on
        ``n_instructions``."""
        visits = self._walk(n_instructions)
        sizes = self._sizes[visits]
        ends = np.cumsum(sizes)
        length = int(ends[-1]) if len(ends) else 0
        pcs = (np.repeat(self._starts[visits] - (ends - sizes), sizes)
               + np.arange(length))
        # A visit's rank among its node's visits is the execution count
        # of each instruction in it.
        order = np.argsort(visits, kind="stable")
        ranked = visits[order]
        count = np.empty_like(visits)
        count[order] = np.arange(len(visits)) - np.searchsorted(ranked,
                                                                ranked)

        addrs = np.full(length, -1, dtype=np.int64)
        mem = self._streams[2, pcs] > 1
        base, stride, period = self._streams[:, pcs[mem]]
        addrs[mem] = base + stride * (np.repeat(count, sizes)[mem] % period)

        taken = np.full(length, -1, dtype=np.int8)
        branchy = np.flatnonzero(self._branch[visits])
        nodes = visits[branchy]
        value = np.where(
            self._random[nodes],
            (_xorshift_states(len(visits))[branchy] >> self._shift[nodes])
            & 7,
            count[branchy] & self._mask[nodes])
        taken[ends[branchy] - 1] = value < self._threshold[nodes]
        return DynamicTrace(self._program, pcs.astype(np.int32), addrs,
                            taken)

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
