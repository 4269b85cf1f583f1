"""Microarchitecture-independent workload characterization (Section 3.1).

The profiler makes a single pass over the compact dynamic trace, almost
entirely with vectorized numpy, and produces a
:class:`repro.core.profile.WorkloadProfile`.

Measured attributes:

* statistical flow graph — basic-block visit counts and transition counts
  (Section 3.1.1), with dependency distances kept per (predecessor,
  successor) context;
* instruction mix per class (Section 3.1.2);
* register dependency-distance distribution in the paper's buckets
  (Section 3.1.3);
* per-static-load/store dominant stride, coverage, and stream length
  (Section 3.1.4) plus the global Figure 3 coverage metric;
* per-static-branch taken rate and transition rate (Section 3.1.5).
"""

import numpy as np

from repro.core.profile import (
    DEP_BUCKETS,
    NUM_DEP_BUCKETS,
    BlockStats,
    BranchStats,
    ContextStats,
    MemOpStats,
    WorkloadProfile,
)
from repro.isa.columns import columns_for
from repro.isa.instructions import IClass
from repro.isa.registers import ZERO_REG
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.sim.functional import run_program

_LOG = get_logger("repro.profiler")

#: Minimum dynamic executions for a static memop to count as a "stream"
#: in the unique-stream statistic (the paper's susan discussion).
STREAM_MIN_EXECUTIONS = 8


class WorkloadProfiler:
    """Configurable profiler; ``profile`` is the main entry point."""

    def __init__(self, footprint_granularity=4):
        self.footprint_granularity = footprint_granularity

    # ------------------------------------------------------------------
    def profile(self, trace):
        """Characterize one dynamic trace into a WorkloadProfile."""
        program = trace.program
        pcs = trace.pcs
        profile = WorkloadProfile(
            name=program.name,
            total_instructions=len(pcs),
            total_memory_ops=int(np.count_nonzero(trace.addrs >= 0)),
            total_branches=int(np.count_nonzero(trace.taken >= 0)),
        )

        with span("core.profiler"):
            tables = columns_for(program)
            dyn_class = tables.iclass[pcs]
            profile.global_mix = np.bincount(
                dyn_class, minlength=IClass.COUNT).tolist()

            with span("core.profiler.sfg_build"):
                ctx_of_instr, visit_blocks, ctx_keys, n_blocks = \
                    self._flow_graph(profile, tables, pcs, program)
            with span("core.profiler.dependencies"):
                self._dependencies(profile, tables, pcs, ctx_of_instr,
                                   ctx_keys, n_blocks)
            with span("core.profiler.stride_mining"):
                self._memory_streams(profile, trace)
            with span("core.profiler.branches"):
                self._branch_behaviour(profile, trace)
            profile.data_footprint_bytes = (
                trace.data_footprint(self.footprint_granularity)
                * self.footprint_granularity)
        REGISTRY.counter("profile.instructions").inc(len(pcs))
        REGISTRY.counter("profile.runs").inc()
        _LOG.debug("profile.done", program=program.name,
                   instructions=len(pcs), blocks=len(profile.blocks),
                   mem_ops=len(profile.mem_ops),
                   stride_coverage=profile.stride_coverage)
        return profile

    # ------------------------------------------------------------------
    def _flow_graph(self, profile, tables, pcs, program):
        """Build SFG nodes/edges; returns per-instr context ids and visits."""
        starts_mask = tables.is_block_start[pcs]
        visit_blocks = tables.block_of[pcs[starts_mask]]
        visit_of_instr = np.cumsum(starts_mask) - 1
        n_blocks = len(program.basic_blocks())

        visit_counts = np.bincount(visit_blocks, minlength=n_blocks)
        block_facts = tables.block_facts()
        for block in program.basic_blocks():
            visits = int(visit_counts[block.bid])
            if visits == 0:
                continue
            mix, mem_pcs, branch_pc = block_facts[block.bid]
            profile.blocks[block.bid] = BlockStats(
                bid=block.bid, size=block.size, visits=visits,
                mix=list(mix), mem_pcs=list(mem_pcs), branch_pc=branch_pc)

        # Edges and contexts.  The first visit's predecessor is -1.
        preds = np.empty_like(visit_blocks)
        preds[0] = -1
        preds[1:] = visit_blocks[:-1]
        keys = (preds.astype(np.int64) + 1) * n_blocks + visit_blocks
        unique_keys, dense_ctx, key_counts = np.unique(
            keys, return_inverse=True, return_counts=True)
        for key, count in zip(unique_keys, key_counts):
            pred = int(key // n_blocks) - 1
            succ = int(key % n_blocks)
            if pred >= 0:
                profile.transitions[(pred, succ)] = int(count)
            profile.contexts[(pred, succ)] = ContextStats(
                pred=pred, block=succ, visits=int(count),
                dep_hist=[0] * NUM_DEP_BUCKETS)
        # Context tables travel by value to _dependencies (not through
        # instance attributes) so one profiler can serve interleaved or
        # concurrent profiles.
        return dense_ctx[visit_of_instr], visit_blocks, \
            unique_keys, n_blocks

    # ------------------------------------------------------------------
    def _dependencies(self, profile, tables, pcs, ctx_of_instr,
                      ctx_keys, n_blocks):
        """Register producer→consumer distances, bucketed per context.

        For every architected register we collect its dynamic write
        positions and, for each read, searchsorted-find the closest
        preceding write.  Reads of the hardwired zero register are not
        dependences and are skipped.
        """
        dyn_dst = tables.dest[pcs]
        source_columns = (tables.src1[pcs], tables.src2[pcs])
        n_ctx = len(ctx_keys)
        ctx_hist = np.zeros(n_ctx * NUM_DEP_BUCKETS, dtype=np.int64)
        bucket_bounds = np.asarray(DEP_BUCKETS)

        registers = np.unique(np.concatenate(
            [column[column > ZERO_REG] for column in source_columns]
            + [dyn_dst[dyn_dst > ZERO_REG]]))
        for register in registers:
            write_positions = np.nonzero(dyn_dst == register)[0]
            if len(write_positions) == 0:
                continue
            for column in source_columns:
                read_positions = np.nonzero(column == register)[0]
                if len(read_positions) == 0:
                    continue
                slots = np.searchsorted(write_positions, read_positions) - 1
                valid = slots >= 0
                reads = read_positions[valid]
                distances = reads - write_positions[slots[valid]]
                buckets = np.searchsorted(bucket_bounds, distances,
                                          side="left")
                np.add.at(ctx_hist,
                          ctx_of_instr[reads] * NUM_DEP_BUCKETS + buckets, 1)

        ctx_hist = ctx_hist.reshape(n_ctx, NUM_DEP_BUCKETS)
        profile.global_dep_hist = ctx_hist.sum(axis=0).tolist()
        for ctx_index, key in enumerate(ctx_keys):
            pred = int(key // n_blocks) - 1
            succ = int(key % n_blocks)
            profile.contexts[(pred, succ)].dep_hist = (
                ctx_hist[ctx_index].tolist())

    # ------------------------------------------------------------------
    def _memory_streams(self, profile, trace):
        """Per-static-memop stride model (Section 3.1.4 / Figure 3)."""
        mem_mask = trace.addrs >= 0
        mem_pcs = trace.pcs[mem_mask]
        mem_addrs = trace.addrs[mem_mask]
        if len(mem_pcs) == 0:
            profile.stride_coverage = 1.0
            return
        order = np.argsort(mem_pcs, kind="stable")
        sorted_pcs = mem_pcs[order]
        sorted_addrs = mem_addrs[order]
        boundaries = np.nonzero(np.diff(sorted_pcs))[0] + 1
        group_starts = np.concatenate([[0], boundaries])
        group_ends = np.concatenate([boundaries, [len(sorted_pcs)]])

        covered_refs = 0
        streams = 0
        is_store_of = columns_for(trace.program).is_store
        for start, end in zip(group_starts, group_ends):
            pc = int(sorted_pcs[start])
            addresses = sorted_addrs[start:end]
            count = end - start
            is_store = bool(is_store_of[pc])
            if count == 1:
                only = int(addresses[0])
                profile.mem_ops[pc] = MemOpStats(
                    pc=pc, is_store=is_store, count=1,
                    dominant_stride=0, coverage=1.0, mean_stream_length=1.0,
                    distinct_strides=0, footprint_bytes=4,
                    first_address=only, last_address=only)
                covered_refs += 1
                continue
            deltas = np.diff(addresses)
            values, value_counts = np.unique(deltas, return_counts=True)
            best = int(np.argmax(value_counts))
            dominant = int(values[best])
            dominant_count = int(value_counts[best])
            coverage = (dominant_count + 1) / count
            mean_run = _mean_run_length(deltas == dominant)
            footprint = int(addresses.max() - addresses.min()) + 4
            local = float(np.count_nonzero(np.abs(deltas) <= 32)
                          / len(deltas))
            profile.mem_ops[pc] = MemOpStats(
                pc=pc, is_store=is_store,
                count=int(count), dominant_stride=dominant,
                coverage=float(coverage), mean_stream_length=float(mean_run),
                distinct_strides=int(len(values)), footprint_bytes=footprint,
                first_address=int(addresses[0]),
                last_address=int(addresses[-1]), local_fraction=local)
            covered_refs += dominant_count + 1
            if count >= STREAM_MIN_EXECUTIONS:
                streams += 1
        profile.stride_coverage = covered_refs / len(mem_pcs)
        profile.unique_streams = streams
        self._detect_store_aliases(profile, trace.program)

    @staticmethod
    def _detect_store_aliases(profile, program):
        """Mark stores that retrace a load's address sequence.

        Read-modify-write pairs (``lw``/``sw`` of the same location) are
        ubiquitous in real code and matter to the cache: the store always
        hits the line its load just touched.  A store whose (count,
        stride, first, last) fingerprint matches a load's is tagged so
        the synthesizer reuses the load's stream instead of inventing an
        independent one.  Matching is program-wide because the modifying
        code between load and store routinely spans basic blocks.
        """
        loads = {}
        for pc in sorted(profile.mem_ops):
            stats = profile.mem_ops[pc]
            if not stats.is_store:
                fingerprint = (stats.count, stats.dominant_stride,
                               stats.first_address, stats.last_address)
                loads.setdefault(fingerprint, pc)
        for stats in profile.mem_ops.values():
            if not stats.is_store:
                continue
            fingerprint = (stats.count, stats.dominant_stride,
                           stats.first_address, stats.last_address)
            partner = loads.get(fingerprint)
            if partner is not None:
                stats.alias_of = partner

    # ------------------------------------------------------------------
    def _branch_behaviour(self, profile, trace):
        """Taken rate and transition rate per static branch."""
        branch_mask = trace.taken >= 0
        branch_pcs = trace.pcs[branch_mask]
        outcomes = trace.taken[branch_mask]
        if len(branch_pcs) == 0:
            return
        order = np.argsort(branch_pcs, kind="stable")
        sorted_pcs = branch_pcs[order]
        sorted_outcomes = outcomes[order]
        boundaries = np.nonzero(np.diff(sorted_pcs))[0] + 1
        group_starts = np.concatenate([[0], boundaries])
        group_ends = np.concatenate([boundaries, [len(sorted_pcs)]])
        for start, end in zip(group_starts, group_ends):
            pc = int(sorted_pcs[start])
            group = sorted_outcomes[start:end]
            count = end - start
            taken_rate = float(np.count_nonzero(group) / count)
            transition_rate = (
                float(np.count_nonzero(np.diff(group)) / (count - 1))
                if count > 1 else 0.0)
            profile.branches[pc] = BranchStats(
                pc=pc, count=int(count), taken_rate=taken_rate,
                transition_rate=transition_rate)


def _mean_run_length(mask):
    """Average length of maximal runs of True in a boolean array."""
    if len(mask) == 0 or not mask.any():
        return 1.0
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(np.int8))
    run_starts = np.nonzero(edges == 1)[0]
    run_ends = np.nonzero(edges == -1)[0]
    return float(np.mean(run_ends - run_starts))


class ChunkedWorkloadProfiler:
    """Streaming profiler: feed columnar trace chunks, finish a profile.

    A sink for :func:`repro.sim.native.stream_trace` producing a
    :class:`WorkloadProfile` **bit-identical** to
    ``WorkloadProfiler.profile`` on the materialized trace, without the
    trace ever existing.  Every global computation of the one-pass
    profiler is refactored into a per-chunk update plus carried state:

    * SFG visits/transitions/contexts — carried last block + open
      context key; context histograms keyed by the raw
      ``(pred+1)*n_blocks+succ`` key (dense ids are a presentation
      detail);
    * dependency distances — carried last *global* write position per
      register; the closest preceding write for a read is either in
      the same chunk or that carry, so a per-chunk ``searchsorted``
      with the carry prepended reproduces the global answer exactly;
    * per-memop strides — per-pc running (count, first/last/min/max,
      previous delta, per-delta count and run count, local count);
      cross-chunk deltas come from the carried last address;
    * per-branch behaviour — per-pc running (count, taken count,
      transition count, last outcome);
    * data footprint — the set of touched granules.

    Requires the stream to begin at a basic-block leader, which every
    simulator-produced trace does (execution starts at the program
    entry).
    """

    def __init__(self, program, footprint_granularity=4):
        self.program = program
        self.footprint_granularity = footprint_granularity
        self.tables = columns_for(program)
        self.n_blocks = len(program.basic_blocks())
        self._n = 0
        self._mem_total = 0
        self._branch_total = 0
        self._mix = np.zeros(IClass.COUNT, dtype=np.int64)
        self._visit_counts = np.zeros(self.n_blocks, dtype=np.int64)
        self._key_counts = {}   # ctx key -> visit count
        self._ctx_hist = {}     # ctx key -> int64[NUM_DEP_BUCKETS]
        self._last_block = -1   # predecessor for the next visit
        self._current_key = None  # context key of the open visit
        self._last_write = {}   # register -> last global write position
        self._mem = {}          # pc -> stride accumulator (see _feed_mem)
        self._branches = {}     # pc -> [count, taken, transitions, last]
        self._granules = set()
        self._bucket_bounds = np.asarray(DEP_BUCKETS)

    # ------------------------------------------------------------------
    def feed(self, pcs, addrs, taken):
        """Fold one columnar chunk into the running profile state."""
        if not len(pcs):
            return
        pcs = pcs.astype(np.int64)
        tables = self.tables
        self._mix += np.bincount(tables.iclass[pcs],
                                 minlength=IClass.COUNT)
        key_of_instr = self._feed_flow(tables, pcs)
        self._feed_dependencies(tables, pcs, key_of_instr)
        mem_mask = addrs >= 0
        self._feed_mem(pcs[mem_mask], addrs[mem_mask])
        branch_mask = taken >= 0
        self._feed_branches(pcs[branch_mask], taken[branch_mask])
        self._n += len(pcs)

    def _feed_flow(self, tables, pcs):
        """SFG update; returns the context key per chunk instruction."""
        starts_mask = tables.is_block_start[pcs]
        if self._n == 0 and not bool(starts_mask[0]):
            raise ValueError(
                "streamed trace must start at a basic-block leader")
        start_positions = np.nonzero(starts_mask)[0]
        if len(start_positions) == 0:
            return np.full(len(pcs), self._current_key, dtype=np.int64)
        visit_blocks = tables.block_of[pcs[start_positions]]
        np.add.at(self._visit_counts, visit_blocks, 1)
        preds = np.empty_like(visit_blocks)
        preds[0] = self._last_block
        preds[1:] = visit_blocks[:-1]
        keys = (preds.astype(np.int64) + 1) * self.n_blocks + visit_blocks
        for key, count in zip(*np.unique(keys, return_counts=True)):
            key = int(key)
            self._key_counts[key] = (self._key_counts.get(key, 0)
                                     + int(count))
        self._last_block = int(visit_blocks[-1])
        visit_of = np.cumsum(starts_mask) - 1
        key_of_instr = keys[np.maximum(visit_of, 0)]
        if visit_of[0] < 0:  # instructions continuing the open visit
            key_of_instr = np.where(visit_of >= 0, key_of_instr,
                                    self._current_key)
        self._current_key = int(keys[-1])
        return key_of_instr

    def _feed_dependencies(self, tables, pcs, key_of_instr):
        dyn_dst = tables.dest[pcs]
        source_columns = (tables.src1[pcs], tables.src2[pcs])
        offset = self._n
        registers = np.unique(np.concatenate(
            [column[column > ZERO_REG] for column in source_columns]
            + [dyn_dst[dyn_dst > ZERO_REG]]))
        for register in registers:
            writes = np.nonzero(dyn_dst == register)[0] + offset
            carry = self._last_write.get(int(register))
            if carry is not None:
                merged = np.concatenate([[carry], writes])
            else:
                merged = writes
            if len(merged):
                for column in source_columns:
                    read_positions = (np.nonzero(column == register)[0]
                                      + offset)
                    if len(read_positions) == 0:
                        continue
                    slots = np.searchsorted(merged, read_positions) - 1
                    valid = slots >= 0
                    reads = read_positions[valid]
                    if len(reads) == 0:
                        continue
                    distances = reads - merged[slots[valid]]
                    buckets = np.searchsorted(self._bucket_bounds,
                                              distances, side="left")
                    read_keys = key_of_instr[reads - offset]
                    unique_keys, dense = np.unique(read_keys,
                                                   return_inverse=True)
                    hist = np.zeros((len(unique_keys), NUM_DEP_BUCKETS),
                                    dtype=np.int64)
                    np.add.at(hist, (dense, buckets), 1)
                    for index, key in enumerate(unique_keys):
                        key = int(key)
                        row = self._ctx_hist.get(key)
                        if row is None:
                            row = self._ctx_hist[key] = np.zeros(
                                NUM_DEP_BUCKETS, dtype=np.int64)
                        row += hist[index]
            if len(writes):
                self._last_write[int(register)] = int(writes[-1])

    def _feed_mem(self, mem_pcs, mem_addrs):
        if len(mem_pcs) == 0:
            return
        self._mem_total += len(mem_pcs)
        self._granules.update(
            np.unique(mem_addrs // self.footprint_granularity).tolist())
        order = np.argsort(mem_pcs, kind="stable")
        sorted_pcs = mem_pcs[order]
        sorted_addrs = mem_addrs[order]
        boundaries = np.nonzero(np.diff(sorted_pcs))[0] + 1
        group_starts = np.concatenate([[0], boundaries])
        group_ends = np.concatenate([boundaries, [len(sorted_pcs)]])
        for start, end in zip(group_starts, group_ends):
            pc = int(sorted_pcs[start])
            addresses = sorted_addrs[start:end]
            acc = self._mem.get(pc)
            if acc is None:
                acc = self._mem[pc] = {
                    "count": 0, "first": int(addresses[0]),
                    "last": None, "min": int(addresses.min()),
                    "max": int(addresses.max()), "prev": None,
                    "deltas": {}, "local": 0, "delta_count": 0,
                }
                deltas = np.diff(addresses)
            else:
                acc["min"] = min(acc["min"], int(addresses.min()))
                acc["max"] = max(acc["max"], int(addresses.max()))
                deltas = np.diff(np.concatenate([[acc["last"]],
                                                 addresses]))
            acc["count"] += len(addresses)
            acc["last"] = int(addresses[-1])
            if len(deltas) == 0:
                continue
            acc["delta_count"] += len(deltas)
            acc["local"] += int(np.count_nonzero(np.abs(deltas) <= 32))
            # Per-delta dynamic counts and run counts: a run of delta d
            # starts wherever d differs from the preceding delta (the
            # carried one across the chunk seam).
            prev = np.empty_like(deltas)
            prev[0] = (acc["prev"] if acc["prev"] is not None
                       else deltas[0] + 1)  # sentinel: always a start
            prev[1:] = deltas[:-1]
            run_start = deltas != prev
            values, value_counts = np.unique(deltas, return_counts=True)
            table = acc["deltas"]
            for value, count in zip(values, value_counts):
                entry = table.get(int(value))
                if entry is None:
                    entry = table[int(value)] = [0, 0]
                entry[0] += int(count)
            start_values, start_counts = np.unique(deltas[run_start],
                                                   return_counts=True)
            for value, count in zip(start_values, start_counts):
                table[int(value)][1] += int(count)
            acc["prev"] = int(deltas[-1])

    def _feed_branches(self, branch_pcs, outcomes):
        if len(branch_pcs) == 0:
            return
        self._branch_total += len(branch_pcs)
        order = np.argsort(branch_pcs, kind="stable")
        sorted_pcs = branch_pcs[order]
        sorted_outcomes = outcomes[order]
        boundaries = np.nonzero(np.diff(sorted_pcs))[0] + 1
        group_starts = np.concatenate([[0], boundaries])
        group_ends = np.concatenate([boundaries, [len(sorted_pcs)]])
        for start, end in zip(group_starts, group_ends):
            pc = int(sorted_pcs[start])
            group = sorted_outcomes[start:end]
            acc = self._branches.get(pc)
            if acc is None:
                acc = self._branches[pc] = [0, 0, 0, None]
            transitions = int(np.count_nonzero(np.diff(group)))
            if acc[3] is not None and int(group[0]) != acc[3]:
                transitions += 1  # the chunk-seam transition
            acc[0] += len(group)
            acc[1] += int(np.count_nonzero(group))
            acc[2] += transitions
            acc[3] = int(group[-1])

    # ------------------------------------------------------------------
    def finish(self):
        """The completed profile (identical to the one-pass result)."""
        program = self.program
        profile = WorkloadProfile(
            name=program.name,
            total_instructions=self._n,
            total_memory_ops=self._mem_total,
            total_branches=self._branch_total,
        )
        profile.global_mix = self._mix.tolist()
        block_facts = self.tables.block_facts()
        for block in program.basic_blocks():
            visits = int(self._visit_counts[block.bid])
            if visits == 0:
                continue
            mix, mem_pcs, branch_pc = block_facts[block.bid]
            profile.blocks[block.bid] = BlockStats(
                bid=block.bid, size=block.size, visits=visits,
                mix=list(mix), mem_pcs=list(mem_pcs),
                branch_pc=branch_pc)
        zero_hist = [0] * NUM_DEP_BUCKETS
        global_hist = np.zeros(NUM_DEP_BUCKETS, dtype=np.int64)
        for key in sorted(self._key_counts):
            pred = key // self.n_blocks - 1
            succ = key % self.n_blocks
            count = self._key_counts[key]
            if pred >= 0:
                profile.transitions[(pred, succ)] = count
            hist = self._ctx_hist.get(key)
            if hist is not None:
                global_hist += hist
            profile.contexts[(pred, succ)] = ContextStats(
                pred=pred, block=succ, visits=count,
                dep_hist=hist.tolist() if hist is not None
                else list(zero_hist))
        profile.global_dep_hist = global_hist.tolist()
        self._finish_mem(profile)
        self._finish_branches(profile)
        profile.data_footprint_bytes = (len(self._granules)
                                        * self.footprint_granularity)
        REGISTRY.counter("profile.instructions").inc(self._n)
        REGISTRY.counter("profile.runs").inc()
        _LOG.debug("profile.done", program=program.name,
                   instructions=self._n, blocks=len(profile.blocks),
                   mem_ops=len(profile.mem_ops),
                   stride_coverage=profile.stride_coverage)
        return profile

    def _finish_mem(self, profile):
        if self._mem_total == 0:
            profile.stride_coverage = 1.0
            return
        is_store_of = self.tables.is_store
        covered_refs = 0
        streams = 0
        for pc in sorted(self._mem):  # one-pass grouping order
            acc = self._mem[pc]
            count = acc["count"]
            is_store = bool(is_store_of[pc])
            if count == 1:
                only = acc["first"]
                profile.mem_ops[pc] = MemOpStats(
                    pc=pc, is_store=is_store, count=1,
                    dominant_stride=0, coverage=1.0,
                    mean_stream_length=1.0, distinct_strides=0,
                    footprint_bytes=4, first_address=only,
                    last_address=only)
                covered_refs += 1
                continue
            # Dominant delta: highest dynamic count, smallest value on
            # ties (np.unique sorts ascending, argmax takes the first).
            table = acc["deltas"]
            dominant, (dominant_count, dominant_runs) = min(
                table.items(), key=lambda item: (-item[1][0], item[0]))
            coverage = (dominant_count + 1) / count
            mean_run = dominant_count / dominant_runs
            profile.mem_ops[pc] = MemOpStats(
                pc=pc, is_store=is_store, count=count,
                dominant_stride=dominant, coverage=float(coverage),
                mean_stream_length=float(mean_run),
                distinct_strides=len(table),
                footprint_bytes=acc["max"] - acc["min"] + 4,
                first_address=acc["first"], last_address=acc["last"],
                local_fraction=acc["local"] / acc["delta_count"])
            covered_refs += dominant_count + 1
            if count >= STREAM_MIN_EXECUTIONS:
                streams += 1
        profile.stride_coverage = covered_refs / self._mem_total
        profile.unique_streams = streams
        WorkloadProfiler._detect_store_aliases(profile, self.program)

    def _finish_branches(self, profile):
        for pc in sorted(self._branches):
            count, taken, transitions, _last = self._branches[pc]
            profile.branches[pc] = BranchStats(
                pc=pc, count=count, taken_rate=taken / count,
                transition_rate=(transitions / (count - 1)
                                 if count > 1 else 0.0))


def profile_trace(trace, **kwargs):
    """Profile an existing :class:`DynamicTrace`."""
    return WorkloadProfiler(**kwargs).profile(trace)


def profile_program(program, max_instructions=50_000_000, **kwargs):
    """Execute ``program`` functionally, then profile its trace.

    When the backend resolves to ``native`` (see
    :func:`repro.sim.functional.resolve_backend`) and the engine can
    take the program, execution streams columnar chunks straight into a
    :class:`ChunkedWorkloadProfiler` and the full trace is never
    materialized; the resulting profile is bit-identical either way.
    """
    from repro.sim import native
    from repro.sim.functional import FunctionalSimulator, resolve_backend
    if (resolve_backend(None, program) == "native"
            and native.engine_for(program) is not None):
        with span("sim.run", program=program.name, backend="native"):
            profiler = ChunkedWorkloadProfiler(program, **kwargs)
            simulator = FunctionalSimulator(program, backend="native")
            native.stream_trace(simulator, max_instructions,
                                profiler.feed)
        with span("core.profiler"):
            return profiler.finish()
    trace = run_program(program, max_instructions=max_instructions)
    return WorkloadProfiler(**kwargs).profile(trace)
