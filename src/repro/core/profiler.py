"""Microarchitecture-independent workload characterization (Section 3.1).

One profiler, :class:`ChunkedWorkloadProfiler`, folds a dynamic trace
into a :class:`repro.core.profile.WorkloadProfile` one columnar chunk
at a time, almost entirely with vectorized numpy.  A materialized trace
is profiled as one chunk (:class:`WorkloadProfiler`,
:func:`profile_trace`); a native run streams its chunks straight in
(:func:`profile_program`), so a long run is profiled without its trace
ever existing.  Any split of a trace into chunks gives the profile of
one feed.

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
    """Profiles a materialized trace: one feed of the chunk-fed profiler."""

    def __init__(self, footprint_granularity=4):
        self.footprint_granularity = footprint_granularity

    def profile(self, trace):
        """Characterize one dynamic trace into a WorkloadProfile."""
        profiler = ChunkedWorkloadProfiler(trace.program,
                                           self.footprint_granularity)
        with span("core.profiler"):
            profiler.feed(trace.pcs, trace.addrs, trace.taken)
            return profiler.finish()


def _detect_store_aliases(profile):
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


def _mean_run_length(mask):
    """Average length of maximal runs of True in a boolean array."""
    if len(mask) == 0 or not mask.any():
        return 1.0
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(np.int8))
    run_starts = np.nonzero(edges == 1)[0]
    run_ends = np.nonzero(edges == -1)[0]
    return float(np.mean(run_ends - run_starts))


def _per_pc(pcs, values):
    """``(pc, values of that pc in dynamic order)`` per distinct pc,
    ascending by pc."""
    if not len(pcs):
        return
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_values = values[order]
    bounds = (np.nonzero(np.diff(sorted_pcs))[0] + 1).tolist()
    for start, end in zip([0] + bounds, bounds + [len(sorted_pcs)]):
        yield int(sorted_pcs[start]), sorted_values[start:end]


class _StrideStream:
    """One static memop's running stride statistics (Section 3.1.4).

    ``values`` holds the distinct address deltas in ascending order,
    ``counts`` how often each occurs and ``runs`` how many maximal runs
    of it the delta sequence has.
    """

    __slots__ = ("count", "first", "last", "low", "high", "prev_delta",
                 "local", "values", "counts", "runs")

    def __init__(self, address):
        self.count = 0
        self.first = self.last = self.low = self.high = address
        self.prev_delta = None
        self.local = 0
        self.values = self.counts = self.runs = np.zeros(0, dtype=np.int64)

    def extend(self, addresses):
        """Fold this memop's next ``addresses``, in dynamic order."""
        deltas = (np.diff(addresses, prepend=self.last) if self.count
                  else np.diff(addresses))
        self.count += len(addresses)
        self.last = int(addresses[-1])
        self.low = min(self.low, int(addresses.min()))
        self.high = max(self.high, int(addresses.max()))
        if not len(deltas):
            return
        self.local += int(np.count_nonzero(np.abs(deltas) <= 32))
        # A run of delta d starts wherever d differs from the delta
        # before it (the carried one across a chunk seam).
        run_start = np.empty(len(deltas), dtype=bool)
        run_start[0] = (self.prev_delta is None
                        or int(deltas[0]) != self.prev_delta)
        np.not_equal(deltas[1:], deltas[:-1], out=run_start[1:])
        self.prev_delta = int(deltas[-1])
        values, inverse, counts = np.unique(
            deltas, return_inverse=True, return_counts=True)
        runs = np.bincount(inverse[run_start], minlength=len(values))
        if len(self.values):
            # Each side's values are distinct, so each scatter below
            # writes any merged slot at most once.
            merged, where = np.unique(
                np.concatenate([self.values, values]), return_inverse=True)
            old, new = where[:len(self.values)], where[len(self.values):]
            total_counts = np.zeros(len(merged), dtype=np.int64)
            total_runs = np.zeros(len(merged), dtype=np.int64)
            total_counts[old] = self.counts
            total_counts[new] += counts
            total_runs[old] = self.runs
            total_runs[new] += runs
            values, counts, runs = merged, total_counts, total_runs
        self.values, self.counts, self.runs = values, counts, runs

    def stats(self, pc, is_store):
        """``(MemOpStats, references its dominant stride covers)``."""
        if self.count == 1:
            return MemOpStats(
                pc=pc, is_store=is_store, count=1, dominant_stride=0,
                coverage=1.0, mean_stream_length=1.0, distinct_strides=0,
                footprint_bytes=4, first_address=self.first,
                last_address=self.first), 1
        # Dominant delta: highest dynamic count, smallest value on ties.
        best = int(np.argmax(self.counts))
        dominant_count = int(self.counts[best])
        return MemOpStats(
            pc=pc, is_store=is_store, count=self.count,
            dominant_stride=int(self.values[best]),
            coverage=(dominant_count + 1) / self.count,
            mean_stream_length=dominant_count / int(self.runs[best]),
            distinct_strides=len(self.values),
            footprint_bytes=self.high - self.low + 4,
            first_address=self.first, last_address=self.last,
            local_fraction=self.local / (self.count - 1)), \
            dominant_count + 1


class ChunkedWorkloadProfiler:
    """The profiler: feed columnar trace chunks, finish a profile.

    A sink for :func:`repro.sim.native.stream_trace`, and the engine
    behind :class:`WorkloadProfiler`, which feeds a materialized trace
    whole.  Every attribute is a per-chunk update plus carried state:

    * SFG visits/transitions/contexts — carried last block + open
      context key; per-context visits and dependence histograms keyed
      by the raw ``(pred+1)*n_blocks+succ`` key;
    * dependency distances — carried last *global* write position per
      register; the closest preceding write for a read is either in
      the same chunk or that carry, so a per-chunk ``searchsorted``
      with the carry prepended gives the answer of one feed;
    * per-memop strides — a :class:`_StrideStream` per pc; cross-chunk
      deltas come from its carried last address and delta;
    * per-branch behaviour — per-pc running (count, taken count,
      transition count, last outcome);
    * data footprint — the sorted distinct touched granules.

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
        # ctx key -> int64[1 + NUM_DEP_BUCKETS]: visits, then the
        # context's dependence-distance histogram.
        self._contexts = {}
        self._last_block = -1   # predecessor for the next visit
        self._current_key = None  # context key of the open visit
        self._last_write = {}   # register -> last global write position
        self._mem = {}          # pc -> _StrideStream
        self._branches = {}     # pc -> [count, taken, transitions, last]
        # Distinct granules: a sorted merged array, plus the per-chunk
        # arrays not merged into it yet.
        self._granules = np.zeros(0, dtype=np.int64)
        self._granule_parts = []
        self._bucket_bounds = np.asarray(DEP_BUCKETS)

    # ------------------------------------------------------------------
    def feed(self, pcs, addrs, taken):
        """Fold one columnar chunk into the running profile state."""
        if not len(pcs):
            return
        tables = self.tables
        self._mix += np.bincount(tables.iclass[pcs],
                                 minlength=IClass.COUNT)
        with span("core.profiler.sfg_build"):
            keys, visits, ctx_of_instr = self._feed_flow(tables, pcs)
        with span("core.profiler.dependencies"):
            hist = self._feed_dependencies(tables, pcs, len(keys),
                                           ctx_of_instr)
        for key, row in zip(keys.tolist(), np.column_stack([visits, hist])):
            stats = self._contexts.get(key)
            if stats is None:
                self._contexts[key] = row.copy()
            else:
                stats += row
        mem_mask = addrs >= 0
        with span("core.profiler.stride_mining"):
            self._feed_mem(pcs[mem_mask], addrs[mem_mask])
        branch_mask = taken >= 0
        with span("core.profiler.branches"):
            self._feed_branches(pcs[branch_mask], taken[branch_mask])
        self._n += len(pcs)

    def _feed_flow(self, tables, pcs):
        """SFG update.  Returns this chunk's sorted context keys, the
        visits each gained, and each instruction's index into them."""
        starts_mask = tables.is_block_start[pcs]
        if self._n == 0 and not bool(starts_mask[0]):
            raise ValueError(
                "streamed trace must start at a basic-block leader")
        visit_blocks = tables.block_of[pcs[starts_mask]]
        self._visit_counts += np.bincount(visit_blocks,
                                          minlength=self.n_blocks)
        preds = np.empty_like(visit_blocks)
        preds[:1] = self._last_block
        preds[1:] = visit_blocks[:-1]
        new_keys = (preds + 1) * self.n_blocks + visit_blocks
        # Visit 0 is the one open when the chunk starts.  The first
        # chunk opens a visit at once, so it has none: visit 1 stands in.
        open_key = (new_keys[0] if self._current_key is None
                    else self._current_key)
        visit_keys = np.concatenate([[open_key], new_keys])
        if len(visit_blocks):
            self._last_block = int(visit_blocks[-1])
        self._current_key = int(visit_keys[-1])
        keys, dense = np.unique(visit_keys, return_inverse=True)
        visits = np.bincount(dense[1:], minlength=len(keys))
        return keys, visits, dense[np.cumsum(starts_mask)]

    def _feed_dependencies(self, tables, pcs, n_ctx, ctx_of_instr):
        """Register producer→consumer distances, bucketed per context.

        For every architected register we collect its write positions
        (the carried last write first) and, for each read,
        searchsorted-find the closest preceding write.  Reads of the
        hardwired zero register are not dependences and are skipped.
        Returns the chunk's ``(n_ctx, NUM_DEP_BUCKETS)`` histogram.
        """
        dyn_dst = tables.dest[pcs]
        source_columns = (tables.src1[pcs], tables.src2[pcs])
        offset = self._n
        size = n_ctx * NUM_DEP_BUCKETS
        hist = np.zeros(size, dtype=np.int64)
        registers = np.unique(np.concatenate(
            [column[column > ZERO_REG] for column in source_columns]
            + [dyn_dst[dyn_dst > ZERO_REG]]))
        for register in registers.tolist():
            writes = np.nonzero(dyn_dst == register)[0]
            carry = self._last_write.get(register)
            if carry is not None:
                writes = np.concatenate([[carry - offset], writes])
            if len(writes):
                for column in source_columns:
                    reads = np.nonzero(column == register)[0]
                    slots = np.searchsorted(writes, reads) - 1
                    valid = slots >= 0
                    reads = reads[valid]
                    distances = reads - writes[slots[valid]]
                    buckets = np.searchsorted(self._bucket_bounds,
                                              distances, side="left")
                    hist += np.bincount(
                        ctx_of_instr[reads] * NUM_DEP_BUCKETS + buckets,
                        minlength=size)
                self._last_write[register] = offset + int(writes[-1])
        return hist.reshape(n_ctx, NUM_DEP_BUCKETS)

    def _feed_mem(self, mem_pcs, mem_addrs):
        if not len(mem_pcs):
            return
        self._mem_total += len(mem_pcs)
        parts = self._granule_parts
        parts.append(np.unique(mem_addrs // self.footprint_granularity))
        # Merge once the unmerged parts outgrow the merged array, so
        # merging costs no more than collecting the parts did.
        if sum(map(len, parts)) > len(self._granules):
            self._granules = np.unique(
                np.concatenate([self._granules] + parts))
            parts.clear()
        for pc, addresses in _per_pc(mem_pcs, mem_addrs):
            stream = self._mem.get(pc)
            if stream is None:
                stream = self._mem[pc] = _StrideStream(int(addresses[0]))
            stream.extend(addresses)

    def _feed_branches(self, branch_pcs, outcomes):
        self._branch_total += len(branch_pcs)
        for pc, group in _per_pc(branch_pcs, outcomes):
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
        """The completed profile of everything fed so far."""
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
        global_hist = np.zeros(NUM_DEP_BUCKETS, dtype=np.int64)
        for key in sorted(self._contexts):
            pred = key // self.n_blocks - 1
            succ = key % self.n_blocks
            visits, *hist = self._contexts[key].tolist()
            if pred >= 0:
                profile.transitions[(pred, succ)] = visits
            global_hist += self._contexts[key][1:]
            profile.contexts[(pred, succ)] = ContextStats(
                pred=pred, block=succ, visits=visits, dep_hist=hist)
        profile.global_dep_hist = global_hist.tolist()
        self._finish_mem(profile)
        for pc in sorted(self._branches):
            count, taken, transitions, _last = self._branches[pc]
            profile.branches[pc] = BranchStats(
                pc=pc, count=count, taken_rate=taken / count,
                transition_rate=(transitions / (count - 1)
                                 if count > 1 else 0.0))
        granules = np.unique(np.concatenate(
            [self._granules] + self._granule_parts))
        profile.data_footprint_bytes = (len(granules)
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
        for pc in sorted(self._mem):
            stats, covered = self._mem[pc].stats(pc, bool(is_store_of[pc]))
            profile.mem_ops[pc] = stats
            covered_refs += covered
            if stats.count >= STREAM_MIN_EXECUTIONS:
                streams += 1
        profile.stride_coverage = covered_refs / self._mem_total
        profile.unique_streams = streams
        _detect_store_aliases(profile)


def profile_trace(trace, **kwargs):
    """Profile an existing :class:`DynamicTrace`."""
    return WorkloadProfiler(**kwargs).profile(trace)


def profile_program(program, max_instructions=50_000_000, **kwargs):
    """Execute ``program`` functionally, then profile its trace.

    When the backend resolves to ``native`` (see
    :func:`repro.sim.functional.resolve_backend`) and the engine can
    take the program, execution streams columnar chunks straight into a
    :class:`ChunkedWorkloadProfiler` and the full trace is never
    materialized; the resulting profile is the same either way.
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
