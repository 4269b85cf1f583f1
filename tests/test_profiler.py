"""Tests for the microarchitecture-independent profiler (paper Sec. 3.1)."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import profile_program, profile_trace
from repro.core.profile import DEP_BUCKETS, NUM_DEP_BUCKETS, dep_bucket
from repro.core.profiler import ChunkedWorkloadProfiler
from repro.isa import assemble
from repro.sim import run_program
from repro.workloads import build_workload


def profile_of(body, data=""):
    source = ""
    if data:
        source += "    .data\n" + data + "\n"
    source += "    .text\n" + body + "\n    halt\n"
    return profile_program(assemble(source))


class TestBuckets:
    def test_bucket_edges(self):
        assert dep_bucket(1) == 0
        assert dep_bucket(2) == 1
        assert dep_bucket(3) == 2
        assert dep_bucket(4) == 2
        assert dep_bucket(6) == 3
        assert dep_bucket(8) == 4
        assert dep_bucket(16) == 5
        assert dep_bucket(32) == 6
        assert dep_bucket(33) == 7
        assert dep_bucket(10_000) == 7

    def test_bucket_count(self):
        assert NUM_DEP_BUCKETS == len(DEP_BUCKETS) + 1


class TestGlobalCounts:
    def test_totals(self, loop_nest_trace, loop_nest_profile):
        summary = loop_nest_trace.summary()
        assert loop_nest_profile.total_instructions == summary["instructions"]
        assert loop_nest_profile.total_memory_ops == summary["memory_ops"]
        assert loop_nest_profile.total_branches == summary["branches"]

    def test_mix_sums_to_total(self, loop_nest_profile):
        assert sum(loop_nest_profile.global_mix) \
            == loop_nest_profile.total_instructions

    def test_mix_fractions_sum_to_one(self, loop_nest_profile):
        assert sum(loop_nest_profile.mix_fractions()) == pytest.approx(1.0)

    def test_mean_block_size(self, loop_nest_profile):
        size = loop_nest_profile.mean_basic_block_size()
        assert 1.0 < size < 20.0


class TestFlowGraph:
    def test_block_visits_match_dynamics(self, loop_nest_profile):
        # Inner loop body runs 40 * 64 times.
        inner = [stats for stats in loop_nest_profile.blocks.values()
                 if stats.visits >= 2560 and stats.mem_pcs]
        assert inner, "inner loop block not found"

    def test_transition_counts_conserve_visits(self, loop_nest_profile):
        for bid, stats in loop_nest_profile.blocks.items():
            outgoing = sum(count for (pred, _), count
                           in loop_nest_profile.transitions.items()
                           if pred == bid)
            # Every visit except possibly the last has a successor.
            assert outgoing in (stats.visits, stats.visits - 1)

    def test_context_visits_sum_to_block_visits(self, loop_nest_profile):
        for bid, stats in loop_nest_profile.blocks.items():
            ctx_total = sum(ctx.visits for (_, block), ctx
                            in loop_nest_profile.contexts.items()
                            if block == bid)
            assert ctx_total == stats.visits

    def test_block_mix_matches_static_block(self, loop_nest_profile,
                                            loop_nest_program):
        for bid, stats in loop_nest_profile.blocks.items():
            block = loop_nest_program.basic_blocks()[bid]
            assert sum(stats.mix) == block.size

    def test_hot_blocks_ordering(self, loop_nest_profile):
        hot = loop_nest_profile.hot_blocks()
        weights = [loop_nest_profile.blocks[bid].visits
                   * loop_nest_profile.blocks[bid].size for bid in hot]
        assert weights == sorted(weights, reverse=True)
        assert loop_nest_profile.hot_blocks(limit=2) == hot[:2]


class TestDependencies:
    def test_simple_chain_distance_one(self):
        profile = profile_of("""
    li r1, 1
    li r2, 1000
loop:
    add r3, r1, r1
    add r4, r3, r3
    add r5, r4, r4
    addi r1, r1, 1
    blt r1, r2, loop""")
        fractions = profile.dep_fractions()
        assert fractions[0] > 0.5  # mostly distance-1 chains

    def test_long_distance_detected(self):
        body = ["    li r1, 1", "    li r2, 500", "loop:",
                "    add r3, r1, r0"]
        body += ["    add r4, r4, r4"] * 40
        body += ["    add r5, r3, r0",  # reads r3 written 41 earlier
                 "    addi r1, r1, 1", "    blt r1, r2, loop"]
        profile = profile_of("\n".join(body))
        assert profile.global_dep_hist[NUM_DEP_BUCKETS - 1] > 400

    def test_r0_reads_are_not_dependences(self):
        profile = profile_of("""
    li r1, 1
    li r2, 300
loop:
    add r3, r0, r0
    addi r1, r1, 1
    blt r1, r2, loop""")
        # Only r1 and the branch create dependences; r0 reads never do.
        # add r3, r0, r0 contributes nothing.
        hist = profile.global_dep_hist
        assert sum(hist) < 3 * 300


class TestStrides:
    def test_pure_stream_stride(self):
        profile = profile_of("""
    la r4, buf
    li r1, 0
    li r2, 200
loop:
    lw r3, 0(r4)
    addi r4, r4, 4
    addi r1, r1, 1
    blt r1, r2, loop""", data="buf: .space 1024")
        loads = [m for m in profile.mem_ops.values() if not m.is_store]
        assert len(loads) == 1
        stats = loads[0]
        assert stats.dominant_stride == 4
        assert stats.coverage > 0.99
        assert stats.count == 200
        assert profile.stride_coverage > 0.99

    def test_stride_zero_constant_address(self):
        profile = profile_of("""
    la r4, buf
    li r1, 0
    li r2, 100
loop:
    lw r3, 0(r4)
    addi r1, r1, 1
    blt r1, r2, loop""", data="buf: .word 7")
        stats = [m for m in profile.mem_ops.values() if not m.is_store][0]
        assert stats.dominant_stride == 0
        assert stats.footprint_bytes == 4

    def test_negative_stride(self):
        profile = profile_of("""
    la r4, buf
    addi r4, r4, 396
    li r1, 0
    li r2, 100
loop:
    lw r3, 0(r4)
    addi r4, r4, -4
    addi r1, r1, 1
    blt r1, r2, loop""", data="buf: .space 400")
        stats = [m for m in profile.mem_ops.values() if not m.is_store][0]
        assert stats.dominant_stride == -4

    def test_stream_reset_mean_length(self):
        # Walk 10 elements, reset, repeat: mean run length ~10.
        profile = profile_of("""
    li r1, 0
    li r2, 50
outer:
    la r4, buf
    li r5, 0
    li r6, 10
inner:
    lw r3, 0(r4)
    addi r4, r4, 4
    addi r5, r5, 1
    blt r5, r6, inner
    addi r1, r1, 1
    blt r1, r2, outer""", data="buf: .space 64")
        stats = [m for m in profile.mem_ops.values() if not m.is_store][0]
        assert 8.0 <= stats.mean_stream_length <= 10.0
        assert stats.coverage < 1.0  # resets break perfect coverage

    def test_alias_detection_rmw(self, loop_nest_profile):
        stores = [m for m in loop_nest_profile.mem_ops.values()
                  if m.is_store]
        assert any(store.alias_of >= 0 for store in stores)
        for store in stores:
            if store.alias_of >= 0:
                partner = loop_nest_profile.mem_ops[store.alias_of]
                assert not partner.is_store
                assert partner.dominant_stride == store.dominant_stride

    def test_local_fraction_for_dense_walk(self):
        profile = profile_of("""
    la r4, buf
    li r1, 0
    li r2, 200
loop:
    lw r3, 0(r4)
    addi r4, r4, 4
    addi r1, r1, 1
    blt r1, r2, loop""", data="buf: .space 1024")
        stats = [m for m in profile.mem_ops.values() if not m.is_store][0]
        assert stats.local_fraction > 0.99


class TestBranchStats:
    def test_loop_branch_rates(self):
        profile = profile_of("""
    li r1, 0
    li r2, 100
loop:
    addi r1, r1, 1
    blt r1, r2, loop""")
        stats = list(profile.branches.values())[0]
        assert stats.count == 100
        assert stats.taken_rate == pytest.approx(0.99)
        # One transition at loop exit over 99 boundaries.
        assert stats.transition_rate == pytest.approx(1 / 99)

    def test_alternating_branch(self):
        profile = profile_of("""
    li r1, 0
    li r2, 200
loop:
    andi r3, r1, 1
    beq r3, r0, skip
skip:
    addi r1, r1, 1
    blt r1, r2, loop""")
        parity = [stats for stats in profile.branches.values()
                  if 0.4 < stats.taken_rate < 0.6][0]
        assert parity.transition_rate > 0.99

    def test_data_footprint(self, loop_nest_profile, loop_nest_trace):
        assert loop_nest_profile.data_footprint_bytes \
            == 4 * loop_nest_trace.data_footprint(4)


class TestProfileTraceEquivalence:
    def test_profile_trace_matches_profile_program(self, loop_nest_program,
                                                   loop_nest_trace,
                                                   loop_nest_profile):
        direct = profile_trace(run_program(loop_nest_program))
        assert direct.to_dict() == loop_nest_profile.to_dict()


class TestProfilerReentrancy:
    def test_one_instance_profiles_many_traces(self, loop_nest_program,
                                               sum_program):
        # Regression: the profiler once stashed per-trace context tables
        # on ``self``, so a second ``profile()`` call could read state
        # left over from the first trace.  One instance interleaving two
        # workloads must match fresh single-use profilers exactly.
        from repro.core import WorkloadProfiler
        traces = [run_program(loop_nest_program),
                  run_program(sum_program)]
        expected = [WorkloadProfiler().profile(trace).to_dict()
                    for trace in traces]
        shared = WorkloadProfiler()
        for _ in range(2):  # interleave: A, B, A, B
            for trace, fresh in zip(traces, expected):
                assert shared.profile(trace).to_dict() == fresh


# ----------------------------------------------------------------------
# Chunk splits: any split of a trace (the first chunk starting at the
# entry) profiles equal to one feed, field for field
# ----------------------------------------------------------------------
#: Corpus kernels whose traces the split property runs over: loops,
#: calls, tables and data-dependent branches between them.
SPLIT_KERNELS = ("typeset", "rsynth", "crc32", "qsort", "dijkstra")


@functools.lru_cache(maxsize=None)
def corpus_trace(name):
    return run_program(build_workload(name))


def profile_in_chunks(trace, cuts):
    """Feed ``trace`` split at the positions ``cuts``."""
    profiler = ChunkedWorkloadProfiler(trace.program)
    bounds = [0, *sorted(set(cuts)), len(trace)]
    for start, end in zip(bounds, bounds[1:]):
        profiler.feed(trace.pcs[start:end], trace.addrs[start:end],
                      trace.taken[start:end])
    return profiler.finish()


def assert_same_fields(split, whole):
    split, whole = split.to_dict(), whole.to_dict()
    assert split.keys() == whole.keys()
    for field in whole:
        assert split[field] == whole[field], field


def split_points(length):
    return st.lists(st.integers(1, max(1, length - 1)), max_size=40)


@st.composite
def straight_line_programs(draw):
    """A countdown loop around a random straight-line body: ALU work on
    r0-r8 and word loads/stores at random offsets from ``r20``, which
    advances by a random stride each iteration."""
    lines = ["    .data", "buf:    .word 0", "    .space 8192", "    .text",
             "main:", "    la   r20, buf", "    addi r20, r20, 4096",
             f"    li   r21, {draw(st.integers(1, 40))}", "loop:"]
    registers = st.integers(0, 8)
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["r3", "r3", "r2i", "lw", "sw"]))
        rd, rs1, rs2 = draw(registers), draw(registers), draw(registers)
        offset = 4 * draw(st.integers(-64, 64))
        if kind == "r3":
            opcode = draw(st.sampled_from(["add", "sub", "xor", "mul"]))
            lines.append(f"    {opcode} r{rd}, r{rs1}, r{rs2}")
        elif kind == "r2i":
            lines.append(f"    addi r{rd}, r{rs1}, {offset}")
        else:
            register = rd if kind == "lw" else rs2
            lines.append(f"    {kind} r{register}, {offset}(r20)")
    stride = draw(st.sampled_from([0, 4, 8, -4, 12, 64]))
    lines += [f"    addi r20, r20, {stride}", "    addi r21, r21, -1",
              "    bne  r21, r0, loop", "    halt"]
    return assemble("\n".join(lines), name="straight_line")


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(SPLIT_KERNELS), data=st.data())
def test_corpus_chunk_splits_equal_one_feed(name, data):
    trace = corpus_trace(name)
    cuts = data.draw(split_points(len(trace)))
    assert_same_fields(profile_in_chunks(trace, cuts),
                       profile_trace(trace))


@settings(max_examples=60, deadline=None)
@given(program=straight_line_programs(), data=st.data())
def test_generated_chunk_splits_equal_one_feed(program, data):
    trace = run_program(program)
    cuts = data.draw(split_points(len(trace)))
    assert_same_fields(profile_in_chunks(trace, cuts),
                       profile_trace(trace))
