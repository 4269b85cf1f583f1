"""Tests for the out-of-order timing model: sanity bounds and the
directional effects each paper design change must produce."""

from repro.isa import assemble
from repro.sim import run_program
from repro.uarch import BASE_CONFIG, simulate_pipeline
from repro.uarch.cache import CacheConfig


def straightline(n_ops=100, dependent=False, iterations=60):
    """A loop whose body is independent or serially dependent ALU work
    (looped so I-cache warmup does not dominate the measurement)."""
    lines = ["    .text", "    li r1, 1", f"    li r9, {iterations}",
             "    li r10, 0", "top:"]
    for i in range(n_ops):
        if dependent:
            lines.append("    add r2, r2, r1")
        else:
            lines.append(f"    add r{2 + (i % 6)}, r1, r1")
    lines += ["    addi r10, r10, 1", "    blt r10, r9, top", "    halt"]
    return assemble("\n".join(lines), name="straightline")


class TestSanity:
    def test_ipc_positive_and_bounded(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert 0.0 < result.ipc <= BASE_CONFIG.width

    def test_instruction_count_matches_trace(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert result.instructions == len(loop_nest_trace)

    def test_max_instructions_cap(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG,
                                   max_instructions=1000)
        assert result.instructions == 1000

    def test_class_counts_sum(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert sum(result.class_counts) == result.instructions

    def test_dcache_accesses_match_memory_ops(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert result.dcache_accesses == loop_nest_trace.summary()["memory_ops"]

    def test_branch_lookups_match(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert result.branch_lookups == loop_nest_trace.summary()["branches"]

    def test_determinism(self, loop_nest_trace):
        a = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        b = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert a.cycles == b.cycles


class TestDirectionalEffects:
    """Each of the paper's five design changes must move IPC the right way."""

    def run(self, trace, **changes):
        config = BASE_CONFIG.renamed("variant", **changes)
        return simulate_pipeline(trace, config)

    def test_wider_machine_is_faster_on_ilp_code(self):
        trace = run_program(straightline(dependent=False))
        narrow = simulate_pipeline(trace, BASE_CONFIG)
        wide = self.run(trace, width=2)
        assert wide.ipc > narrow.ipc * 1.3

    def test_width_useless_on_dependency_chain(self):
        trace = run_program(straightline(dependent=True))
        narrow = simulate_pipeline(trace, BASE_CONFIG)
        wide = self.run(trace, width=2)
        assert wide.ipc <= narrow.ipc * 1.15

    def test_bigger_rob_never_hurts(self, loop_nest_trace):
        base = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        bigger = self.run(loop_nest_trace, rob_size=32, lsq_size=16)
        assert bigger.ipc >= base.ipc * 0.999

    def test_smaller_l1d_never_helps(self, loop_nest_trace):
        base = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        smaller = self.run(loop_nest_trace,
                           l1d=CacheConfig(8 * 1024, 2, 32))
        assert smaller.ipc <= base.ipc * 1.001

    def test_nottaken_predictor_hurts_loops(self, loop_nest_trace):
        base = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        worse = self.run(loop_nest_trace, predictor="nottaken")
        assert worse.ipc < base.ipc

    def test_in_order_never_faster(self, loop_nest_trace):
        base = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        in_order = self.run(loop_nest_trace, in_order=True)
        assert in_order.ipc <= base.ipc * 1.001

    def test_slower_memory_hurts(self, loop_nest_trace):
        fast = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        slow = self.run(loop_nest_trace, memory_latency=200)
        assert slow.ipc < fast.ipc

    def test_bigger_mispredict_penalty_hurts(self, loop_nest_trace):
        base = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        worse = self.run(loop_nest_trace, mispredict_penalty=30,
                         predictor="nottaken")
        mild = self.run(loop_nest_trace, predictor="nottaken")
        assert worse.ipc < mild.ipc <= base.ipc


class TestConfig:
    def test_base_matches_paper_table2(self):
        assert BASE_CONFIG.width == 1
        assert BASE_CONFIG.rob_size == 16
        assert BASE_CONFIG.lsq_size == 8
        assert BASE_CONFIG.fetch_queue == 8
        assert BASE_CONFIG.n_int_alu == 2
        assert BASE_CONFIG.n_fp_mul == 1
        assert BASE_CONFIG.n_fp_alu == 1
        assert BASE_CONFIG.l1i.size == 16 * 1024 and BASE_CONFIG.l1i.ways == 2
        assert BASE_CONFIG.l1d.size == 16 * 1024
        assert BASE_CONFIG.l2.size == 64 * 1024 and BASE_CONFIG.l2.ways == 4
        assert BASE_CONFIG.memory_latency == 40
        assert BASE_CONFIG.predictor == "gap"
        assert not BASE_CONFIG.in_order

    def test_renamed_does_not_mutate(self):
        variant = BASE_CONFIG.renamed("x", width=4)
        assert BASE_CONFIG.width == 1
        assert variant.width == 4
        assert variant.name == "x"

    def test_design_changes_list(self):
        from repro.uarch import DESIGN_CHANGES
        names = [config.name for config in DESIGN_CHANGES]
        assert names == ["2x-rob-lsq", "half-l1d", "2x-width",
                         "nottaken-bpred", "in-order"]
        by_name = {config.name: config for config in DESIGN_CHANGES}
        assert by_name["2x-rob-lsq"].rob_size == 32
        assert by_name["half-l1d"].l1d.size == 8 * 1024
        assert by_name["2x-width"].width == 2
        assert by_name["nottaken-bpred"].predictor == "nottaken"
        assert by_name["in-order"].in_order

    def test_cache_sweep_is_28_unique(self):
        from repro.uarch import CACHE_SWEEP
        assert len(CACHE_SWEEP) == 28
        assert len({config.label() for config in CACHE_SWEEP}) == 28
        assert CACHE_SWEEP[0].size == 256 and CACHE_SWEEP[0].ways == 1
        sizes = {config.size for config in CACHE_SWEEP}
        assert min(sizes) == 256 and max(sizes) == 16 * 1024


class TestTelemetry:
    def test_stall_counters_present_and_consistent(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert result.rob_stalls >= 0
        assert result.lsq_stalls >= 0
        assert result.fetch_queue_stalls >= 0
        assert result.redirect_cycles >= 0
        # Redirect stalls come from mispredictions; no mispredicts on a
        # trace means no redirect cycles.
        if result.branch_mispredictions == 0:
            assert result.redirect_cycles == 0

    def test_smaller_rob_stalls_more(self, loop_nest_trace):
        roomy = simulate_pipeline(
            loop_nest_trace, BASE_CONFIG.renamed("roomy", rob_size=256))
        tight = simulate_pipeline(
            loop_nest_trace, BASE_CONFIG.renamed("tight", rob_size=4))
        assert tight.rob_stalls >= roomy.rob_stalls

    def test_simulated_mips_measured(self, loop_nest_trace):
        result = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        assert result.wall_seconds > 0.0
        assert result.simulated_mips > 0.0

    def test_simulated_mips_zero_without_wall_time(self):
        from repro.uarch.pipeline import PipelineResult
        result = PipelineResult(config=BASE_CONFIG, instructions=100,
                                cycles=100)
        assert result.simulated_mips == 0.0
