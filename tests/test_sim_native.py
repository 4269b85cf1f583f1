"""Native functional engine: the backend contract and its consumers.

The C-compiled engine (``repro.sim.native``) promises *bit-identity*
with the reference interpreter.  This suite enforces the whole
contract, native against interp:

* identical trace arrays, final registers, memory images, and retired
  counts on all 23 corpus kernels and a synthesized clone;
* identical ``SimulationError`` semantics — the instruction cap,
  memory range errors, and pc-out-of-range context;
* identical heartbeat telemetry, including the edge case where the
  heartbeat boundary coincides with ``max_instructions``;
* backend resolution: ``auto`` picks native when the engine can take
  the program and the interpreter otherwise (tiny programs,
  ``REPRO_NATIVE=0``, no C compiler, untranslatable programs), and an
  explicit ``native`` request still runs, on the interpreter, wherever
  no engine can be built.

It also covers translation gating, engine caching, chunked emission,
and chunked-vs-materialized digest/profile parity.
"""

import io
import json
import subprocess

import numpy as np
import pytest

from repro.core.profiler import (
    ChunkedWorkloadProfiler,
    WorkloadProfiler,
    profile_program,
)
from repro.isa import assemble
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.native import toolchain
from repro.obs import logging as obslog
from repro.sim import (
    BACKENDS,
    FunctionalSimulator,
    SimulationError,
    functional,
    native,
    resolve_backend,
    run_program,
)
from repro.sim.functional import AUTO_MIN_STATIC
from repro.sim.trace import TraceRef
from repro.uarch import BASE_CONFIG
from repro.uarch.sweep import (
    StreamingDigestBuilder,
    acquire_trace_digest,
    simulate_pipeline_sweep,
    trace_digest,
)
from repro.workloads import build_workload, workload_names

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no working C toolchain")

KERNELS = workload_names()

#: The compiled backends this host can differentially test against the
#: interpreter: ``native`` when a C compiler is present, else none.
DIFF_BACKENDS = ["native"] if native.available() else []


def _run(program, backend, max_instructions=5_000_000, trace=True):
    simulator = FunctionalSimulator(program, backend=backend)
    result = simulator.run(max_instructions=max_instructions, trace=trace)
    return simulator, result


def assert_equivalent(program, backend, max_instructions=5_000_000):
    """Run interp + ``backend`` and compare every architected observable."""
    interp, interp_trace = _run(program, "interp", max_instructions)
    fast, fast_trace = _run(program, backend, max_instructions)
    assert np.array_equal(interp_trace.pcs, fast_trace.pcs)
    assert np.array_equal(interp_trace.addrs, fast_trace.addrs)
    assert np.array_equal(interp_trace.taken, fast_trace.taken)
    assert interp.regs == fast.regs
    assert bytes(interp.memory.data) == bytes(fast.memory.data)
    assert interp.instructions_executed == fast.instructions_executed
    assert interp.halted and fast.halted


LOOP_SOURCE = """
    .text
    li r5, 200
    li r6, 0
loop:
    addi r6, r6, 3
    addi r5, r5, -1
    bne r5, r0, loop
    halt
"""


def loop_program():
    return assemble(LOOP_SOURCE, name="native-loop")


class TestTranslationGate:
    def test_corpus_kernel_translatable(self):
        assert native.translatable(build_workload("fft"))

    def test_gate_result_cached_on_columns(self):
        program = loop_program()
        assert native.translatable(program)
        from repro.isa.columns import columns_for
        assert columns_for(program).derived["native_sim_ok"] is True

    def test_static_size_gate(self, monkeypatch):
        monkeypatch.setattr(native, "MAX_STATIC", 3)
        assert not native._translatable(loop_program())

    def test_fp_register_as_int_operand_rejected(self):
        # Hand-built addi whose source is an FP register: no C template
        # exists for the mixed-file form, so the program is rejected.
        from repro.isa import Instruction, Program
        program = Program(
            [Instruction("addi", rd=5, rs1=40, imm=1),
             Instruction("halt")], name="mixed-files")
        assert not native._translatable(program)


@needs_native
class TestGeneratedSource:
    def test_deterministic(self):
        program = loop_program()
        assert native.generate_source(program) \
            == native.generate_source(program)

    def test_shape(self):
        source = native.generate_source(loop_program())
        assert "int64_t repro_sim_run" in source
        assert "dispatch:" in source
        # One dispatch case and one body label per static instruction.
        n = len(loop_program().instructions)
        for pc in range(n):
            assert f"case {pc}: goto I{pc};" in source
            assert f"I{pc}:" in source


@needs_native
class TestEngineCache:
    def test_engine_cached_per_program(self):
        program = loop_program()
        first = native.engine_for(program)
        assert first is not None
        assert native.engine_for(program) is first

    def test_gated_off_means_no_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            assert not native.available()
            assert native.engine_for(loop_program()) is None
        finally:
            native.reset()


@needs_native
class TestStreaming:
    def test_chunked_stream_concatenates_to_run_trace(self):
        program = build_workload("adpcm")
        reference = run_program(program, backend="interp")
        chunks = []
        simulator = FunctionalSimulator(program, backend="native")
        executed = native.stream_trace(
            simulator, 5_000_000,
            lambda pcs, addrs, taken: chunks.append(
                (pcs.copy(), addrs.copy(), taken.copy())),
            chunk_events=997)
        assert executed == len(reference)
        assert len(chunks) > 1  # the chunk size actually chunked
        assert all(len(pcs) <= 997 for pcs, _, _ in chunks)
        np.testing.assert_array_equal(
            np.concatenate([pcs for pcs, _, _ in chunks]), reference.pcs)
        np.testing.assert_array_equal(
            np.concatenate([addrs for _, addrs, _ in chunks]),
            reference.addrs)
        np.testing.assert_array_equal(
            np.concatenate([taken for _, _, taken in chunks]),
            reference.taken)

    def test_streamed_digest_matches_materialized(self):
        program = build_workload("qsort")
        trace = run_program(program, backend="interp")
        reference = trace_digest(trace, store=None)
        builder = StreamingDigestBuilder(program)
        step = 1013
        for start in range(0, len(trace), step):
            builder.feed(trace.pcs[start:start + step],
                         trace.addrs[start:start + step],
                         trace.taken[start:start + step])
        streamed = builder.finish()
        assert isinstance(streamed.trace, TraceRef)
        assert streamed.trace.content_digest() == trace.content_digest()
        for name in ("b_pos", "b_pcs", "b_taken", "m_pos", "m_addrs",
                     "pcs"):
            np.testing.assert_array_equal(getattr(streamed, name),
                                          getattr(reference, name),
                                          err_msg=name)

    def test_acquired_digest_times_identically(self):
        program = build_workload("crc32")
        trace = run_program(program, backend="interp")
        [reference] = simulate_pipeline_sweep(trace, [BASE_CONFIG])
        digest = acquire_trace_digest(program)
        assert isinstance(digest.trace, TraceRef)
        [result] = simulate_pipeline_sweep(digest.trace, [BASE_CONFIG])
        expected = dict(vars(reference))
        got = dict(vars(result))
        expected.pop("wall_seconds", None)
        got.pop("wall_seconds", None)
        assert got == expected

    def test_profile_program_streams_and_matches(self):
        program = build_workload("susan")
        trace = run_program(program, backend="interp")
        reference = WorkloadProfiler().profile(trace)
        streamed = profile_program(program)
        assert streamed.to_dict() == reference.to_dict()


class TestChunkedProfilerUnit:
    def test_rejects_mid_block_start(self, loop_nest_trace):
        profiler = ChunkedWorkloadProfiler(loop_nest_trace.program)
        with pytest.raises(ValueError, match="block leader"):
            profiler.feed(loop_nest_trace.pcs[1:],
                          loop_nest_trace.addrs[1:],
                          loop_nest_trace.taken[1:])

    @pytest.mark.parametrize("step", [1, 7, 97, 10_000_000])
    def test_chunked_equals_one_pass(self, loop_nest_trace, step):
        reference = WorkloadProfiler().profile(loop_nest_trace)
        profiler = ChunkedWorkloadProfiler(loop_nest_trace.program)
        for start in range(0, len(loop_nest_trace), step):
            profiler.feed(loop_nest_trace.pcs[start:start + step],
                          loop_nest_trace.addrs[start:start + step],
                          loop_nest_trace.taken[start:start + step])
        assert profiler.finish().to_dict() == reference.to_dict()


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_explicit_choices_pass_through(self):
        assert resolve_backend("interp") == "interp"
        assert resolve_backend("native") == "native"

    def test_env_var_consulted_when_unset(self):
        assert resolve_backend(None, environ={"REPRO_SIM_BACKEND":
                                              "interp"}) == "interp"
        assert resolve_backend(None, environ={"REPRO_SIM_BACKEND":
                                              " NATIVE "}) == "native"

    def test_auto_resolution_order_for_real_programs(self):
        # Native when the engine can take the program, else interp.
        program = build_workload("crc32")
        expected = "native" if native.usable(program) else "interp"
        assert resolve_backend("auto", program) == expected
        assert resolve_backend(None, program, environ={}) == expected

    @needs_native
    def test_auto_picks_native_for_every_corpus_program(self):
        # Trace artifact keys carry the resolved backend, so this pins
        # the keys of every corpus trace on a host with a compiler.
        for name in KERNELS:
            assert resolve_backend(None, build_workload(name)) == "native"

    def test_auto_falls_back_to_interp_when_native_gated_off(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            program = build_workload("crc32")
            assert resolve_backend("auto", program) == "interp"
        finally:
            native.reset()

    def test_auto_keeps_tiny_programs_on_the_interpreter(self):
        tiny = assemble("    .text\nmain:\n    halt\n", name="tiny")
        assert len(tiny.instructions) < AUTO_MIN_STATIC
        assert resolve_backend("auto", tiny) == "interp"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            resolve_backend("bogus")
        with pytest.raises(ValueError, match="bogus"):
            run_program(build_workload("crc32"), backend="bogus")

    def test_backends_tuple_is_the_cli_contract(self):
        assert BACKENDS == ("auto", "native", "interp")


# ----------------------------------------------------------------------
# Graceful fallback (REPRO_NATIVE off / no C compiler / failed compile)
# ----------------------------------------------------------------------
FALLBACK_SOURCE = """
    .text
main:
    li   r5, 0
    li   r6, 200
""" + "    addi r7, r7, 1\n" * 16 + """
loop:
    addi r5, r5, 3
    blt  r5, r6, loop
    halt
"""


class TestNativeFallback:
    def test_explicit_native_runs_when_gated_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            program = assemble(FALLBACK_SOURCE, name="gated-off")
            assert not native.available()
            assert resolve_backend("auto", program) == "interp"
            assert_equivalent(program, "native")
        finally:
            native.reset()

    def test_explicit_native_runs_without_a_compiler(self, monkeypatch,
                                                     tmp_path):
        # A fresh cache dir guarantees the probe really invokes the
        # (nonexistent) compiler instead of reusing the session cache's
        # probe library.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(toolchain, "CC", ("repro-no-such-cc",))
        native.reset()
        try:
            program = assemble(FALLBACK_SOURCE, name="no-cc")
            assert not native.available()
            assert resolve_backend("auto", program) == "interp"
            assert_equivalent(program, "native")
        finally:
            native.reset()

    def test_failed_compile_falls_back(self, monkeypatch):
        # The toolchain works but this program's library does not build:
        # no engine, so the run goes to the interpreter.
        compile_cached = toolchain.compile_cached

        def failing(source, stem):
            if stem == "simfunc":
                raise subprocess.CalledProcessError(1, "cc")
            return compile_cached(source, stem)

        monkeypatch.setattr(toolchain, "compile_cached", failing)
        program = assemble(FALLBACK_SOURCE, name="failed-compile")
        assert native.engine_for(program) is None
        assert_equivalent(program, "native")

    def test_untranslatable_program_falls_back(self):
        # A hand-built program the translator rejects (integer opcode
        # reading an FP register) still runs under backend=native.
        instructions = [Instruction("addi", rd=5, rs1=40, imm=1)
                        for _ in range(AUTO_MIN_STATIC + 1)]
        instructions.append(Instruction("halt"))
        program = Program(instructions, name="untranslatable")
        assert not native.translatable(program)
        assert resolve_backend("auto", program) == "interp"
        simulator, _ = _run(program, "native")
        assert simulator.halted


# ----------------------------------------------------------------------
# Corpus-wide differential equivalence
# ----------------------------------------------------------------------
class TestCorpusEquivalence:
    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_bit_identical(self, name, backend):
        assert_equivalent(build_workload(name), backend)

    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    def test_clone_bit_identical(self, loop_nest_clone, backend):
        assert_equivalent(loop_nest_clone.program, backend,
                          max_instructions=2_000_000)

    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    def test_traceless_run_matches(self, loop_nest_program, backend):
        interp, interp_count = _run(loop_nest_program, "interp",
                                    trace=False)
        fast, fast_count = _run(loop_nest_program, backend, trace=False)
        assert interp_count == fast_count
        assert interp.regs == fast.regs
        assert bytes(interp.memory.data) == bytes(fast.memory.data)


# ----------------------------------------------------------------------
# Error-path equivalence
# ----------------------------------------------------------------------
def _error_from(program, backend, max_instructions=5_000_000):
    simulator = FunctionalSimulator(program, backend=backend)
    with pytest.raises(SimulationError) as excinfo:
        simulator.run(max_instructions=max_instructions, trace=True)
    return excinfo.value


def _same_error(program, backend, max_instructions=5_000_000):
    interp = _error_from(program, "interp", max_instructions)
    fast = _error_from(program, backend, max_instructions)
    assert str(interp) == str(fast)
    assert interp.pc == fast.pc
    assert interp.instructions == fast.instructions
    assert interp.block == fast.block
    return interp


#: Counted spin loop; ``.format(iters=N)`` sets the iteration count
#: (total retired = 2 setup + 2*N loop + 1 halt).
SPIN_SOURCE = """
    .text
main:
    li   r5, 0
    li   r6, {iters}
loop:
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
"""


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
class TestErrorEquivalence:
    @pytest.mark.parametrize("cap", [1, 2, 7, 100, 12_345])
    def test_cap_exceeded_mid_run(self, loop_nest_program, cap, backend):
        error = _same_error(loop_nest_program, backend,
                            max_instructions=cap)
        assert "instruction cap exceeded" in str(error)
        assert error.instructions == cap + 1

    def test_cap_exactly_on_loop_boundary(self, backend):
        # A 2-instruction spin loop: caps on either side of an iteration
        # boundary must each be exceeded at exactly cap + 1 retires.
        program = assemble("""
    .text
main:
    li   r5, 0
loop:
    addi r5, r5, 1
    j    loop
""", name="spin")
        for cap in (30, 31, 32):
            error = _same_error(program, backend, max_instructions=cap)
            assert error.instructions == cap + 1

    def test_cap_reached_but_not_exceeded_is_clean(self, backend):
        # A cap of exactly the program's retired count: clean completion
        # in every backend (the cap triggers only when *exceeded*).
        program = assemble(SPIN_SOURCE.format(iters=9), name="exact")
        reference, _ = _run(program, "interp")
        total = reference.instructions_executed
        for chosen in ("interp", backend):
            simulator, _ = _run(program, chosen, max_instructions=total)
            assert simulator.instructions_executed == total

    def test_memory_out_of_range(self, backend):
        program = assemble("""
    .text
main:
    lui  r5, 65535
    lw   r6, 0(r5)
    halt
""", name="oob")
        interp = _error_from(program, "interp")
        fast = _error_from(program, backend)
        assert str(interp) == str(fast)
        assert "lw out of range" in str(interp)

    def test_pc_out_of_range_via_indirect_jump(self, backend):
        program = assemble("""
    .text
main:
    li   r5, 4
    jr   r5
    halt
""", name="badjr")
        interp = _error_from(program, "interp")
        fast = _error_from(program, backend)
        assert str(interp) == str(fast)
        assert "pc out of range" in str(interp)
        assert interp.pc == fast.pc
        assert interp.instructions == fast.instructions


# ----------------------------------------------------------------------
# Heartbeat / cap interaction
# ----------------------------------------------------------------------
@pytest.fixture
def log_sink():
    from repro.obs.metrics import REGISTRY
    buffer = io.StringIO()
    old_level = obslog.current_level()
    old_stream = obslog._CONFIG.stream
    old_json = obslog._CONFIG.json_lines
    was_enabled = REGISTRY.enabled
    REGISTRY.enable()  # heartbeats are gated on telemetry being on
    obslog.configure(level=obslog.INFO, stream=buffer, json_lines=True)
    yield buffer
    obslog.configure(level=old_level, json_lines=old_json)
    obslog._CONFIG.stream = old_stream
    if not was_enabled:
        REGISTRY.disable()


def _heartbeats(buffer):
    events = []
    for line in buffer.getvalue().splitlines():
        record = json.loads(line)
        if record["event"] == "sim.heartbeat":
            events.append((record["instructions"], record["pc"]))
    return events


class TestHeartbeatEquivalence:
    @pytest.mark.parametrize("backend", ["interp"] + DIFF_BACKENDS)
    def test_heartbeat_fires_at_interval(self, log_sink, monkeypatch,
                                         backend):
        monkeypatch.setattr(functional, "HEARTBEAT_INTERVAL", 1000)
        program = assemble(SPIN_SOURCE.format(iters=4000), name="hb")
        _run(program, backend, max_instructions=10_000)
        events = _heartbeats(log_sink)
        assert events
        assert [instructions for instructions, _pc in events] == [
            1000 * (i + 1) for i in range(len(events))]

    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    def test_heartbeat_streams_identical(self, log_sink, monkeypatch,
                                         backend):
        monkeypatch.setattr(functional, "HEARTBEAT_INTERVAL", 997)
        program = assemble(SPIN_SOURCE.format(iters=5000), name="hb-diff")
        _, interp_trace = _run(program, "interp", max_instructions=500_000)
        interp_events = _heartbeats(log_sink)
        log_sink.truncate(0)
        log_sink.seek(0)
        _, fast_trace = _run(program, backend, max_instructions=500_000)
        assert _heartbeats(log_sink) == interp_events
        assert interp_events  # the run is long enough to heartbeat
        assert np.array_equal(interp_trace.pcs, fast_trace.pcs)

    @pytest.mark.parametrize("backend", ["interp"] + DIFF_BACKENDS)
    def test_heartbeat_boundary_equals_cap(self, log_sink, monkeypatch,
                                           backend):
        # next_heartbeat == max_instructions: the heartbeat at N retires
        # fires (N is within the cap), and the cap error follows at N+1.
        monkeypatch.setattr(functional, "HEARTBEAT_INTERVAL", 2000)
        program = assemble(SPIN_SOURCE.format(iters=2000), name="hb-cap")
        error = _error_from(program, backend, max_instructions=2000)
        assert error.instructions == 2001
        events = _heartbeats(log_sink)
        assert [instructions for instructions, _pc in events] == [2000]

    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    def test_heartbeat_boundary_equals_cap_identical(self, log_sink,
                                                     monkeypatch, backend):
        monkeypatch.setattr(functional, "HEARTBEAT_INTERVAL", 2000)
        program = assemble(SPIN_SOURCE.format(iters=2000),
                           name="hb-cap-diff")
        interp = _error_from(program, "interp", max_instructions=2000)
        interp_events = _heartbeats(log_sink)
        log_sink.truncate(0)
        log_sink.seek(0)
        fast = _error_from(program, backend, max_instructions=2000)
        assert str(interp) == str(fast)
        assert _heartbeats(log_sink) == interp_events


# ----------------------------------------------------------------------
# jal link-register regression (the rd=0 guard)
# ----------------------------------------------------------------------
class TestJalZeroLink:
    @pytest.mark.parametrize("backend", ["interp"] + DIFF_BACKENDS)
    def test_jal_with_rd_zero_keeps_zero_hardwired(self, backend):
        # The assembler always links jal through r31; build the rd=0
        # encoding directly, as a synthesizer bug or hand-built program
        # could.  Pad past AUTO_MIN_STATIC so the auto heuristic is moot.
        instructions = [Instruction("addi", rd=5, rs1=0, imm=7),
                        Instruction("jal", rd=0, target=2)]
        instructions += [Instruction("addi", rd=6, rs1=6, imm=1)
                         for _ in range(20)]
        instructions.append(Instruction("halt"))
        program = Program(instructions, name="jal-r0")
        simulator, _ = _run(program, backend)
        assert simulator.regs[0] == 0
        assert simulator.regs[5] == 7

    @pytest.mark.parametrize("backend", DIFF_BACKENDS)
    def test_jal_links_through_real_register(self, backend):
        program = assemble("""
    .text
main:
    jal  sub
    halt
sub:
    jr   r31
""", name="jal-link")
        interp, interp_trace = _run(program, "interp")
        fast, fast_trace = _run(program, backend)
        assert interp.regs == fast.regs
        assert interp.regs[31] == program.text_base + 4
        assert np.array_equal(interp_trace.pcs, fast_trace.pcs)
