"""Native functional engine: the backend contract and its consumers.

The native C engine (``repro.sim.native``) promises *bit-identity*
with the reference interpreter.  This suite enforces the whole
contract, native against interp:

* identical trace arrays, final registers, memory images, and retired
  counts on all 23 corpus kernels and a synthesized clone;
* identical ``SimulationError`` semantics — the instruction cap,
  memory range errors, and pc-out-of-range context;
* identical heartbeat telemetry, including the edge case where the
  heartbeat boundary coincides with ``max_instructions``;
* the same on random programs over every opcode (a hypothesis
  property), including FP edge values, the ``fcvtws`` conversion rule,
  and caps, heartbeats and chunk boundaries landing anywhere;
* backend resolution: ``auto`` picks native when the engine can take
  the program, whatever its size, and the interpreter otherwise
  (``REPRO_NATIVE=0``, no C compiler, untranslatable programs), and an
  explicit ``native`` request still runs, on the interpreter, wherever
  no engine can be built.

It also covers translation gating, the program table and its caching,
the one-compile-per-machine engine, chunked emission, and
streamed-vs-one-feed profile parity.
"""

import contextlib
import io
import json
import math
import os
import struct
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profiler import (
    ChunkedWorkloadProfiler,
    profile_program,
    profile_trace,
)
from repro.evaluation import workload_artifacts
from repro.isa import assemble
from repro.isa.instructions import OPCODES, Instruction
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


def one_feed(trace):
    """The profile of ``trace`` fed whole: the reference a stream and
    every chunk split must match."""
    profiler = ChunkedWorkloadProfiler(trace.program)
    profiler.feed(trace.pcs, trace.addrs, trace.taken)
    return profiler.finish()


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

    def test_static_size_gate(self):
        # No static-size ceiling: the engine is compiled once, so a
        # program's size costs table rows, not compile time.
        program = Program([Instruction("addi", rd=5, rs1=5, imm=1)
                           for _ in range(60_000)]
                          + [Instruction("halt")], name="large")
        assert native._translatable(program)

    def test_fp_register_as_int_operand_rejected(self):
        # Hand-built addi whose source is an FP register: the engine
        # keeps the register files apart, so the program is rejected.
        from repro.isa import Instruction, Program
        program = Program(
            [Instruction("addi", rd=5, rs1=40, imm=1),
             Instruction("halt")], name="mixed-files")
        assert not native._translatable(program)


class TestProgramTable:
    def test_rows_carry_preshaped_operands(self):
        program = Program([
            Instruction("addi", rd=0, rs1=5, imm=-1),    # r0 -> scratch
            Instruction("slli", rd=6, rs1=5, imm=33),    # shift & 31
            Instruction("lui", rd=7, imm=0x12345),       # pre-shifted
            Instruction("fadd", rd=34, rs1=33, rs2=63),  # FP rebased
            Instruction("fli", rd=40, imm=2.5),
            Instruction("jal", rd=31, target=0),         # link address
            Instruction("halt"),
        ], name="table")
        code, fimm = native._encode(
            FunctionalSimulator(program)._decoded)
        assert code.dtype == np.int32 and code.shape == (8, 6)
        assert code[0].tolist() == [0, 32, 5, 0, -1, 0]
        assert code[1, 4] == 1
        assert code[2, 4] == 0x23450000  # (0x12345 << 16) & M32
        assert code[3, 1:4].tolist() == [2, 1, 31]
        assert fimm[4] == 2.5 and code[4, 1] == 8
        assert code[5, 4] == program.text_base + 4 * 6
        assert code[7, 0] == len(native._OP_NAMES)  # the end sentinel

    def test_fixed_source_has_one_handler_per_opcode(self):
        from repro.sim.functional import _OP_IDS
        # Plus the end sentinel's.
        assert native._C_SOURCE.count("&&op_") == len(_OP_IDS) + 1
        assert "goto *handler[r->op]" in native._C_SOURCE


@needs_native
class TestEngineCache:
    def test_engine_cached_per_program(self):
        # One engine for every program; the per-program state is the
        # table cached on the shared columns.
        from repro.isa.columns import columns_for
        program = loop_program()
        first = native.engine_for(program)
        assert first is not None
        assert native.engine_for(build_workload("crc32")) is first
        _run(program, "native")
        table = columns_for(program).derived["native_sim_table"]
        _run(program, "native")
        assert columns_for(program).derived["native_sim_table"] is table

    def test_corpus_and_clones_compile_one_engine(self, monkeypatch,
                                                  tmp_path):
        programs = []
        for name in KERNELS:
            artifacts = workload_artifacts(name)
            programs += [artifacts.program, artifacts.clone.program]
        calls = []
        compile_cached = toolchain.compile_cached

        def counting(source, stem):
            calls.append(stem)
            return compile_cached(source, stem)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(toolchain, "compile_cached", counting)
        toolchain.reset()
        try:
            for program in programs:
                simulator, _ = _run(program, "native", trace=False)
                assert simulator.instructions_executed > 0
            assert calls.count("simfunc") == 1
            built = os.listdir(tmp_path / "native")
            assert len([f for f in built if f.startswith("simfunc-")]) == 1
        finally:
            monkeypatch.undo()
            toolchain.reset()

    def test_gated_off_means_no_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        toolchain.reset()
        try:
            assert not native.available()
            assert native.engine_for(loop_program()) is None
        finally:
            toolchain.reset()


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

    def test_profile_program_streams_and_matches(self):
        program = build_workload("susan")
        streamed = profile_program(program)
        reference = one_feed(run_program(program, backend="interp"))
        assert streamed.to_dict() == reference.to_dict()


def test_profile_program_honours_interp_backend(monkeypatch):
    # With REPRO_NATIVE=0 the backend resolves to interp, and profiling
    # must stay off the native engine, as every other acquisition
    # path does.
    def refuse(*args, **kwargs):
        raise AssertionError("profile_program streamed natively")
    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(native, "stream_trace", refuse)
    toolchain.reset()
    try:
        program = build_workload("crc32")
        profile = profile_program(program)
        reference = profile_trace(run_program(program))
    finally:
        toolchain.reset()
    assert profile.to_dict() == reference.to_dict()


class TestChunkedProfilerUnit:
    def test_rejects_mid_block_start(self, loop_nest_trace):
        profiler = ChunkedWorkloadProfiler(loop_nest_trace.program)
        with pytest.raises(ValueError, match="block leader"):
            profiler.feed(loop_nest_trace.pcs[1:],
                          loop_nest_trace.addrs[1:],
                          loop_nest_trace.taken[1:])

    @pytest.mark.parametrize("step", [1, 7, 97, 10_000_000])
    def test_chunked_equals_one_pass(self, loop_nest_trace, step):
        reference = one_feed(loop_nest_trace)
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

    def test_sim_backend_env_var_ignored(self, monkeypatch):
        # REPRO_NATIVE is the one engine switch; the retired
        # REPRO_SIM_BACKEND selects nothing.
        program = build_workload("crc32")
        expected = "native" if native.usable(program) else "interp"
        for value in ("interp", "native", "bogus"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", value)
            assert resolve_backend(None, program) == expected
            assert resolve_backend(None) == "interp"

    def test_auto_resolution_order_for_real_programs(self):
        # Native when the engine can take the program, else interp.
        program = build_workload("crc32")
        expected = "native" if native.usable(program) else "interp"
        assert resolve_backend("auto", program) == expected
        assert resolve_backend(None, program) == expected

    @needs_native
    def test_auto_picks_native_for_every_corpus_program(self):
        # Trace artifact keys carry the resolved backend, so this pins
        # the keys of every corpus trace on a host with a compiler.
        for name in KERNELS:
            assert resolve_backend(None, build_workload(name)) == "native"

    def test_auto_falls_back_to_interp_when_native_gated_off(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        toolchain.reset()
        try:
            program = build_workload("crc32")
            assert resolve_backend("auto", program) == "interp"
        finally:
            toolchain.reset()

    def test_auto_runs_tiny_programs_natively(self):
        tiny = assemble("    .text\nmain:\n    halt\n", name="tiny")
        expected = "native" if native.available() else "interp"
        assert resolve_backend("auto", tiny) == expected

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
        toolchain.reset()
        try:
            program = assemble(FALLBACK_SOURCE, name="gated-off")
            assert not native.available()
            assert resolve_backend("auto", program) == "interp"
            assert_equivalent(program, "native")
        finally:
            toolchain.reset()

    def test_explicit_native_runs_without_a_compiler(self, monkeypatch,
                                                     tmp_path):
        # A fresh cache dir guarantees the probe really invokes the
        # (nonexistent) compiler instead of reusing the session cache's
        # probe library.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(toolchain, "CC", ("repro-no-such-cc",))
        toolchain.reset()
        try:
            program = assemble(FALLBACK_SOURCE, name="no-cc")
            assert not native.available()
            assert resolve_backend("auto", program) == "interp"
            assert_equivalent(program, "native")
        finally:
            toolchain.reset()

    def test_failed_compile_falls_back(self, monkeypatch):
        # The toolchain works but the engine library does not build (a
        # compiler without labels-as-values, say): no engine, so the run
        # goes to the interpreter.
        compile_cached = toolchain.compile_cached

        def failing(source, stem):
            if stem == "simfunc":
                raise subprocess.CalledProcessError(1, "cc")
            return compile_cached(source, stem)

        monkeypatch.setattr(toolchain, "compile_cached", failing)
        toolchain.reset()
        try:
            program = assemble(FALLBACK_SOURCE, name="failed-compile")
            assert native.engine_for(program) is None
            assert_equivalent(program, "native")
        finally:
            monkeypatch.undo()
            toolchain.reset()

    def test_untranslatable_program_falls_back(self):
        # A hand-built program the engine rejects (FP move reading an
        # integer register) still runs under backend=native.
        instructions = [Instruction("addi", rd=5, rs1=0, imm=7),
                        Instruction("fmv", rd=40, rs1=5),
                        Instruction("halt")]
        program = Program(instructions, name="untranslatable")
        assert not native.translatable(program)
        assert resolve_backend("auto", program) == "interp"
        simulator, _ = _run(program, "native")
        assert simulator.halted
        assert simulator.regs[40] == 7


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
@contextlib.contextmanager
def _info_log():
    """JSON log lines at INFO into a buffer (INFO arms heartbeats)."""
    buffer = io.StringIO()
    old_level = obslog.current_level()
    old_stream = obslog._CONFIG.stream
    old_json = obslog._CONFIG.json_lines
    obslog.configure(level=obslog.INFO, stream=buffer, json_lines=True)
    try:
        yield buffer
    finally:
        obslog.configure(level=old_level, json_lines=old_json)
        obslog._CONFIG.stream = old_stream


@pytest.fixture
def log_sink():
    with _info_log() as buffer:
        yield buffer


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
        # could.
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


# ----------------------------------------------------------------------
# fcvtws: one conversion rule in both engines
# ----------------------------------------------------------------------
class TestFcvtws:
    @pytest.mark.parametrize("backend", ["interp"] + DIFF_BACKENDS)
    @pytest.mark.parametrize("value, expected", [
        (math.nan, 0),
        (math.inf, 0),
        (-math.inf, 0),
        (2.0 ** 63 + 2.0 ** 11, 0x800),   # wraps mod 2**32, no int64 cast
        (-0.0, 0),
        (2.0 ** 31, 0x80000000),
        (-(2.0 ** 31), 0x80000000),
        (-1.5, 0xFFFFFFFF),               # truncates toward zero
        (3.99, 3),
        (1e308, 0),
    ])
    def test_conversion_rule(self, backend, value, expected):
        program = Program([Instruction("fli", rd=33, imm=value),
                           Instruction("fcvtws", rd=5, rs1=33),
                           Instruction("halt")], name="fcvtws")
        simulator, _ = _run(program, backend)
        assert simulator.regs[5] == expected


# ----------------------------------------------------------------------
# Every opcode over every pair of edge operands
# ----------------------------------------------------------------------
_MEM_OPCODES = {name for name, spec in OPCODES.items()
                if spec.fmt in ("load", "fload", "store", "fstore")}
_EDGE_INTS = [0, 1, 5, 31, 33, 0x80, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]
_EDGE_FLOATS = [0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, math.nan,
                1e308, 2.0 ** 31, -(2.0 ** 31), 2.0 ** 63 + 2.0 ** 11]


def _edge_program(name):
    """``name`` applied to every pair of edge operands (r1/r2 or f1/f2),
    each result stored to its own memory slot, so the final image and
    trace record every outcome."""
    fmt = OPCODES[name].fmt
    fp_in = fmt in ("f3", "f2", "fcmp", "fcvt_wf", "fstore")
    out = []
    slot = 2048

    def emit(*instructions):
        out.extend(instructions)

    def keep(reg):
        nonlocal slot
        emit(Instruction("fsw" if reg >= 32 else "sw", rs1=0, rs2=reg,
                         imm=slot))
        slot += 8

    values = _EDGE_FLOATS if fp_in else _EDGE_INTS
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if fp_in:
                emit(Instruction("fli", rd=33, imm=a),
                     Instruction("fli", rd=34, imm=b))
            else:
                for reg, value in ((1, a), (2, b)):
                    emit(Instruction("lui", rd=reg, imm=value >> 16),
                         Instruction("ori", rd=reg, rs1=reg,
                                     imm=value & 0xFFFF))
            here = len(out)
            if fmt in ("r3", "fcmp"):
                rs = (33, 34) if fp_in else (1, 2)
                emit(Instruction(name, rd=3, rs1=rs[0], rs2=rs[1]))
                keep(3)
            elif fmt == "r2i":
                imm = b - (1 << 32) if name == "slti" and b >> 31 else b
                emit(Instruction(name, rd=3, rs1=1, imm=imm))
                keep(3)
            elif fmt == "ri":
                emit(Instruction(name, rd=3, imm=b))
                keep(3)
            elif fmt in ("f3", "f2"):
                emit(Instruction(name, rd=35, rs1=33,
                                 rs2=34 if fmt == "f3" else None))
                keep(35)
            elif fmt == "fcvt_wf":
                emit(Instruction(name, rd=3, rs1=33))
                keep(3)
            elif fmt == "fcvt_fw":
                emit(Instruction(name, rd=35, rs1=1))
                keep(35)
            elif fmt == "fli":
                emit(Instruction(name, rd=35, imm=_EDGE_FLOATS[(i + j) % 11]))
                keep(35)
            elif fmt == "br":
                emit(Instruction(name, rs1=1, rs2=2, target=here + 2),
                     Instruction("addi", rd=5, rs1=5, imm=1))
            elif fmt in ("load", "fload"):
                # The pair's words at 0 and 4, then a read inside them.
                emit(Instruction("sw", rs1=0, rs2=1, imm=0),
                     Instruction("sw", rs1=0, rs2=2, imm=4),
                     Instruction(name, rd=35 if fmt == "fload" else 3,
                                 rs1=0, imm=j % 8))
                keep(35 if fmt == "fload" else 3)
            elif fmt in ("store", "fstore"):
                emit(Instruction(name, rs1=0, rs2=34 if fp_in else 2,
                                 imm=slot + i % 4))
                slot += 16
            elif fmt in ("j", "jal"):
                emit(Instruction(name, rd=3 if fmt == "jal" else None,
                                 target=here + 2),
                     Instruction("addi", rd=5, rs1=5, imm=1))
                keep(3)
            elif fmt in ("jr", "jalr"):
                # rd == rs1: the target is read before the link write.
                after = Program.text_base + 4 * (here + 5)
                emit(Instruction("lui", rd=1, imm=after >> 16),
                     Instruction("ori", rd=1, rs1=1, imm=after & 0xFFFF),
                     Instruction(name, rd=1 if fmt == "jalr" else None,
                                 rs1=1),
                     Instruction("addi", rd=5, rs1=5, imm=1),
                     Instruction("addi", rd=6, rs1=6, imm=1))
                keep(1)
    keep(5)
    emit(Instruction("halt"))
    return Program(out, name=f"edges-{name}")


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
@pytest.mark.parametrize("name", sorted(set(OPCODES) - {"halt"}))
def test_every_opcode_on_edge_operands(name, backend):
    program = _edge_program(name)
    assert native.translatable(program)
    expected = _outcome(program, bytes(8192), 100_000, None)
    assert expected[1] is None  # ran to halt
    assert _outcome(program, bytes(8192), 100_000, 4096) == expected


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
@pytest.mark.parametrize("name", sorted(_MEM_OPCODES))
def test_memory_opcode_at_every_offset_near_the_end(name, backend):
    fmt = OPCODES[name].fmt
    reg = 33 if fmt in ("fload", "fstore") else 3
    operands = ({"rs2": reg} if fmt in ("store", "fstore")
                else {"rd": reg})
    for offset in range(-2, 24):
        program = Program([Instruction(name, rs1=0, imm=64 - offset,
                                       **operands),
                           Instruction("halt")], name=f"{name}-{offset}")
        image = bytes(range(64))
        assert _outcome(program, image, 10, 1) \
            == _outcome(program, image, 10, None), offset


# ----------------------------------------------------------------------
# Differential property: random programs over every opcode
# ----------------------------------------------------------------------
#: Memory image size of a random case: small, so bounds are hit.
_MEMORY = 256

_INT_REGS = st.integers(0, 7)
_INT_DEST = st.none() | _INT_REGS
_BASE_REGS = st.sampled_from([0] * 63 + list(range(1, 8)))
_FP_REGS = st.integers(32, 39)
_INT_VALUES = st.integers(-300, 300) | st.sampled_from(
    [0x7FFFFFFF, -0x80000000, 0x1004, 0xFFFF]) \
    | st.integers(-(1 << 33), 1 << 33)
_FP_VALUES = st.sampled_from(
    [0.0, -0.0, 1.5, -2.75, math.inf, -math.inf, math.nan, 1e308,
     -1e308, 2.0 ** 31, -(2.0 ** 31), 2.0 ** 63 + 2.0 ** 11, 5e-324]) \
    | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _offsets(draw):
    """Memory offsets: mostly in bounds, some straddling either end."""
    kind = draw(st.sampled_from(["in"] * 17 + ["end", "below", "any"]))
    if kind == "end":
        return draw(st.integers(_MEMORY - 12, _MEMORY + 4))
    if kind == "below":
        return draw(st.integers(-8, -1))
    if kind == "any":
        return draw(_INT_VALUES)
    return draw(st.integers(0, _MEMORY - 8))


#: Opcodes of a random body; ``halt`` is drawn a third as often as the
#: rest so that most programs run for a while.
_BODY_OPCODES = [name for name in sorted(OPCODES) if name != "halt"] * 3 \
    + ["halt"]


@st.composite
def _random_instruction(draw, n):
    name = draw(st.sampled_from(_BODY_OPCODES))
    fmt = OPCODES[name].fmt
    target = draw(st.integers(0, n - 1))
    if fmt == "r3":
        return Instruction(name, rd=draw(_INT_DEST), rs1=draw(_INT_REGS),
                           rs2=draw(_INT_REGS))
    if fmt == "r2i":
        imm = draw(st.integers(-(1 << 31), (1 << 31) - 1)
                   if name == "slti" else _INT_VALUES)
        return Instruction(name, rd=draw(_INT_DEST), rs1=draw(_INT_REGS),
                           imm=imm)
    if fmt == "ri":
        return Instruction(name, rd=draw(_INT_DEST), imm=draw(_INT_VALUES))
    if fmt in ("f3", "f2"):
        return Instruction(name, rd=draw(_FP_REGS), rs1=draw(_FP_REGS),
                           rs2=draw(_FP_REGS) if fmt == "f3" else None)
    if fmt in ("fcmp", "fcvt_wf"):
        return Instruction(name, rd=draw(_INT_DEST), rs1=draw(_FP_REGS),
                           rs2=draw(_FP_REGS) if fmt == "fcmp" else None)
    if fmt == "fcvt_fw":
        return Instruction(name, rd=draw(_FP_REGS), rs1=draw(_INT_REGS))
    if fmt == "fli":
        return Instruction(name, rd=draw(_FP_REGS), imm=draw(_FP_VALUES))
    if fmt in ("load", "fload"):
        rd = draw(_INT_DEST if fmt == "load" else _FP_REGS)
        return Instruction(name, rd=rd, rs1=draw(_BASE_REGS),
                           imm=draw(_offsets()))
    if fmt in ("store", "fstore"):
        rs2 = draw(_INT_REGS if fmt == "store" else _FP_REGS)
        return Instruction(name, rs1=draw(_BASE_REGS), rs2=rs2,
                           imm=draw(_offsets()))
    if fmt == "br":
        return Instruction(name, rs1=draw(_INT_REGS), rs2=draw(_INT_REGS),
                           target=target)
    if fmt == "j":
        return Instruction(name, target=target)
    if fmt == "jal":
        return Instruction(name, rd=draw(_INT_DEST), target=target)
    if fmt == "jr":
        return Instruction(name, rs1=draw(_INT_REGS))
    if fmt == "jalr":
        return Instruction(name, rd=draw(_INT_DEST), rs1=draw(_INT_REGS))
    return Instruction(name)


@st.composite
def _random_case(draw):
    """A random program (some registers seeded with edge values, then
    random instructions, then maybe ``halt``) plus its initial memory
    image, cap, chunk size and heartbeat interval."""
    seeded = draw(st.lists(st.sampled_from([*range(1, 8), *range(32, 40)]),
                           unique=True, max_size=15))
    n_body = draw(st.integers(1, 60))
    n = len(seeded) + n_body + 1
    instructions = [
        Instruction("fli", rd=reg, imm=draw(_FP_VALUES)) if reg >= 32
        else Instruction("addi", rd=reg, rs1=0, imm=draw(_INT_VALUES))
        for reg in seeded]
    halts = draw(st.booleans())  # else it may run off the end
    n -= not halts
    instructions += [draw(_random_instruction(n)) for _ in range(n_body)]
    instructions += [Instruction("halt")] * halts
    program = Program(instructions, name="random")
    rng = draw(st.randoms(use_true_random=False))
    image = bytes(rng.getrandbits(8) for _ in range(_MEMORY))
    cap = draw(st.sampled_from([3000, 3000, 3000]) | st.integers(1, 3000))
    return (program, image, cap,
            draw(st.integers(1, 64)), draw(st.integers(1, 100)))


def _outcome(program, image, cap, chunk_events):
    """Every observable of one run: trace events (or the error), final
    integer registers, FP register bits, memory bytes, retired count.
    ``chunk_events=None`` runs the interpreter, else the native engine
    streaming chunks of that size."""
    simulator = FunctionalSimulator(program, memory_size=len(image))
    simulator.memory.data[:] = image
    events = error = None
    try:
        if chunk_events is None:
            trace = simulator.run(cap, trace=True, backend="interp")
            events = (trace.pcs.tolist(), trace.addrs.tolist(),
                      trace.taken.tolist())
        else:
            parts = []
            native.stream_trace(
                simulator, cap,
                lambda pcs, addrs, taken: parts.append(
                    (pcs.tolist(), addrs.tolist(), taken.tolist())),
                chunk_events)
            events = tuple(sum((part[i] for part in parts), [])
                           for i in range(3))
    except SimulationError as exc:
        error = (str(exc), exc.pc, exc.instructions, exc.block)
    regs = simulator.regs
    fp_bits = struct.pack("<32d", *[float(value) for value in regs[32:]])
    return (events, error, regs[:32], fp_bits, bytes(simulator.memory.data),
            simulator.instructions_executed)


@needs_native
@settings(max_examples=300, deadline=None)
@given(case=_random_case())
def test_random_programs_native_matches_interp(case):
    program, image, cap, chunk_events, interval = case
    assert native.translatable(program)
    saved = functional.HEARTBEAT_INTERVAL
    functional.HEARTBEAT_INTERVAL = interval
    try:
        with _info_log() as log:
            expected = _outcome(program, image, cap, None)
            expected_beats = _heartbeats(log)
            log.truncate(0)
            log.seek(0)
            got = _outcome(program, image, cap, chunk_events)
            got_beats = _heartbeats(log)
    finally:
        functional.HEARTBEAT_INTERVAL = saved
    assert got == expected
    assert got_beats == expected_beats
