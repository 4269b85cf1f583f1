"""Shared columnar program tables: build-once contract + field fidelity.

The whole point of ``ProgramColumns`` is that the per-instruction walk
over ``program.instructions`` happens *once* per program per process,
and every consumer — functional sim, profiler, clone-contract lint, sweep
digests and timing loops — shares the same struct-of-arrays view.
This suite pins both halves: the columns agree with the Instruction
objects they were derived from, and driving the full consumer stack
never triggers a second build.
"""

import numpy as np
import pytest

from repro.core import profile_trace
from repro.isa import IClass, POOL_OF_CLASS, assemble, columns_for
from repro.isa.columns import BUILD_COUNTS
from repro.lint import lint_program
from repro.sim import FunctionalSimulator
from repro.uarch import BASE_CONFIG, simulate_pipeline, simulate_pipeline_sweep
from repro.workloads import build_workload, get_workload


@pytest.fixture(scope="module")
def program():
    return build_workload("crc32")


@pytest.fixture(scope="module")
def columns(program):
    return columns_for(program)


class TestFieldFidelity:
    def test_decode_columns_match_instructions(self, program, columns):
        for pc, instruction in enumerate(program.instructions):
            assert columns.iclass[pc] == int(instruction.iclass)
            dest = instruction.rd if instruction.rd is not None else -1
            assert columns.dest[pc] == dest
            srcs = tuple(instruction.srcs)
            # src1/src2 hold every source: no instruction reads three.
            assert len(srcs) <= 2
            padded = srcs + (-1,) * (2 - len(srcs))
            assert (columns.src1[pc], columns.src2[pc]) == padded
            assert columns.pool_list[pc] \
                == POOL_OF_CLASS[int(instruction.iclass)]

    def test_class_masks_consistent(self, columns):
        assert np.array_equal(columns.is_mem,
                              columns.is_load | columns.is_store)
        assert np.array_equal(columns.is_load,
                              columns.iclass == int(IClass.LOAD))
        assert np.array_equal(columns.is_store,
                              columns.iclass == int(IClass.STORE))

    def test_block_tables_tile_program(self, program, columns):
        sizes = [high - low for low, high in columns.block_bounds]
        assert sum(sizes) == len(program.instructions)
        for bid, (low, high) in enumerate(columns.block_bounds):
            assert (columns.block_of[low:high] == bid).all()


class TestBuildOnce:
    def test_columns_are_cached(self, program):
        assert columns_for(program) is columns_for(program)

    def test_consumer_stack_builds_once(self):
        # A fresh program (not the module fixture, nor the process-wide
        # one ``build_workload`` shares) so the count below covers the
        # *whole* consumer stack from a cold start.
        program = assemble(get_workload("sha").source(), name="sha")
        before = BUILD_COUNTS.get(program.name, 0)
        trace = FunctionalSimulator(program).run(
            max_instructions=200_000, trace=True)
        profile_trace(trace)
        lint_program(program)
        simulate_pipeline(trace, BASE_CONFIG, max_instructions=20_000)
        simulate_pipeline_sweep(trace, [BASE_CONFIG],
                                max_instructions=20_000, store=None)
        assert BUILD_COUNTS[program.name] == before + 1
