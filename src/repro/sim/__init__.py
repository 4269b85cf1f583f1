"""Functional simulation substrate (the paper's ``sim-safe`` analog).

The :class:`FunctionalSimulator` executes an assembled SRISC program over
architected state only.  Its product is a :class:`DynamicTrace` — compact
parallel arrays of (instruction index, data address, branch outcome) —
which is everything the profiler and the timing models downstream consume.
"""

from repro.sim.memory import Memory, MemoryError_
from repro.sim.trace import DynamicTrace
from repro.sim.functional import (
    BACKENDS,
    FunctionalSimulator,
    SimulationError,
    resolve_backend,
    run_program,
)

__all__ = [
    "BACKENDS",
    "DynamicTrace",
    "FunctionalSimulator",
    "Memory",
    "MemoryError_",
    "SimulationError",
    "resolve_backend",
    "run_program",
]
