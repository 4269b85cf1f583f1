"""Trace-acquisition throughput: native C engine vs the interpreter.

Every timed pair doubles as an equality assertion — the native trace
must be bit-identical to the interpreter's (arrays, registers, memory)
— so the recorded speedups are guaranteed to be numerics-preserving.

The floor asserted here is the acquisition engine's contract: the
native tier must stay at least 10x over the interpreter in geomean
(measured: ~70-80x on the 23-kernel corpus), so a slow host cannot mask
an engine regression.

Runs two ways:

* under pytest-benchmark (the full 23-kernel corpus, persisted to
  ``results/trace_acquisition.{txt,json}`` for EXPERIMENTS.md);
* as a script: ``python benchmarks/bench_trace_acquisition.py --smoke``
  runs a four-kernel slice with the same assertions and *no* result
  files — the cheap CI gate against engine regressions.
"""

import json
import time

import numpy as np
import pytest

from repro.obs.journal import emit_event
from repro.obs.trace import span
from repro.sim import FunctionalSimulator
from repro.sim import native
from repro.workloads import build_workload, workload_names

from _shared import emit, maybe_journal, run_once

#: Functional cap: every corpus kernel completes well inside it.
FUNCTIONAL_CAP = 5_000_000

SMOKE_NAMES = ["crc32", "sha", "qsort", "fft"]

#: In-bench geomean floor for the native engine (the acceptance
#: criterion; the measured corpus geomean is ~70x).
MIN_VS_INTERP = 10.0


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def _timed_run(program, backend):
    simulator = FunctionalSimulator(program, backend=backend)
    start = time.perf_counter()
    trace = simulator.run(max_instructions=FUNCTIONAL_CAP, trace=True)
    return simulator, trace, time.perf_counter() - start


def _best_of(program, backend, repeats=2):
    best = None
    for _ in range(repeats):
        simulator, trace, seconds = _timed_run(program, backend)
        best = seconds if best is None else min(best, seconds)
    return simulator, trace, best


def _acquisition_rows(names):
    """Per-kernel interp/native MIPS, asserting bit-identity.

    Both backends are timed best-of-two on fresh simulator instances;
    native's first run of a program encodes its table (the ``cold``
    column; the first kernel's also loads, and on an empty compile cache
    builds, the one engine library every program shares), the ``native
    MIPS`` / speedup columns are the warm steady state that profiling
    and fleet acquisition pay.
    """
    rows = []
    for index, name in enumerate(names):
        with span("sim.acquire", kernel=name):
            program = build_workload(name)
            interp_sim, interp_trace, interp_s = _best_of(program,
                                                          "interp")

            native_sim, native_trace, cold_s = _timed_run(program,
                                                          "native")
            _, _, warm_a = _timed_run(program, "native")
            _, _, warm_b = _timed_run(program, "native")
            native_s = min(warm_a, warm_b)

            assert np.array_equal(interp_trace.pcs, native_trace.pcs)
            assert np.array_equal(interp_trace.addrs, native_trace.addrs)
            assert np.array_equal(interp_trace.taken, native_trace.taken)
            assert interp_sim.regs == native_sim.regs
            assert bytes(interp_sim.memory.data) \
                == bytes(native_sim.memory.data)

            instructions = interp_sim.instructions_executed
            rows.append([name, instructions,
                         instructions / interp_s / 1e6,
                         instructions / cold_s / 1e6,
                         instructions / native_s / 1e6,
                         interp_s / native_s])
        emit_event("progress", done=index + 1, total=len(names),
                   unit="kernels", label=name)
    return rows


def _measure(names):
    acquisition_rows = _acquisition_rows(names)
    return {
        "acquisition_rows": acquisition_rows,
        "geomean_vs_interp": _geomean(
            [row[5] for row in acquisition_rows]),
    }


def _render(data):
    from repro.evaluation import format_table
    text = "functional trace acquisition (trace capture on):\n"
    text += format_table(
        ["kernel", "instructions", "interp MIPS", "cold MIPS",
         "native MIPS", "vs interp"],
        data["acquisition_rows"], float_format="{:.2f}")
    text += (f"\n  geomean speedup: "
             f"{data['geomean_vs_interp']:.2f}x over interp")
    return text


def _check_floors(data):
    """The acceptance floor, asserted on every run (bench and CI)."""
    assert data["geomean_vs_interp"] >= MIN_VS_INTERP, \
        data["geomean_vs_interp"]


def test_trace_acquisition_speedups(benchmark):
    if not native.available():
        pytest.skip("no working C toolchain")
    data = run_once(benchmark, lambda: _measure(workload_names()))
    _check_floors(data)
    emit("trace_acquisition", _render(data), data=data)


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="four-kernel equivalence/floor gate; "
                             "prints but persists nothing")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the measured data as JSON "
                             "(for benchmarks/check_regression.py)")
    args = parser.parse_args(argv)
    if not native.available():
        raise SystemExit("bench_trace_acquisition: no working C "
                         "toolchain (cc) — nothing to measure")
    names = SMOKE_NAMES if args.smoke else workload_names()
    with maybe_journal("trace_acquisition"):
        data = _measure(names)
    print(_render(data))
    _check_floors(data)
    if not args.smoke:
        emit("trace_acquisition", _render(data), data=data)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"name": "trace_acquisition", "data": data},
                      handle, indent=2)
            handle.write("\n")
    print("\ntrace-acquisition bench OK "
          f"({'smoke, ' if args.smoke else ''}{len(names)} kernels)")


if __name__ == "__main__":
    main()
