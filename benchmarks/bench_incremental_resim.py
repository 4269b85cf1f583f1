"""Grid refinement throughput: cold grids and single-knob re-sweeps.

Measures the two workflows ROADMAP item 4 targets, against the seed
baseline (per-config ``PipelineModel.run``):

* **cold grid** — the fig6/fig8 nine-config study from nothing: digest
  built and banks derived from the trace in memory.
  Target: ≥10x geomean over the corpus.
* **incremental cell** — an :class:`IncrementalSession` warmed on the
  base config re-times one single-knob edit (ROB size, L1D geometry,
  predictor kind, width, an FU latency).  Every untouched artifact is
  reused from the session's trace digest; each row's ``reused`` /
  ``rebuilt`` columns are the sweep engine's own ``*_reused`` /
  ``*_built`` counter deltas for that edit.  Target: ≥20x geomean vs
  timing the same cell cold with ``PipelineModel.run``.

Every timed cell is also an equality assertion against the reference
model, so the recorded speedups are numerics-preserving by
construction.

Runs two ways, like the other benches:

* under pytest-benchmark (full 23-kernel corpus, persisted to
  ``results/incremental_resim.{txt,json}`` for EXPERIMENTS.md);
* as a script: ``python benchmarks/bench_incremental_resim.py --smoke``
  times a four-kernel slice with the same assertions — the CI gate,
  compared against the committed baseline by ``check_regression.py``.
"""

import dataclasses
import json
import time

import numpy as np

from repro.obs.journal import emit_event
from repro.sim import FunctionalSimulator
from repro.uarch import BASE_CONFIG, DESIGN_CHANGES, IncrementalSession, native
from repro.uarch.cache import CacheConfig
from repro.uarch.pipeline import PipelineModel
from repro.uarch.sweep import simulate_pipeline_sweep, sweep_stats_snapshot
from repro.workloads import build_workload, workload_names

from _shared import emit, maybe_journal, run_once

FUNCTIONAL_CAP = 5_000_000
PIPELINE_CAP = 60_000

#: The paper's evaluation grid (fig6/fig8): base + Table 3 + widths.
GRID = ([BASE_CONFIG] + list(DESIGN_CHANGES)
        + [BASE_CONFIG.renamed(f"width-{width}", width=width)
           for width in (2, 4, 8)])

SMOKE_NAMES = ["crc32", "sha", "qsort", "fft"]

#: Single-knob refinements applied to the base config: scheduling knobs
#: (ROB size, width, an FU latency) that build nothing, plus one edit
#: each that rebuilds the cache bank and the predictor bank.
KNOB_EDITS = [
    ("rob=32", BASE_CONFIG.renamed("rob-32", rob_size=32)),
    ("l1d/2", BASE_CONFIG.renamed(
        "l1d-8k", l1d=CacheConfig(BASE_CONFIG.l1d.size // 2,
                                  BASE_CONFIG.l1d.assoc,
                                  BASE_CONFIG.l1d.line))),
    ("bpred=nottaken", BASE_CONFIG.renamed("nottaken",
                                           predictor="nottaken")),
    ("width=2", BASE_CONFIG.renamed("width-2", width=2)),
    ("fmul=6", BASE_CONFIG.renamed("fmul-6", latency_fmul=6)),
]


#: The artifact kinds a knob edit either reuses or rebuilds.
ARTIFACTS = ("digests", "cache_banks", "pred_banks")


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")  # host timing, not a simulated number
    return fields


def _moved(before, after, how):
    """Artifacts counted as ``how`` (built/reused) between snapshots."""
    return sum(after[f"{kind}_{how}"] - before[f"{kind}_{how}"]
               for kind in ARTIFACTS)


def _forget(trace):
    if hasattr(trace, "_sweep_digest"):
        del trace._sweep_digest


def _grid_row(name, trace):
    """[kernel, instructions, ref MIPS, sweep MIPS, cold x]."""
    start = time.perf_counter()
    reference = [PipelineModel(config).run(
        trace, max_instructions=PIPELINE_CAP) for config in GRID]
    reference_s = time.perf_counter() - start

    _forget(trace)
    start = time.perf_counter()
    cold = simulate_pipeline_sweep(trace, GRID,
                                   max_instructions=PIPELINE_CAP)
    cold_s = time.perf_counter() - start

    assert [_result_fields(result) for result in cold] \
        == [_result_fields(result) for result in reference]
    instructions = sum(result.instructions for result in reference)
    return [name, instructions, instructions / reference_s / 1e6,
            instructions / cold_s / 1e6, reference_s / cold_s]


def _knob_rows(name, trace):
    """[kernel:knob, instructions, cold-cell ms, incr ms, incr x,
    reused, rebuilt]."""
    _forget(trace)
    session = IncrementalSession(trace, max_instructions=PIPELINE_CAP)
    session.run([BASE_CONFIG])  # warm the session on the design point
    rows = []
    for knob, config in KNOB_EDITS:
        start = time.perf_counter()
        cell = PipelineModel(config).run(trace,
                                         max_instructions=PIPELINE_CAP)
        cell_s = time.perf_counter() - start

        before = sweep_stats_snapshot()
        start = time.perf_counter()
        [incremental] = session.run([config])
        incremental_s = time.perf_counter() - start
        after = sweep_stats_snapshot()

        assert _result_fields(incremental) == _result_fields(cell), \
            f"incremental diverges from cold cell for {name}/{knob}"
        rows.append([f"{name}:{knob}", cell.instructions,
                     cell_s * 1e3, incremental_s * 1e3,
                     cell_s / incremental_s,
                     _moved(before, after, "reused"),
                     _moved(before, after, "built")])
        session.run([BASE_CONFIG])  # step back to the design point
    return rows


def _measure(names):
    # The native timing loop's and lane kernel's .so files are
    # per-machine install artifacts (content-addressed in the cache
    # dir) — compile them outside the timed regions, like Python's own
    # bytecode cache.
    native.lane_width()
    grid_rows = []
    knob_rows = []
    for index, name in enumerate(names):
        trace = FunctionalSimulator(build_workload(name)).run(
            max_instructions=FUNCTIONAL_CAP, trace=True)
        grid_rows.append(_grid_row(name, trace))
        knob_rows.extend(_knob_rows(name, trace))
        emit_event("progress", done=index + 1, total=len(names),
                   unit="kernels", label=name)
    return {
        "configs": [config.name for config in GRID],
        "knobs": [knob for knob, _ in KNOB_EDITS],
        "pipeline_cap": PIPELINE_CAP,
        "native": native.available(),
        "grid_rows": grid_rows,
        "knob_rows": knob_rows,
        "geomean_cold": _geomean([row[4] for row in grid_rows]),
        "geomean_incremental": _geomean([row[4] for row in knob_rows]),
    }


def _render(data):
    from repro.evaluation import format_table
    text = (f"cold grid ({len(data['configs'])} configs x "
            f"{data['pipeline_cap']} instructions, vs per-config run):\n")
    text += format_table(
        ["kernel", "instructions", "run MIPS", "sweep MIPS", "cold x"],
        data["grid_rows"], float_format="{:.2f}")
    text += (f"\n  geomean cold-grid speedup: "
             f"{data['geomean_cold']:.2f}x\n\n")
    text += "single-knob incremental re-sweep (vs cold cell):\n"
    text += format_table(
        ["kernel:knob", "instructions", "cell ms", "incr ms", "incr x",
         "reused", "rebuilt"],
        data["knob_rows"], float_format="{:.2f}")
    text += (f"\n  geomean incremental speedup: "
             f"{data['geomean_incremental']:.2f}x"
             f"\n  native timing loop: "
             f"{'on' if data['native'] else 'off'}")
    return text


def _check_floors(data):
    """ROADMAP item 4's acceptance bars, gated on the native loop being
    available (without a C compiler the engine falls back to the
    compiled-Python kernels and only clears the seed's ~2x)."""
    if not data["native"]:
        return
    assert data["geomean_cold"] >= 10.0, data["geomean_cold"]
    assert data["geomean_incremental"] >= 20.0, \
        data["geomean_incremental"]


def test_incremental_resim_speedups(benchmark):
    data = run_once(benchmark, lambda: _measure(workload_names()))
    _check_floors(data)
    emit("incremental_resim", _render(data), data=data)


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="four-kernel equivalence/speedup gate; "
                             "prints but persists nothing")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the measured data as JSON "
                             "(for benchmarks/check_regression.py)")
    args = parser.parse_args(argv)
    names = SMOKE_NAMES if args.smoke else workload_names()
    with maybe_journal("incremental_resim"):
        start = time.perf_counter()
        data = _measure(names)
        measure_seconds = time.perf_counter() - start
    print(_render(data))
    _check_floors(data)
    if not args.smoke:
        emit("incremental_resim", _render(data), data=data,
             wall_seconds=measure_seconds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"name": "incremental_resim", "data": data}, handle,
                      indent=2)
            handle.write("\n")
    print("\nincremental-resim bench OK "
          f"({'smoke, ' if args.smoke else ''}{len(names)} kernels)")


if __name__ == "__main__":
    main()
