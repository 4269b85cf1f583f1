"""Grid-sweep throughput: ``simulate_pipeline_sweep`` vs per-config
``PipelineModel.run`` on the paper's evaluation grid (base config +
Table 3 design changes + the Figure 8 width sweep — nine configs).

Every timed pair is also an equality assertion — each swept config must
reproduce the reference run field for field — so the recorded speedups
are guaranteed to be numerics-preserving.

Two sweep columns per kernel.  A kernel is timed in ``ROUNDS``
rounds; each times one run of the per-config reference loop, then,
right after it, a batch of cold sweeps and a batch of warm sweeps, each
batch at least ``BATCH_SECONDS`` long (one cold grid sweep lasts a few
milliseconds, too short to resolve alone).  A round's ratios divide its
reference time by its own mean sweep times, so the two sides of each
ratio share the host's load of that moment; a column reads the median
of its rounds' ratios:

* ``cold``  — nothing cached: digest + banks built from the trace in
  memory.  What the first grid study over a trace pays, in any process
  (digests and banks are never stored).
* ``warm``  — same-process re-sweep with memoization intact.  What the
  second study in one ``repro exec`` invocation pays.

Runs two ways:

* under pytest-benchmark (the full 23-kernel corpus, persisted to
  ``results/uarch_sweep.{txt,json}`` for EXPERIMENTS.md);
* as a script: ``python benchmarks/bench_uarch_sweep.py --smoke`` runs
  a four-kernel slice with the same assertions and *no* result files —
  the cheap CI gate against sweep-engine regressions.
"""

import dataclasses
import json
import shutil
import tempfile
import time

import numpy as np

from repro.obs.journal import (configure_journal, emit_event,
                               suspend_journal)
from repro.sim import FunctionalSimulator
from repro.uarch import BASE_CONFIG, DESIGN_CHANGES, native
from repro.uarch.pipeline import PipelineModel
from repro.uarch.sweep import simulate_pipeline_sweep
from repro.workloads import build_workload, workload_names

from _shared import emit, maybe_journal, run_once

#: Functional cap: every corpus kernel completes well inside it.
FUNCTIONAL_CAP = 5_000_000

#: Timing-model instruction cap per config (matches the table3/fig8
#: study defaults used in EXPERIMENTS.md).
PIPELINE_CAP = 60_000

#: The grid the paper's evaluation actually sweeps.
GRID = ([BASE_CONFIG] + list(DESIGN_CHANGES)
        + [BASE_CONFIG.renamed(f"width-{width}", width=width)
           for width in (2, 4, 8)])

SMOKE_NAMES = ["crc32", "sha", "qsort", "fft"]

#: Timing rounds per kernel; each column reads their median ratio.
ROUNDS = 5

#: Least timed seconds of one batch of sweeps.
BATCH_SECONDS = 0.2


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")  # host timing, not a simulated number
    return fields


def _forget(trace):
    """Drop in-memory sweep state, so the next sweep is cold."""
    if hasattr(trace, "_sweep_digest"):
        del trace._sweep_digest


def _sweep_once(trace, cold):
    """Seconds and results of one grid sweep of ``trace``; a cold sweep
    first drops the trace's sweep state."""
    if cold:
        _forget(trace)
    start = time.perf_counter()
    results = simulate_pipeline_sweep(trace, GRID,
                                      max_instructions=PIPELINE_CAP)
    return time.perf_counter() - start, results


def _batch_sweep(trace, cold):
    """Mean seconds of one sweep over a batch of at least
    ``BATCH_SECONDS``, and the last results."""
    elapsed, count = 0.0, 0
    while elapsed < BATCH_SECONDS:
        seconds, results = _sweep_once(trace, cold)
        elapsed += seconds
        count += 1
    return elapsed / count, results


def _reference_once(trace):
    """Seconds and results of one per-config ``PipelineModel.run`` loop
    over the grid."""
    start = time.perf_counter()
    reference = [PipelineModel(config).run(
        trace, max_instructions=PIPELINE_CAP) for config in GRID]
    return time.perf_counter() - start, reference


def _sweep_rows(names):
    """Per-kernel reference vs cold/warm sweep timings."""
    rows = []
    for index, name in enumerate(names):
        trace = FunctionalSimulator(build_workload(name)).run(
            max_instructions=FUNCTIONAL_CAP, trace=True)

        # Each round: (reference s, cold s, warm s), timed back to back.
        rounds = []
        for _ in range(ROUNDS):
            reference_s, reference = _reference_once(trace)
            cold_s, cold = _batch_sweep(trace, cold=True)
            warm_s, warm = _batch_sweep(trace, cold=False)
            for swept in (cold, warm):
                assert [_result_fields(result) for result in swept] \
                    == [_result_fields(result) for result in reference]
            rounds.append((reference_s, cold_s, warm_s))
        reference_s, cold_s, _ = np.median(rounds, axis=0)

        instructions = sum(result.instructions for result in reference)
        rows.append([name, instructions,
                     instructions / reference_s / 1e6,
                     instructions / cold_s / 1e6,
                     float(np.median([ref / cold for ref, cold, _
                                      in rounds])),
                     float(np.median([ref / warm for ref, _, warm
                                      in rounds]))])
        emit_event("progress", done=index + 1, total=len(names),
                   unit="kernels", label=name)
    return rows


#: Kernels used for the journaling-overhead measurement: a small and a
#: large trace.
OVERHEAD_NAMES = ["crc32", "fft"]

#: Cold sweeps of every overhead kernel in one timed sample: one sweep
#: lasts tens of milliseconds, too short for a 3% bound to resolve.
SWEEPS_PER_SAMPLE = 10


def _timed_sweep(trace, journaled):
    """One cold sweep into the open journal, or under
    :func:`suspend_journal`, which keeps it journal-free even when the
    bench itself is journaled (CI sets ``REPRO_BENCH_JOURNAL_DIR``)."""
    if journaled:
        return _sweep_once(trace, cold=True)[0]
    with suspend_journal():
        return _sweep_once(trace, cold=True)[0]


def _overhead_pair(traces, on_first):
    """On/off wall ratio of one pair: ``SWEEPS_PER_SAMPLE`` cold sweeps
    of every trace per mode, the modes interleaved sweep by sweep with
    the leading mode alternating, so a change in host speed hits both
    alike."""
    on = off = 0.0
    for _ in range(SWEEPS_PER_SAMPLE):
        for trace in traces:
            if on_first:
                on += _timed_sweep(trace, True)
                off += _timed_sweep(trace, False)
            else:
                off += _timed_sweep(trace, False)
                on += _timed_sweep(trace, True)
            on_first = not on_first
    return on / off


def _journal_overhead(names, pairs=9):
    """Cold-sweep wall ratio with journaling on vs off: the median of
    per-pair on/off ratios, pairs alternating which mode leads.

    The acceptance bar for span/journal instrumentation is ≤3% on this
    path; the measured ratio is committed with the results so a
    regression is visible in review, not just on a CI host.  The
    journal stays open across the measurement, as it does for a run.
    """
    traces = [FunctionalSimulator(build_workload(name)).run(
        max_instructions=FUNCTIONAL_CAP, trace=True) for name in names]
    journal_dir = tempfile.mkdtemp(prefix="bench-journal-overhead-")
    configure_journal(journal_dir, fresh=True)
    try:
        for trace in traces:  # warm-up, untimed
            _timed_sweep(trace, True)
        ratios = [_overhead_pair(traces, pair % 2 == 1)
                  for pair in range(pairs)]
    finally:
        configure_journal(None)
        shutil.rmtree(journal_dir, ignore_errors=True)
    return float(np.median(ratios))


def _measure(names, overhead=True):
    # Compile/load the native timing loop and its lane kernel up front:
    # each .so is a per-machine install artifact (content-addressed in
    # the cache dir), not part of the first kernel's cold-sweep cost.
    native.lane_width()
    rows = _sweep_rows(names)
    return {
        "configs": [config.name for config in GRID],
        "pipeline_cap": PIPELINE_CAP,
        "rows": rows,
        "geomean_cold": _geomean([row[4] for row in rows]),
        "geomean_warm": _geomean([row[5] for row in rows]),
        "journal_overhead_cold":
            _journal_overhead(OVERHEAD_NAMES) if overhead else None,
    }


def _render(data):
    from repro.evaluation import format_table
    header = ["kernel", "instructions", "run MIPS", "sweep MIPS",
              "cold x", "warm x"]
    text = (f"grid sweep ({len(data['configs'])} configs x "
            f"{data['pipeline_cap']} instructions, run vs sweep):\n")
    text += format_table(header, data["rows"], float_format="{:.2f}")
    text += (f"\n  geomean speedup: {data['geomean_cold']:.2f}x cold"
             f" / {data['geomean_warm']:.2f}x warm")
    if data.get("journal_overhead_cold"):
        overhead = (data["journal_overhead_cold"] - 1.0) * 100.0
        text += (f"\n  journaling overhead (cold sweep, spans + journal "
                 f"on): {overhead:+.1f}%")
    return text


def _check_regression_floors(data):
    """Loose floors: the cold target is 2x on the full corpus; flag a
    real regression without making the bench flaky on noisy hosts."""
    assert data["geomean_cold"] >= 1.5, data["geomean_cold"]
    assert data["geomean_warm"] >= data["geomean_cold"] * 0.8
    if data.get("journal_overhead_cold"):
        # Target is ≤3%; the hard gate leaves headroom for host noise.
        assert data["journal_overhead_cold"] <= 1.15, \
            data["journal_overhead_cold"]


def test_uarch_sweep_speedups(benchmark):
    data = run_once(benchmark, lambda: _measure(workload_names()))
    _check_regression_floors(data)
    assert data["geomean_cold"] >= 2.0, data["geomean_cold"]
    emit("uarch_sweep", _render(data), data=data)


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="four-kernel equivalence/speedup gate; "
                             "prints but persists nothing")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the measured data as JSON "
                             "(for benchmarks/check_regression.py)")
    parser.add_argument("--overhead-only", action="store_true",
                        help="measure and persist only the journaling "
                             "overhead on the cold sweep path")
    args = parser.parse_args(argv)
    if args.overhead_only:
        start = time.perf_counter()
        pairs = 9
        ratio = _journal_overhead(OVERHEAD_NAMES, pairs=pairs)
        data = {"kernels": OVERHEAD_NAMES, "pairs": pairs,
                "sweeps_per_sample": SWEEPS_PER_SAMPLE,
                "cold_sweep_ratio": ratio}
        text = (f"journaling overhead, cold grid sweep "
                f"({len(GRID)} configs x {PIPELINE_CAP} instructions; "
                f"median of {pairs} alternating on/off pairs, each "
                f"sample {SWEEPS_PER_SAMPLE} cold sweeps of "
                f"{', '.join(OVERHEAD_NAMES)}):\n"
                f"  on/off wall ratio: {ratio:.3f} "
                f"({(ratio - 1.0) * 100.0:+.1f}%)")
        emit("journal_overhead", text, data=data,
             wall_seconds=time.perf_counter() - start)
        assert ratio <= 1.03, ratio  # the ≤3% acceptance bar, verbatim
        return
    names = SMOKE_NAMES if args.smoke else workload_names()
    with maybe_journal("uarch_sweep"):
        start = time.perf_counter()
        data = _measure(names)
        measure_seconds = time.perf_counter() - start
    print(_render(data))
    _check_regression_floors(data)
    if not args.smoke:
        assert data["geomean_cold"] >= 2.0, data["geomean_cold"]
        # Script mode never went through run_once, so thread the wall
        # time explicitly — a null here blinds check_regression.py.
        emit("uarch_sweep", _render(data), data=data,
             wall_seconds=measure_seconds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"name": "uarch_sweep", "data": data}, handle,
                      indent=2)
            handle.write("\n")
    print("\nuarch-sweep bench OK "
          f"({'smoke, ' if args.smoke else ''}{len(names)} kernels)")


if __name__ == "__main__":
    main()
