"""Fleet engine vs a scattered process-pool grid, equal workers.

The baseline distributes a matrix the naive way: it scatters
independent cells over a bench-local ``ProcessPoolExecutor``, and every
task re-acquires its trace through the artifact store and runs a
one-config sweep, so digests, outcome banks, and compiled kernels are
re-loaded (at best) per *cell*.  The fleet path (``repro.fleet``)
shards the same cells by trace with reuse-affinity ordering and times
each block of consecutive cells with one call to one
:class:`~repro.uarch.incremental.IncrementalSession` per trace — the
acceptance bar is a ≥2x geomean wall-clock win at equal worker count,
from affinity + incremental routing, not from more processes.

Three matrix variants stress the three artifact classes the scheduler
keys on (pipeline knobs / cache hierarchies / predictors); each variant
is timed end-to-end through both paths on its own cold store, and every
cell's metrics must be *exactly* equal between the two paths before its
timing counts.

Runs two ways, like the other benches:

* under pytest-benchmark (full corpus, persisted to
  ``results/fleet_throughput.{txt,json}`` for EXPERIMENTS.md);
* as a script: ``python benchmarks/bench_fleet_throughput.py --smoke``
  times an eight-kernel slice with the same assertions — the CI gate,
  compared by ``check_regression.py`` against the committed smoke
  record ``results/fleet_throughput_smoke.json`` (same slice), not the
  full-corpus one.
"""

import contextlib
import json
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.exec import reset_default_store
from repro.fleet import Recipe, collect_matrix, run_fleet
from repro.fleet.worker import cell_metrics
from repro.obs.journal import emit_event
from repro.uarch import native, shared_power_model
from repro.uarch.sweep import simulate_pipeline_sweep
from repro.workloads import workload_names

from _shared import emit, maybe_journal, run_once

PIPELINE_CAP = 60_000
WORKERS = 2

#: Eight kernels: on four, the scattered path is about 0.5 s per
#: variant and smoke runs read 2.03-2.88x against the 2x floor.
SMOKE_NAMES = ["crc32", "sha", "qsort", "fft", "adpcm", "dijkstra",
               "jpeg", "susan"]

#: One multi-knob matrix per artifact class the affinity scheduler keys
#: on.  Deliberately config-heavy: the fleet's per-cell advantage is
#: incremental routing, so the win scales with configs-per-trace (the
#: paper's own grids are 9-40 configs per workload).
VARIANTS = [
    ("pipeline-knobs", {"width": [1, 2, 4], "rob_size": [8, 16, 32],
                        "lsq_size": [8, 16]}),
    ("cache-knobs", {"l1d": [[4096, 2, 32], [8192, 2, 32],
                             [16384, 2, 32]],
                     "l1_latency": [1, 2],
                     "memory_latency": [40, 80]}),
    ("predictor-knobs", {"predictor": ["gap", "nottaken", "taken",
                                       "bimodal", "gshare"],
                         "width": [1, 2]}),
]


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def _recipe(label, names, axes):
    return Recipe(name=f"fleet-bench-{label}", kernels=list(names),
                  pipeline_cap=PIPELINE_CAP, axes=axes)


@contextlib.contextmanager
def _cold_store(root):
    """Point the default store at a fresh directory for one path."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = root
    reset_default_store()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        reset_default_store()


def _baseline_cell(task):
    """One scattered-grid task: acquire trace, time one config.

    The pool worker that lands this cell shares nothing in-process with
    the worker that landed the neighboring config of the same kernel.
    """
    from repro.exec import trace_artifacts
    from repro.workloads import get_workload

    recipe_dict, index = task
    recipe = Recipe(**recipe_dict)
    cell = recipe.expand()[index]
    source = get_workload(cell.kernel).source()
    trace = trace_artifacts(cell.kernel, source,
                            max_instructions=recipe.functional_cap).trace
    [result] = simulate_pipeline_sweep(trace, [cell.config],
                                       max_instructions=recipe.pipeline_cap)
    power = shared_power_model(cell.config).evaluate(result).total
    return cell.cell_id, cell_metrics(result, power)


def _recipe_kwargs(recipe):
    return {"name": recipe.name, "kernels": list(recipe.kernels),
            "pipeline_cap": recipe.pipeline_cap,
            "axes": [[field, list(values)]
                     for field, values in recipe.axes.items()]}


def _prewarm_traces(recipe):
    """Populate the current store with the matrix's traces (untimed).

    Both paths start from traces-already-profiled — the common fleet
    posture (profiling is a separate, cached step) — so the timed
    regions compare grid *scheduling and reuse*, with digests, banks,
    and compiled kernels still cold.
    """
    from repro.exec import trace_artifacts
    from repro.workloads import get_workload

    for kernel in recipe.kernels:
        trace_artifacts(kernel, get_workload(kernel).source(),
                        max_instructions=recipe.functional_cap)


def _variant_row(label, names, axes, staging):
    """[variant, cells, baseline s, fleet s, fleet x]."""
    recipe = _recipe(label, names, axes)
    cells = recipe.expand()
    tasks = [(_recipe_kwargs(recipe), cell.index) for cell in cells]

    with _cold_store(tempfile.mkdtemp(prefix="scatter-", dir=staging)):
        _prewarm_traces(recipe)
        start = time.perf_counter()
        with ProcessPoolExecutor(WORKERS) as pool:
            scattered = dict(pool.map(_baseline_cell, tasks))
        baseline_s = time.perf_counter() - start

    with _cold_store(tempfile.mkdtemp(prefix="fleet-", dir=staging)):
        _prewarm_traces(recipe)
        run_dir = tempfile.mkdtemp(prefix="fleet-run-", dir=staging)
        start = time.perf_counter()
        summary = run_fleet(run_dir, recipe, workers=WORKERS)
        fleet_s = time.perf_counter() - start
        assert summary["complete"], summary
        matrix = collect_matrix(run_dir)

    # Equal worker count, exactly equal numbers: the speedup is only
    # meaningful if both paths computed the same matrix.
    fleet_metrics = {row["cell_id"]: row["metrics"]
                     for row in matrix["cells"]}
    assert set(fleet_metrics) == set(scattered)
    for cell_id, metrics in scattered.items():
        assert fleet_metrics[cell_id] == metrics, cell_id
    return [label, len(cells), baseline_s, fleet_s,
            baseline_s / fleet_s]


def _measure(names):
    native.available()  # install the .so outside the timed regions
    rows = []
    staging = tempfile.mkdtemp(prefix="bench-fleet-")
    try:
        for index, (label, axes) in enumerate(VARIANTS):
            rows.append(_variant_row(label, names, axes, staging))
            emit_event("progress", done=index + 1, total=len(VARIANTS),
                       unit="variants", label=label)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {
        "kernels": list(names),
        "workers": WORKERS,
        "pipeline_cap": PIPELINE_CAP,
        "native": native.available(),
        "rows": rows,
        "geomean_fleet": _geomean([row[4] for row in rows]),
    }


def _render(data):
    from repro.evaluation import format_table
    text = (f"fleet vs scattered process-pool grid "
            f"({len(data['kernels'])} kernels, {data['workers']} workers "
            f"each, {data['pipeline_cap']} instructions/cell):\n")
    text += format_table(
        ["variant", "cells", "scatter s", "fleet s", "fleet x"],
        data["rows"], float_format="{:.2f}")
    text += (f"\n  geomean fleet speedup: {data['geomean_fleet']:.2f}x"
             f"\n  native timing loop: "
             f"{'on' if data['native'] else 'off'}")
    return text


def _check_floors(data):
    """The tentpole's acceptance bar: >=2x geomean at equal workers."""
    assert data["geomean_fleet"] >= 2.0, data["geomean_fleet"]


def test_fleet_throughput(benchmark):
    data = run_once(benchmark, lambda: _measure(workload_names()))
    _check_floors(data)
    emit("fleet_throughput", _render(data), data=data)


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="eight-kernel equivalence/speedup gate; "
                             "prints but persists nothing")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the measured data as JSON "
                             "(for benchmarks/check_regression.py)")
    args = parser.parse_args(argv)
    names = SMOKE_NAMES if args.smoke else workload_names()
    with maybe_journal("fleet_throughput"):
        start = time.perf_counter()
        data = _measure(names)
        measure_seconds = time.perf_counter() - start
    print(_render(data))
    _check_floors(data)
    if not args.smoke:
        emit("fleet_throughput", _render(data), data=data,
             wall_seconds=measure_seconds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"name": "fleet_throughput", "data": data}, handle,
                      indent=2)
            handle.write("\n")
    print("\nfleet-throughput bench OK "
          f"({'smoke, ' if args.smoke else ''}{len(names)} kernels)")


if __name__ == "__main__":
    main()
