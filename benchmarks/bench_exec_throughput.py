"""Throughput of the ``repro.exec`` layer: batched cache sweeps and the
persistent artifact store.

Two wall-time comparisons, each paired with an equality assertion so
the recorded speedups are guaranteed to be numerics-preserving, plus
the in-process wall time of one grid study:

* per-config ``simulate_cache`` loop vs one ``simulate_cache_sweep``
  call over the 28-configuration grid (identical miss counts);
* cold pipeline builds vs warm artifact-store hits (identical profiles,
  clone assembly, and traces — and the warm path must be faster, since
  a hit skips both functional simulations);
* ``cache_correlation_study`` over six workloads, in-process, from a
  warm store behind a cold in-process memo.

Every row is timed in ``ROUNDS`` rounds.  A round times a comparison's
reference right before its subject, so both sides of the round's ratio
share the host's load of that moment; the batched sweep lasts a few
milliseconds, so it is timed as the mean over a batch of at least
``BATCH_SECONDS``.  A row reads the median of its rounds' seconds, and
its speedup the median of the rounds' ratios.
"""

import shutil
import tempfile
import time

import numpy as np

from repro.core.synthesizer import SynthesisParameters
from repro.evaluation import (
    cache_correlation_study,
    clear_artifact_cache,
    format_table,
)
from repro.exec import ArtifactStore, pipeline_artifacts
from repro.uarch import CACHE_SWEEP, simulate_cache, simulate_cache_sweep
from repro.workloads import get_workload

from _shared import emit, run_once

NAMES = ["crc32", "sha", "bitcount"]
GRID_NAMES = ["adpcm", "bitcount", "crc32", "dijkstra", "qsort", "sha"]
PARAMS = SynthesisParameters(dynamic_instructions=100_000)
MAX_FUNCTIONAL = 5_000_000

#: Timing rounds per row; each row reads their median.
ROUNDS = 5

#: Least timed seconds of one batch of batched sweeps.
BATCH_SECONDS = 0.2


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _batched(func):
    """Mean seconds of ``func`` over a batch of at least
    ``BATCH_SECONDS``, and its last result."""
    elapsed, count = 0.0, 0
    while elapsed < BATCH_SECONDS:
        result, seconds = _timed(func)
        elapsed += seconds
        count += 1
    return result, elapsed / count


def _build_all(store):
    return [pipeline_artifacts(name, get_workload(name).source(), PARAMS,
                               max_instructions=MAX_FUNCTIONAL, store=store)
            for name in NAMES]


def _paired_rows(rounds, labels):
    """Reference and subject rows from ``(reference_s, subject_s)``."""
    reference_s, subject_s = np.median(rounds, axis=0)
    speedup = float(np.median([ref / sub for ref, sub in rounds]))
    return [[labels[0], float(reference_s), 1.0],
            [labels[1], float(subject_s), speedup]]


def _sweep_rounds(addresses):
    rounds = []
    for _ in range(ROUNDS):
        serial_stats, serial_seconds = _timed(
            lambda: [simulate_cache(addresses, config)
                     for config in CACHE_SWEEP])
        batched_stats, batched_seconds = _batched(
            lambda: simulate_cache_sweep(addresses, CACHE_SWEEP))
        assert ([stats.misses for stats in batched_stats]
                == [stats.misses for stats in serial_stats])
        rounds.append((serial_seconds, batched_seconds))
    return rounds


def _pipeline_round():
    """One cold build into an empty store, then the warm hits."""
    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        store = ArtifactStore(root=root, enabled=True)
        cold, cold_seconds = _timed(lambda: _build_all(store))
        warm, warm_seconds = _timed(lambda: _build_all(store))
        assert store.stats()["hits"] == len(NAMES)
        for before, after in zip(cold, warm):
            assert before.profile.to_dict() == after.profile.to_dict()
            assert before.clone.asm_source == after.clone.asm_source
            assert np.array_equal(before.trace.addrs, after.trace.addrs)
        assert warm_seconds < cold_seconds
        return cold, (cold_seconds, warm_seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _measure():
    rows = []
    pipeline_rounds = []
    for _ in range(ROUNDS):
        cold, seconds = _pipeline_round()
        pipeline_rounds.append(seconds)

    # -- batched sweep vs per-config loop (one shared address stream) --
    rows += _paired_rows(_sweep_rounds(cold[0].trace.memory_addresses()),
                         ["sweep 28 configs, per-config loop",
                          "sweep 28 configs, batched"])

    # -- cold pipeline vs warm artifact-store hit -------------------
    rows += _paired_rows(pipeline_rounds,
                         [f"pipeline x{len(NAMES)}, cold build",
                          f"pipeline x{len(NAMES)}, warm cache"])

    # -- one experiment grid, in-process ------------------------------
    # Drop the in-process memo first so the study does the full
    # per-workload work (the persistent store may still serve artifacts,
    # and that IS the deployed shape: a warm disk cache behind a cold
    # process).
    grid = []
    for _ in range(ROUNDS):
        clear_artifact_cache()
        _, grid_seconds = _timed(
            lambda: cache_correlation_study(names=GRID_NAMES))
        grid.append(grid_seconds)
    rows.append(["correlation study", float(np.median(grid)), 1.0])
    return rows


def test_exec_throughput(benchmark):
    rows = run_once(benchmark, _measure)
    emit("exec_throughput", format_table(
        ["stage", "seconds", "speedup"], rows, float_format="{:.3f}"),
        data={"rows": rows, "names": NAMES, "grid_names": GRID_NAMES,
              "configs": len(CACHE_SWEEP), "rounds": ROUNDS,
              "batch_seconds": BATCH_SECONDS})
