"""Experiment runners for the paper's figures and tables.

Every experiment follows the same recipe: execute the real workload,
profile it, synthesize the clone, execute the clone, then compare the two
programs on microarchitecture models.  ``workload_artifacts`` memoizes
the per-workload pipeline in-process *and* persists it through the
:mod:`repro.exec` artifact store, so artifacts are shared across
processes and across runs.

Every study is a plain in-process loop over its workloads.  Each still
accepts a ``jobs`` keyword and ignores it: ``perfbench/workloads.py``
passes one.  Fanning a grid out over worker processes is the fleet's
job (:mod:`repro.fleet`, ``repro fleet run --workers N``).  Cache
sweeps (:func:`simulate_cache_sweep`) walk each address stream once per
(line size, set count), not once per configuration: one LRU stack pass
answers every associativity that shares them, so the 28-config
Section 5.1 sweep is 10 passes.  Pipeline grids go
through :func:`simulate_pipeline_sweep`, which digests each trace once
and shares cache/predictor outcome banks across the whole
configuration grid (bit-identical to per-config ``PipelineModel.run``
by construction and by differential test).  Studies call those sweeps
and :func:`shared_power_model` through this module's globals, so
wrapping the names here attributes their time to their own layers.
Each study call is one ``evaluation.<study>`` span.

Each result is computed once a process: a workload's real and clone
MPI rows over a cache sweep are memoized beside its artifacts (Figs 4-5
and Ablations A and B read them), and Ablation A's baseline clone is a
store entry (:func:`repro.exec.baseline_program`).
"""

import functools

from repro.core.synthesizer import SynthesisParameters
from repro.exec import (DEFAULT_MAX_FUNCTIONAL, baseline_program,
                        pipeline_artifacts)
from repro.obs.trace import span
from repro.sim.functional import run_program
from repro.uarch.cache import simulate_cache_sweep
from repro.uarch.config import BASE_CONFIG, CACHE_SWEEP, DESIGN_CHANGES
from repro.uarch.power import shared_power_model
from repro.uarch.sweep import (simulate_pipeline_sweep,
                               simulate_predictor_sweep)
from repro.evaluation.metrics import (
    mean_absolute_percentage_error,
    pearson,
    rank_vector,
    relative_error,
)
from repro.workloads import get_workload, workload_names

#: Default clone run length: comparable to the real kernels' runs.
DEFAULT_CLONE_INSTRUCTIONS = 120_000

_ARTIFACT_CACHE = {}
#: ``(name, configs) -> (real MPI row, clone MPI row)`` over the memoized
#: artifacts: Figs 4-5 and Ablations A and B read the same rows.
_MPI_ROWS = {}


def workload_artifacts(name, parameters=None):
    """Build → run → profile → synthesize → run clone, memoized.

    The first level is an in-process dict; behind it sits the
    persistent :class:`repro.exec.ArtifactStore`, so a warm on-disk
    cache makes this cheap even in a fresh process.
    """
    if parameters is None:
        parameters = SynthesisParameters(
            dynamic_instructions=DEFAULT_CLONE_INSTRUCTIONS)
    key = (name, repr(parameters))
    cached = _ARTIFACT_CACHE.get(key)
    if cached is not None:
        return cached
    source = get_workload(name).source()
    artifacts = pipeline_artifacts(name, source, parameters)
    _ARTIFACT_CACHE[key] = artifacts
    return artifacts


def clear_artifact_cache():
    """Drop the in-process memos (the persistent store is untouched)."""
    _ARTIFACT_CACHE.clear()
    _MPI_ROWS.clear()


def _names(names):
    return list(names) if names is not None else workload_names()


def _study(function):
    """Run each call of ``function`` in an ``evaluation.<name>`` span."""
    name = f"evaluation.{function.__name__}"

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)
    return traced


# ----------------------------------------------------------------------
# Figure 3: single-stride coverage of dynamic memory references
# ----------------------------------------------------------------------
@_study
def stride_coverage_table(names=None, jobs=None):
    """Rows of (workload, fraction of dynamic refs covered by one stride)."""
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    return [(name, workload_artifacts(name).profile.stride_coverage)
            for name in _names(names)]


# ----------------------------------------------------------------------
# Figures 4 & 5: miss-per-instruction tracking across 28 cache configs
# ----------------------------------------------------------------------
def _cache_mpi_rows(name, configs):
    """One workload's real and clone MPI rows over the whole sweep,
    swept once per process (each call returns fresh lists)."""
    key = (name, tuple(configs))
    rows = _MPI_ROWS.get(key)
    if rows is None:
        artifacts = workload_artifacts(name)
        rows = _MPI_ROWS[key] = tuple(
            tuple(stats.misses / len(trace)
                  for stats in simulate_cache_sweep(
                      trace.memory_addresses(), configs))
            for trace in (artifacts.trace, artifacts.clone_trace))
    return list(rows[0]), list(rows[1])


@_study
def cache_correlation_study(names=None, configs=None, jobs=None):
    """Per-workload Pearson correlation of relative MPI across caches.

    Returns a dict with per-benchmark correlations (Figure 4), the mean
    ranking of each configuration under real and clone (Figure 5), and
    the raw MPI matrices.
    """
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    configs = list(configs) if configs is not None else CACHE_SWEEP
    names = _names(names)
    correlations = {}
    mpi_real = {}
    mpi_clone = {}
    for name in names:
        real_row, clone_row = _cache_mpi_rows(name, configs)
        mpi_real[name] = real_row
        mpi_clone[name] = clone_row
        # Deltas relative to the first (256B direct-mapped) configuration.
        real_delta = [value - real_row[0] for value in real_row[1:]]
        clone_delta = [value - clone_row[0] for value in clone_row[1:]]
        correlations[name] = pearson(real_delta, clone_delta)

    # Figure 5: mean rank per configuration over all workloads (rank 1 =
    # fewest misses).
    n_configs = len(configs)
    rank_sums_real = [0.0] * n_configs
    rank_sums_clone = [0.0] * n_configs
    for name in names:
        for index, rank in enumerate(rank_vector(mpi_real[name])):
            rank_sums_real[index] += rank
        for index, rank in enumerate(rank_vector(mpi_clone[name])):
            rank_sums_clone[index] += rank
    mean_rank_real = [s / len(names) for s in rank_sums_real]
    mean_rank_clone = [s / len(names) for s in rank_sums_clone]

    return {
        "configs": configs,
        "correlations": correlations,
        "average_correlation": sum(correlations.values()) / len(correlations),
        "mpi_real": mpi_real,
        "mpi_clone": mpi_clone,
        "mean_rank_real": mean_rank_real,
        "mean_rank_clone": mean_rank_clone,
        "ranking_correlation": pearson(mean_rank_real, mean_rank_clone),
    }


# ----------------------------------------------------------------------
# Figures 6 & 7: absolute IPC and power on the base configuration
# ----------------------------------------------------------------------
def _base_config_row(name, config, max_instructions):
    artifacts = workload_artifacts(name)
    power_model = shared_power_model(config)
    # A one-config "grid": the sweep path keeps its digest and outcome
    # banks in memory on the trace, which the wider studies share
    # through the in-process ``workload_artifacts`` memo.
    [real] = simulate_pipeline_sweep(artifacts.trace, [config],
                                     max_instructions=max_instructions)
    [clone] = simulate_pipeline_sweep(artifacts.clone_trace, [config],
                                      max_instructions=max_instructions)
    return {
        "name": name,
        "ipc_real": real.ipc,
        "ipc_clone": clone.ipc,
        "power_real": power_model.evaluate(real).total,
        "power_clone": power_model.evaluate(clone).total,
    }


@_study
def base_config_comparison(names=None, config=BASE_CONFIG,
                           max_instructions=None, jobs=None):
    """Per-workload IPC and power, real vs clone, plus average errors."""
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    rows = [_base_config_row(name, config, max_instructions)
            for name in _names(names)]
    ipc_error = mean_absolute_percentage_error(
        [row["ipc_real"] for row in rows],
        [row["ipc_clone"] for row in rows])
    power_error = mean_absolute_percentage_error(
        [row["power_real"] for row in rows],
        [row["power_clone"] for row in rows])
    return {"rows": rows, "config": config,
            "average_ipc_error": ipc_error,
            "average_power_error": power_error}


# ----------------------------------------------------------------------
# Table 3 / Figures 8 & 9: relative accuracy over five design changes
# ----------------------------------------------------------------------
def _design_change_rows(name, configs, max_instructions):
    """IPC/power for one workload on base plus every changed config,
    aligned positionally with ``configs`` (``[base] + changes``)."""
    artifacts = workload_artifacts(name)
    # One sweep per trace digests it once and shares cache/predictor
    # outcome banks across every config in the grid.
    real_results = simulate_pipeline_sweep(
        artifacts.trace, configs, max_instructions=max_instructions)
    clone_results = simulate_pipeline_sweep(
        artifacts.clone_trace, configs, max_instructions=max_instructions)
    rows = []
    for config, real, clone in zip(configs, real_results, clone_results):
        power_model = shared_power_model(config)
        rows.append({
            "ipc_real": real.ipc, "ipc_clone": clone.ipc,
            "power_real": power_model.evaluate(real).total,
            "power_clone": power_model.evaluate(clone).total,
        })
    return rows


@_study
def design_change_study(names=None, base=BASE_CONFIG, changes=None,
                        max_instructions=None, jobs=None):
    """Relative IPC/power error of the clone for each design change.

    Also returns the per-workload speedups and power deltas for the
    width-doubling change (the paper's Figures 8 and 9).
    """
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    changes = list(changes) if changes is not None else DESIGN_CHANGES
    names = _names(names)
    grid = {name: _design_change_rows(name, [base] + changes,
                                      max_instructions)
            for name in names}

    base_results = {name: grid[name][0] for name in names}

    change_rows = []
    width_detail = None
    for change_index, config in enumerate(changes, start=1):
        ipc_errors = []
        power_errors = []
        detail = []
        for name in names:
            row = grid[name][change_index]
            base_row = base_results[name]
            ipc_errors.append(relative_error(
                row["ipc_real"], base_row["ipc_real"],
                row["ipc_clone"], base_row["ipc_clone"]))
            power_errors.append(relative_error(
                row["power_real"], base_row["power_real"],
                row["power_clone"], base_row["power_clone"]))
            detail.append({
                "name": name,
                "speedup_real": row["ipc_real"] / base_row["ipc_real"],
                "speedup_clone": row["ipc_clone"] / base_row["ipc_clone"],
                "power_ratio_real":
                    row["power_real"] / base_row["power_real"],
                "power_ratio_clone":
                    row["power_clone"] / base_row["power_clone"],
            })
        change_rows.append({
            "change": config.name,
            "avg_ipc_relative_error":
                sum(ipc_errors) / len(ipc_errors),
            "avg_power_relative_error":
                sum(power_errors) / len(power_errors),
            "detail": detail,
        })
        if config.name == "2x-width":
            width_detail = detail
    return {"base": base_results, "changes": change_rows,
            "width_detail": width_detail}


# ----------------------------------------------------------------------
# Ablation A: microarchitecture-dependent baseline vs our clone
# ----------------------------------------------------------------------
def _baseline_comparison_row(name, configs, profiled_cache):
    artifacts = workload_artifacts(name)
    # The real and clone rows are Fig 4's when the configs are.
    real_row, clone_row = _cache_mpi_rows(name, configs)
    [profiled] = simulate_cache_sweep(artifacts.trace.memory_addresses(),
                                      [profiled_cache])
    measured_miss = profiled.miss_rate
    # The predictor-sweep path shares the per-trace mispredict outcome
    # bank (in-process, on the trace) with every pipeline sweep
    # that uses the same predictor on this trace.
    [measured_predictor] = simulate_predictor_sweep(
        artifacts.trace, [BASE_CONFIG.predictor])
    measured_mispredict = measured_predictor.stats.misprediction_rate
    baseline = baseline_program(
        artifacts, get_workload(name).source(), profiled_cache,
        BASE_CONFIG.predictor, measured_miss, measured_mispredict,
        SynthesisParameters(dynamic_instructions=DEFAULT_CLONE_INSTRUCTIONS))
    baseline_trace = run_program(baseline,
                                 max_instructions=DEFAULT_MAX_FUNCTIONAL)
    baseline_n = len(baseline_trace)
    baseline_row = [
        stats.misses / baseline_n for stats in simulate_cache_sweep(
            baseline_trace.memory_addresses(), configs)]

    real_delta = [v - real_row[0] for v in real_row[1:]]
    mean_real = sum(real_row) / len(real_row)

    def mpi_error(row):
        """Mean |synthetic - real| MPI, normalized by the real mean —
        the "large errors when configurations change" the paper
        ascribes to microarchitecture-dependent synthesis."""
        if mean_real == 0:
            return 0.0
        return (sum(abs(s - r) for s, r in zip(row, real_row))
                / len(row) / mean_real)

    return {
        "name": name,
        "measured_miss_rate": measured_miss,
        "clone_correlation": pearson(
            real_delta, [v - clone_row[0] for v in clone_row[1:]]),
        "baseline_correlation": pearson(
            real_delta,
            [v - baseline_row[0] for v in baseline_row[1:]]),
        "clone_mpi_error": mpi_error(clone_row),
        "baseline_mpi_error": mpi_error(baseline_row),
    }


@_study
def baseline_cache_comparison(names=None, configs=None,
                              profiled_cache=None, jobs=None):
    """How each synthesis style tracks cache changes (the paper's
    motivating claim, Sections 1-3).

    The microarchitecture-dependent baseline is tuned to the base
    machine's L1D; we then compare Pearson correlations across the cache
    sweep for it and for the microarchitecture-independent clone.
    """
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    configs = list(configs) if configs is not None else CACHE_SWEEP
    if profiled_cache is None:
        profiled_cache = BASE_CONFIG.l1d
    rows = [_baseline_comparison_row(name, configs, profiled_cache)
            for name in _names(names)]
    count = len(rows)
    return {
        "rows": rows,
        "avg_clone_correlation":
            sum(r["clone_correlation"] for r in rows) / count,
        "avg_baseline_correlation":
            sum(r["baseline_correlation"] for r in rows) / count,
        "avg_clone_mpi_error":
            sum(r["clone_mpi_error"] for r in rows) / count,
        "avg_baseline_mpi_error":
            sum(r["baseline_mpi_error"] for r in rows) / count,
    }


# ----------------------------------------------------------------------
# Ablation B: accuracy vs number of unique streams (the susan discussion)
# ----------------------------------------------------------------------
@_study
def stream_count_table(names=None, jobs=None):
    """(workload, unique streams, cache correlation) rows, most streams
    first — the paper's explanation of susan's lower correlation."""
    # ``jobs`` is ignored: perfbench still passes it (module docstring).
    names = _names(names)
    study = cache_correlation_study(names)
    rows = []
    for name in names:
        artifacts = workload_artifacts(name)
        rows.append((name, artifacts.profile.unique_streams,
                     study["correlations"][name]))
    rows.sort(key=lambda row: row[1], reverse=True)
    return rows
