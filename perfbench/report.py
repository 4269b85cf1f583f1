"""Turn raw run records into the benchmark's named metrics.

``fleet_metrics`` reads what a fleet run directory already holds (the
merged journal and ``fleet_status``); ``layer_metrics`` turns a traced
repetition's spans and counters into the per-layer metrics.
"""

import math
import statistics

from perfbench.spans import LAYERS, layer_self_times, named_seconds, \
    root_seconds, self_times

#: Reproduction studies, in run order (a study span is ``study.<name>``).
STUDIES = ("table1", "fig3", "fig4_5", "fig6_7", "table3",
           "ablation_a", "ablation_b", "ablation_c")

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
}

#: The aggregate accuracy figures the reproduction checks (simulated,
#: deterministic; printed with every repro-* result).
FIDELITY = {
    "ipc_err_pct": "%",
    "power_err_pct": "%",
    "stride_coverage": "ratio",
    "cache_corr": "ratio",
    "rank_corr": "ratio",
    "width_ipc_err_pct": "%",
    "bpred_ipc_err_pct": "%",
}

#: Spans that only wait for other processes: no busy time of their own.
WAITING_SPANS = ("run_fleet",)

PER_LAYER = {
    "native.compiles": "count",
    "native.compile_s": "s",
    "native.c_kib": "KiB",
    "sim.runs": "count",
    "sim.instructions": "count",
    "sim.acquire_s": "s",
    "sim.mips": "Minstr/s",
    "profile.runs": "count",
    "profile.instructions": "count",
    "profile.s": "s",
    "synthesize.runs": "count",
    "synthesize.s": "s",
    "synthesize.static_instructions": "count",
    "lint.clones": "count",
    "lint.s": "s",
    "lint.gate_failures": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.load_s": "s",
    "store.save_s": "s",
    "store.bytes_written": "bytes",
    "cache.sweeps": "count",
    "cache.accesses": "count",
    "cache.sweep_s": "s",
    "cache.maccess_per_s": "Maccess/s",
    "sweep.configs": "count",
    "sweep.instructions": "count",
    "sweep.digests_built": "count",
    "sweep.digests_loaded": "count",
    "sweep.cache_banks_built": "count",
    "sweep.cache_banks_loaded": "count",
    "sweep.pred_banks_built": "count",
    "sweep.pred_banks_loaded": "count",
    "sweep.native_configs": "count",
    "sweep.fallback_configs": "count",
    "sweep.schedule_s": "s",
    "sweep.s": "s",
    "pipeline.runs": "count",
    "pipeline.instructions": "count",
    "statsim.s": "s",
    "power.evaluations": "count",
    "power.models_built": "count",
    "power.models_reused": "count",
    "power.s": "s",
    "fleet.claims": "count",
    "fleet.steals": "count",
    "fleet.reclaims": "count",
    "fleet.acquire_s": "s",
    "fleet.timing_s": "s",
    "fleet.overhead_s": "s",
    "fleet.cell_p50_ms": "ms",
    "fleet.cell_p99_ms": "ms",
    "fleet.worker_imbalance": "ratio",
    **{f"study.{name}_s": "s" for name in STUDIES},
    "evaluation.self_s": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def journal_counters(journal):
    """Sum of every process's journaled counter deltas."""
    totals = {}
    for event in journal.of_kind("metrics"):
        for name, delta in event.get("deltas", {}).items():
            totals[name] = totals.get(name, 0) + delta
    return totals


def fleet_metrics(run_dir):
    """``(fleet.* metrics, summed counters)`` of a finished run dir.

    Claims, steals and reclaims are the workers' journaled counters;
    per-cell times are the journal's ``fleet.cell`` spans; acquisition,
    timing and busy seconds are the worker summaries ``fleet_status``
    reports.  Overhead is busy time neither acquiring nor timing:
    leases, result publication, power and scheduling.
    """
    from repro.fleet.run import fleet_status
    from repro.obs.journal import read_journal

    journal = read_journal(run_dir)
    counters = journal_counters(journal)
    cells_ms = [event["wall_s"] * 1e3
                for event in journal.of_kind("span_close")
                if event.get("name") == "fleet.cell"]
    workers = fleet_status(run_dir)["workers"]
    walls = [worker["wall_seconds"] for worker in workers]
    busy = sum(walls)
    acquire = sum(worker["sim_acquire_seconds"] for worker in workers)
    timing = sum(worker["uarch_time_seconds"] for worker in workers)
    metrics = {
        "fleet.claims": counters.get("fleet.claims", 0),
        "fleet.steals": counters.get("fleet.steals", 0),
        "fleet.reclaims": counters.get("fleet.reclaims", 0),
        "fleet.acquire_s": acquire,
        "fleet.timing_s": timing,
        "fleet.overhead_s": busy - acquire - timing,
        "fleet.cell_p50_ms": percentile(cells_ms, 50) if cells_ms else 0.0,
        "fleet.cell_p99_ms": percentile(cells_ms, 99) if cells_ms else 0.0,
        "fleet.worker_imbalance":
            max(walls) / statistics.mean(walls) if busy else 0.0,
    }
    return metrics, counters


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace, wall_s, untraced_wall_s):
    """Per-layer metrics of one traced repetition.

    ``trace`` holds ``spans`` (all processes, ids unique), ``counts``
    (the benchmark's wrapper counts), ``counters`` (the program's own
    counter deltas), ``sweep`` (``sweep_stats_snapshot`` deltas) and
    ``fleet`` (``fleet_metrics`` or empty).  Shares divide each layer's
    self time by the busy time of every process; a span that only waits
    on other processes counts as a root for coverage but not as busy.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    counters = trace["counters"]
    sweep = trace["sweep"]
    own = layer_self_times(spans, waiting=WAITING_SPANS)
    busy = sum(own.values())

    def counter(name):
        return counters.get(name, 0)

    hits = counts.get("store.hits", 0)
    misses = counts.get("store.misses", 0)
    span_self = self_times(spans)
    store_s = {"load": 0.0, "save": 0.0}
    for span in spans:
        if span["layer"] == "exec.store":
            store_s[span["name"]] += span_self[span["id"]]
    metrics = {
        "native.compiles": counts.get("native.compiles", 0),
        "native.compile_s": own["native"],
        "native.c_kib": counts.get("native.c_bytes", 0) / 1024,
        "sim.runs": counts.get("sim.runs", 0),
        "sim.instructions": counts.get("sim.instructions", 0),
        "sim.acquire_s": own["sim"],
        "sim.mips": _ratio(counts.get("sim.instructions", 0),
                           own["sim"]) / 1e6,
        "profile.runs": counter("profile.runs"),
        "profile.instructions": counter("profile.instructions"),
        "profile.s": own["core.profiler"],
        "synthesize.runs": counter("synthesize.runs"),
        "synthesize.s": own["core.synthesizer"],
        "synthesize.static_instructions":
            counts.get("synthesize.static_instructions", 0),
        "lint.clones": counter("lint.clones"),
        "lint.s": own["lint"],
        "lint.gate_failures": counter("lint.gate_failures"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": _ratio(hits, hits + misses),
        "store.load_s": store_s["load"],
        "store.save_s": store_s["save"],
        "store.bytes_written": counts.get("store.bytes_written", 0),
        "cache.sweeps": counts.get("cache.sweeps", 0),
        "cache.accesses": counts.get("cache.accesses", 0),
        "cache.sweep_s": own["uarch.cache"],
        "cache.maccess_per_s": _ratio(counts.get("cache.accesses", 0),
                                      own["uarch.cache"]) / 1e6,
        "sweep.schedule_s": sweep.get("config_seconds", 0.0),
        "sweep.s": own["uarch.sweep"],
        "pipeline.runs": counter("pipeline.runs"),
        "pipeline.instructions": counter("pipeline.instructions"),
        "statsim.s": own["statsim"],
        "power.evaluations": counts.get("power.evaluations", 0),
        "power.models_built": sweep.get("power_models_built", 0),
        "power.models_reused": sweep.get("power_models_reused", 0),
        "power.s": own["uarch.power"],
        "evaluation.self_s": own["evaluation"],
        "trace.coverage": _ratio(root_seconds(
            [span for span in spans if span.get("pid") == trace["pid"]]),
            wall_s),
        "trace.overhead": _ratio(wall_s, untraced_wall_s),
    }
    for key in ("configs", "instructions", "digests_built",
                "digests_loaded", "cache_banks_built", "cache_banks_loaded",
                "pred_banks_built", "pred_banks_loaded", "native_configs",
                "fallback_configs"):
        metrics[f"sweep.{key}"] = sweep.get(key, 0)
    for name in STUDIES:
        metrics[f"study.{name}_s"] = named_seconds(spans, f"study.{name}")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _ratio(own[layer], busy)
    fleet = trace.get("fleet") or {}
    for name in PER_LAYER:
        if name.startswith("fleet."):
            metrics[name] = fleet.get(name, 0)
    return {name: metrics[name] for name in PER_LAYER}

