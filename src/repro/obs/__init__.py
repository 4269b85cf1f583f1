"""Observability: telemetry, tracing, and run provenance (``repro.obs``).

The cloning pipeline is judged entirely by *comparisons* — clone vs
original across dozens of machine configurations — so every run must be
inspectable and reproducible.  This package provides the four pieces the
rest of the stack instruments itself with:

* :mod:`repro.obs.metrics` — process-wide counters and gauges, always
  on;
* :mod:`repro.obs.logging` — a structured, level-controlled logger
  (``REPRO_LOG_LEVEL``) replacing bare prints;
* :mod:`repro.obs.runinfo` — run manifests: seed, config hash, git rev,
  python version, per-span wall times, and headline stats as JSON;
* :mod:`repro.obs.journal` — append-only per-run JSONL event journal
  written concurrently by every process of a run;
* :mod:`repro.obs.trace` — the one span system: nestable spans named
  by layer (``core.profiler``, ``uarch.sweep``, ...) measuring wall and
  CPU time, folded into the manifest's phase table and journaled as a
  tree, with Chrome-trace / flame / critical-path exporters;
* :mod:`repro.obs.selfprof` — opt-in sampling profiler attributing hot
  code to the enclosing span.

Counters always count (their cost is per-phase, not per-instruction),
so no result or tally depends on a logging flag.  Spans are on by
default; ``set_tracing_enabled(False)`` — the CLI's ``--quiet`` — turns
them into no-ops, and ``--quiet`` also opens no journal.
"""

from repro.obs.journal import (
    Journal,
    MergedJournal,
    active_journal,
    configure_journal,
    emit_event,
    emit_metric_deltas,
    read_journal,
    rebase_metric_deltas,
)
from repro.obs.logging import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    configure as configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    counter,
    gauge,
)
from repro.obs.runinfo import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    git_revision,
    provenance,
    validate_manifest,
)
from repro.obs.selfprof import SamplingProfiler, format_profile
from repro.obs.trace import (
    SpanNode,
    build_span_tree,
    critical_path,
    critical_path_text,
    export_chrome_trace,
    flame_summary,
    flame_text,
    phase_table,
    reset_trace_state,
    set_tracing_enabled,
    span,
    span_coverage,
    timeline_text,
    tracing_enabled,
)


def reset_telemetry():
    """Clear accumulated metrics and spans (start of a fresh run)."""
    REGISTRY.reset()
    rebase_metric_deltas()
    reset_trace_state()


__all__ = [
    "DEBUG",
    "ERROR",
    "INFO",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "REGISTRY",
    "WARNING",
    "Counter",
    "Gauge",
    "Journal",
    "MergedJournal",
    "MetricsRegistry",
    "RunManifest",
    "SamplingProfiler",
    "SpanNode",
    "active_journal",
    "build_span_tree",
    "config_hash",
    "configure_journal",
    "configure_logging",
    "counter",
    "critical_path",
    "critical_path_text",
    "emit_event",
    "emit_metric_deltas",
    "export_chrome_trace",
    "flame_summary",
    "flame_text",
    "format_profile",
    "gauge",
    "get_logger",
    "git_revision",
    "phase_table",
    "provenance",
    "read_journal",
    "reset_telemetry",
    "set_tracing_enabled",
    "span",
    "span_coverage",
    "timeline_text",
    "tracing_enabled",
    "validate_manifest",
]
