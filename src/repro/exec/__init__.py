"""Experiment execution engine (``repro.exec``).

Two cooperating layers make the (workload × microarchitecture) grid —
the paper's whole evaluation — cheap to re-run:

* :mod:`repro.exec.store` — a persistent content-addressed artifact
  cache (traces, profiles, clone assembly) shared across processes,
  keyed so hits are bit-identical to cold runs;
* :mod:`repro.exec.artifacts` — the cache-backed pipeline runner that
  experiments, the CLI, and benchmarks all call.

Grids run in-process; the one way to fan a grid out over worker
processes is :mod:`repro.fleet` (``repro fleet run --workers N``).
"""

from repro.exec.artifacts import (
    DEFAULT_MAX_FUNCTIONAL,
    Artifacts,
    TraceArtifacts,
    baseline_artifact_key,
    baseline_program,
    pipeline_artifacts,
    trace_artifact_key,
    trace_artifacts,
)
from repro.exec.store import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    artifact_key,
    cache_enabled,
    default_cache_dir,
    default_store,
    reset_default_store,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "Artifacts",
    "ArtifactStore",
    "DEFAULT_MAX_FUNCTIONAL",
    "TraceArtifacts",
    "artifact_key",
    "baseline_artifact_key",
    "baseline_program",
    "cache_enabled",
    "default_cache_dir",
    "default_store",
    "pipeline_artifacts",
    "reset_default_store",
    "trace_artifact_key",
    "trace_artifacts",
]
