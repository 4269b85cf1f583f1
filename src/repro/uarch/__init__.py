"""Microarchitecture timing and power models (SimpleScalar/Wattch analog).

These are the *evaluation* substrates: the clone itself is generated from
microarchitecture-independent attributes only, and these models exist to
verify that real application and clone track each other when cache
geometry, branch predictors, and pipeline parameters change.
"""

from repro.uarch.cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    CacheStats,
    simulate_cache,
    simulate_cache_sweep,
)
from repro.uarch.branch_predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GShare,
    TwoLevelGAp,
    make_predictor,
    simulate_predictor,
)
from repro.uarch.config import (
    BASE_CONFIG,
    CACHE_SWEEP,
    DESIGN_CHANGES,
    MachineConfig,
    cache_sweep_configs,
)
from repro.uarch.pipeline import PipelineModel, PipelineResult, simulate_pipeline
from repro.uarch.power import (
    PowerModel,
    estimate_power,
    power_key,
    reset_shared_power_models,
    shared_power_model,
)
from repro.uarch.sweep import (
    simulate_pipeline_sweep,
    simulate_predictor_sweep,
    sweep_stats_snapshot,
    trace_digest,
)
from repro.uarch.incremental import IncrementalSession

__all__ = [
    "AlwaysNotTaken",
    "AlwaysTaken",
    "BASE_CONFIG",
    "Bimodal",
    "CACHE_SWEEP",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "CacheStats",
    "DESIGN_CHANGES",
    "GShare",
    "IncrementalSession",
    "MachineConfig",
    "PipelineModel",
    "PipelineResult",
    "PowerModel",
    "TwoLevelGAp",
    "cache_sweep_configs",
    "estimate_power",
    "make_predictor",
    "power_key",
    "reset_shared_power_models",
    "shared_power_model",
    "simulate_cache",
    "simulate_cache_sweep",
    "simulate_predictor",
    "simulate_predictor_sweep",
    "simulate_pipeline",
    "simulate_pipeline_sweep",
    "sweep_stats_snapshot",
    "trace_digest",
]
