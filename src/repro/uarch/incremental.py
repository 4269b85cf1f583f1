"""Incremental re-simulation: one trace re-timed across config edits.

A grid study rarely starts from nothing.  Refinement loops — the
MicroGrad-style clone-tuning inner loop, dense config neighborhoods
around a design point, a fleet worker stepping through one trace's
cells — re-time a trace under configs that differ from the previous
one by a few parameters.  Every sweep artifact lives in memory on the
trace (never in the artifact store) and is keyed by the subset of
config state it depends on:

========================  =============================================
artifact                  depends on
========================  =============================================
trace digest              the trace object only (no config)
cache outcome bank        ``_hierarchy_key`` — L1I/L1D/L2 geometry and
                          the three access latencies
predictor outcome bank    ``_predictor_key`` — predictor kind + kwargs
========================  =============================================

Every other config field (width, ring sizes, FU counts, latencies,
penalties) is read by the scheduling loop at run time and builds
nothing.  The engine's per-trace caches realize that reuse, and its
``uarch.sweep.*_built``/``*_reused`` counters
(:func:`repro.uarch.sweep.sweep_stats_snapshot`) record what each run
actually built or reused.
"""

from repro.uarch.sweep import simulate_pipeline_sweep


class IncrementalSession:
    """Re-simulation of one trace across config refinements.

    Successive :meth:`run` calls share the trace digest and every
    config-keyed bank through the sweep engine's per-trace caches, so
    a single-knob edit re-times in milliseconds while remaining
    bit-identical to a cold ``PipelineModel.run``.  One call with
    several configs equals one call per config, field for field.
    """

    def __init__(self, trace, max_instructions=None):
        self.trace = trace
        self.max_instructions = max_instructions

    def run(self, configs):
        """Time every config in ``configs`` with one sweep call; returns
        one ``PipelineResult`` per config, in order."""
        return simulate_pipeline_sweep(
            self.trace, configs, max_instructions=self.max_instructions)
