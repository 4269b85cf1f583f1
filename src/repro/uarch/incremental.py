"""Incremental re-simulation: reuse-aware planning for grid refinement.

A grid study rarely starts from nothing.  Refinement loops — the
MicroGrad-style clone-tuning inner loop, dense config neighborhoods
around a design point, a human nudging one knob in the CLI — re-time
traces that differ from the previous cell by a *single* parameter.
Every sweep artifact is already keyed by the subset of config/profile
state it depends on:

========================  =============================================
artifact                  depends on
========================  =============================================
trace digest              trace content + program only (no config)
cache outcome bank        ``_hierarchy_key`` — L1I/L1D/L2 geometry and
                          the three access latencies
predictor outcome bank    ``_predictor_key`` — predictor kind + kwargs
========================  =============================================

Every other config field (width, ring sizes, FU counts, latencies,
penalties) is read by the scheduling loop at run time and builds
nothing.

This module makes that reuse *inspectable and accountable*: the
planners diff two configs (or two profiles) against those key
functions and report exactly which artifacts the next cell will reuse,
before it runs.  :class:`IncrementalSession` wraps the sweep engine
with that accounting — every ``run`` emits a ``sweep.incremental_plan``
journal event and feeds the ``incremental_*`` counters that run
manifests and ``repro report`` display.

Correctness is by construction, not by trust: the session delegates
timing to :func:`repro.uarch.sweep.simulate_pipeline_sweep`, whose
per-key artifact caches realize the plan's reuse and whose results are
enforced field-for-field identical to ``PipelineModel.run`` by the
corpus-wide differential suite.  The plan never steers execution; it
predicts (and then accounts for) what the engine's keying already
guarantees.
"""

import dataclasses

from repro.obs.journal import emit_event
from repro.uarch.sweep import (
    _hierarchy_key,
    _note,
    _predictor_key,
    simulate_pipeline_sweep,
)

#: The three artifact kinds a plan accounts for, in build order.
ARTIFACTS = ("digest", "cache_bank", "pred_bank")

#: Config field -> artifact kinds its value can invalidate.  ``name``
#: is pure labeling and the scheduling knobs (width, rings, FU counts,
#: latencies, penalty) invalidate nothing.  The planner judges reuse by
#: the engine's own key functions; this map documents what *may* be
#: affected and marks the scheduling knobs behind ``params_changed``.
CONFIG_FIELD_DEPS = {
    "name": (),
    "l1i": ("cache_bank",),
    "l1d": ("cache_bank",),
    "l2": ("cache_bank",),
    "l1_latency": ("cache_bank",),
    "l2_latency": ("cache_bank",),
    "memory_latency": ("cache_bank",),
    "predictor": ("pred_bank",),
    "predictor_kwargs": ("pred_bank",),
    "width": (),
    "fetch_queue": (),
    "rob_size": (),
    "lsq_size": (),
    "n_int_alu": (),
    "n_int_mul": (),
    "n_fp_alu": (),
    "n_fp_mul": (),
    "n_mem_ports": (),
    "in_order": (),
    "mispredict_penalty": (),
    "latency_ialu": (),
    "latency_imul": (),
    "latency_idiv": (),
    "latency_falu": (),
    "latency_fmul": (),
    "latency_fdiv": (),
}

#: Profile fields that change only labeling, never artifact content.
_PROFILE_LABEL_FIELDS = frozenset({"name"})


@dataclasses.dataclass(frozen=True)
class IncrementalPlan:
    """What a re-run with ``new`` reuses from a run keyed by ``old``."""

    changed_fields: tuple
    reused: tuple
    rebuilt: tuple
    params_changed: bool = False

    @property
    def full_rebuild(self):
        return not self.reused

    def to_dict(self):
        return {
            "changed_fields": list(self.changed_fields),
            "reused": list(self.reused),
            "rebuilt": list(self.rebuilt),
            "params_changed": self.params_changed,
            "full_rebuild": self.full_rebuild,
        }


def _changed_fields(old, new):
    names = [field.name for field in dataclasses.fields(old)]
    return tuple(name for name in names
                 if getattr(old, name) != getattr(new, name))


def plan_incremental(old_config, new_config):
    """The artifact reuse a sweep of ``new_config`` gets after
    ``old_config``, judged by the engine's own key functions.

    The digest is config-independent, so a config edit can never
    invalidate it; the banks survive exactly when their keys match.
    Edits to the scheduling knobs build nothing — the loop reads them
    at run time — and are reported via ``params_changed``.
    """
    reused = ["digest"]
    rebuilt = []
    bank = (reused if _hierarchy_key(old_config) == _hierarchy_key(new_config)
            else rebuilt)
    bank.append("cache_bank")
    bank = (reused if _predictor_key(old_config) == _predictor_key(new_config)
            else rebuilt)
    bank.append("pred_bank")
    changed = _changed_fields(old_config, new_config)
    return IncrementalPlan(
        changed_fields=changed,
        reused=tuple(reused),
        rebuilt=tuple(rebuilt),
        params_changed=any(name != "name" and not CONFIG_FIELD_DEPS.get(name)
                           for name in changed),
    )


def plan_profile_delta(old_profile, new_profile):
    """The reuse surviving a profile edit in a clone-refinement loop.

    Profile content determines the synthesized clone's source, hence
    its trace, hence *every* trace-derived artifact: any material field
    change is a full rebuild of all three kinds.  Only pure relabeling
    (``name``) — or no change at all — preserves them.  Blunt, but
    honest: it is exactly what the content-addressed store keys enforce,
    and it is the part refinement loops must budget for (the config
    axis, by contrast, reuses almost everything; see
    :func:`plan_incremental`).
    """
    changed = _changed_fields(old_profile, new_profile)
    if all(name in _PROFILE_LABEL_FIELDS for name in changed):
        reused, rebuilt = ARTIFACTS, ()
    else:
        reused, rebuilt = (), ARTIFACTS
    return IncrementalPlan(changed_fields=changed, reused=reused,
                           rebuilt=rebuilt)


def _account(plan):
    """Feed one plan into sweep stats and the run journal."""
    _note("incremental_plans")
    _note("incremental_reused_artifacts", len(plan.reused))
    _note("incremental_rebuilt_artifacts", len(plan.rebuilt))
    if plan.full_rebuild:
        _note("incremental_full_rebuilds")
    emit_event("sweep", event="incremental_plan", **plan.to_dict())


class IncrementalSession:
    """Stateful re-simulation of one trace across config refinements.

    Successive :meth:`run` calls share the trace digest and every
    config-keyed bank through the sweep engine's per-trace caches, so
    a single-knob edit re-times in milliseconds while remaining
    bit-identical to a cold ``PipelineModel.run``.  Each call after the
    first plans the delta from the previous config, emits the
    ``sweep.incremental_plan`` journal event, and keeps the plan at
    :attr:`last_plan` for callers that want to display it.
    """

    def __init__(self, trace, max_instructions=None, store=None):
        self.trace = trace
        self.max_instructions = max_instructions
        self.store = store
        self.last_config = None
        self.last_plan = None

    def plan(self, config):
        """The reuse plan :meth:`run` would realize, without running."""
        if self.last_config is None:
            return None
        return plan_incremental(self.last_config, config)

    def run(self, config):
        """Time ``config``; returns the engine's ``PipelineResult``."""
        plan = self.plan(config)
        if plan is not None:
            self.last_plan = plan
            _account(plan)
        [result] = simulate_pipeline_sweep(
            self.trace, [config], max_instructions=self.max_instructions,
            store=self.store)
        self.last_config = config
        return result

    def run_grid(self, configs):
        """Time a whole grid, planning each cell against the last."""
        return [self.run(config) for config in configs]
