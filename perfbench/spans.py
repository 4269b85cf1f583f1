"""Layer spans recorded from outside the program.

A traced run replaces each layer's public entry point — a module
attribute or a class method — with a wrapper that records a span
(layer, name, start, end, parent) and the work it did, then restores
the originals.  Spans are kept in memory and written out when the run
ends; a layer's self time is its spans' durations minus the time their
child spans cover.  Untraced runs install nothing.
"""

import collections
import contextlib
import functools
import os
import time

#: Every layer a span can be attributed to, in report order.
LAYERS = (
    "native", "sim", "core.profiler", "core.synthesizer", "lint",
    "exec.store", "uarch.cache", "uarch.sweep", "uarch.pipeline",
    "statsim", "uarch.power", "fleet", "evaluation",
)


class SpanRecorder:
    """In-memory span tree plus work counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, layer, name=None):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "layer": layer, "name": name or layer,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def reset(self):
        """Forget everything (a forked worker drops its parent's spans)."""
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans):
    """Per-span self time: duration minus the children's durations.

    Spans of one process nest strictly (one thread), so the children of
    a span never overlap and their union is their sum.
    """
    child_time = collections.Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans}


def layer_self_times(spans, waiting=()):
    """Self seconds summed per layer (every layer of LAYERS present).

    Spans named in ``waiting`` only wait for other processes, so their
    self time is left out.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    own = self_times(spans)
    for span in spans:
        if span["name"] not in waiting:
            totals[span["layer"]] = totals.get(span["layer"], 0.0) \
                + own[span["id"]]
    return totals


def root_seconds(spans):
    """Wall time covered by top-level spans (what coverage counts)."""
    return sum(span["end"] - span["start"] for span in spans
               if span["parent"] is None)


def named_seconds(spans, name):
    return sum(span["end"] - span["start"] for span in spans
               if span["name"] == name)


# ----------------------------------------------------------------------
# Wrapping the program's entry points
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make_wrapper):
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def undo(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def _timed(recorder, layer, name, after=None):
    """Wrapper factory: one span per call, then an optional count hook."""
    def make(original):
        def wrapper(*args, **kwargs):
            with recorder.span(layer, name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper
    return make


def install(recorder):
    """Wrap every layer entry point; returns the :class:`Patches`."""
    from repro import lint, uarch
    from repro.core.profile import WorkloadProfile
    from repro.core.synthesizer import CloneSynthesizer
    from repro.evaluation import experiments
    from repro.exec import artifacts
    from repro.exec.store import ArtifactStore
    from repro.fleet import worker
    from repro.native import toolchain
    from repro.sim import native as sim_native
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.trace import DynamicTrace
    from repro.statsim import StatisticalSimulator
    from repro.uarch import incremental, pipeline, power

    patches = Patches()
    count = recorder.count

    def compile_cached(original):
        def wrapper(source, stem):
            try:
                before = set(os.listdir(toolchain.cache_dir()))
            except OSError:
                before = set()
            with recorder.span("native", "compile_cached"):
                library = original(source, stem)
            if os.path.basename(library) not in before:
                count("native.compiles")
                count("native.c_bytes", len(source.encode()))
            return library
        return wrapper
    patches.wrap(toolchain, "compile_cached", compile_cached)

    def simulated(result, simulator, *args, **kwargs):
        count("sim.runs")
        count("sim.instructions", simulator.instructions_executed)
    patches.wrap(FunctionalSimulator, "run",
                 _timed(recorder, "sim", "FunctionalSimulator.run",
                        simulated))

    def streamed(executed, *args, **kwargs):
        count("sim.runs")
        count("sim.instructions", executed)
    patches.wrap(sim_native, "stream_trace",
                 _timed(recorder, "sim", "stream_trace", streamed))

    patches.wrap(artifacts, "profile_trace",
                 _timed(recorder, "core.profiler", "profile_trace"))

    def synthesized(result, *args, **kwargs):
        count("synthesize.static_instructions",
              len(result.program.instructions))
    patches.wrap(CloneSynthesizer, "synthesize",
                 _timed(recorder, "core.synthesizer", "synthesize",
                        synthesized))

    patches.wrap(lint, "lint_clone", _timed(recorder, "lint", "lint_clone"))

    def loaded(result, *args, **kwargs):
        count("store.hits" if result is not None else "store.misses")
    patches.wrap(ArtifactStore, "load",
                 _timed(recorder, "exec.store", "load", loaded))

    def saved(entry, *args, **kwargs):
        if entry is None:
            return
        for name in os.listdir(entry):
            with contextlib.suppress(OSError):
                count("store.bytes_written",
                      os.path.getsize(os.path.join(entry, name)))
    patches.wrap(ArtifactStore, "save",
                 _timed(recorder, "exec.store", "save", saved))
    patches.wrap(DynamicTrace, "load",
                 _timed(recorder, "exec.store", "load"))
    patches.wrap(WorkloadProfile, "load",
                 _timed(recorder, "exec.store", "load"))

    def cache_swept(result, addresses, configs, *args, **kwargs):
        count("cache.sweeps")
        count("cache.accesses", len(addresses) * len(result))
    patches.wrap(experiments, "simulate_cache_sweep",
                 _timed(recorder, "uarch.cache", "simulate_cache_sweep",
                        cache_swept))

    for name in ("simulate_pipeline_sweep", "simulate_predictor_sweep"):
        patches.wrap(experiments, name, _timed(recorder, "uarch.sweep", name))
    patches.wrap(incremental.IncrementalSession, "run",
                 _timed(recorder, "uarch.sweep", "IncrementalSession.run"))

    for owner in (uarch, pipeline):
        patches.wrap(owner, "simulate_pipeline",
                     _timed(recorder, "uarch.pipeline", "simulate_pipeline"))
    patches.wrap(StatisticalSimulator, "estimate",
                 _timed(recorder, "statsim", "estimate"))

    for owner in (experiments, worker, power):
        patches.wrap(owner, "shared_power_model",
                     _timed(recorder, "uarch.power", "shared_power_model"))

    def evaluated(result, *args, **kwargs):
        count("power.evaluations")
    patches.wrap(power.PowerModel, "evaluate",
                 _timed(recorder, "uarch.power", "evaluate", evaluated))
    return patches
