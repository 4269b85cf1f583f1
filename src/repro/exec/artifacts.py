"""Cache-backed execution of the full cloning pipeline.

:func:`pipeline_artifacts` is the one entry point: given a program's
assembly source and synthesis parameters it either replays the whole
build → run → profile → synthesize → run-clone pipeline, or
reconstitutes every product from the persistent :mod:`repro.exec.store`.
Reconstitution is exact by construction — the trace arrays round-trip
through ``.npz`` losslessly, the profile through its JSON schema, and
the clone is re-assembled from the stored assembly text with the same
deterministic assembler that produced it — so downstream simulations
cannot tell a warm run from a cold one.
"""

import os
from dataclasses import dataclass

from repro.core.cloning import make_clone
from repro.core.profile import WorkloadProfile
from repro.core.profiler import profile_trace
from repro.core.synthesizer import CloneResult
from repro.exec.store import artifact_key, default_store
from repro.isa.assembler import assemble
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.sim.functional import resolve_backend, run_program
from repro.sim.trace import DynamicTrace

_LOG = get_logger("repro.exec.artifacts")

#: Safety cap for functional simulation used when callers don't pass one
#: (mirrors the experiment harness's historical cap).
DEFAULT_MAX_FUNCTIONAL = 20_000_000


@dataclass
class Artifacts:
    """Everything produced by the cloning pipeline for one workload."""

    name: str
    program: object
    trace: object
    profile: object
    clone: object  # CloneResult
    clone_trace: object
    #: Resolved functional-simulator backend that produced (or, on a
    #: cache hit, originally produced) the traces:
    #: ``native``/``interp``.
    sim_backend: str = "interp"


def _build_artifacts(program, name, parameters, max_instructions,
                     sim_backend):
    """The cold path: run the whole pipeline from the assembled program."""
    trace = run_program(program, max_instructions=max_instructions,
                        backend=sim_backend)
    profile = profile_trace(trace)
    clone = make_clone(profile, parameters)
    clone_trace = run_program(clone.program,
                              max_instructions=max_instructions,
                              backend=sim_backend)
    return Artifacts(name=name, program=program, trace=trace,
                     profile=profile, clone=clone,
                     clone_trace=clone_trace, sim_backend=sim_backend)


def _load_artifacts(meta, entry, program, name, parameters):
    """Reconstitute a cached entry into live pipeline objects."""
    trace = DynamicTrace.load(os.path.join(entry, "trace.npz"), program)
    profile = WorkloadProfile.load(os.path.join(entry, "profile.json"))
    with open(os.path.join(entry, "clone.s")) as handle:
        clone_asm = handle.read()
    clone_program = assemble(clone_asm, name=meta["clone_name"])
    clone = CloneResult(program=clone_program, asm_source=clone_asm,
                        profile=profile, parameters=parameters,
                        stats=dict(meta.get("clone_stats") or {}))
    clone_trace = DynamicTrace.load(
        os.path.join(entry, "clone_trace.npz"), clone_program)
    return Artifacts(name=name, program=program, trace=trace,
                     profile=profile, clone=clone,
                     clone_trace=clone_trace,
                     sim_backend=meta.get("sim_backend", "interp"))


def pipeline_artifacts(name, source, parameters,
                       max_instructions=DEFAULT_MAX_FUNCTIONAL,
                       store=None):
    """Run (or reload) the cloning pipeline for one assembly source.

    ``store`` defaults to the process-wide persistent store; pass an
    explicit :class:`~repro.exec.store.ArtifactStore` to isolate, or a
    disabled one to force the cold path.
    """
    store = default_store() if store is None else store
    program = assemble(source, name=name)
    # Resolve auto/env selection down to a concrete engine *before*
    # keying, so mixed-backend runs can never alias in the cache.
    sim_backend = resolve_backend(None, program)
    key = artifact_key(name, source, parameters, max_instructions,
                       sim_backend=sim_backend)
    cached = store.load(key)
    if cached is not None:
        meta, entry = cached
        try:
            with span("exec.store.load"):
                artifacts = _load_artifacts(meta, entry, program, name,
                                            parameters)
            _LOG.debug("artifacts.hit", name=name, key=key,
                       sim_backend=artifacts.sim_backend)
            return artifacts
        except (OSError, KeyError, ValueError) as exc:
            # A concurrent eviction or partial entry: rebuild.
            _LOG.warning("artifacts.reload_failed", name=name,
                         key=key, error=str(exc))
    # The cold pipeline runs unwrapped: its layer spans (``sim.run``,
    # ``core.profiler``, ...) sit directly under the caller's span.
    artifacts = _build_artifacts(program, name, parameters,
                                 max_instructions, sim_backend)
    meta = {
        "name": name,
        "clone_name": artifacts.clone.program.name,
        "clone_stats": artifacts.clone.stats,
        # Surfaced redundantly with clone_stats["certificate"] so store
        # tooling can read the safety proof without parsing stats.
        "certificate": artifacts.clone.stats.get("certificate"),
        "parameters": repr(parameters),
        "max_instructions": max_instructions,
        "sim_backend": sim_backend,
        "trace_instructions": len(artifacts.trace),
        "clone_trace_instructions": len(artifacts.clone_trace),
    }
    files = {
        "trace.npz": artifacts.trace.save,
        "clone_trace.npz": artifacts.clone_trace.save,
        "profile.json": artifacts.profile.save,
        "clone.s": _text_writer(artifacts.clone.asm_source),
    }
    with span("exec.store.save"):
        store.save(key, meta, files)
    return artifacts


def _text_writer(text):
    def write(path):
        with open(path, "w") as handle:
            handle.write(text)
    return write


# ----------------------------------------------------------------------
# Trace-only entries (fleet cells timing the real workload need no
# profile/clone, so they skip four fifths of the pipeline)
# ----------------------------------------------------------------------
@dataclass
class TraceArtifacts:
    """Just the functional-simulation products for one program."""

    name: str
    program: object
    trace: object
    sim_backend: str = "interp"


def trace_artifact_key(name, source, max_instructions, sim_backend):
    """Store key for a trace-only entry (disjoint from pipeline keys —
    the sentinel parameters string is not a ``SynthesisParameters``
    repr, so the two entry kinds can never alias)."""
    return artifact_key(name, source, "trace-only", max_instructions,
                        sim_backend=sim_backend)


def trace_artifacts(name, source, max_instructions=DEFAULT_MAX_FUNCTIONAL,
                    store=None):
    """Run (or reload) just the real-workload functional simulation.

    Same store semantics as :func:`pipeline_artifacts`; the entry holds
    only ``trace.npz``.  Used by fleet cells with ``subject: real``,
    which never need the profile or the clone.
    """
    store = default_store() if store is None else store
    program = assemble(source, name=name)
    sim_backend = resolve_backend(None, program)
    key = trace_artifact_key(name, source, max_instructions, sim_backend)
    cached = store.load(key)
    if cached is not None:
        meta, entry = cached
        try:
            with span("exec.store.load"):
                trace = DynamicTrace.load(
                    os.path.join(entry, "trace.npz"), program)
            return TraceArtifacts(name=name, program=program, trace=trace,
                                  sim_backend=meta.get("sim_backend",
                                                       "interp"))
        except (OSError, KeyError, ValueError) as exc:
            _LOG.warning("artifacts.trace_reload_failed", name=name,
                         key=key, error=str(exc))
    trace = run_program(program, max_instructions=max_instructions,
                        backend=sim_backend)
    meta = {
        "name": name,
        "kind": "trace-only",
        "max_instructions": max_instructions,
        "sim_backend": sim_backend,
        "trace_instructions": len(trace),
    }
    with span("exec.store.save"):
        store.save(key, meta, {"trace.npz": trace.save})
    return TraceArtifacts(name=name, program=program, trace=trace,
                          sim_backend=sim_backend)
