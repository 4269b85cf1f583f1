"""Cache-backed execution of the full cloning pipeline.

:func:`pipeline_artifacts` is the one entry point: given a program's
assembly source and synthesis parameters it either replays the whole
build → run → profile → synthesize → run-clone pipeline, or
reconstitutes every product from the persistent :mod:`repro.exec.store`.
Reconstitution is exact by construction — the trace arrays round-trip
through ``.npz`` losslessly, the profile through its JSON schema, and
the clone is re-assembled from the stored assembly text with the same
deterministic assembler that produced it — so downstream simulations
cannot tell a warm run from a cold one.  The program comes from
:func:`~repro.isa.assembler.assemble_shared`: one per source a process.
"""

import os
import shutil
import zipfile
from dataclasses import dataclass

from repro.core.baseline import MicroarchDependentSynthesizer
from repro.core.cloning import make_clone
from repro.core.profile import WorkloadProfile
from repro.core.profiler import profile_trace
from repro.core.synthesizer import CloneResult
from repro.exec.store import artifact_key, default_store
from repro.isa.assembler import AssemblerError, assemble, assemble_shared
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.sim.functional import resolve_backend, run_program
from repro.sim.trace import DynamicTrace

_LOG = get_logger("repro.exec.artifacts")

#: Safety cap for functional simulation of any program, when callers
#: don't pass one.
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
    sim_backend: str


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
    """Reconstitute a cached entry into live pipeline objects (the
    clone's re-assembly is timed apart from the entry's reads)."""
    with span("exec.store.load"):
        trace = DynamicTrace.load(os.path.join(entry, "trace.npz"), program)
        profile = WorkloadProfile.load(os.path.join(entry, "profile.json"))
        clone_asm = _read_text(meta, entry, "clone.s")
        stored = DynamicTrace.load(os.path.join(entry, "clone_trace.npz"),
                                   None)
    with span("isa.assemble", lines=clone_asm.count("\n")):
        clone_program = assemble(clone_asm, name=meta["clone_name"])
    clone = CloneResult(program=clone_program, asm_source=clone_asm,
                        profile=profile, parameters=parameters,
                        stats=dict(meta.get("clone_stats") or {}))
    clone_trace = DynamicTrace(clone_program, stored.pcs, stored.addrs,
                               stored.taken)
    return Artifacts(name=name, program=program, trace=trace,
                     profile=profile, clone=clone,
                     clone_trace=clone_trace,
                     sim_backend=meta["sim_backend"])


#: What reading a stored entry's payload raises when the entry was
#: evicted mid-read, is partial, or holds a torn ``.npz``, a text
#: payload of another length than its save recorded, or unparsable
#: text.
_RELOAD_ERRORS = (OSError, KeyError, ValueError, AssemblerError,
                  zipfile.BadZipFile)


def _reload(store, key, name, read):
    """``read(meta, entry)`` of the stored entry ``key``, or None on a
    miss or a failed reload.  A failed reload removes the entry, so the
    rebuild's save replaces it instead of losing the rename to it."""
    cached = store.load(key)
    if cached is None:
        return None
    meta, entry = cached
    try:
        return read(meta, entry)
    except _RELOAD_ERRORS as exc:
        _LOG.warning("artifacts.reload_failed", name=name, key=key,
                     error=str(exc))
        shutil.rmtree(entry, ignore_errors=True)
        return None


def pipeline_artifacts(name, source, parameters,
                       max_instructions=DEFAULT_MAX_FUNCTIONAL,
                       store=None):
    """Run (or reload) the cloning pipeline for one assembly source.

    ``store`` defaults to the process-wide persistent store; pass an
    explicit :class:`~repro.exec.store.ArtifactStore` to isolate, or a
    disabled one to force the cold path.
    """
    store = default_store() if store is None else store
    program = assemble_shared(source, name)
    # Resolve auto/env selection down to a concrete engine *before*
    # keying, so mixed-backend runs can never alias in the cache.
    sim_backend = resolve_backend(None, program)
    key = artifact_key(name, source, parameters, max_instructions,
                       sim_backend=sim_backend)
    artifacts = _reload(
        store, key, name,
        lambda meta, entry: _load_artifacts(meta, entry, program, name,
                                            parameters))
    if artifacts is not None:
        _LOG.debug("artifacts.hit", name=name, key=key,
                   sim_backend=artifacts.sim_backend)
        return artifacts
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
        "clone.s": _text_writer(meta, "clone.s", artifacts.clone.asm_source),
    }
    with span("exec.store.save"):
        store.save(key, meta, files)
    return artifacts


def _text_writer(meta, filename, text):
    """The writer of a text payload; records its length in ``meta``
    (``text_lengths``), which :func:`_read_text` checks at reload."""
    meta.setdefault("text_lengths", {})[filename] = len(text)

    def write(path):
        with open(path, "w") as handle:
            handle.write(text)
    return write


def _read_text(meta, entry, filename):
    """A stored text payload.  One cut short (at a line boundary it
    still parses) or saved without a recorded length raises, so it is a
    reload failure like a torn ``.npz``."""
    with open(os.path.join(entry, filename)) as handle:
        text = handle.read()
    expected = meta["text_lengths"][filename]
    if len(text) != expected:
        raise ValueError(f"{filename} holds {len(text)} characters, "
                         f"{expected} were saved")
    return text


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
    sim_backend: str


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
    program = assemble_shared(source, name)
    sim_backend = resolve_backend(None, program)
    key = trace_artifact_key(name, source, max_instructions, sim_backend)

    def read(meta, entry):
        with span("exec.store.load"):
            trace = DynamicTrace.load(os.path.join(entry, "trace.npz"),
                                      program)
        return TraceArtifacts(name=name, program=program, trace=trace,
                              sim_backend=meta["sim_backend"])

    artifacts = _reload(store, key, name, read)
    if artifacts is not None:
        return artifacts
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


# ----------------------------------------------------------------------
# Baseline entries (Ablation A's microarchitecture-dependent clone is
# re-tuned to the same measured rates on every run, so its assembly
# text is stored like a clone's)
# ----------------------------------------------------------------------
def baseline_artifact_key(name, source, max_instructions, sim_backend,
                          profiled_cache, predictor, miss_rate,
                          mispredict_rate, parameters):
    """Store key for a baseline entry.  The key material of the real
    trace it was profiled from (and so of its profile) plus everything
    the baseline is tuned to, under a ``baseline|`` sentinel that no
    ``SynthesisParameters`` repr and no trace-only key can take."""
    tuning = (f"baseline|cache={profiled_cache!r}|predictor={predictor!r}"
              f"|miss={miss_rate!r}|mispredict={mispredict_rate!r}"
              f"|parameters={parameters!r}")
    return artifact_key(name, source, tuning, max_instructions,
                        sim_backend=sim_backend)


def baseline_program(artifacts, source, profiled_cache, predictor,
                     miss_rate, mispredict_rate, parameters,
                     max_instructions=DEFAULT_MAX_FUNCTIONAL, store=None):
    """Synthesize (or reload) the baseline tuned to ``miss_rate`` on
    ``profiled_cache`` and ``mispredict_rate`` on ``predictor``, from
    ``artifacts.profile``; returns its assembled program.

    ``artifacts`` must come from ``source`` at ``max_instructions``.  A
    hit re-assembles the stored text, as a clone hit does; a miss, a
    failed reload or a disabled store synthesizes it (lint gate
    included) and saves the entry.
    """
    store = default_store() if store is None else store
    name = artifacts.name
    key = baseline_artifact_key(
        name, source, max_instructions, artifacts.sim_backend,
        profiled_cache, predictor, miss_rate, mispredict_rate, parameters)

    def read(meta, entry):
        with span("exec.store.load"):
            text = _read_text(meta, entry, "baseline.s")
        with span("isa.assemble", lines=text.count("\n")):
            return assemble(text, name=meta["program_name"])

    program = _reload(store, key, name, read)
    if program is not None:
        return program
    baseline = MicroarchDependentSynthesizer(
        artifacts.profile, miss_rate, mispredict_rate,
        profiled_cache_bytes=profiled_cache.size,
        profiled_line_bytes=profiled_cache.line,
        parameters=parameters).synthesize()
    meta = {
        "name": name,
        "kind": "baseline",
        "program_name": baseline.program.name,
        "parameters": repr(parameters),
        "max_instructions": max_instructions,
        "sim_backend": artifacts.sim_backend,
    }
    with span("exec.store.save"):
        store.save(key, meta, {"baseline.s": _text_writer(
            meta, "baseline.s", baseline.asm_source)})
    return baseline.program
