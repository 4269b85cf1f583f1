"""Shared native toolchain: cc probe, compile-once cache, loading.

Both native engines — the sweep kernels (:mod:`repro.uarch.native`,
the ``sweeploop`` library) and the functional-execution engine
(:mod:`repro.sim.native`, the ``simfunc`` library) — need the same
machinery: a ``REPRO_NATIVE`` gate, a C-compiler probe, and a
content-addressed compile cache under the repro cache dir.  This module
is that machinery, factored out so there is a single gate, one compile
cache, and one probe event per process no matter how many engines are
in play.  Each engine is one fixed C source that takes programs and
traces as data, so a machine compiles three small libraries (probe,
``sweeploop``, ``simfunc``) once, whatever it later simulates.

Everything degrades gracefully: no C compiler, a failed compile, or
``REPRO_NATIVE=off`` means :func:`load_library` returns ``None`` and
callers keep using their pure-Python paths.  Semantics are identical
either way; only the wall time differs.
"""

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile

from repro.obs.logging import get_logger
from repro.obs.trace import span

_LOG = get_logger("repro.native.toolchain")

_FALSY = {"0", "off", "false", "no", "disabled"}

#: Compiler invocation shared by every engine.
CC = ("cc", "-O2", "-shared", "-fPIC")

#: None = not yet probed this process, else bool (cc works).
_PROBE = None

#: One-line library whose successful compile+dlopen proves the
#: toolchain works; cached like any engine source, so later processes
#: just stat the ``.so``.
_PROBE_SOURCE = "int repro_native_probe(void) { return 42; }\n"


def enabled():
    """Whether native codegen is allowed (the single REPRO_NATIVE gate)."""
    return os.environ.get("REPRO_NATIVE", "").strip().lower() not in _FALSY


def cache_dir():
    from repro.exec.store import default_cache_dir
    return os.path.join(default_cache_dir(), "native")


def compile_cached(source, stem):
    """Build (or reuse) the content-addressed shared library; its path.

    Keyed by source hash so any edit to the C source rebuilds cleanly;
    concurrent builders race benignly through a temp-file rename.
    """
    with span("native.compile", stem=stem):
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        directory = cache_dir()
        library = os.path.join(directory, f"{stem}-{digest}.so")
        if os.path.exists(library):
            return library
        os.makedirs(directory, exist_ok=True)
        fd, source_path = tempfile.mkstemp(suffix=".c", dir=directory)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(source)
            staged = source_path[:-2] + ".so"
            subprocess.run([*CC, "-o", staged, source_path, "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(staged, library)
        finally:
            for leftover in (source_path, source_path[:-2] + ".so"):
                if os.path.exists(leftover):
                    with contextlib.suppress(OSError):
                        os.remove(leftover)
        return library


def probe():
    """Whether this host can compile and load native code at all.

    The outcome is cached for the process and logged exactly once, so
    a missing compiler costs one failed ``cc`` invocation total — not
    one per engine.
    """
    global _PROBE
    if _PROBE is None:
        try:
            ctypes.CDLL(compile_cached(_PROBE_SOURCE, "probe"))
        except (OSError, subprocess.SubprocessError, ValueError) as exc:
            _LOG.warning("native.probe", available=False, error=str(exc))
            _PROBE = False
        else:
            _LOG.info("native.probe", available=True)
            _PROBE = True
    return _PROBE


def load_library(source, stem):
    """Compile-or-reuse ``source`` and dlopen it; ``None`` when gated
    off or the toolchain is unavailable (the graceful-fallback
    contract shared by every native engine)."""
    if not enabled() or not probe():
        return None
    try:
        return ctypes.CDLL(compile_cached(source, stem))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        _LOG.warning("native.unavailable", stem=stem, error=str(exc))
        return None


def reset():
    """Forget the probe result (tests toggling REPRO_NATIVE / cc)."""
    global _PROBE
    _PROBE = None
