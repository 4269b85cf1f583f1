"""Shared native toolchain: cc probe, compile-once cache, one loader.

Both native engines — the sweep kernels (:mod:`repro.uarch.native`,
the ``sweep`` library) and the functional-execution engine
(:mod:`repro.sim.native`, the ``simfunc`` library) — need the same
machinery: a ``REPRO_NATIVE`` gate, a C-compiler probe, a
content-addressed compile cache under the repro cache dir, and a
dlopen with the C signatures bound.  This module is that machinery:
one gate, one compile cache, and one memo of loaded libraries
(:func:`load_library`), so each library is built or loaded at most
once per process and :func:`reset` forgets them all.  Each engine is
one fixed C source that takes programs and traces as data, so a
machine compiles three small libraries once, whatever it later
simulates: the probe, ``simfunc``, and ``sweep`` with the lane kernel
at the width the probe reports (:func:`lane_width`).

Everything degrades gracefully: no C compiler, a failed compile, or
``REPRO_NATIVE=off`` means :func:`load_library` returns ``None`` and
callers run the Python specs instead: the interpreter,
``PipelineModel.run``, ``simulate_cache`` and the scalar predictors.
``REPRO_NATIVE`` is the one engine switch, and with it off nothing is
compiled, the probe included.  Semantics are identical either way;
only the wall time differs.
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

#: (stem, source) -> the loaded library with its signatures bound, or
#: None when it did not build or load.  Filled once per library.
_LIBRARIES = {}

#: The smallest library whose compile and dlopen prove the toolchain
#: works.  It also reports how many configs the sweep's lane kernel
#: times per pass on this host: 8 under AVX-512F/VL/DQ, 4 under AVX2,
#: 0 where neither (or no x86-64).  Cached like any engine source, so
#: later processes just stat the ``.so``.
_PROBE_SOURCE = r"""
int repro_lane_width(void)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512dq"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 0;
}
"""

_PROBE_SIGNATURES = {"repro_lane_width": (ctypes.c_int, [])}


def enabled():
    """Whether native codegen is allowed (the single REPRO_NATIVE gate)."""
    return os.environ.get("REPRO_NATIVE", "").strip().lower() not in _FALSY


def cache_dir():
    from repro.exec.store import default_cache_dir
    return os.path.join(default_cache_dir(), "native")


def compile_cached(source, stem):
    """Build (or reuse) the content-addressed shared library; its path.

    Keyed by source hash so any edit to the C source rebuilds cleanly;
    concurrent builders race benignly through a temp-file rename.  Only
    a build opens a ``native.compile`` span; a cached library is a
    ``stat``.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    directory = cache_dir()
    library = os.path.join(directory, f"{stem}-{digest}.so")
    if os.path.exists(library):
        return library
    with span("native.compile", stem=stem):
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


def _open(source, stem, signatures):
    """The memoized library for ``source``: compiled or reused, opened,
    and each ``name: (restype, argtypes)`` of ``signatures`` bound;
    None, logged once, when it does not build or load."""
    key = (stem, source)
    if key not in _LIBRARIES:
        library = None
        try:
            library = ctypes.CDLL(compile_cached(source, stem))
        except (OSError, subprocess.SubprocessError, ValueError) as exc:
            _LOG.warning("native.unavailable", stem=stem, error=str(exc))
        else:
            for name, (restype, argtypes) in signatures.items():
                function = getattr(library, name)
                function.restype, function.argtypes = restype, argtypes
        _LIBRARIES[key] = library
    return _LIBRARIES[key]


def probe():
    """The probe library when this host can compile and load native
    code at all, else None.

    The outcome is cached for the process, so a missing compiler costs
    one failed ``cc`` invocation total — not one per engine.
    """
    return _open(_PROBE_SOURCE, "probe", _PROBE_SIGNATURES)


def lane_width():
    """Configs the sweep's lane kernel times per pass on this host, as
    the probe reports it; 0 without native code."""
    library = enabled() and probe()
    return library.repro_lane_width() if library else 0


def load_library(source, stem, signatures):
    """Compile-or-reuse ``source``, dlopen it once per process and bind
    ``signatures`` (function name -> ``(restype, argtypes)``); ``None``
    when gated off, the toolchain is unavailable or ``source`` does not
    build (the graceful-fallback contract shared by every native
    engine)."""
    if not enabled() or not probe():
        return None
    return _open(source, stem, signatures)


def reset():
    """Forget every loaded library and the probe's outcome (tests
    toggling REPRO_NATIVE, the cache dir or cc)."""
    _LIBRARIES.clear()
