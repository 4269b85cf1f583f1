"""Nestable phase timers (span tracing) with wall *and* CPU time.

Usage — spans nest, and nesting builds slash-separated paths::

    from repro.obs.timing import span

    with span("clone"):
        with span("sfg_walk"):      # aggregated as "clone/sfg_walk"
            ...
        with span("codegen"):       # aggregated as "clone/codegen"
            ...

Each distinct path accumulates ``count`` / ``wall_s`` / ``cpu_s`` in the
process-wide :data:`TRACER`; :meth:`Tracer.flat` returns the aggregate
table that feeds run manifests and ``repro report``.  A disabled tracer
makes ``span()`` a no-op context manager so instrumented code costs
nothing beyond one method call per phase.
"""

import time
from contextlib import contextmanager

from repro.obs import trace as _trace


class Tracer:
    """Aggregating span collector; one global instance serves the process."""

    def __init__(self, enabled=True):
        self._enabled = bool(enabled)
        self._stack = []
        self._spans = {}  # path -> [count, wall_s, cpu_s]

    @property
    def enabled(self):
        return self._enabled

    def enable(self):
        self._enabled = True

    def disable(self):
        self._enabled = False

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name, **attrs):
        """Time a phase; nested spans extend the current path.

        When a run journal is active (:mod:`repro.obs.journal`), each
        entry additionally emits a hierarchical ``span_open`` /
        ``span_close`` pair with identity, parent link, and ``attrs``;
        without one, the journal hook is a single ``None`` check.
        """
        if not self._enabled:
            yield
            return
        path = f"{self._stack[-1]}/{name}" if self._stack else name
        self._stack.append(path)
        handle = _trace.begin_span(name, attrs or None)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            _trace.end_span(handle, wall, cpu)
            self._stack.pop()
            entry = self._spans.get(path)
            if entry is None:
                self._spans[path] = [1, wall, cpu]
            else:
                entry[0] += 1
                entry[1] += wall
                entry[2] += cpu

    def current_path(self):
        """The in-progress span path, or None outside any span."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    def flat(self):
        """``{path: {"count", "wall_s", "cpu_s"}}``, paths sorted."""
        return {path: {"count": entry[0],
                       "wall_s": entry[1],
                       "cpu_s": entry[2]}
                for path, entry in sorted(self._spans.items())}

    def reset(self):
        self._spans.clear()
        self._stack.clear()


#: The process-wide tracer every instrumented module uses.
TRACER = Tracer(enabled=True)


def span(name, **attrs):
    """Convenience: a span on the global tracer."""
    return TRACER.span(name, **attrs)
