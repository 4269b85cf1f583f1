"""Thread-based sampling self-profiler attributing hot code to spans.

A daemon thread periodically samples the main thread's stack through
:func:`sys._current_frames` and records, for each sample, the innermost
executing ``file:function`` **together with the enclosing span path**
from :data:`repro.obs.timing.TRACER`.  That pairing is the point: a
flat profile says "``_step`` is hot"; this one says "``_step`` is hot
*inside* ``uarch.sweep/uarch.pipeline``", which makes sweep
regressions attributable to a pipeline phase.

Sampling is opt-in (the CLI's ``--profile``) and entirely absent
otherwise — no thread is created, no signal handler installed, no
per-call hooks; disabled cost is exactly zero.
"""

import os
import sys
import threading
import time

#: Default sampling interval — 5 ms keeps overhead well under 1% while
#: still collecting hundreds of samples from a seconds-long run.
DEFAULT_INTERVAL_S = 0.005

#: Only frames from these roots are attributed; stdlib/runner frames
#: collapse into their nearest repro caller.
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _frame_label(frame):
    """Innermost repro-owned ``file:function`` on the stack, walking
    outward past stdlib frames; falls back to the raw innermost frame."""
    candidate = frame
    while candidate is not None:
        filename = candidate.f_code.co_filename
        if filename.startswith(_PKG_ROOT):
            rel = os.path.relpath(filename, _PKG_ROOT)
            return f"{rel}:{candidate.f_code.co_name}"
        candidate = candidate.f_back
    return (f"{os.path.basename(frame.f_code.co_filename)}:"
            f"{frame.f_code.co_name}")


class SamplingProfiler:
    """Samples the main thread, attributing each hit to the open span."""

    def __init__(self, interval_s=DEFAULT_INTERVAL_S):
        self.interval_s = interval_s
        self.samples = 0
        self._counts = {}  # (span_path, file:function) -> hits
        self._thread = None
        self._stop = threading.Event()
        self._target_ident = None

    def start(self):
        if self._thread is not None:
            return self
        self._target_ident = threading.main_thread().ident
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-selfprof", daemon=True)
        self._thread.start()
        return self

    def stop(self):
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._thread = None
        return self

    def _run(self):
        from repro.obs.timing import TRACER
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                continue
            span_path = TRACER.current_path() or "<no span>"
            key = (span_path, _frame_label(frame))
            self._counts[key] = self._counts.get(key, 0) + 1
            self.samples += 1

    def summary(self, top=15):
        """JSON-ready digest: top (span, function) pairs by sample share."""
        ranked = sorted(self._counts.items(), key=lambda item: -item[1])
        total = max(self.samples, 1)
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "top": [{"span": span, "function": function, "samples": hits,
                     "share": round(hits / total, 4)}
                    for (span, function), hits in ranked[:top]],
        }


def format_profile(summary):
    """Render a profile summary block for ``repro report`` / stderr."""
    lines = [f"profile: {summary['samples']} samples "
             f"@ {summary['interval_s'] * 1000:.1f}ms"]
    for row in summary.get("top", []):
        lines.append(f"  {row['share']:>6.1%}  {row['span']}  "
                     f"[{row['function']}]")
    return "\n".join(lines)
