"""Host-speed-normalized time: work timed against a fixed probe.

The benchmark's host is a few vCPUs of a shared machine.  Its speed
drifts by 20-50% within seconds, and by up to 2x between minutes, as
neighbours load the other hyperthread of each core; the two vCPUs
drift independently.  A CPU-time clock does not help: the work itself
runs slower.  So a paced repetition stops at layer boundaries, at most
once every ``INTERVAL_S``, to time a fixed probe (a Python loop and a
numpy sort) on the CPU it is running on.  Each stretch of work between
two probes is scaled by ``REFERENCE_PROBE_S`` over the mean of those
two probes: the result is the time the work would have taken on a host
where the probe takes ``REFERENCE_PROBE_S``.  Probe time is left out of
both the raw and the normalized time.

C compiles slow down more than the Python probe when the host is busy
(a compile's time grew 1.26x as fast as the probe's, and 2.9x in one
heavy minute against the probe's 2.2x), but exactly as fast as a
compile of a tiny fixed C file.  So a ``native`` span that ran a
compiler is scaled instead by that compile probe, timed once before it
and twice after.

A :class:`Pacer` stands in for a :class:`~perfbench.spans.SpanRecorder`
so that ``spans.install`` places its ticks at the same entry points the
traced run records spans at.
"""

import contextlib
import os
import statistics
import subprocess
import tempfile
import time

import numpy

#: Least time between two probes of a paced repetition.
INTERVAL_S = 0.25
#: The probe's Python loop length and numpy sort size (about 7 ms).
PROBE_LOOP = 100_000
PROBE_SORT = 20_000
#: Probe times defining reference speed: about each probe's lower
#: quartile on a 2-vCPU, 2.0 GHz Xeon VM, so normalized times read as
#: seconds on that host with its neighbours quiet.
REFERENCE_PROBE_S = 0.0075
REFERENCE_COMPILE_S = 0.037
#: A ``native`` span at least this long ran the compiler (a cache hit
#: takes milliseconds, a compile a second or more).
COMPILE_MIN_S = 0.1
#: The compile probe: fixed flags and source, so that a change to the
#: program's own compiles moves the work and not the probe.
COMPILE_PROBE = ("cc", "-O2", "-shared", "-fPIC")
COMPILE_PROBE_SOURCE = """
int probe(const int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += a[i] * (i ^ 7);
        if (s > 1000) s -= a[i / 2];
    }
    return s;
}
"""

_DATA = numpy.random.default_rng(0).random(PROBE_SORT)


def probe():
    """Seconds the fixed probe takes now, on this CPU."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOP):
        total += value * value
    numpy.sort(_DATA)
    return time.perf_counter() - started


def compile_probe():
    """Seconds a compile of the fixed probe source takes now."""
    with tempfile.TemporaryDirectory() as scratch:
        source = os.path.join(scratch, "probe.c")
        with open(source, "w") as handle:
            handle.write(COMPILE_PROBE_SOURCE)
        started = time.perf_counter()
        subprocess.run([*COMPILE_PROBE, "-o",
                        os.path.join(scratch, "probe.so"), source],
                       check=True)
        return time.perf_counter() - started


def speed_now(samples=3):
    """Host speed (reference probe ÷ probe: 1.0 at reference speed),
    the median of a few back-to-back probes."""
    return REFERENCE_PROBE_S / statistics.median(
        probe() for _ in range(samples))


class Pacer:
    """Raw and host-speed-normalized time of one process's work."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything (a forked worker drops its parent's time)."""
        self.raw_s = self.norm_s = self.probe_s = 0.0
        self.probes = 0
        self._last = None  # (end, seconds) of the latest probe

    def tick(self, force=False):
        """Probe if ``INTERVAL_S`` has passed (or ``force``), closing
        the stretch of work since the previous probe."""
        now = time.perf_counter()
        if self._last is not None and not force \
                and now - self._last[0] < INTERVAL_S:
            return
        took = probe()
        if self._last is not None:
            stretch = now - self._last[0]
            self.raw_s += stretch
            self.norm_s += stretch * REFERENCE_PROBE_S \
                / ((took + self._last[1]) / 2)
        end = time.perf_counter()
        self.probe_s += end - now
        self.probes += 1
        self._last = (end, took)

    def start(self):
        self.tick(force=True)

    stop = start

    @contextlib.contextmanager
    def span(self, layer, name=None):
        if layer != "native":
            self.tick()
            try:
                yield None
            finally:
                self.tick()
            return
        self.tick(force=True)
        probing = time.perf_counter()
        took = [compile_probe()]
        started = time.perf_counter()
        self.probe_s += started - probing
        try:
            yield None
        finally:
            ended = time.perf_counter()
            scale = 1.0  # a cache hit: milliseconds, left as measured
            if ended - started >= COMPILE_MIN_S:
                took += [compile_probe(), compile_probe()]
                scale = REFERENCE_COMPILE_S / statistics.mean(took)
                self.probe_s += time.perf_counter() - ended
            self.raw_s += ended - started
            self.norm_s += (ended - started) * scale
            self._last = None  # the next stretch starts after the probes
            self.tick()

    def count(self, name, amount=1):
        pass

    def dump(self):
        return {"raw_s": self.raw_s, "norm_s": self.norm_s,
                "probe_s": self.probe_s, "probes": self.probes}
