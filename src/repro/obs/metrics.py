"""Process-wide counters and gauges.

One :data:`REGISTRY` serves the whole process; instrumented code asks it
for named instruments::

    from repro.obs.metrics import REGISTRY
    REGISTRY.counter("sim.instructions").inc(executed)
    REGISTRY.gauge("sim.mips").set(throughput / 1e6)

The registry is always on: no logging flag changes what it counts, so a
count means the same thing in every run.  Instruments are bumped once
per phase or per call, never per simulated instruction.
``snapshot()`` returns plain dicts ready for JSON (and for the run
manifest).
"""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def snapshot(self):
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (throughput, occupancy, ratios...)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def set(self, value):
        self.value = value

    def snapshot(self):
        return {"type": "gauge", "value": self.value}


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Asking twice for the same name returns the same object; asking for
    an existing name with a different instrument kind is an error (it
    would silently fork the data).
    """

    def __init__(self):
        self._instruments = {}

    # ------------------------------------------------------------------
    def _get(self, name, factory, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name):
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name):
        return self._get(name, lambda: Gauge(name), Gauge)

    # ------------------------------------------------------------------
    def get(self, name):
        """Look up an existing instrument (None if never registered)."""
        return self._instruments.get(name)

    def snapshot(self):
        """All instruments as a JSON-ready ``{name: {...}}`` dict."""
        return {name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())}

    def reset(self):
        """Drop every registered instrument."""
        self._instruments.clear()


#: The process-wide registry every instrumented module uses.
REGISTRY = MetricsRegistry()


def counter(name):
    return REGISTRY.counter(name)


def gauge(name):
    return REGISTRY.gauge(name)
