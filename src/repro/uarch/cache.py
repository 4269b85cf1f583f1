"""Set-associative LRU caches (the paper's Section 5.1 substrate).

``Cache`` is a functional hit/miss model with O(1) accesses (per-set
insertion-ordered dicts give constant-time LRU) and, with
``simulate_cache``, the reference replay: the spec.  With a C compiler
the batched replays run one exact-LRU kernel, a stack pass
(:func:`repro.uarch.native.lru_stack`): ``simulate_cache_sweep`` (one
stream, many configurations) makes one pass per (line size, set count)
for every associativity of that pair, and ``per_access_hits`` (the
sweep engine's cache banks) one pass ``ways`` deep.  Without one the
sweep runs the spec per configuration; ``per_access_hits`` is native
only, because only the native timing loop uses banks.
``CacheHierarchy`` composes L1I/L1D/L2 for the pipeline timing model.
"""

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import span
from repro.uarch import native


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``assoc`` may be an integer or the string ``"full"`` for a fully
    associative cache.
    """

    size: int
    assoc: object = 1
    line: int = 32

    def __post_init__(self):
        if self.size <= 0 or self.line <= 0 or self.size % self.line:
            raise ValueError(f"bad cache geometry: {self}")
        if self.line & (self.line - 1):
            raise ValueError(f"line size must be a power of two: {self}")
        ways = self.ways
        if ways <= 0 or (self.size // self.line) % ways:
            raise ValueError(f"associativity does not divide lines: {self}")

    @property
    def lines(self):
        return self.size // self.line

    @property
    def line_shift(self):
        """log2 of the line size: ``address >> line_shift`` is the block."""
        return self.line.bit_length() - 1

    @property
    def ways(self):
        if self.assoc == "full":
            return self.lines
        return int(self.assoc)

    @property
    def sets(self):
        return self.lines // self.ways

    def label(self):
        size = (f"{self.size // 1024}KB" if self.size % 1024 == 0
                and self.size >= 1024 else f"{self.size}B")
        assoc = "full" if self.assoc == "full" else f"{self.ways}way"
        return f"{size}/{assoc}/{self.line}B"


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hits(self):
        return self.accesses - self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def misses_per_instruction(self, instructions):
        return self.misses / instructions if instructions else 0.0

    def snapshot(self):
        """JSON-ready stats block for manifests and telemetry."""
        return {"accesses": self.accesses, "misses": self.misses,
                "evictions": self.evictions, "miss_rate": self.miss_rate}

    def clear(self):
        """Zero all counts in place (the object identity is preserved)."""
        self.accesses = 0
        self.misses = 0
        self.evictions = 0


class Cache:
    """One cache level with true-LRU replacement.

    Each set is a dict mapping tag → None; dict insertion order is the
    recency order (oldest first), so LRU update and eviction are O(1).
    """

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(config.sets)]
        self._line_shift = config.line_shift
        self._set_mask = config.sets - 1
        self._set_is_pow2 = config.sets & (config.sets - 1) == 0
        self._ways = config.ways

    def access(self, address):
        """Look up one address; returns True on hit.  Misses allocate."""
        block = address >> self._line_shift
        index = (block & self._set_mask if self._set_is_pow2
                 else block % len(self._sets))
        line_set = self._sets[index]
        self.stats.accesses += 1
        if block in line_set:
            del line_set[block]  # refresh recency
            line_set[block] = None
            return True
        self.stats.misses += 1
        if len(line_set) >= self._ways:
            del line_set[next(iter(line_set))]
            self.stats.evictions += 1
        line_set[block] = None
        return False

    def contains(self, address):
        """Non-mutating lookup (for tests and invariant checks)."""
        block = address >> self._line_shift
        index = (block & self._set_mask if self._set_is_pow2
                 else block % len(self._sets))
        return block in self._sets[index]

    def resident_lines(self):
        return sum(len(line_set) for line_set in self._sets)

    def occupancy(self):
        """Fraction of the cache's lines currently resident (0.0–1.0)."""
        return self.resident_lines() / self.config.lines

    def flush(self):
        """Empty every set and reset ``stats`` **in place**.

        The :class:`CacheStats` object bound to ``self.stats`` is reused
        (cleared, not replaced), so references held by callers keep
        observing this cache after a flush.
        """
        for line_set in self._sets:
            line_set.clear()
        self.stats.clear()


def simulate_cache(addresses, config):
    """Replay an address stream; returns the final :class:`CacheStats`.

    This is the *reference* single-configuration replay.  ``addresses``
    may be any iterable of ints; a numpy array is converted exactly once
    per call (plain Python ints iterate much faster than numpy scalars)
    and the input array itself is never mutated.  When sweeping one
    stream over many configurations, use :func:`simulate_cache_sweep`,
    which hoists that conversion out of the per-config loop entirely.
    """
    cache = Cache(config)
    access = cache.access
    if hasattr(addresses, "tolist"):
        addresses = addresses.tolist()
    for address in addresses:
        access(address)
    return cache.stats


# ----------------------------------------------------------------------
# Batched sweep: one stream, many configurations
# ----------------------------------------------------------------------
def simulate_cache_sweep(addresses, configs):
    """Replay one address stream against many configurations.

    Returns a list of :class:`CacheStats`, one per config, in config
    order, each bit-identical to ``simulate_cache(addresses, config)``.
    With a C compiler the configs sharing a line size and set count
    share one LRU stack pass, as deep as their largest ``ways``: a
    ``w``-way cache hits at stack depths below ``w`` and fills each set
    ``min(blocks, w)`` times without evicting.  Without one every
    config is that spec replay itself.
    """
    configs = list(configs)
    address_array = np.asarray(addresses, dtype=np.int64)
    n = len(address_array)
    depths = {}
    for config in configs:
        key = (config.line_shift, config.sets)
        depths[key] = max(depths.get(key, 0), config.ways)
    engine = native.available()
    with span("uarch.cache", configs=len(configs), accesses=n,
              passes=len(depths) if engine else len(configs)):
        if not engine:
            stream = address_array.tolist()  # converted once, not per config
            return [simulate_cache(stream, config) for config in configs]
        # Per pass, indexed by ways - 1: the hits, and the non-evicting
        # fills sum(min(k, ways) * fills[k]), summed as the sets holding
        # at least 1, 2, ..., ways blocks.
        counts = {}
        for (shift, sets), depth in depths.items():
            hist, fills = native.lru_stack(address_array, shift, sets, depth)
            at_least = np.cumsum(fills[::-1])[::-1]
            counts[shift, sets] = (np.cumsum(hist).tolist(),
                                   np.cumsum(at_least[1:]).tolist())
        stats = []
        for config in configs:
            hits, filled = counts[config.line_shift, config.sets]
            misses = n - hits[config.ways - 1]
            stats.append(CacheStats(n, misses,
                                    misses - filled[config.ways - 1]))
        return stats


# ----------------------------------------------------------------------
# Per-access outcomes: the sweep engine's cache banks
# ----------------------------------------------------------------------
def per_access_hits(blocks, config):
    """Hit/miss outcome of every access of a block-index stream.

    ``blocks`` are line/block indices (addresses already shifted by the
    configuration's line size, exactly what :class:`Cache` derives
    internally).  Returns a boolean array aligned with the stream whose
    ``False`` count equals ``simulate_cache``'s miss count; the sweep
    engine turns these flags into per-access latency banks.  Runs the
    LRU stack kernel ``ways`` deep, so it needs :func:`native.available`.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    hits = np.empty(len(blocks), dtype=bool)
    native.lru_stack(blocks, 0, config.sets, config.ways, hits)
    return hits


class CacheHierarchy:
    """L1I + L1D + unified L2 with simple additive latencies."""

    def __init__(self, l1i, l1d, l2, l1_latency=1, l2_latency=8,
                 memory_latency=40):
        self.l1i = Cache(l1i)
        self.l1d = Cache(l1d)
        self.l2 = Cache(l2) if l2 is not None else None
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency

    def access_instruction(self, address):
        """Fetch-side access; returns latency in cycles."""
        if self.l1i.access(address):
            return self.l1_latency
        return self._level2(address)

    def access_data(self, address):
        """Load/store access; returns latency in cycles."""
        if self.l1d.access(address):
            return self.l1_latency
        return self._level2(address)

    def _level2(self, address):
        if self.l2 is None:
            return self.memory_latency
        if self.l2.access(address):
            return self.l2_latency
        return self.l2_latency + self.memory_latency
