"""Set-associative LRU caches (the paper's Section 5.1 substrate).

``Cache`` is a functional hit/miss model with O(1) accesses (per-set
insertion-ordered dicts give constant-time LRU) and, with
``simulate_cache``, the reference replay: the spec.  The batched
replays run every geometry through one exact-LRU C kernel
(:func:`repro.uarch.native.lru_replay`) when a C compiler is present.
``simulate_cache_sweep`` (one stream, many configurations) falls back to
the dict replay ``_replay_blocks`` without one; ``per_access_hits``
(the sweep engine's per-access cache banks) is native only, because the
sweep builds banks only for its native timing loop.  ``CacheHierarchy``
composes L1I/L1D/L2 for the pipeline timing model.
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
def _replay_blocks(blocks, config):
    """Exact port of the :class:`Cache` LRU loop over block indices.

    ``blocks`` must be a list of plain ints (the caller converts the
    numpy block array once and shares it across every config with the
    same line size).
    """
    n_sets = config.sets
    ways = config.ways
    line_sets = [dict() for _ in range(n_sets)]
    is_pow2 = (n_sets & (n_sets - 1)) == 0
    mask = n_sets - 1
    misses = 0
    evictions = 0
    for block in blocks:
        line_set = (line_sets[block & mask] if is_pow2
                    else line_sets[block % n_sets])
        if block in line_set:
            del line_set[block]  # refresh recency
            line_set[block] = None
            continue
        misses += 1
        if len(line_set) >= ways:
            del line_set[next(iter(line_set))]
            evictions += 1
        line_set[block] = None
    return CacheStats(accesses=len(blocks), misses=misses,
                      evictions=evictions)


def simulate_cache_sweep(addresses, configs):
    """Replay one address stream against many configurations.

    Returns a list of :class:`CacheStats`, one per config, in config
    order — each bit-identical to ``simulate_cache(addresses, config)``.
    With a C compiler every config is one native LRU replay of the
    int64 stream; otherwise the stream is converted to a block list
    once per distinct line size and replayed by :func:`_replay_blocks`.
    """
    configs = list(configs)
    address_array = np.asarray(addresses, dtype=np.int64)
    n = len(address_array)
    with span("uarch.cache", configs=len(configs), accesses=n):
        if n == 0:
            return [CacheStats() for _ in configs]
        if native.available():
            return [CacheStats(n, *native.lru_replay(
                        address_array, config.line_shift, config))
                    for config in configs]
        block_lists_by_shift = {}
        results = []
        for config in configs:
            block_list = block_lists_by_shift.get(config.line_shift)
            if block_list is None:
                # A block equal to its predecessor is MRU in its set and
                # hits under *any* geometry, so the replay only needs the
                # consecutive-deduplicated stream (converted once).
                blocks = address_array >> config.line_shift
                keep = np.ones(n, dtype=bool)
                keep[1:] = blocks[1:] != blocks[:-1]
                block_list = block_lists_by_shift[config.line_shift] = \
                    blocks[keep].tolist()
            stats = _replay_blocks(block_list, config)
            stats.accesses = n
            results.append(stats)
        return results


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
    native LRU replay, so it needs :func:`repro.uarch.native.available`.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    hits = np.empty(len(blocks), dtype=bool)
    native.lru_replay(blocks, 0, config, hits)
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
