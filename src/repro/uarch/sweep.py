"""One-pass multi-configuration microarchitecture sweep.

``simulate_pipeline_sweep(trace, configs)`` reproduces
``PipelineModel.run`` field for field over a whole configuration grid
while digesting the trace only once:

* **Trace digest** (:func:`trace_digest`) — config-independent tables:
  the branch and memory event streams and per-line-size I-access event
  positions.  Computed once per trace and cached on it
  (``trace._sweep_digest``), never persisted: rebuilding it from the
  trace in memory costs less than loading it from the artifact store.
* **Cache outcome banks** — per-access L1I/L1D hit flags, the merged
  L2 miss-stream replay, and the per-event latency arrays the timing
  loop consumes, one bank per *distinct hierarchy* (configs sharing
  cache geometry and latencies share one bank).  Built on
  :func:`repro.uarch.cache.per_access_hits`; prefix sums make any
  ``max_instructions`` cut exact.
* **Predictor outcome banks** — per-branch mispredict flags per
  distinct predictor, from
  :func:`repro.uarch.branch_predictors.predictor_outcome_bank`.  Both
  kinds of bank live on the digest, so they last as long as the trace.
* **Scheduling loop** — the remaining per-config work (the
  fetch/dispatch/issue/commit recurrence) consumes the banks' event
  arrays by cursor, in C (:mod:`repro.uarch.native`).  Configs that
  agree on the ring and FU-pool sizes and the I-line size
  (:func:`_shape_key`) are timed together, up to the host's lane width
  per pass over the digest (``lane_configs`` counts them); a config
  with no same-shape partner left is timed alone.  Each config's
  ``wall_seconds`` is its share of the pass that timed it.

Digests and cache banks are the native loop's inputs, so a host without
a C compiler (or with ``REPRO_NATIVE=0``) builds none of them: it times
each config with the spec, ``PipelineModel(config).run``, and counts it
in the ``fallback_configs`` stat.

Everything observable (PipelineResult fields, cache stats, predictor
stats, the ROB/LSQ/fetch-queue stall and redirect counters) matches
``PipelineModel.run`` bit for bit; ``tests/test_uarch_sweep.py``
asserts equality across the corpus and every design change.
"""

import time
import weakref

import numpy as np

from repro.isa.columns import columns_for
from repro.isa.instructions import IClass
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.uarch import native
from repro.uarch.branch_predictors import (make_predictor,
                                           predictor_outcome_bank)
from repro.uarch.cache import per_access_hits
from repro.uarch.pipeline import PipelineModel, PipelineResult

_LOG = get_logger("repro.uarch.sweep")


# ----------------------------------------------------------------------
# Sweep statistics: the registry counters ``uarch.sweep.<key>``
# ----------------------------------------------------------------------
#: Every key :func:`sweep_stats_snapshot` reports, zero until counted.
_STATS = (
    "grids", "configs", "instructions",
    "digests_built", "digests_reused",
    "cache_banks_built", "cache_banks_reused",
    "pred_banks_built", "pred_banks_reused",
    "fallback_configs", "native_configs", "lane_configs",
    "distinct_hierarchies", "distinct_predictors",
    "predictor_sweeps", "predictor_sweep_kinds",
    "power_models_built", "power_models_reused",
    "config_seconds", "grid_seconds",
)


def _note(key, amount=1):
    REGISTRY.counter(f"uarch.sweep.{key}").inc(amount)


def sweep_stats_snapshot():
    """Process-cumulative sweep accounting (manifests, `repro report`)."""
    snapshot = {}
    for key in _STATS:
        instrument = REGISTRY.get(f"uarch.sweep.{key}")
        snapshot[key] = 0 if instrument is None else instrument.value
    configs = snapshot["configs"]
    snapshot["mean_config_seconds"] = (
        snapshot["config_seconds"] / configs if configs else 0.0)
    return snapshot


# ----------------------------------------------------------------------
# Trace digest
# ----------------------------------------------------------------------
class TraceDigest:
    """Config-independent tables for one trace (built once).

    ``static`` is the program's shared :class:`ProgramColumns`.  The
    digest also acts as the per-trace home for outcome banks, so
    repeated sweeps over the same trace share everything.

    The trace owns its digest (``trace._sweep_digest``) and the digest
    refers back to it only weakly: a strong back-reference would make
    the pair a cycle, so a dropped trace would keep its digest and
    every bank alive until a full garbage collection.
    """

    def __init__(self, trace):
        self._trace = weakref.ref(trace)
        self.static = columns_for(trace.program)
        n = self.n = len(trace)
        self.pcs = np.asarray(trace.pcs, dtype=np.int64)
        self._iacc = {}        # shift -> (event positions, line indices)
        self.cache_banks = {}  # hierarchy key -> _CacheBank
        self.pred_banks = {}   # predictor key -> _PredictorBank
        self._class_counts = {}
        self.b_pos = np.nonzero(trace.taken >= 0)[0]
        self.b_pcs = self.pcs[self.b_pos]
        self.b_taken = trace.taken[self.b_pos] == 1
        memory_mask = (self.static.is_mem[self.pcs] if n
                       else np.zeros(0, dtype=bool))
        self.m_pos = np.nonzero(memory_mask)[0]
        self.m_addrs = trace.addrs[self.m_pos].astype(np.int64)

    @property
    def trace(self):
        """The digested trace (None once it has been freed)."""
        return self._trace()

    # -- derived tables -------------------------------------------------
    def iacc(self, shift):
        """I-access event (positions, line indices) for one line size.

        The event stream is the consecutive-deduplication of the dynamic
        line-index stream — exactly the accesses run()'s ``last_line``
        check performs, and prefix-stable under truncation.
        """
        cached = self._iacc.get(shift)
        if cached is None:
            lines = self.static.pc_addresses[self.pcs] >> shift
            change = np.empty(self.n, dtype=bool)
            if self.n:
                change[0] = True
                change[1:] = lines[1:] != lines[:-1]
            positions = np.nonzero(change)[0]
            cached = self._iacc[shift] = (positions, lines[positions])
        return cached

    def class_counts(self, total):
        """Instruction-class histogram of the first ``total`` entries,
        exactly as run() computes it (callers copy before mutating)."""
        cached = self._class_counts.get(total)
        if cached is None:
            cached = [0] * IClass.COUNT
            if total:
                histogram = np.bincount(self.static.iclass[self.pcs[:total]],
                                        minlength=IClass.COUNT)
                cached = [int(count) for count in histogram]
            self._class_counts[total] = cached
        return cached


# ----------------------------------------------------------------------
# Outcome banks
# ----------------------------------------------------------------------
class _CacheBank:
    """Per-access cache outcomes for one hierarchy over one trace."""

    __slots__ = ("shift", "i_hit", "d_hit", "l2_pos", "l2_hit", "has_l2",
                 "iacc_extra", "dacc_lat", "i_hit_cum", "d_hit_cum",
                 "l2_hit_cum")


def _hierarchy_key(config):
    return (config.l1i, config.l1d, config.l2, config.l1_latency,
            config.l2_latency, config.memory_latency)


def _predictor_key(config):
    return (config.predictor,
            tuple(sorted(config.predictor_kwargs.items())))


def _prefix_sum(flags):
    return np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))


def _build_cache_bank(digest, config):
    """Replay I/D/L2 once for one hierarchy; all outcomes per access.

    The unified L2 sees exactly run()'s access stream: each L1 miss, in
    instruction order, with an instruction's I-side miss (line-aligned
    address) ahead of its D-side miss (raw address).  A stable sort of
    ``2*pos + side`` keys realizes that interleaving, and the inverse
    permutation routes the replayed outcomes back to each L1 stream.
    """
    bank = _CacheBank()
    shift = bank.shift = config.l1i.line_shift
    iacc_pos, iacc_lines = digest.iacc(shift)
    bank.i_hit = per_access_hits(iacc_lines, config.l1i)
    bank.d_hit = per_access_hits(digest.m_addrs >> config.l1d.line_shift,
                                 config.l1d)

    i_miss = ~bank.i_hit
    d_miss = ~bank.d_hit
    keys = np.concatenate((iacc_pos[i_miss] * 2,
                           digest.m_pos[d_miss] * 2 + 1))
    miss_addresses = np.concatenate((iacc_lines[i_miss] << shift,
                                     digest.m_addrs[d_miss]))
    order = np.argsort(keys, kind="stable")
    bank.l2_pos = keys[order] >> 1
    n_l2 = len(order)
    bank.has_l2 = config.l2 is not None
    if bank.has_l2 and n_l2:
        bank.l2_hit = per_access_hits(
            miss_addresses[order] >> config.l2.line_shift, config.l2)
        miss_latency = np.where(bank.l2_hit, config.l2_latency,
                                config.l2_latency + config.memory_latency)
    else:
        bank.l2_hit = np.zeros(n_l2, dtype=bool)
        miss_latency = np.full(n_l2, config.memory_latency, dtype=np.int64)
    inverse = np.empty(n_l2, dtype=np.int64)
    inverse[order] = np.arange(n_l2, dtype=np.int64)
    n_i_miss = int(np.count_nonzero(i_miss))
    # run() stalls fetch only by the latency *beyond* the L1 hit time.
    bank.iacc_extra = np.zeros(len(bank.i_hit), dtype=np.int64)
    bank.iacc_extra[i_miss] = np.maximum(
        miss_latency[inverse[:n_i_miss]] - config.l1_latency, 0)
    bank.dacc_lat = np.full(len(bank.d_hit), config.l1_latency,
                            dtype=np.int64)
    bank.dacc_lat[d_miss] = miss_latency[inverse[n_i_miss:]]
    bank.i_hit_cum = _prefix_sum(bank.i_hit)
    bank.d_hit_cum = _prefix_sum(bank.d_hit)
    bank.l2_hit_cum = _prefix_sum(bank.l2_hit)
    return bank


class _PredictorBank:
    """Per-branch mispredict flags for one predictor over one trace."""

    __slots__ = ("miss", "miss_cum")


def _build_pred_bank(digest, kind, kwargs):
    bank = _PredictorBank()
    bank.miss = predictor_outcome_bank(digest.b_pcs, digest.b_taken, kind,
                                       **kwargs)
    bank.miss_cum = _prefix_sum(bank.miss)
    return bank


def trace_digest(trace):
    """The (cached) config-independent digest of one trace."""
    digest = getattr(trace, "_sweep_digest", None)
    if digest is not None:
        _note("digests_reused")
        return digest
    digest = trace._sweep_digest = TraceDigest(trace)
    _note("digests_built")
    return digest


def _cache_bank_for(digest, config):
    key = _hierarchy_key(config)
    bank = digest.cache_banks.get(key)
    if bank is not None:
        _note("cache_banks_reused")
        return bank
    bank = digest.cache_banks[key] = _build_cache_bank(digest, config)
    _note("cache_banks_built")
    return bank


def _pred_bank_for(digest, kind, kwargs):
    key = (kind, tuple(sorted(kwargs.items())))
    bank = digest.pred_banks.get(key)
    if bank is not None:
        _note("pred_banks_reused")
        return bank
    bank = digest.pred_banks[key] = _build_pred_bank(digest, kind, kwargs)
    _note("pred_banks_built")
    return bank


def simulate_predictor_sweep(trace, specs):
    """Misprediction stats for many predictors from one branch stream.

    ``specs`` is an iterable of predictor kinds (``"gap"``) or
    ``(kind, kwargs)`` pairs.  Returns one predictor object per spec,
    in order, with ``stats`` populated exactly as
    :func:`repro.uarch.branch_predictors.simulate_predictor_reference`
    would.  The per-branch outcome flags come from the sweep engine's
    predictor outcome banks, so they are derived once per (trace,
    predictor) in the process: every later sweep or experiment that
    touches the same trace object reuses them instead of re-walking
    the branch stream.
    """
    specs = [(spec, {}) if isinstance(spec, str) else (spec[0],
                                                      dict(spec[1]))
             for spec in specs]
    digest = trace_digest(trace)
    lookups = len(digest.b_pos)
    results = []
    for kind, kwargs in specs:
        bank = _pred_bank_for(digest, kind, kwargs)
        predictor = make_predictor(kind, **kwargs)
        predictor.stats.lookups = lookups
        predictor.stats.mispredictions = int(bank.miss_cum[-1])
        results.append(predictor)
    _note("predictor_sweeps")
    _note("predictor_sweep_kinds", len(specs))
    return results


# ----------------------------------------------------------------------
# Per-config execution and the public sweep entry point
# ----------------------------------------------------------------------
def _shape_key(config):
    """What the configs of one lane pass share: the ring and FU-pool
    sizes the lane state is laid out by, and the I-line size the
    I-access event positions follow."""
    return (config.rob_size, config.lsq_size, config.fetch_queue,
            config.n_int_alu, config.n_int_mul, config.n_fp_alu,
            config.n_fp_mul, config.n_mem_ports, config.l1i.line_shift)


#: Fewest live lanes worth a lane pass.  ``bench_sweep_kernel.py``
#: measured one pass at 1.0-1.25 scalar configs' time at 8 lanes and
#: 1.1-1.7 at 4, so a pass pays from two configs on; a lone config is
#: timed by ``repro_run_range``, as a one-lane build of the lane kernel
#: ran about 40% slower than it.
_MIN_LANES = 2


def _lane_passes(configs, width):
    """``(passes, singles)``: index lists of same-shape configs to time
    ``width`` at a time in lanes, and the indices left to time alone."""
    if width < _MIN_LANES:
        return [], list(range(len(configs)))
    groups = {}
    for index, config in enumerate(configs):
        groups.setdefault(_shape_key(config), []).append(index)
    passes, singles = [], []
    for members in groups.values():
        for start in range(0, len(members), width):
            chunk = members[start:start + width]
            if len(chunk) >= _MIN_LANES:
                passes.append(chunk)
            else:
                singles.extend(chunk)
    return passes, singles


def _result(digest, config, cache_bank, pred_bank, total, class_counts,
            scalars):
    """The PipelineResult of one config from its final scalars."""
    n_iacc = int(np.searchsorted(digest.iacc(cache_bank.shift)[0], total,
                                 side="left"))
    n_data = int(np.searchsorted(digest.m_pos, total, side="left"))
    n_branch = int(np.searchsorted(digest.b_pos, total, side="left"))
    if cache_bank.has_l2:
        n_l2 = int(np.searchsorted(cache_bank.l2_pos, total, side="left"))
        l2_accesses = n_l2
        l2_misses = n_l2 - int(cache_bank.l2_hit_cum[n_l2])
    else:
        l2_accesses = 0
        l2_misses = 0
    return PipelineResult(
        config=config,
        instructions=total,
        cycles=max(1, int(scalars[6])),
        class_counts=list(class_counts),
        icache_accesses=n_iacc,
        icache_misses=n_iacc - int(cache_bank.i_hit_cum[n_iacc]),
        dcache_accesses=n_data,
        dcache_misses=n_data - int(cache_bank.d_hit_cum[n_data]),
        l2_accesses=l2_accesses,
        l2_misses=l2_misses,
        branch_lookups=n_branch,
        branch_mispredictions=int(pred_bank.miss_cum[n_branch]),
        rob_stalls=int(scalars[12]),
        lsq_stalls=int(scalars[13]),
        fetch_queue_stalls=int(scalars[14]),
        redirect_cycles=int(scalars[15]),
    )


def _native_times(trace, configs, total):
    """Digest ``trace``, build every outcome bank the grid needs, and
    time every config in C: same-shape configs in lane passes, the rest
    one by one.  Each config's ``wall_seconds`` is its share of the
    pass that timed it."""
    digest = trace_digest(trace)
    class_counts = digest.class_counts(total)
    cache_banks = {}
    pred_banks = {}
    for config in configs:
        key = _hierarchy_key(config)
        if key not in cache_banks:
            cache_banks[key] = _cache_bank_for(digest, config)
        key = _predictor_key(config)
        if key not in pred_banks:
            pred_banks[key] = _pred_bank_for(digest, config.predictor,
                                             config.predictor_kwargs)

    def banks(config):
        return (cache_banks[_hierarchy_key(config)],
                pred_banks[_predictor_key(config)])

    width = native.lane_width()
    passes, singles = _lane_passes(configs, width)
    if passes and not native.lanes_available(width):
        passes, singles = [], list(range(len(configs)))
    results = [None] * len(configs)
    for indices in passes:
        started = time.perf_counter()
        group = [configs[index] for index in indices]
        lane_banks = [banks(config) for config in group]
        scalars = native.run_lanes(
            total, digest, group, [bank for bank, _ in lane_banks],
            [bank for _, bank in lane_banks], width)
        timed = [_result(digest, config, *bank_pair, total, class_counts,
                         scalars[:, lane])
                 for lane, (config, bank_pair)
                 in enumerate(zip(group, lane_banks))]
        share = (time.perf_counter() - started) / len(indices)
        for index, result in zip(indices, timed):
            result.wall_seconds = share
            results[index] = result
        _note("lane_configs", len(indices))
    for index in singles:
        started = time.perf_counter()
        config = configs[index]
        cache_bank, pred_bank = banks(config)
        scalars = native.run_range(total, digest, config, cache_bank,
                                   pred_bank)
        results[index] = _result(digest, config, cache_bank, pred_bank,
                                 total, class_counts, scalars)
        results[index].wall_seconds = time.perf_counter() - started
    # Same accounting PipelineModel.run emits, so grids keep feeding
    # the pipeline.* counters on either timing path.
    REGISTRY.counter("pipeline.instructions").inc(total * len(configs))
    REGISTRY.counter("pipeline.runs").inc(len(configs))
    REGISTRY.gauge("pipeline.sim_mips").set(results[-1].simulated_mips)
    _note("native_configs", len(configs))
    return results


def _spec_times(trace, configs, max_instructions):
    """Without the C loop every config is timed by the spec itself."""
    _note("fallback_configs", len(configs))
    return [PipelineModel(config).run(trace, max_instructions)
            for config in configs]


def simulate_pipeline_sweep(trace, configs, max_instructions=None,
                            store=None):
    """Time one trace against many configs; one digestion, shared banks.

    Returns one :class:`PipelineResult` per config, in config order,
    each field-for-field identical to
    ``PipelineModel(config).run(trace, max_instructions)``.  Digests
    and banks stay in process, on the trace.  ``store`` is accepted and
    ignored, kept only because ``perfbench/checks.py`` passes it.
    """
    configs = list(configs)
    if not configs:
        return []
    grid_started = time.perf_counter()
    total = len(trace)
    if max_instructions is not None and total > max_instructions:
        total = max_instructions
    with span("uarch.sweep", configs=len(configs)):
        # Nothing is journaled per config: the call is one span.
        if native.available():
            results = _native_times(trace, configs, total)
        else:
            results = _spec_times(trace, configs, max_instructions)
    _note("config_seconds", sum(result.wall_seconds for result in results))
    hierarchies = len({_hierarchy_key(config) for config in configs})
    predictors = len({_predictor_key(config) for config in configs})
    _note("grids")
    _note("configs", len(configs))
    _note("instructions", total * len(configs))
    _note("distinct_hierarchies", hierarchies)
    _note("distinct_predictors", predictors)
    _note("grid_seconds", time.perf_counter() - grid_started)
    _LOG.debug("uarch.sweep", configs=len(configs), instructions=total,
               hierarchies=hierarchies, predictors=predictors)
    return results
