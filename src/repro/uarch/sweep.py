"""One-pass multi-configuration microarchitecture sweep.

``simulate_pipeline_sweep(trace, configs)`` reproduces
``PipelineModel.run`` field for field over a whole configuration grid
while digesting the trace only once:

* **Trace digest** (:func:`trace_digest`) — config-independent tables:
  the branch and memory event streams and per-line-size I-access event
  positions.  Computed once per trace, cached on it, and (for
  corpus-sized traces) persisted through the exec artifact store keyed
  by trace content + program fingerprint.
* **Cache outcome banks** — per-access L1I/L1D hit flags, the merged
  L2 miss-stream replay, and the per-event latency arrays the timing
  loop consumes, one bank per *distinct hierarchy* (configs sharing
  cache geometry and latencies share one bank).  Built on
  :func:`repro.uarch.cache.per_access_hits`; prefix sums make any
  ``max_instructions`` cut exact.
* **Predictor outcome banks** — per-branch mispredict flags per
  distinct predictor, from
  :func:`repro.uarch.branch_predictors.predictor_outcome_bank`.
* **Scheduling loop** — the remaining per-config work (the
  fetch/dispatch/issue/commit recurrence) consumes the banks' event
  arrays by cursor, in C (:mod:`repro.uarch.native`).

Digests and cache banks are the native loop's inputs, so a host without
a C compiler (or with ``REPRO_NATIVE=0``) builds none of them: it times
each config with the spec, ``PipelineModel(config).run``, and counts it
in the ``fallback_configs`` stat.

Everything observable (PipelineResult fields, cache stats, predictor
stats, the telemetry-gated stall counters) matches ``PipelineModel.run``
bit for bit; ``tests/test_uarch_sweep.py`` asserts equality across the
corpus and every design change.
"""

import hashlib
import os
import time
import weakref

import numpy as np

from repro.isa.columns import columns_for
from repro.isa.instructions import IClass
from repro.sim.trace import write_npz
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.uarch import native
from repro.uarch.branch_predictors import (make_predictor,
                                           predictor_outcome_bank)
from repro.uarch.cache import per_access_hits
from repro.uarch.pipeline import PipelineModel, PipelineResult

_LOG = get_logger("repro.uarch.sweep")

#: Bump when digest/bank array layout or semantics change; combined
#: with the store's ARTIFACT_SCHEMA_VERSION in every persisted key.
BANK_SCHEMA_VERSION = 2

#: Traces shorter than this are not worth a store round-trip.
_PERSIST_MIN_INSTRUCTIONS = 10_000


# ----------------------------------------------------------------------
# Sweep statistics (feeds uarch.sweep.* telemetry and `repro report`)
# ----------------------------------------------------------------------
_INT_STATS = (
    "grids", "configs", "instructions",
    "digests_built", "digests_reused", "digests_loaded", "digests_saved",
    "cache_banks_built", "cache_banks_reused", "cache_banks_loaded",
    "cache_banks_saved",
    "pred_banks_built", "pred_banks_reused", "pred_banks_loaded",
    "pred_banks_saved",
    "fallback_configs", "native_configs",
    "distinct_hierarchies", "distinct_predictors",
    "predictor_sweeps", "predictor_sweep_kinds",
    "power_models_built", "power_models_reused",
)
_FLOAT_STATS = ("config_seconds", "grid_seconds")

_SWEEP_STATS = {key: 0 for key in _INT_STATS}
_SWEEP_STATS.update({key: 0.0 for key in _FLOAT_STATS})


def _note(key, amount=1):
    _SWEEP_STATS[key] += amount
    if REGISTRY.enabled:
        REGISTRY.counter(f"uarch.sweep.{key}").inc(amount)


def _note_seconds(key, seconds):
    _SWEEP_STATS[key] += seconds
    if REGISTRY.enabled:
        REGISTRY.gauge(f"uarch.sweep.{key}").set(_SWEEP_STATS[key])


def sweep_stats_snapshot():
    """Process-cumulative sweep accounting (manifests, `repro report`)."""
    snapshot = dict(_SWEEP_STATS)
    configs = snapshot["configs"]
    snapshot["mean_config_seconds"] = (
        snapshot["config_seconds"] / configs if configs else 0.0)
    return snapshot


def reset_sweep_stats():
    """Zero the cumulative counters (tests and per-command accounting)."""
    for key in _INT_STATS:
        _SWEEP_STATS[key] = 0
    for key in _FLOAT_STATS:
        _SWEEP_STATS[key] = 0.0


# ----------------------------------------------------------------------
# Trace digest
# ----------------------------------------------------------------------
class TraceDigest:
    """Config-independent tables for one trace (built or restored once).

    ``static`` is the program's shared :class:`ProgramColumns`.  The
    digest also acts as the per-trace home for outcome banks, so
    repeated sweeps over the same trace share everything.

    The trace owns its digest (``trace._sweep_digest``) and the digest
    refers back to it only weakly: a strong back-reference would make
    the pair a cycle, so a dropped trace would keep its digest and
    every bank alive until a full garbage collection.
    """

    def __init__(self, trace, _restored=None):
        self._trace = weakref.ref(trace)
        self.static = columns_for(trace.program)
        self.n = len(trace)
        self.pcs = np.asarray(trace.pcs, dtype=np.int64)
        self._iacc = {}        # shift -> (event positions, line indices)
        self.cache_banks = {}  # hierarchy key -> _CacheBank
        self.pred_banks = {}   # predictor key -> _PredictorBank
        self._class_counts = {}
        self._persisted = False
        if _restored is not None:
            self._restore(*_restored)
        else:
            self._build(trace)

    @property
    def trace(self):
        """The digested trace (None once it has been freed)."""
        return self._trace()

    # -- construction ---------------------------------------------------
    def _build(self, trace):
        n = self.n
        self.b_pos = np.nonzero(trace.taken >= 0)[0]
        self.b_pcs = self.pcs[self.b_pos]
        self.b_taken = trace.taken[self.b_pos] == 1
        memory_mask = (self.static.is_mem[self.pcs] if n
                       else np.zeros(0, dtype=bool))
        self.m_pos = np.nonzero(memory_mask)[0]
        self.m_addrs = trace.addrs[self.m_pos].astype(np.int64)

    def _restore(self, meta, arrays):
        self.b_pos = arrays["b_pos"]
        self.b_pcs = arrays["b_pcs"]
        self.b_taken = arrays["b_taken"].astype(bool)
        self.m_pos = arrays["m_pos"]
        self.m_addrs = arrays["m_addrs"]
        for shift in meta.get("shifts", []):
            shift = int(shift)
            self._iacc[shift] = (arrays[f"iacc_pos_{shift}"],
                                 arrays[f"iacc_lines_{shift}"])
        self._persisted = True

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


def _finalize_cache_bank(bank):
    """Derive the prefix sums from the per-access arrays."""
    bank.i_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.i_hit, dtype=np.int64)))
    bank.d_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.d_hit, dtype=np.int64)))
    bank.l2_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.l2_hit, dtype=np.int64)))
    return bank


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
    return _finalize_cache_bank(bank)


class _PredictorBank:
    """Per-branch mispredict flags for one predictor over one trace."""

    __slots__ = ("miss", "miss_cum")


def _build_pred_bank(digest, config):
    bank = _PredictorBank()
    bank.miss = predictor_outcome_bank(digest.b_pcs, digest.b_taken,
                                       config.predictor,
                                       **config.predictor_kwargs)
    bank.miss_cum = np.concatenate(
        ([0], np.cumsum(bank.miss, dtype=np.int64)))
    return bank


# ----------------------------------------------------------------------
# Artifact-store persistence for digests and banks
# ----------------------------------------------------------------------
def _store_key(kind, trace, component=""):
    from repro.exec.store import ARTIFACT_SCHEMA_VERSION
    material = "\x1f".join([
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"bank_schema={BANK_SCHEMA_VERSION}",
        f"kind={kind}",
        f"trace={trace.content_digest()}",
        f"program={columns_for(trace.program).fingerprint()}",
        f"component={component}",
    ])
    content = hashlib.sha256(material.encode()).hexdigest()[:24]
    return f"sweep-{kind}-{content}"


def _npz_writer(arrays):
    # Uncompressed on purpose: bank/digest saves sit on the cold-sweep
    # critical path and zlib costs more than the disk it saves here.
    def write(path):
        write_npz(path, arrays, compress=False)
    return write


def _load_npz_entry(store, key, filename="bank.npz"):
    """(meta, materialized arrays) from the store, or None."""
    loaded = store.load(key)
    if loaded is None:
        return None
    meta, entry_dir = loaded
    if meta.get("bank_schema") != BANK_SCHEMA_VERSION:
        return None
    try:
        with np.load(os.path.join(entry_dir, filename)) as blob:
            arrays = {name: blob[name] for name in blob.files}
    except (OSError, ValueError, KeyError) as exc:
        _LOG.warning("sweep.bank_corrupt", key=key, error=str(exc))
        return None
    return meta, arrays


def _resolve_store(trace, store):
    """The store banks should persist through, or None to skip."""
    if store is None:
        if len(trace) < _PERSIST_MIN_INSTRUCTIONS:
            return None
        from repro.exec.store import default_store
        store = default_store()
    return store if store.enabled else None


def bank_store_keys(trace, configs):
    """Store keys the sweep reads or writes for ``trace`` under
    ``configs``: the trace digest entry plus each distinct cache and
    predictor outcome bank.

    Computable without building any of the artifacts (the trace content
    digest and program fingerprint are memoized), which is what lets
    the fleet's pin-while-leased layer shield a live run's warm
    digest/bank entries from LRU pruning.
    """
    keys = {_store_key("digest", trace)}
    for config in configs:
        keys.add(_store_key("cbank", trace, repr(_hierarchy_key(config))))
        keys.add(_store_key("pbank", trace, repr(_predictor_key(config))))
    return sorted(keys)


def trace_digest(trace, store=None):
    """The (cached) config-independent digest of one trace.

    With a ``store``, a previously persisted digest for the same trace
    content and program is restored instead of being re-derived, and
    fresh digests are persisted by :func:`simulate_pipeline_sweep` once
    their per-line-size tables have materialized.
    """
    digest = getattr(trace, "_sweep_digest", None)
    if digest is not None:
        _note("digests_reused")
        return digest
    if store is not None:
        restored = _load_npz_entry(store, _store_key("digest", trace),
                                   "digest.npz")
        if restored is not None:
            digest = TraceDigest(trace, _restored=restored)
            _note("digests_loaded")
    if digest is None:
        digest = TraceDigest(trace)
        _note("digests_built")
    trace._sweep_digest = digest
    return digest


def _persist_digest(digest, store):
    if digest._persisted:
        return
    digest._persisted = True
    key = _store_key("digest", digest.trace)
    if store.has(key):
        return
    arrays = {
        "b_pos": digest.b_pos, "b_pcs": digest.b_pcs,
        "b_taken": digest.b_taken, "m_pos": digest.m_pos,
        "m_addrs": digest.m_addrs,
    }
    for shift, (positions, lines) in digest._iacc.items():
        arrays[f"iacc_pos_{shift}"] = positions
        arrays[f"iacc_lines_{shift}"] = lines
    meta = {
        "kind": "sweep-digest",
        "bank_schema": BANK_SCHEMA_VERSION,
        "instructions": digest.n,
        "shifts": sorted(digest._iacc),
    }
    store.save(key, meta, {"digest.npz": _npz_writer(arrays)})
    _note("digests_saved")


def _cache_bank_for(digest, config, store):
    key = _hierarchy_key(config)
    bank = digest.cache_banks.get(key)
    if bank is not None:
        _note("cache_banks_reused")
        return bank
    if store is not None:
        restored = _load_npz_entry(
            store, _store_key("cbank", digest.trace, repr(key)))
        if restored is not None:
            meta, arrays = restored
            bank = _CacheBank()
            bank.shift = int(meta["shift"])
            bank.has_l2 = bool(meta["has_l2"])
            bank.i_hit = arrays["i_hit"].astype(bool)
            bank.d_hit = arrays["d_hit"].astype(bool)
            bank.l2_pos = arrays["l2_pos"]
            bank.l2_hit = arrays["l2_hit"].astype(bool)
            bank.iacc_extra = arrays["iacc_extra"]
            bank.dacc_lat = arrays["dacc_lat"]
            digest.cache_banks[key] = _finalize_cache_bank(bank)
            _note("cache_banks_loaded")
            return bank
    bank = digest.cache_banks[key] = _build_cache_bank(digest, config)
    _note("cache_banks_built")
    if store is not None:
        arrays = {"i_hit": bank.i_hit, "d_hit": bank.d_hit,
                  "l2_pos": bank.l2_pos, "l2_hit": bank.l2_hit,
                  "iacc_extra": bank.iacc_extra,
                  "dacc_lat": bank.dacc_lat}
        meta = {"kind": "sweep-cache-bank",
                "bank_schema": BANK_SCHEMA_VERSION,
                "component": repr(key), "shift": bank.shift,
                "has_l2": bank.has_l2, "instructions": digest.n}
        store.save(key=_store_key("cbank", digest.trace, repr(key)),
                   meta=meta, files={"bank.npz": _npz_writer(arrays)})
        _note("cache_banks_saved")
    return bank


def _pred_bank_for(digest, config, store):
    key = _predictor_key(config)
    bank = digest.pred_banks.get(key)
    if bank is not None:
        _note("pred_banks_reused")
        return bank
    if store is not None:
        restored = _load_npz_entry(
            store, _store_key("pbank", digest.trace, repr(key)))
        if restored is not None:
            _, arrays = restored
            bank = _PredictorBank()
            bank.miss = arrays["miss"].astype(bool)
            bank.miss_cum = np.concatenate(
                ([0], np.cumsum(bank.miss, dtype=np.int64)))
            digest.pred_banks[key] = bank
            _note("pred_banks_loaded")
            return bank
    bank = digest.pred_banks[key] = _build_pred_bank(digest, config)
    _note("pred_banks_built")
    if store is not None:
        meta = {"kind": "sweep-predictor-bank",
                "bank_schema": BANK_SCHEMA_VERSION,
                "component": repr(key), "instructions": digest.n}
        store.save(key=_store_key("pbank", digest.trace, repr(key)),
                   meta=meta,
                   files={"bank.npz": _npz_writer({"miss": bank.miss})})
        _note("pred_banks_saved")
    return bank


class _PredictorSpec:
    """Just enough config surface for ``_predictor_key`` /
    ``_pred_bank_for`` when there is no full MachineConfig."""

    __slots__ = ("predictor", "predictor_kwargs")

    def __init__(self, predictor, predictor_kwargs):
        self.predictor = predictor
        self.predictor_kwargs = predictor_kwargs


def simulate_predictor_sweep(trace, specs, store=None):
    """Misprediction stats for many predictors from one branch stream.

    ``specs`` is an iterable of predictor kinds (``"gap"``) or
    ``(kind, kwargs)`` pairs.  Returns one predictor object per spec,
    in order, with ``stats`` populated exactly as
    :func:`repro.uarch.branch_predictors.simulate_predictor` would —
    but the per-branch outcome flags come from the sweep engine's
    predictor outcome banks, so they are derived once per (trace,
    predictor) across the whole process *and* persisted through the
    artifact store: every later sweep, fleet cell, or experiment that
    touches the same pair reuses them instead of re-walking the
    branch stream.
    """
    specs = [(spec, {}) if isinstance(spec, str) else (spec[0],
                                                      dict(spec[1]))
             for spec in specs]
    store = _resolve_store(trace, store)
    digest = trace_digest(trace, store)
    lookups = len(digest.b_pos)
    results = []
    for kind, kwargs in specs:
        spec = _PredictorSpec(kind, kwargs)
        bank = _pred_bank_for(digest, spec, store)
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
def _run_config(digest, config, cache_bank, pred_bank, total,
                class_counts):
    """Time one config in C over the digest and its outcome banks."""
    started = time.perf_counter()
    scalars = native.run_range(total, digest, config, cache_bank, pred_bank)
    _note("native_configs")

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
    telemetry = REGISTRY.enabled
    result = PipelineResult(
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
        rob_stalls=int(scalars[12]) if telemetry else 0,
        lsq_stalls=int(scalars[13]) if telemetry else 0,
        fetch_queue_stalls=int(scalars[14]) if telemetry else 0,
        redirect_cycles=int(scalars[15]) if telemetry else 0,
    )
    result.wall_seconds = time.perf_counter() - started
    if telemetry:
        # Same accounting PipelineModel.run emits, so grids keep
        # feeding the pipeline.* dashboards on either timing path.
        REGISTRY.counter("pipeline.instructions").inc(total)
        REGISTRY.counter("pipeline.runs").inc()
        REGISTRY.gauge("pipeline.sim_mips").set(result.simulated_mips)
    return result


def _native_timer(trace, configs, total, store):
    """Digest ``trace`` and build (or load) every outcome bank the grid
    needs; returns the function that times one config natively."""
    store = _resolve_store(trace, store)
    digest = trace_digest(trace, store)
    class_counts = digest.class_counts(total)
    cache_banks = {}
    pred_banks = {}
    for config in configs:
        key = _hierarchy_key(config)
        if key not in cache_banks:
            cache_banks[key] = _cache_bank_for(digest, config, store)
        key = _predictor_key(config)
        if key not in pred_banks:
            pred_banks[key] = _pred_bank_for(digest, config, store)
    if store is not None:
        _persist_digest(digest, store)

    def time_config(config):
        return _run_config(digest, config,
                           cache_banks[_hierarchy_key(config)],
                           pred_banks[_predictor_key(config)], total,
                           class_counts)
    return time_config


def _spec_timer(trace, max_instructions):
    """Without the C loop every config is timed by the spec itself."""
    def time_config(config):
        _note("fallback_configs")
        return PipelineModel(config).run(trace, max_instructions)
    return time_config


def simulate_pipeline_sweep(trace, configs, max_instructions=None,
                            store=None):
    """Time one trace against many configs; one digestion, shared banks.

    Returns one :class:`PipelineResult` per config, in config order,
    each field-for-field identical to
    ``PipelineModel(config).run(trace, max_instructions)``.  ``store``
    overrides the artifact store used for digest/bank persistence
    (``None`` means the default store for corpus-sized traces).
    """
    configs = list(configs)
    if not configs:
        return []
    grid_started = time.perf_counter()
    total = len(trace)
    if max_instructions is not None and total > max_instructions:
        total = max_instructions
    with span("uarch.sweep", configs=len(configs)):
        if native.available():
            time_config = _native_timer(trace, configs, total, store)
        else:
            time_config = _spec_timer(trace, max_instructions)
        # Nothing is journaled per config: the call is one span.
        results = [time_config(config) for config in configs]
    _note_seconds("config_seconds",
                  sum(result.wall_seconds for result in results))
    hierarchies = len({_hierarchy_key(config) for config in configs})
    predictors = len({_predictor_key(config) for config in configs})
    _note("grids")
    _note("configs", len(configs))
    _note("instructions", total * len(configs))
    _note("distinct_hierarchies", hierarchies)
    _note("distinct_predictors", predictors)
    _note_seconds("grid_seconds", time.perf_counter() - grid_started)
    if REGISTRY.enabled:
        _LOG.debug("uarch.sweep", configs=len(configs),
                   instructions=total, hierarchies=hierarchies,
                   predictors=predictors)
    return results
