"""One fleet worker process: claim, time, publish, steal.

A worker owns one shard of the run's blocks (:mod:`repro.fleet.scheduler`
— runs of consecutive same-trace cells in affinity order) and works it
head to tail, leasing each block through the
:class:`~repro.fleet.queue.FleetQueue` before timing its cells.
Because a shard keeps all of a trace's cells contiguous, the worker
holds one :class:`~repro.uarch.incremental.IncrementalSession` per
trace, so a block re-uses the already-digested trace and in-memory
outcome banks instead of a cold sweep.

The block is the unit of leasing, timing and publication: it costs one
lease, one ``results/`` listing (the worker otherwise keeps its
completed set in memory), one ``fleet.block`` span (with a ``cells``
count), one :meth:`IncrementalSession.run` call over its cells'
configs, one result file ``results/<block_id>.json``, one progress
event and one metric flush.
One daemon thread per worker refreshes whichever block lease it holds,
so a block that outlives the lease TTL (trace acquisition under a
20M-instruction functional cap can) is never mistaken for abandoned.

When its own shard drains the worker steals whole blocks from the
other shards' tails; when nothing is claimable it reclaims abandoned
leases (dead pid / expired TTL) and retries, so a killed sibling's
in-flight block is re-executed rather than stranded.  A block killed
part-way has published nothing, so its re-run times it whole; a
published result file is never rewritten.  Each retry pass re-scans the
own shard too: a thief can die holding a lease on an own-shard block,
and after the reclaim the shard owner may be the only worker left to
run it (thieves never steal from their own shard).  Every published
metric is deterministic — exclusively :func:`cell_metrics` fields,
which hold only simulation-defined numbers — so re-execution after a
crash always yields the same matrix.

``chaos`` is the fault-injection hook used by tests and the CI smoke
job: ``(worker_index, after_cells)`` makes that worker SIGKILL itself
*mid-block* in the block that takes its executed-cell count past
``after_cells`` — holding the block's lease, after timing the block and
before publishing it.
"""

import json
import os
import signal
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager

from repro.core.synthesizer import SynthesisParameters
from repro.exec.artifacts import pipeline_artifacts, trace_artifacts
from repro.fleet.queue import FleetQueue
from repro.fleet.recipe import recipe_from_dict
from repro.fleet.scheduler import (
    build_shards,
    recipe_blocks,
    steal_candidates,
)
from repro.obs.journal import emit_event, emit_metric_deltas
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.uarch.incremental import IncrementalSession
from repro.uarch.power import shared_power_model
from repro.workloads import get_workload

_LOG = get_logger("repro.fleet.worker")

#: Result payload layout version.
RESULT_SCHEMA_VERSION = 1

#: In-process IncrementalSessions kept warm at once (a session pins its
#: trace and every derived bank in memory; two covers the common
#: "finish my group, steal into another" pattern without ballooning).
_MAX_SESSIONS = 2

#: Poll interval while waiting on other workers' live leases.
_POLL_SECONDS = 0.05

#: A held lease is refreshed at this fraction of the TTL while its block
#: executes, keeping cross-host TTL reclaim honest for slow blocks.
_HEARTBEAT_FRACTION = 1 / 3

RECIPE_FILENAME = "recipe.json"
WORKERS_DIR = "workers"


def parse_chaos(spec):
    """``"index:after"`` (or ``(index, after)``) -> chaos tuple."""
    if spec is None:
        return None
    if isinstance(spec, (tuple, list)):
        index, after = spec
        return int(index), int(after)
    text = str(spec)
    index, _, after = text.partition(":")
    if not after:
        index, after = "0", index
    return int(index), int(after)


def cell_metrics(result, power):
    """The canonical (deterministic) metric dict for one cell.

    Only simulation-defined numbers belong here.  Wall times vary run
    to run and would break the byte-identical matrix contract; the
    rob/lsq/fetch-queue stall and redirect counters are left out only
    to keep the matrix layout unchanged.
    """
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.instructions / result.cycles,
        "icache_accesses": result.icache_accesses,
        "icache_misses": result.icache_misses,
        "dcache_accesses": result.dcache_accesses,
        "dcache_misses": result.dcache_misses,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
        "branch_lookups": result.branch_lookups,
        "branch_mispredictions": result.branch_mispredictions,
        "power": power,
    }


class _Heartbeat:
    """One daemon thread per worker, refreshing whichever lease is held.

    Used as a context manager around the worker's whole run; a block is
    covered by :meth:`holding`.  The lock orders a beat against the
    hand-over, so a beat never rewrites a lease after it was released.
    """

    def __init__(self, queue, worker_id):
        self.queue = queue
        self.worker_id = worker_id
        self.interval = max(queue.lease_ttl * _HEARTBEAT_FRACTION,
                            _POLL_SECONDS)
        self._lock = threading.Lock()
        self._held = None
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._beat, daemon=True,
            name=f"fleet-hb-{self.worker_id}")
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _beat(self):
        while not self._stop.wait(self.interval):
            with self._lock:
                if self._held is not None:
                    self.queue.heartbeat(self._held, self.worker_id)

    @contextmanager
    def holding(self, lease_id):
        with self._lock:
            self._held = lease_id
        try:
            yield
        finally:
            with self._lock:
                self._held = None


class FleetWorker:
    """Executes one worker index's share of a fleet run.

    ``recipe`` and ``cells`` let an in-process caller that already
    expanded the run's recipe pass it down; a worker process reads the
    run directory's recipe and expands it once.
    """

    def __init__(self, run_dir, worker_index, n_workers,
                 lease_ttl=None, chaos=None, recipe=None, cells=None):
        self.run_dir = run_dir
        self.index = worker_index
        self.n_workers = max(1, n_workers)
        if recipe is None:
            recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
            with open(recipe_path) as handle:
                recipe = recipe_from_dict(json.load(handle))
        self.recipe = recipe
        self.cells = recipe.expand() if cells is None else cells
        self.blocks = recipe_blocks(recipe, self.cells)
        self.shards = build_shards(self.blocks, self.n_workers)
        kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
        self.queue = FleetQueue(run_dir, **kwargs)
        self.chaos = parse_chaos(chaos)
        self.worker_id = f"w{worker_index}-{os.getpid()}"
        self.executed = 0
        self.stolen = 0
        self.acquire_seconds = 0.0
        self.uarch_seconds = 0.0
        self.completed = set()
        self._heartbeat = _Heartbeat(self.queue, self.worker_id)
        self._sessions = OrderedDict()

    # ------------------------------------------------------------------
    def _trace_for(self, cell):
        source = get_workload(cell.kernel).source()
        cap = self.recipe.functional_cap
        if cell.subject == "clone":
            parameters = SynthesisParameters(seed=cell.seed)
            return pipeline_artifacts(cell.kernel, source, parameters,
                                      max_instructions=cap).clone_trace
        return trace_artifacts(cell.kernel, source,
                               max_instructions=cap).trace

    def _session_for(self, cell):
        key = cell.trace_key
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session
        acquire_started = time.perf_counter()
        with span("fleet.acquire_trace", kernel=cell.kernel,
                  subject=cell.subject):
            trace = self._trace_for(cell)
        self.acquire_seconds += time.perf_counter() - acquire_started
        session = IncrementalSession(
            trace, max_instructions=self.recipe.pipeline_cap)
        self._sessions[key] = session
        while len(self._sessions) > _MAX_SESSIONS:
            self._sessions.popitem(last=False)
        return session

    def _time_block(self, cells):
        """``{cell_id: payload}`` of same-trace ``cells``, one sweep call."""
        session = self._session_for(cells[0])
        timing_started = time.perf_counter()
        results = session.run([cell.config for cell in cells])
        self.uarch_seconds += time.perf_counter() - timing_started
        payloads = {}
        for cell, result in zip(cells, results):
            power = shared_power_model(cell.config).evaluate(result).total
            payloads[cell.cell_id] = {
                "schema": RESULT_SCHEMA_VERSION,
                "cell": cell.to_dict(),
                "metrics": cell_metrics(result, power),
                "meta": {
                    "worker": self.worker_id,
                    "wall_seconds": result.wall_seconds,
                    "ts": round(time.time(), 6),
                },
            }
        return payloads

    # ------------------------------------------------------------------
    def _maybe_chaos_kill(self, block, cells):
        if self.chaos is None:
            return
        index, after = self.chaos
        if self.index == index and self.executed + len(cells) > after:
            # Mid-block on purpose: the lease is held and the timed block
            # unpublished until a sibling (or resume) re-runs it whole.
            _LOG.warning("fleet.chaos_kill", worker=self.worker_id,
                         block=block.block_id, executed=self.executed)
            emit_event("fleet", event="chaos_kill", block=block.block_id,
                       worker=self.worker_id)
            # The drill journals its counters first, as it does the
            # event: a real SIGKILL loses those since the last block.
            emit_metric_deltas()
            os.kill(os.getpid(), signal.SIGKILL)

    def _pending(self, block):
        """Whether ``block`` still has a cell without a result.  The
        block's own result file is checked on disk, so a block a
        sibling finished since the last listing is skipped."""
        return (any(cell.cell_id not in self.completed
                    for cell in block.cells)
                and not self.queue.has_result(block.block_id))

    def _try_block(self, block, stolen=False):
        if not self._pending(block) or not self.queue.claim(
                block.block_id, self.worker_id, stolen=stolen):
            return False
        # Cells an earlier version published one file each are skipped,
        # never rewritten.
        self.completed = self.queue.completed_ids()
        cells = [cell for cell in block.cells
                 if cell.cell_id not in self.completed]
        if not cells:  # a sibling published it between check and claim
            self.queue.release(block.block_id)
            return False
        with self._heartbeat.holding(block.block_id), span(
                "fleet.block", block=block.block_id,
                kernel=block.cells[0].kernel, cells=len(cells),
                stolen=stolen):
            payloads = self._time_block(cells)
            self._maybe_chaos_kill(block, cells)
            self.queue.publish_block(block.block_id, payloads)
        self.queue.release(block.block_id)
        self.completed.update(payloads)
        self.executed += len(cells)
        if stolen:
            self.stolen += len(cells)
        emit_event("fleet", event="complete", block=block.block_id,
                   cells=len(cells), worker=self.worker_id)
        emit_event("progress", done=len(self.completed),
                   total=len(self.cells), unit="cells",
                   label=block.block_id)
        emit_metric_deltas()
        return True

    def _live_lease_pending(self, pending):
        """Whether any pending block's lease looks alive (wait, don't
        quit): held by a live same-host pid or heartbeat-fresh."""
        now = time.time()
        for block in pending:
            info = self.queue.lease_info(block.block_id)
            # No record: released between scans, claimable next pass.
            if info is None or self.queue.abandoned(info, now) is None:
                return True
        return False

    def run(self):
        """Work the shard, then steal, until the matrix has no pending
        claimable blocks; returns a summary dict."""
        self.queue.ensure_dirs()
        started = time.perf_counter()
        own = self.shards[self.index] if self.index < len(self.shards) \
            else []
        emit_event("fleet", event="worker_begin", worker=self.worker_id,
                   shard=self.index, shard_blocks=len(own),
                   shard_cells=sum(len(block) for block in own),
                   total=len(self.cells))
        self.completed = self.queue.completed_ids()
        with self._heartbeat:
            for block in own:
                self._try_block(block)
            while True:
                progress = False
                # Re-scan the own shard before stealing: a thief may
                # have died holding one of these blocks and, since
                # thieves never steal from their own shard, after the
                # reclaim the shard owner can be the only worker left
                # able to claim it.
                for block in own:
                    if self._try_block(block):
                        progress = True
                for block in steal_candidates(self.shards, self.index,
                                              self._pending):
                    if self._try_block(block, stolen=True):
                        progress = True
                self.completed = self.queue.completed_ids()
                pending = [block for block in self.blocks
                           if self._pending(block)]
                if not pending:
                    break
                if progress:
                    continue
                if self.queue.reclaim(
                        (block.block_id for block in pending),
                        worker=self.worker_id):
                    continue
                if self._live_lease_pending(pending):
                    time.sleep(_POLL_SECONDS)
                    continue
                break  # nothing claimable, nothing reclaimable, owners gone
        summary = {
            "worker": self.worker_id,
            "index": self.index,
            "executed": self.executed,
            "stolen": self.stolen,
            "wall_seconds": round(time.perf_counter() - started, 6),
            # Where the wall went: this worker's functional acquisition
            # (its fleet.acquire_trace spans) vs its sweep calls.
            "sim_acquire_seconds": round(self.acquire_seconds, 6),
            "uarch_time_seconds": round(self.uarch_seconds, 6),
        }
        self._write_summary(summary)
        emit_event("fleet", event="worker_end", **summary)
        emit_metric_deltas()
        return summary

    def _write_summary(self, summary):
        workers_dir = os.path.join(self.run_dir, WORKERS_DIR)
        os.makedirs(workers_dir, exist_ok=True)
        path = os.path.join(workers_dir, f"{self.worker_id}.json")
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")


def worker_entry(run_dir, worker_index, n_workers, lease_ttl=None,
                 chaos=None):
    """Module-level process target (picklable for multiprocessing)."""
    worker = FleetWorker(run_dir, worker_index, n_workers,
                         lease_ttl=lease_ttl, chaos=chaos)
    return worker.run()
