"""File-backed work-stealing queue (block leases + block results on disk).

Every fleet run directory holds two flat namespaces::

    <run>/leases/<block_id>.json    one worker's live claim on a block
    <run>/results/<block_id>.json   one block's published results

A block — a run of same-trace cells the scheduler cut
(:mod:`repro.fleet.scheduler`) — is the unit of leasing and of
publication: a result file is ``{"schema": 2, "block": <block_id>,
"cells": {<cell_id>: <payload>}}``.  The queue still answers per cell
(:meth:`FleetQueue.completed_ids`, :meth:`FleetQueue.read_result`), and
per-cell files an earlier version wrote (``results/<cell_id>.json``)
count as completed too.  Claiming is an ``O_CREAT | O_EXCL`` open — the
filesystem arbitrates, so any number of worker processes (and multiple
hosts sharing the run directory) can race on the same block and
exactly one wins.  Results are written aside and renamed, as in the
artifact store, so a reader sees a whole block or nothing, and a block
killed part-way publishes nothing.

A lease carries the owner's pid/host and is refreshed by
:meth:`FleetQueue.heartbeat` (each worker beats from one daemon thread
for whichever lease it holds); :meth:`reclaim` releases leases whose
owner is provably dead (same host, pid gone) immediately and any other
lease after ``lease_ttl`` seconds without a heartbeat — so a SIGKILL-ed
worker strands its in-flight block for at most one TTL, and in the
common single-host case for no time at all.  A same-host owner whose
pid is still alive is authoritative: its lease is never reclaimed on
TTL age alone, so a block that outlives the TTL is not re-executed by a
sibling.  A block with a whole result file is never claimed again, and
a leftover lease on it is swept, not reclaimed.

Every claim / steal / reclaim emits a ``fleet`` journal event (the
worker adds one ``complete`` event per finished block), giving
``repro tail`` and post-mortem ``repro trace`` the full scheduling
history.  Each is followed at once by the process's metric deltas, so
the ``fleet.claims``/``fleet.steals``/``fleet.reclaims`` increments are
journaled with their events even if the process is killed next.
"""

import errno
import json
import os
import socket
import tempfile
import time
from contextlib import suppress

from repro.obs.journal import emit_event, emit_metric_deltas
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

_LOG = get_logger("repro.fleet.queue")

#: Seconds without a heartbeat after which a foreign-host (or
#: unidentifiable) lease is considered abandoned.
DEFAULT_LEASE_TTL = 60.0

LEASES_DIR = "leases"
RESULTS_DIR = "results"

#: Block result file layout version (each payload keeps its own).
BLOCK_SCHEMA_VERSION = 2


def _pid_alive(pid):
    """Best-effort liveness of a same-host pid (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


class FleetQueue:
    """Lease/result bookkeeping for one run directory."""

    def __init__(self, run_dir, lease_ttl=DEFAULT_LEASE_TTL):
        self.run_dir = run_dir
        self.lease_ttl = lease_ttl
        self.leases_dir = os.path.join(run_dir, LEASES_DIR)
        self.results_dir = os.path.join(run_dir, RESULTS_DIR)
        self.host = socket.gethostname()
        # Result file stem -> its cell ids (ids only, never payloads):
        # published files are never rewritten, so each is parsed once.
        self._cells_of = {}

    def ensure_dirs(self):
        os.makedirs(self.leases_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def lease_path(self, lease_id):
        return os.path.join(self.leases_dir, f"{lease_id}.json")

    def result_path(self, block_id):
        return os.path.join(self.results_dir, f"{block_id}.json")

    def has_result(self, block_id):
        """Whether ``block_id`` has a whole result file; a torn one is
        none, so its block is re-run and the file replaced."""
        if block_id not in self._cells_of:
            results = self._read(block_id)
            if results is not None:
                self._cells_of[block_id] = frozenset(results)
        return block_id in self._cells_of

    def _read(self, stem):
        """``{cell_id: payload}`` of one result file, or None (torn or
        unreadable); a per-cell file is its own one-cell block."""
        try:
            with open(self.result_path(stem)) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if data.get("schema") == BLOCK_SCHEMA_VERSION:
            return data["cells"]
        return {stem: data}

    @staticmethod
    def _stems(directory):
        """``directory``'s ``.json`` file names without the extension."""
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [name[:-5] for name in names if name.endswith(".json")]

    def completed_ids(self):
        """Cell ids with a published result."""
        return set().union(*(self._cells_of[stem]
                             for stem in self._stems(self.results_dir)
                             if self.has_result(stem)))

    def leased_ids(self):
        return set(self._stems(self.leases_dir))

    # ------------------------------------------------------------------
    def claim(self, lease_id, worker, stolen=False):
        """Try to take one lease; True exactly once across all racers."""
        if self.has_result(lease_id):
            return False
        try:
            fd = os.open(self.lease_path(lease_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError as exc:
            if exc.errno == errno.EEXIST:
                return False
            raise
        record = self._lease_record(worker)
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle)
        REGISTRY.counter("fleet.claims").inc()
        if stolen:
            REGISTRY.counter("fleet.steals").inc()
        emit_event("fleet", event="steal" if stolen else "claim",
                   lease=lease_id, worker=worker)
        # Journal the increment with its event, before the block is
        # timed, so a worker killed holding the block keeps its count.
        emit_metric_deltas()
        return True

    def _lease_record(self, worker):
        return {"worker": worker, "pid": os.getpid(), "host": self.host,
                "ts": round(time.time(), 6)}

    def heartbeat(self, lease_id, worker):
        """Refresh a held lease (atomic rewrite keeps readers whole)."""
        record = self._lease_record(worker)
        fd, staging = tempfile.mkstemp(prefix=f".hb-{os.getpid()}-",
                                       dir=self.leases_dir)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.rename(staging, self.lease_path(lease_id))
        except OSError:
            with suppress(OSError):
                os.remove(staging)

    def lease_info(self, lease_id):
        """The lease record, or None; torn/invalid reads degrade to an
        mtime-only record so reclaim can still age it out."""
        path = self.lease_path(lease_id)
        try:
            with open(path) as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except OSError:
            return None
        except ValueError:
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                return None
            record = {"worker": None, "pid": None, "host": None,
                      "ts": mtime}
        return record

    def release(self, lease_id):
        with suppress(OSError):
            os.remove(self.lease_path(lease_id))

    # ------------------------------------------------------------------
    def publish_block(self, block_id, payloads):
        """Atomically publish one block's ``{cell_id: payload}`` as one
        file (the lease is untouched).  The staging name is unique per
        process and block and never ends in ``.json``."""
        path = self.result_path(block_id)
        staging = os.path.join(self.results_dir,
                               f".{block_id}.{os.getpid()}.tmp")
        try:
            # Compact: the indented encoder runs in pure Python.
            text = json.dumps({"schema": BLOCK_SCHEMA_VERSION,
                               "block": block_id, "cells": payloads},
                              sort_keys=True) + "\n"
            with open(staging, "w") as handle:
                handle.write(text)
            os.rename(staging, path)
        except BaseException:
            with suppress(OSError):
                os.remove(staging)
            raise
        self._cells_of[block_id] = frozenset(payloads)
        REGISTRY.counter("fleet.cells_completed").inc(len(payloads))

    def read_results(self):
        """Every published ``{cell_id: payload}``, each file read once."""
        results = {}
        for stem in self._stems(self.results_dir):
            results.update(self._read(stem) or {})
        return results

    def read_result(self, cell_id):
        """One cell's published payload, or None (torn reads -> None)."""
        if not any(cell_id in ids for ids in self._cells_of.values()):
            self.completed_ids()
        for stem, ids in self._cells_of.items():
            if cell_id in ids:
                return (self._read(stem) or {}).get(cell_id)
        return None

    # ------------------------------------------------------------------
    def reclaim(self, lease_ids=None, worker=None):
        """Release abandoned leases; returns the reclaimed lease ids.

        A lease is reclaimed when its block has no result and
        :meth:`abandoned` names a reason: its owner pid is dead on this
        host (immediate) or its last heartbeat is older than the TTL
        (cross-host fallback).  A same-host owner whose pid is alive
        keeps the lease regardless of TTL — the workers wait on the same
        rule — so a slow block is never stolen from a live process.
        """
        if lease_ids is None:
            lease_ids = self.leased_ids()
        now = time.time()
        reclaimed = []
        for lease_id in sorted(lease_ids):
            if self.has_result(lease_id):
                # A published block should have no lease; sweep it.
                self.release(lease_id)
                continue
            info = self.lease_info(lease_id)
            if info is None:
                continue
            reason = self.abandoned(info, now)
            if reason is None:
                continue
            self.release(lease_id)
            reclaimed.append(lease_id)
            REGISTRY.counter("fleet.reclaims").inc()
            emit_event("fleet", event="reclaim", lease=lease_id,
                       worker=worker, previous=info.get("worker"),
                       reason=reason)
            emit_metric_deltas()
            _LOG.info("fleet.reclaim", lease=lease_id,
                      previous=info.get("worker"), reason=reason)
        return reclaimed

    def abandoned(self, info, now):
        """Why the lease record ``info`` is abandoned at time ``now``
        (``"dead_pid"`` or ``"expired"``), or None while it is live.

        A lease on this host with a pid is live exactly while that pid
        is; any other lease is live while its last heartbeat is within
        the TTL.
        """
        if info.get("host") == self.host and isinstance(info.get("pid"),
                                                        int):
            return None if _pid_alive(info["pid"]) else "dead_pid"
        if now - float(info.get("ts") or 0.0) > self.lease_ttl:
            return "expired"
        return None
