"""File-backed work-stealing queue (block leases + cell results on disk).

Every fleet run directory holds two flat namespaces::

    <run>/leases/<block_id>.json   one worker's live claim on a block
    <run>/results/<cell_id>.json   one cell's published result

A lease covers a block — a run of same-trace cells the scheduler cut
(:mod:`repro.fleet.scheduler`) — while results stay per cell.  The
queue itself only knows ids: claiming is an ``O_CREAT | O_EXCL`` open —
the filesystem arbitrates, so any number of worker processes (and
multiple hosts sharing the run directory) can race on the same block
and exactly one wins.  Results are published with the same write-aside
+ ``os.rename`` idiom the artifact store uses, so a reader never sees a
torn result and re-publication of an identical result is harmless (the
cells are deterministic).

A lease carries the owner's pid/host and is refreshed by
:meth:`FleetQueue.heartbeat` (each worker beats from one daemon thread
for whichever lease it holds); :meth:`reclaim` releases leases whose
owner is provably dead (same host, pid gone) immediately and any other
lease after ``lease_ttl`` seconds without a heartbeat — so a SIGKILL-ed
worker strands its in-flight block for at most one TTL, and in the
common single-host case for no time at all.  A same-host owner whose
pid is still alive is authoritative: its lease is never reclaimed on
TTL age alone, so a block that outlives the TTL is not re-executed by a
sibling.

Every claim / steal / complete / reclaim emits a ``fleet`` journal
event, giving ``repro tail`` and post-mortem ``repro trace`` the full
scheduling history.
"""

import errno
import json
import os
import socket
import tempfile
import time
from contextlib import suppress

from repro.obs.journal import emit_event
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

_LOG = get_logger("repro.fleet.queue")

#: Seconds without a heartbeat after which a foreign-host (or
#: unidentifiable) lease is considered abandoned.
DEFAULT_LEASE_TTL = 60.0

LEASES_DIR = "leases"
RESULTS_DIR = "results"


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

    def ensure_dirs(self):
        os.makedirs(self.leases_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def lease_path(self, lease_id):
        return os.path.join(self.leases_dir, f"{lease_id}.json")

    def result_path(self, cell_id):
        return os.path.join(self.results_dir, f"{cell_id}.json")

    def has_result(self, cell_id):
        return os.path.exists(self.result_path(cell_id))

    def completed_ids(self):
        """Cell ids with a published result."""
        try:
            names = os.listdir(self.results_dir)
        except OSError:
            return set()
        return {name[:-5] for name in names if name.endswith(".json")}

    def leased_ids(self):
        try:
            names = os.listdir(self.leases_dir)
        except OSError:
            return set()
        return {name[:-5] for name in names if name.endswith(".json")}

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
    def publish(self, cell_id, payload):
        """Atomically publish one cell result (the lease is untouched).

        The staging name is unique per process and cell, so no
        ``mkstemp`` search is needed; it never ends in ``.json``, so
        :meth:`completed_ids` cannot mistake it for a result.
        """
        path = self.result_path(cell_id)
        staging = os.path.join(self.results_dir,
                               f".{cell_id}.{os.getpid()}.tmp")
        try:
            # One write of the whole text: ``json.dump`` would make one
            # small write per token.
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            with open(staging, "w") as handle:
                handle.write(text)
            os.rename(staging, path)
        except BaseException:
            with suppress(OSError):
                os.remove(staging)
            raise
        REGISTRY.counter("fleet.cells_completed").inc()

    def complete(self, cell_id, payload, worker=None):
        """Publish one result under its own lease id and drop the lease."""
        self.publish(cell_id, payload)
        self.release(cell_id)
        emit_event("fleet", event="complete", cell=cell_id, worker=worker)

    def read_result(self, cell_id):
        """The published result payload, or None (torn reads -> None)."""
        try:
            with open(self.result_path(cell_id)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------
    def reclaim(self, lease_ids=None, worker=None):
        """Release abandoned leases; returns the reclaimed lease ids.

        A lease is abandoned when its id has no result and either its
        owner pid is dead on this host (immediate) or its last
        heartbeat is older than the TTL (cross-host fallback).  A
        same-host owner whose pid is alive keeps the lease regardless
        of TTL — matching the workers' own wait logic — so a slow block
        is never stolen from a live process.
        """
        if lease_ids is None:
            lease_ids = self.leased_ids()
        now = time.time()
        reclaimed = []
        for lease_id in sorted(lease_ids):
            if self.has_result(lease_id):
                # A completed id should have no lease; sweep leftovers.
                self.release(lease_id)
                continue
            info = self.lease_info(lease_id)
            if info is None:
                continue
            same_host = (info.get("host") == self.host
                         and isinstance(info.get("pid"), int))
            alive_here = same_host and _pid_alive(info["pid"])
            dead = same_host and not alive_here
            expired = now - float(info.get("ts") or 0.0) > self.lease_ttl
            if not dead and (alive_here or not expired):
                continue
            self.release(lease_id)
            reclaimed.append(lease_id)
            REGISTRY.counter("fleet.reclaims").inc()
            emit_event("fleet", event="reclaim", lease=lease_id,
                       worker=worker, previous=info.get("worker"),
                       reason="dead_pid" if dead else "expired")
            _LOG.info("fleet.reclaim", lease=lease_id,
                      previous=info.get("worker"),
                      reason="dead_pid" if dead else "expired")
        return reclaimed
