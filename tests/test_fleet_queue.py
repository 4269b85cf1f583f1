"""Lease/result queue: claim arbitration, reclaim, atomic publish."""

import json
import os

import pytest

from repro.fleet import FleetQueue


@pytest.fixture
def queue(tmp_path):
    q = FleetQueue(str(tmp_path / "run"), lease_ttl=60.0)
    q.ensure_dirs()
    return q


def plant_lease(queue, cell_id, pid=None, host=None, ts=None, worker="wX"):
    """Write a lease record as if another worker owned the cell."""
    record = {"worker": worker, "pid": pid,
              "host": queue.host if host is None else host,
              "ts": 0.0 if ts is None else ts}
    with open(queue.lease_path(cell_id), "w") as handle:
        json.dump(record, handle)


def find_dead_pid():
    """A pid that provably does not exist right now."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


class TestClaim:
    def test_claim_wins_exactly_once(self, queue):
        assert queue.claim("cell-a", "w0") is True
        assert queue.claim("cell-a", "w1") is False

    def test_claim_refused_after_result(self, queue):
        queue.claim("cell-a", "w0")
        queue.publish("cell-a", {"metrics": {}})
        queue.release("cell-a")
        assert queue.claim("cell-a", "w1") is False

    def test_release_reopens_cell(self, queue):
        queue.claim("cell-a", "w0")
        queue.release("cell-a")
        assert queue.claim("cell-a", "w1") is True

    def test_lease_record_identifies_owner(self, queue):
        queue.claim("cell-a", "w0")
        info = queue.lease_info("cell-a")
        assert info["worker"] == "w0"
        assert info["pid"] == os.getpid()
        assert info["host"] == queue.host

    def test_heartbeat_refreshes_timestamp(self, queue):
        queue.claim("cell-a", "w0")
        before = queue.lease_info("cell-a")["ts"]
        queue.heartbeat("cell-a", "w0")
        assert queue.lease_info("cell-a")["ts"] >= before


class TestComplete:
    def test_publish_round_trips_and_drops_lease(self, queue):
        queue.claim("cell-a", "w0")
        queue.publish("cell-a", {"metrics": {"ipc": 1.5}})
        # Publishing leaves the lease to its holder; release drops it.
        assert os.path.exists(queue.lease_path("cell-a"))
        queue.release("cell-a")
        assert queue.read_result("cell-a") == {"metrics": {"ipc": 1.5}}
        assert not os.path.exists(queue.lease_path("cell-a"))
        assert queue.completed_ids() == {"cell-a"}

    def test_republication_is_byte_identical(self, queue):
        payload = {"metrics": {"ipc": 1.5}, "cell": {"seed": 0}}
        queue.publish("cell-a", payload)
        first = open(queue.result_path("cell-a"), "rb").read()
        queue.publish("cell-a", payload)
        assert open(queue.result_path("cell-a"), "rb").read() == first

    def test_torn_result_reads_none(self, queue):
        with open(queue.result_path("cell-a"), "w") as handle:
            handle.write('{"metrics": {')
        assert queue.read_result("cell-a") is None


class TestReclaim:
    def test_dead_pid_reclaimed_immediately(self, queue):
        plant_lease(queue, "cell-a", pid=find_dead_pid(),
                    ts=9_999_999_999.0)  # heartbeat fresh forever
        assert queue.reclaim(["cell-a"], worker="w1") == ["cell-a"]
        assert queue.claim("cell-a", "w1") is True

    def test_live_same_host_pid_kept(self, queue):
        plant_lease(queue, "cell-a", pid=os.getppid(),
                    ts=9_999_999_999.0)
        assert queue.reclaim(["cell-a"]) == []

    def test_live_same_host_pid_kept_past_ttl(self, queue):
        # A cell can run longer than the TTL; a provably-live owner is
        # authoritative and its lease must not be expiry-reclaimed.
        plant_lease(queue, "cell-a", pid=os.getppid(), ts=0.0)
        assert queue.reclaim(["cell-a"]) == []

    def test_dead_same_host_pid_reclaimed_past_ttl(self, queue):
        plant_lease(queue, "cell-a", pid=find_dead_pid(), ts=0.0)
        assert queue.reclaim(["cell-a"]) == ["cell-a"]

    def test_own_pid_never_self_reclaimed(self, queue):
        queue.claim("cell-a", "w0")
        queue.heartbeat("cell-a", "w0")
        assert queue.reclaim(["cell-a"]) == []

    def test_foreign_host_needs_ttl(self, queue):
        import time
        plant_lease(queue, "cell-a", pid=1234, host="elsewhere",
                    ts=time.time())
        assert queue.reclaim(["cell-a"]) == []          # fresh: kept
        plant_lease(queue, "cell-b", pid=1234, host="elsewhere", ts=0.0)
        assert queue.reclaim(["cell-b"]) == ["cell-b"]  # stale: reclaimed

    def test_completed_cell_lease_swept_not_counted(self, queue):
        queue.publish("cell-a", {"metrics": {}})
        plant_lease(queue, "cell-a", pid=find_dead_pid())
        assert queue.reclaim(["cell-a"]) == []
        assert not os.path.exists(queue.lease_path("cell-a"))

    def test_torn_lease_ages_out_by_mtime(self, queue):
        path = queue.lease_path("cell-a")
        with open(path, "w") as handle:
            handle.write("{not json")
        os.utime(path, (0, 0))
        assert queue.reclaim(["cell-a"]) == ["cell-a"]

    def test_default_scan_covers_all_leases(self, queue):
        plant_lease(queue, "cell-a", pid=find_dead_pid())
        plant_lease(queue, "cell-b", pid=find_dead_pid())
        assert set(queue.reclaim()) == {"cell-a", "cell-b"}
