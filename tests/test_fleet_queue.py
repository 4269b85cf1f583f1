"""Lease/result queue: claim arbitration, reclaim, atomic publish.

Leases and result files are keyed by block id; the queue answers
per cell over block files and over per-cell files an earlier version
wrote.
"""

import json
import os

import pytest

from repro.fleet import FleetQueue

#: The run directory perfbench's harness tests read: four cells, one
#: result file each, as the per-cell fleet wrote them.
LEGACY_RUN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "tests", "fixtures", "fleet_run")


@pytest.fixture
def queue(tmp_path):
    q = FleetQueue(str(tmp_path / "run"), lease_ttl=60.0)
    q.ensure_dirs()
    return q


def plant_lease(queue, block_id, pid=None, host=None, ts=None, worker="wX"):
    """Write a lease record as if another worker owned the block."""
    record = {"worker": worker, "pid": pid,
              "host": queue.host if host is None else host,
              "ts": 0.0 if ts is None else ts}
    with open(queue.lease_path(block_id), "w") as handle:
        json.dump(record, handle)


def publish_legacy(queue, cell_id, payload):
    """Write one cell's result file the way the per-cell fleet did."""
    with open(queue.result_path(cell_id), "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def find_dead_pid():
    """A pid that provably does not exist right now."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


class TestClaim:
    def test_claim_wins_exactly_once(self, queue):
        assert queue.claim("blk-a", "w0") is True
        assert queue.claim("blk-a", "w1") is False

    def test_claim_refused_after_result(self, queue):
        queue.claim("blk-a", "w0")
        queue.publish_block("blk-a", {"cell-1": {"metrics": {}}})
        queue.release("blk-a")
        assert queue.claim("blk-a", "w1") is False

    def test_release_reopens_cell(self, queue):
        queue.claim("blk-a", "w0")
        queue.release("blk-a")
        assert queue.claim("blk-a", "w1") is True

    def test_lease_record_identifies_owner(self, queue):
        queue.claim("blk-a", "w0")
        info = queue.lease_info("blk-a")
        assert info["worker"] == "w0"
        assert info["pid"] == os.getpid()
        assert info["host"] == queue.host

    def test_heartbeat_refreshes_timestamp(self, queue):
        queue.claim("blk-a", "w0")
        before = queue.lease_info("blk-a")["ts"]
        queue.heartbeat("blk-a", "w0")
        assert queue.lease_info("blk-a")["ts"] >= before


class TestComplete:
    def test_publish_round_trips_and_drops_lease(self, queue):
        queue.claim("blk-a", "w0")
        queue.publish_block("blk-a", {"cell-1": {"metrics": {"ipc": 1.5}},
                                      "cell-2": {"metrics": {"ipc": 0.5}}})
        # Publishing leaves the lease to its holder; release drops it.
        assert os.path.exists(queue.lease_path("blk-a"))
        queue.release("blk-a")
        assert queue.read_result("cell-1") == {"metrics": {"ipc": 1.5}}
        assert queue.read_result("cell-2") == {"metrics": {"ipc": 0.5}}
        assert not os.path.exists(queue.lease_path("blk-a"))
        assert queue.completed_ids() == {"cell-1", "cell-2"}
        assert os.listdir(queue.results_dir) == ["blk-a.json"]

    def test_block_file_is_one_compact_document(self, queue):
        payloads = {"cell-2": {"metrics": {"ipc": 0.5}},
                    "cell-1": {"metrics": {"ipc": 1.5}}}
        queue.publish_block("blk-a", payloads)
        with open(queue.result_path("blk-a")) as handle:
            text = handle.read()
        assert json.loads(text) == {"schema": 2, "block": "blk-a",
                                    "cells": payloads}
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_published_cells_counted(self, queue, monkeypatch):
        from repro.fleet import queue as queue_module
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        monkeypatch.setattr(queue_module, "REGISTRY", registry)
        queue.publish_block("blk-a", {"cell-1": {}, "cell-2": {},
                                      "cell-3": {}})
        assert registry.counter("fleet.cells_completed").value == 3

    def test_republication_is_byte_identical(self, queue):
        payloads = {"cell-1": {"metrics": {"ipc": 1.5}, "cell": {"seed": 0}}}
        queue.publish_block("blk-a", payloads)
        first = open(queue.result_path("blk-a"), "rb").read()
        queue.publish_block("blk-a", payloads)
        assert open(queue.result_path("blk-a"), "rb").read() == first

    def test_torn_result_reads_none(self, queue):
        with open(queue.result_path("blk-a"), "w") as handle:
            handle.write('{"schema": 2, "block": "blk-a", "cells": {')
        assert queue.read_result("cell-1") is None
        assert queue.completed_ids() == set()
        assert queue.has_result("blk-a") is False  # claimable again

    def test_other_queue_reads_published_blocks(self, queue):
        queue.publish_block("blk-a", {"cell-1": {"metrics": {"ipc": 1.5}}})
        reader = FleetQueue(queue.run_dir)
        assert reader.completed_ids() == {"cell-1"}
        queue.publish_block("blk-b", {"cell-2": {"metrics": {"ipc": 0.5}}})
        # A cell the reader has not indexed yet is looked up afresh.
        assert reader.read_result("cell-2") == {"metrics": {"ipc": 0.5}}
        assert reader.read_result("cell-3") is None

    def test_read_results_reads_each_file_once(self, queue, monkeypatch):
        queue.publish_block("blk-a", {"cell-1": {"n": 1}, "cell-2": {"n": 2}})
        queue.publish_block("blk-b", {"cell-3": {"n": 3}})
        reader = FleetQueue(queue.run_dir)
        reads = []
        original = reader._read
        monkeypatch.setattr(reader, "_read",
                            lambda stem: reads.append(stem) or original(stem))
        assert reader.read_results() == {"cell-1": {"n": 1},
                                         "cell-2": {"n": 2},
                                         "cell-3": {"n": 3}}
        assert sorted(reads) == ["blk-a", "blk-b"]


class TestLegacyResults:
    """Per-cell result files an earlier version wrote stay completed."""

    def test_legacy_cells_mix_with_block_files(self, queue):
        publish_legacy(queue, "cell-1", {"schema": 1, "metrics": {"ipc": 1.0}})
        queue.publish_block("blk-a", {"cell-2": {"metrics": {"ipc": 2.0}}})
        reader = FleetQueue(queue.run_dir)
        assert reader.completed_ids() == {"cell-1", "cell-2"}
        assert reader.read_result("cell-1") == {"schema": 1,
                                                "metrics": {"ipc": 1.0}}
        assert reader.read_result("cell-2") == {"metrics": {"ipc": 2.0}}
        assert reader.read_results() == {
            "cell-1": {"schema": 1, "metrics": {"ipc": 1.0}},
            "cell-2": {"metrics": {"ipc": 2.0}}}

    def test_legacy_run_dir_reads_per_cell(self):
        queue = FleetQueue(LEGACY_RUN)
        names = sorted(os.listdir(queue.results_dir))
        cell_ids = {name[:-5] for name in names}
        assert len(cell_ids) == 4
        assert queue.completed_ids() == cell_ids
        for cell_id in cell_ids:
            payload = queue.read_result(cell_id)
            assert payload["cell"]["cell_id"] == cell_id
            assert payload["metrics"]["cycles"] > 0
        assert set(queue.read_results()) == cell_ids


class TestReclaim:
    def test_dead_pid_reclaimed_immediately(self, queue):
        plant_lease(queue, "blk-a", pid=find_dead_pid(),
                    ts=9_999_999_999.0)  # heartbeat fresh forever
        assert queue.reclaim(["blk-a"], worker="w1") == ["blk-a"]
        assert queue.claim("blk-a", "w1") is True

    def test_live_same_host_pid_kept(self, queue):
        plant_lease(queue, "blk-a", pid=os.getppid(),
                    ts=9_999_999_999.0)
        assert queue.reclaim(["blk-a"]) == []

    def test_live_same_host_pid_kept_past_ttl(self, queue):
        # A cell can run longer than the TTL; a provably-live owner is
        # authoritative and its lease must not be expiry-reclaimed.
        plant_lease(queue, "blk-a", pid=os.getppid(), ts=0.0)
        assert queue.reclaim(["blk-a"]) == []

    def test_dead_same_host_pid_reclaimed_past_ttl(self, queue):
        plant_lease(queue, "blk-a", pid=find_dead_pid(), ts=0.0)
        assert queue.reclaim(["blk-a"]) == ["blk-a"]

    def test_own_pid_never_self_reclaimed(self, queue):
        queue.claim("blk-a", "w0")
        queue.heartbeat("blk-a", "w0")
        assert queue.reclaim(["blk-a"]) == []

    def test_foreign_host_needs_ttl(self, queue):
        import time
        plant_lease(queue, "blk-a", pid=1234, host="elsewhere",
                    ts=time.time())
        assert queue.reclaim(["blk-a"]) == []          # fresh: kept
        plant_lease(queue, "blk-b", pid=1234, host="elsewhere", ts=0.0)
        assert queue.reclaim(["blk-b"]) == ["blk-b"]  # stale: reclaimed

    def test_completed_cell_lease_swept_not_counted(self, queue):
        queue.publish_block("blk-a", {"cell-1": {"metrics": {}}})
        plant_lease(queue, "blk-a", pid=find_dead_pid())
        assert queue.reclaim(["blk-a"]) == []
        assert not os.path.exists(queue.lease_path("blk-a"))

    def test_torn_lease_ages_out_by_mtime(self, queue):
        path = queue.lease_path("blk-a")
        with open(path, "w") as handle:
            handle.write("{not json")
        os.utime(path, (0, 0))
        assert queue.reclaim(["blk-a"]) == ["blk-a"]

    def test_default_scan_covers_all_leases(self, queue):
        plant_lease(queue, "blk-a", pid=find_dead_pid())
        plant_lease(queue, "blk-b", pid=find_dead_pid())
        assert set(queue.reclaim()) == {"blk-a", "blk-b"}
