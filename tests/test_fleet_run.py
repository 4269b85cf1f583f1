"""Fleet orchestration: end-to-end runs, crash/resume byte-identity."""

import json
import os
import threading
import time

import pytest

from repro.fleet import (
    FleetError,
    FleetQueue,
    FleetWorker,
    Recipe,
    collect_matrix,
    fleet_status,
    init_run,
    matrix_bytes,
    run_fleet,
    scheduler,
)


def dead_pid():
    """A pid that provably does not exist right now."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid

PAIR = Recipe(name="pair", kernels=["crc32"], pipeline_cap=20_000,
              axes={"width": [1, 2]})

GRID = Recipe(name="grid", kernels=["crc32", "sha"], pipeline_cap=20_000,
              axes={"width": [1, 2], "predictor": ["gap", "nottaken"]})


@pytest.fixture
def two_cell_blocks(monkeypatch):
    """Cut GRID's 4-cell trace groups into two 2-cell blocks each
    (forked workers inherit the patched size)."""
    monkeypatch.setattr(scheduler, "BLOCK_INSTRUCTIONS",
                        2 * GRID.pipeline_cap)


def journal_events(run_dir):
    events = []
    for name in os.listdir(run_dir):
        if name.startswith("journal-") and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as handle:
                events.extend(json.loads(line) for line in handle
                              if line.strip())
    return events


def result_snapshot(run_dir):
    """(bytes, mtime_ns) of every published result file."""
    results_dir = os.path.join(run_dir, "results")
    snapshot = {}
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        with open(path, "rb") as handle:
            snapshot[name] = (handle.read(), os.stat(path).st_mtime_ns)
    return snapshot


class TestRun:
    def test_single_worker_completes_and_exports(self, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, PAIR)
        assert summary["complete"] is True
        assert summary["cells"] == summary["completed"] == 2
        assert summary["executed"] == 2 and summary["skipped"] == 0
        assert os.path.exists(os.path.join(run_dir, "matrix.json"))
        matrix = collect_matrix(run_dir)
        assert [row["config"] for row in matrix["cells"]] == \
            ["width=1", "width=2"]
        for row in matrix["cells"]:
            metrics = row["metrics"]
            assert metrics["instructions"] > 0
            assert metrics["cycles"] > 0
            assert metrics["power"] > 0

    def test_resume_skips_completed_byte_for_byte(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        before = result_snapshot(run_dir)
        matrix_before = open(os.path.join(run_dir, "matrix.json"),
                             "rb").read()
        summary = run_fleet(run_dir)  # recipe=None: the resume path
        assert summary["executed"] == 0
        assert summary["skipped"] == 2
        assert result_snapshot(run_dir) == before  # bytes AND mtimes
        assert open(os.path.join(run_dir, "matrix.json"),
                    "rb").read() == matrix_before

    def test_two_workers_match_one_worker_bytes(self, tmp_path):
        solo = str(tmp_path / "solo")
        duo = str(tmp_path / "duo")
        run_fleet(solo, GRID, workers=1)
        summary = run_fleet(duo, GRID, workers=2)
        assert summary["complete"] is True
        assert matrix_bytes(duo) == matrix_bytes(solo)

    def test_run_dir_bound_to_one_recipe(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="refusing"):
            init_run(run_dir, GRID)

    def test_incomplete_matrix_refuses_collection(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="incomplete"):
            collect_matrix(run_dir)

    def test_journal_lands_in_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        kinds = {event.get("event") for event in events
                 if event.get("kind") == "fleet"}
        assert {"run_begin", "claim", "complete", "run_end"} <= kinds
        assert any(event.get("kind") == "progress"
                   and event.get("unit") == "cells" for event in events)


class TestStatus:
    def test_fresh_dir_status(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["cells"] == 2 and status["completed"] == 0
        assert status["pending"] == 2 and not status["complete"]
        assert status["matrix"] is False

    def test_complete_status_carries_worker_summaries(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["complete"] is True and status["matrix"] is True
        assert status["leased"] == 0
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 2

    def test_held_block_lease_counts_its_pending_cells(
            self, tmp_path, two_cell_blocks):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        worker = FleetWorker(run_dir, 0, 1)
        block = worker.blocks[1]
        assert len(worker.blocks) == 4 and len(block) == 2
        # One of the block's cells is already published, the other is
        # still running under the block's lease.
        worker.queue.publish(block.cells[0].cell_id, {"metrics": {}})
        assert worker.queue.claim(block.block_id, worker.worker_id)
        status = fleet_status(run_dir)
        assert status["cells"] == 8
        assert status["completed"] == 1
        assert status["leased"] == 1
        assert status["pending"] == 7
        worker.queue.release(block.block_id)
        assert fleet_status(run_dir)["leased"] == 0

    def test_not_a_run_dir(self, tmp_path):
        with pytest.raises(FleetError, match="not a fleet run"):
            fleet_status(str(tmp_path / "nope"))


class TestCrashResume:
    """The acceptance scenario: SIGKILL a worker mid-block, resume, and
    get a byte-identical matrix with completed cells skipped."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        crashed = run_fleet(run_dir, GRID, workers=1, chaos="0:2")
        assert crashed["complete"] is False
        assert crashed["dead_workers"] == 1
        assert crashed["completed"] == 2  # chaos fired after 2 cells
        # The stranded block lease was reclaimed by the orchestrator.
        queue = FleetQueue(run_dir)
        assert queue.leased_ids() - queue.completed_ids() == set()

        survivors = result_snapshot(run_dir)
        resumed = run_fleet(run_dir)
        assert resumed["complete"] is True
        assert resumed["skipped"] == 2
        assert resumed["executed"] == 6
        # Surviving results were never rewritten (bytes and mtimes)...
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        # ...no duplicates appeared...
        assert len(after) == 8
        # ...and the final matrix is byte-identical to the
        # never-interrupted reference run.
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_sibling_reclaims_dead_workers_cell_live(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        # Worker 0 dies mid-block after 1 cell; worker 1 must pick up the
        # stranded lease (dead-pid fast path) and finish the whole
        # matrix in this single invocation.
        summary = run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        assert summary["dead_workers"] == 1
        assert summary["complete"] is True
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_reclaim_event_journaled(self, tmp_path):
        run_dir = str(tmp_path / "chaotic")
        run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        reclaims = [event for event in events
                    if event.get("kind") == "fleet"
                    and event.get("event") == "reclaim"]
        assert reclaims
        assert any(event.get("reason") == "dead_pid"
                   for event in reclaims)

    def test_dead_thief_own_shard_lease_recovered(self, tmp_path):
        """Regression: a dead thief's lease on an own-shard block must
        be re-run by the shard owner, not livelock the poll loop
        (thieves never steal from their own shard, so after the reclaim
        the owner can be the only worker able to claim it)."""
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1)
        target = worker.shards[0][0]
        record = {"worker": "thief", "pid": dead_pid(),
                  "host": worker.queue.host, "ts": 9_999_999_999.0}
        with open(worker.queue.lease_path(target.block_id), "w") as fh:
            json.dump(record, fh)
        done = {}
        thread = threading.Thread(
            target=lambda: done.setdefault("summary", worker.run()),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert "summary" in done, "worker livelocked on own-shard cell"
        assert done["summary"]["executed"] == 2
        assert FleetQueue(run_dir).completed_ids() == \
            {cell.cell_id for cell in worker.cells}


class TestHeartbeat:
    def test_lease_refreshed_while_cell_runs(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1, lease_ttl=0.2)
        block = worker.shards[0][0]
        assert worker.queue.claim(block.block_id, worker.worker_id)
        before = worker.queue.lease_info(block.block_id)["ts"]
        with worker._heartbeat, worker._heartbeat.holding(block.block_id):
            time.sleep(0.5)
        assert worker.queue.lease_info(block.block_id)["ts"] > before
        worker.queue.release(block.block_id)

    def test_released_lease_is_never_beaten_back(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1, lease_ttl=0.01)
        block = worker.shards[0][0]
        with worker._heartbeat:
            assert worker.queue.claim(block.block_id, worker.worker_id)
            with worker._heartbeat.holding(block.block_id):
                time.sleep(0.2)
            worker.queue.release(block.block_id)
            time.sleep(0.2)
        assert worker.queue.leased_ids() == set()

    def test_slow_cells_never_expiry_stolen_from_live_workers(
            self, tmp_path):
        """With a TTL far below cell runtime, live same-host leases must
        survive (no 'expired' reclaims, no duplicated execution)."""
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID, workers=2, lease_ttl=0.01)
        assert summary["complete"] is True
        status = fleet_status(run_dir)
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 8
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        assert not any(event.get("event") == "reclaim"
                       and event.get("reason") == "expired"
                       for event in events
                       if event.get("kind") == "fleet")


class TestBlocks:
    """Claims are per block of same-trace cells; results stay per cell."""

    def test_blocks_independent_of_worker_count(self, tmp_path,
                                                two_cell_blocks):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        reference = FleetWorker(run_dir, 0, 1).blocks
        assert len(reference) == 4
        for n_workers in (1, 2, 3):
            for index in range(n_workers):
                worker = FleetWorker(run_dir, index, n_workers)
                assert worker.blocks == reference
                flat = [block for shard in worker.shards for block in shard]
                assert sorted(block.block_id for block in flat) == \
                    sorted(block.block_id for block in reference)
        for block in reference:
            assert len({cell.trace_key for cell in block.cells}) == 1
        cells = [cell.cell_id for block in reference for cell in block.cells]
        assert sorted(cells) == sorted(cell.cell_id for cell in GRID.expand())

    def test_block_with_published_tail_runs_its_head(self, tmp_path):
        # However a block's tail got published, its missing head cells
        # are still claimed and run, and the tail is left as it was.
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1)
        [block] = worker.blocks
        head, tail = block.cells
        worker.queue.publish(tail.cell_id, {"metrics": {}})
        before = result_snapshot(run_dir)
        done = {}
        thread = threading.Thread(
            target=lambda: done.setdefault("summary", worker.run()),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert "summary" in done, "worker livelocked on a partial block"
        assert done["summary"]["executed"] == 1
        after = result_snapshot(run_dir)
        assert after[f"{tail.cell_id}.json"] == \
            before[f"{tail.cell_id}.json"]
        assert f"{head.cell_id}.json" in after

    def test_one_claim_per_block(self, tmp_path, two_cell_blocks):
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID)
        assert summary["complete"] is True
        claims = [event for event in journal_events(run_dir)
                  if event.get("kind") == "fleet"
                  and event.get("event") in ("claim", "steal")]
        assert len(claims) == 4
        progress = [event for event in journal_events(run_dir)
                    if event.get("kind") == "progress"
                    and event.get("unit") == "cells"
                    and event.get("label", "").endswith(".b2")]
        assert [event["done"] for event in progress] == [2, 4, 6, 8]

    def test_more_workers_than_cores_run_each_cell_once(
            self, tmp_path, two_cell_blocks):
        solo = str(tmp_path / "solo")
        crowd = str(tmp_path / "crowd")
        run_fleet(solo, GRID, workers=1)
        workers = (os.cpu_count() or 1) + 2
        summary = run_fleet(crowd, GRID, workers=workers)
        assert summary["complete"] is True
        assert summary["dead_workers"] == 0
        status = fleet_status(crowd)
        assert len(status["workers"]) == workers
        assert sum(worker["executed"] for worker in status["workers"]) == 8
        assert matrix_bytes(crowd) == matrix_bytes(solo)

    def test_mid_block_kill_then_resume_is_byte_identical(
            self, tmp_path, two_cell_blocks):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID, workers=1)

        run_dir = str(tmp_path / "chaotic")
        # Three cells done: the kill lands inside the second block,
        # after its first cell was published.
        crashed = run_fleet(run_dir, GRID, workers=1, chaos="0:3")
        assert crashed["complete"] is False
        assert crashed["completed"] == 3
        queue = FleetQueue(run_dir)
        assert queue.leased_ids() == set()  # reclaimed as a whole

        survivors = result_snapshot(run_dir)
        resumed = run_fleet(run_dir, workers=2)
        assert resumed["complete"] is True
        assert resumed["skipped"] == 3 and resumed["executed"] == 5
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        assert len(after) == 8
        with open(os.path.join(run_dir, "matrix.json"), "rb") as handle:
            resumed_bytes = handle.read()
        with open(os.path.join(reference, "matrix.json"), "rb") as handle:
            assert resumed_bytes == handle.read()
